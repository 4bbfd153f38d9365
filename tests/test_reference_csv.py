"""The figure data in tests/reference is a regression reference.

Each CSV is one that demos 02 and 04 write to demos/output, from
run_sweep/run_surface; it is recomputed and compared value by value at
1e-15 relative.  Byte equality is too strict: a different host can move
the last digit of a few eigenvalues (rows 85 of chain_phase_m7 and
chain_phase_m9 differ by up to 4.2e-16 relative).
"""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from entdist import FamilySpec
from entdist.cli import SweepSpec, run_sweep, run_surface

REFERENCE = Path(__file__).resolve().parent / "reference"
RTOL = 1e-15

SWEEPS = {
    "chain_phase_m3": (FamilySpec("brs", m=3), "phi", 2.0 * np.pi),
    "chain_phase_m4": (FamilySpec("brs", m=4), "phi", 2.0 * np.pi),
    "chain_phase_m7": (FamilySpec("brs", m=7), "phi", 2.0 * np.pi),
    "chain_phase_m9": (FamilySpec("brs", m=9), "phi", 2.0 * np.pi),
    "ghz_like_m3": (FamilySpec("ghzl", m=3), "theta", np.pi / 2.0),
}


def _assert_matches_reference(name: str, header: list[str], rows: list[list[float]]) -> None:
    lines = (REFERENCE / f"{name}.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].split(",") == header
    ref = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    got = np.array(rows)
    assert got.shape == ref.shape
    bad = np.abs(got - ref) > RTOL * np.maximum(np.abs(got), np.abs(ref))
    if np.any(bad):
        row, col = np.argwhere(bad)[0]
        pytest.fail(f"{name} row {row + 1} {header[col]}: {got[row, col]!r} != {ref[row, col]!r}")


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_matches_committed_csv(name):
    family, parameter, stop = SWEEPS[name]
    header, rows = run_sweep(SweepSpec(family, parameter, 0.0, stop, 201))
    _assert_matches_reference(name, header, rows)


def test_surface_matches_committed_csv():
    header, rows = run_surface((0.0, np.pi), (0.0, np.pi), 101)
    _assert_matches_reference("three_qubit_surface", header, rows)
