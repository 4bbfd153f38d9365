"""The figure data in tests/reference is a regression reference.

Each CSV is one that demos 02 and 04 write to demos/output, from
run_sweep/run_surface; it is recomputed and compared value by value at
1e-15 relative.  Byte equality is too strict: a different host can move
the last digit of a few eigenvalues (rows 85 of chain_phase_m7 and
chain_phase_m9 differ by up to 4.2e-16 relative).

Run as a script on a directory of demo output, after the demos:

    PYTHONPATH=src python tests/test_reference_csv.py demos/output

it holds the demos' sweep and surface CSVs to the references under the
same rule, and demo 03's chain_phase_m7_eigs.csv to the x and eigenvalue
columns of chain_phase_m7.csv, byte for byte, since both come from the
same sweep; it prints each fault and exits 1 if there is any.
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from entdist import FamilySpec
from entdist.cli import SweepSpec, _csv_text, run_sweep, run_surface

REFERENCE = Path(__file__).resolve().parent / "reference"
RTOL = 1e-15

SWEEPS = {
    "chain_phase_m3": (FamilySpec("brs", m=3), "phi", 2.0 * np.pi),
    "chain_phase_m4": (FamilySpec("brs", m=4), "phi", 2.0 * np.pi),
    "chain_phase_m7": (FamilySpec("brs", m=7), "phi", 2.0 * np.pi),
    "chain_phase_m9": (FamilySpec("brs", m=9), "phi", 2.0 * np.pi),
    "ghz_like_m3": (FamilySpec("ghzl", m=3), "theta", np.pi / 2.0),
}
SURFACE = "three_qubit_surface"
# demo 03's eigenvalue file holds the x and eig_* columns of this demo 02 sweep
EIGS, EIGS_SWEEP = "chain_phase_m7_eigs", "chain_phase_m7"


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


def reference_mismatch(name: str, header: list[str], rows) -> str | None:
    """The first value of ``rows`` that is off the committed CSV ``name`` by more than RTOL relative."""
    ref_header, ref = _read_csv(REFERENCE / f"{name}.csv")
    if header != ref_header:
        return f"{name}: header {header} != {ref_header}"
    got = np.asarray(rows)
    if got.shape != ref.shape:
        return f"{name}: shape {got.shape} != {ref.shape}"
    bad = np.abs(got - ref) > RTOL * np.maximum(np.abs(got), np.abs(ref))
    if np.any(bad):
        row, col = np.argwhere(bad)[0]
        return f"{name} row {row + 1} {header[col]}: {got[row, col]!r} != {ref[row, col]!r}"
    return None


def demo_output_faults(directory: Path) -> list[str]:
    """Every fault of the demos' CSVs in ``directory``, as one message each."""
    faults = []
    for name in [*sorted(SWEEPS), SURFACE]:
        fault = reference_mismatch(name, *_read_csv(directory / f"{name}.csv"))
        if fault is not None:
            faults.append(fault)
    lines = (directory / f"{EIGS_SWEEP}.csv").read_text(encoding="utf-8").splitlines()
    expected = "".join(",".join(f[:1] + f[3:]) + "\n" for f in (line.split(",") for line in lines))
    if (directory / f"{EIGS}.csv").read_text(encoding="utf-8") != expected:
        faults.append(f"{EIGS}: not the x and eig_* columns of {EIGS_SWEEP}.csv")
    return faults


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_matches_committed_csv(name):
    family, parameter, stop = SWEEPS[name]
    fault = reference_mismatch(name, *run_sweep(SweepSpec(family, parameter, 0.0, stop, 201)))
    assert fault is None, fault


def test_surface_matches_committed_csv():
    fault = reference_mismatch(SURFACE, *run_surface((0.0, np.pi), (0.0, np.pi), 101))
    assert fault is None, fault


def _write_demo_output(directory: Path) -> None:
    """The eight CSVs of demos 02-04, as those demos write them."""
    for name, (family, parameter, stop) in SWEEPS.items():
        header, rows = run_sweep(SweepSpec(family, parameter, 0.0, stop, 201))
        (directory / f"{name}.csv").write_text(_csv_text(header, rows))
        if name == EIGS_SWEEP:
            columns = [0, *range(3, 3 + family.m)]
            text = _csv_text([header[i] for i in columns], rows[:, columns])
            (directory / f"{EIGS}.csv").write_text(text)
    (directory / f"{SURFACE}.csv").write_text(_csv_text(*run_surface((0.0, np.pi), (0.0, np.pi), 101)))


def test_demo_output_check_passes_the_demos_files_and_names_each_fault(tmp_path):
    """The check run on demos/output after the demos: silent on their files, one message per fault.

    The planted faults are one value 4e-15 relative off its reference,
    and the eigenvalue file built with element-wise addition, as
    ``row[:1] + row[3:]`` builds it from an array row.
    """
    _write_demo_output(tmp_path)
    assert demo_output_faults(tmp_path) == []
    header, rows = _read_csv(tmp_path / "chain_phase_m4.csv")
    rows[100, 1] *= 1.0 + 4e-15
    (tmp_path / "chain_phase_m4.csv").write_text(_csv_text(header, rows))
    header, rows = _read_csv(tmp_path / "chain_phase_m7.csv")
    (tmp_path / "chain_phase_m7_eigs.csv").write_text(
        _csv_text(header[:1] + header[3:], [row[:1] + row[3:] for row in rows])
    )
    faults = demo_output_faults(tmp_path)
    assert len(faults) == 2
    assert faults[0].startswith("chain_phase_m4 row 101 E: ")
    assert faults[1] == "chain_phase_m7_eigs: not the x and eig_* columns of chain_phase_m7.csv"


if __name__ == "__main__":
    found = demo_output_faults(Path(sys.argv[1]))
    for fault in found:
        print(fault, file=sys.stderr)
    sys.exit(1 if found else 0)
