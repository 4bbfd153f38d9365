"""The figure data in tests/reference is a regression reference.

Each CSV is one that demos 02 and 04 write to demos/output, from
run_sweep/run_surface.  ``tests/test_smoke.py`` runs the demos in a copy
of demos/ and holds what they write to the references with
``demo_output_faults``: value by value at 1e-15 relative, since byte
equality is too strict (a different host can move the last digit of a
few eigenvalues: rows 85 of chain_phase_m7 and chain_phase_m9 differ by
up to 4.2e-16 relative), demo 03's chain_phase_m7_eigs.csv byte for
byte against the x and eigenvalue columns of chain_phase_m7.csv, since
both come from the same sweep, and demo 03's ghz_like_m7_eigs.csv against
the GHZ-like closed form (``ghz_eigs_fault``).
"""
from __future__ import annotations

import math
import shutil
from pathlib import Path

import numpy as np

from entdist import FamilySpec
from entdist.cli import SweepSpec, _csv_text, run_sweep
from entdist.metric import eig_tol

from oracles import closed_form_share

REFERENCE = Path(__file__).resolve().parent / "reference"
RTOL = 1e-15

SWEEPS = ("chain_phase_m3", "chain_phase_m4", "chain_phase_m7", "chain_phase_m9", "ghz_like_m3")
SURFACE = "three_qubit_surface"
# demo 03's eigenvalue file holds the x and eig_* columns of this demo 02 sweep
EIGS, EIGS_SWEEP = "chain_phase_m7_eigs", "chain_phase_m7"
# demo 03's GHZ-like eigenvalue file: x = theta / (pi/2), and the eigenvalues at M qubits
GHZ_EIGS, GHZ_M = "ghz_like_m7_eigs", 7


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
        return f"{name} row {row + 1} {header[col]}: {float(got[row, col])!r} != {float(ref[row, col])!r}"
    return None


def ghz_eigs_fault(directory: Path) -> str | None:
    """The first eigenvalue of ``GHZ_EIGS`` that is off the GHZ-like closed form by more than its bound.

    The GHZ-like state is rank one at the z field: with theta = x pi/2,
    eig_1 = (M/4) sin^2(2 theta) and eig_2 ... eig_M = 0.  Each computed
    eigenvalue is within ``eig_tol(M)`` of the exact one, and the closed
    form within ``closed_form_share(M)``: 9.0e-14 at M = 7.
    """
    header, rows = _read_csv(directory / f"{GHZ_EIGS}.csv")
    names = ["x", *(f"eig_{i}" for i in range(1, GHZ_M + 1))]
    if header != names:
        return f"{GHZ_EIGS}: header {header} != {names}"
    expected = np.zeros((len(rows), GHZ_M))
    expected[:, 0] = GHZ_M / 4 * np.sin(2 * rows[:, 0] * math.pi / 2) ** 2
    gap = np.abs(rows[:, 1:] - expected)
    bound = eig_tol(GHZ_M) + closed_form_share(GHZ_M)
    if not np.all(gap <= bound):
        row, col = np.argwhere(~(gap <= bound))[0]
        return f"{GHZ_EIGS} row {row + 1} {header[col + 1]}: {float(gap[row, col]):.3e} off the closed form, above {bound:.3e}"
    return None


def demo_output_faults(directory: Path) -> list[str]:
    """Every fault of the demos' CSVs in ``directory``, as one message each."""
    faults = []
    for name in [*SWEEPS, SURFACE]:
        fault = reference_mismatch(name, *_read_csv(directory / f"{name}.csv"))
        if fault is not None:
            faults.append(fault)
    lines = (directory / f"{EIGS_SWEEP}.csv").read_text(encoding="utf-8").splitlines()
    expected = "".join(",".join(f[:1] + f[3:]) + "\n" for f in (line.split(",") for line in lines))
    if (directory / f"{EIGS}.csv").read_text(encoding="utf-8") != expected:
        faults.append(f"{EIGS}: not the x and eig_* columns of {EIGS_SWEEP}.csv")
    fault = ghz_eigs_fault(directory)
    if fault is not None:
        faults.append(fault)
    return faults


def test_demo_output_check_passes_the_demos_files_and_names_each_fault(tmp_path):
    """The check on files as the demos write them, silent, then one message per planted fault.

    The files are copies of the references, the eigenvalue file cut from
    chain_phase_m7.csv as demo 03 cuts it from the sweep's rows, and the
    GHZ-like eigenvalue file from the sweep demo 03 runs.  The planted
    faults are one value 4e-15 relative off its reference, the eigenvalue
    file built with element-wise addition, as ``row[:1] + row[3:]`` builds
    it from an array row, and one GHZ-like eigenvalue 1e-12 off.
    """
    for path in REFERENCE.glob("*.csv"):
        shutil.copy(path, tmp_path)
    header, rows = _read_csv(tmp_path / f"{EIGS_SWEEP}.csv")
    columns = [0, *range(3, len(header))]
    (tmp_path / f"{EIGS}.csv").write_text(_csv_text([header[i] for i in columns], rows[:, columns]))
    ghz_header, ghz_rows = run_sweep(SweepSpec(FamilySpec("ghzl", m=GHZ_M), "theta", 0.0, math.pi / 2.0, 201))
    ghz_header, ghz_rows = [ghz_header[i] for i in columns], ghz_rows[:, columns]
    (tmp_path / f"{GHZ_EIGS}.csv").write_text(_csv_text(ghz_header, ghz_rows))
    assert demo_output_faults(tmp_path) == []
    ghz_rows[70, 4] += 1e-12
    (tmp_path / f"{GHZ_EIGS}.csv").write_text(_csv_text(ghz_header, ghz_rows))
    (tmp_path / f"{EIGS}.csv").write_text(_csv_text(header[:1] + header[3:], [row[:1] + row[3:] for row in rows]))
    header, rows = _read_csv(tmp_path / "chain_phase_m4.csv")
    rows[100, 1] *= 1.0 + 4e-15
    (tmp_path / "chain_phase_m4.csv").write_text(_csv_text(header, rows))
    faults = demo_output_faults(tmp_path)
    assert len(faults) == 3
    assert faults[0].startswith("chain_phase_m4 row 101 E: ")
    assert faults[1] == "chain_phase_m7_eigs: not the x and eig_* columns of chain_phase_m7.csv"
    assert faults[2].startswith("ghz_like_m7_eigs row 71 eig_4: 1.000e-12 off the closed form, above 8.957e-14")
