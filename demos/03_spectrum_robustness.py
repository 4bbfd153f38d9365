"""Eigenvalue analysis: how robust is the entanglement of each family?

For M = 7, the chain-phase metric keeps all seven eigenvalues away from
zero at every interior angle, so a variation along a randomly chosen axis
combination never collapses the distance.  The GHZ-like metric is rank one:
a single large eigenvalue and M-1 flat directions.
"""
from pathlib import Path

import numpy as np

from entdist import FamilySpec
from entdist.cli import SweepSpec, _csv_text, run_sweep

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)
M = 7


def eigenvalue_sweep(tag, parameter, stop, name):
    """Sweep one angle of the M-qubit family from 0 to ``stop`` in 201 points.

    Writes the x and eig_1..eig_M columns to ``name`` and returns them, an
    array of 201 rows.
    """
    header, rows = run_sweep(SweepSpec(FamilySpec(tag, m=M), parameter, 0.0, stop, 201))
    columns = [0, *range(3, 3 + M)]  # x, then the eigenvalues; E and E/M dropped
    rows = rows[:, columns]
    (OUT / name).write_text(_csv_text([header[i] for i in columns], rows))
    return rows


# chain-phase eigenvalues over the full angle range
rows = eigenvalue_sweep("brs", "phi", 2.0 * np.pi, "chain_phase_m7_eigs.csv")
interior = rows[(rows[:, 0] > 0.0) & (rows[:, 0] < 1.0)]
smallest = interior[:, 1:].min()
print(f"chain-phase M={M}: smallest interior eigenvalue = {smallest:.3e} (> 0)")

# GHZ-like: only the top eigenvalue is nonzero
rows = eigenvalue_sweep("ghzl", "theta", np.pi / 2.0, "ghz_like_m7_eigs.csv")
mid = rows[100]  # theta = pi/4
print(f"GHZ-like M={M} at the maximum: top eigenvalue = {mid[1]:.4f} (= M/4),"
      f" second = {mid[2]:.1e}")
print("The GHZ-like top eigenvalue exceeds every chain-phase eigenvalue, but")
print("its metric has M-1 null directions: strong yet fragile entanglement.")
print("Wrote", OUT / "chain_phase_m7_eigs.csv")
print("Wrote", OUT / "ghz_like_m7_eigs.csv")
