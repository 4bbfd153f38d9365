"""Normalized measure curves for the two one-parameter families.

Writes CSV files with the same abscissa conventions as the library's CLI
(`x = phi/(2 pi)` for the chain-phase family, `x = 2 theta/pi` for the
GHZ-like family), so the curves can be overlaid directly.

Equivalent CLI calls:
    entdist sweep --family brs  --m 7 --parameter phi   --start 0 --stop 6.283185307179586 --points 201 --out brs_m7.csv
    entdist sweep --family ghzl --m 3 --parameter theta --start 0 --stop 1.5707963267948966 --points 201 --out ghzl_m3.csv
"""
from pathlib import Path

import numpy as np

from entdist import FamilySpec
from entdist.cli import SweepSpec, run_sweep, _csv_text

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

# Chain-phase curves for several register sizes: E/M rises from 0 at the
# separable point to the ceiling 1/4 at angle pi, symmetrically back to 0.
for m in (3, 4, 7, 9):
    spec = SweepSpec(
        family=FamilySpec("brs", m=m),
        parameter="phi",
        start=0.0,
        stop=2.0 * np.pi,
        points=201,
    )
    header, rows = run_sweep(spec)
    path = OUT / f"chain_phase_m{m}.csv"
    path.write_text(_csv_text(header, rows))
    peak = rows[:, 2].max()
    print(f"chain-phase M={m}: wrote {path.name}, peak E/M = {peak:.6f}")

# GHZ-like curve: E/M = sin^2(2 theta) / 4, peaking at 2 theta/pi = 0.5.
spec = SweepSpec(
    family=FamilySpec("ghzl", m=3),
    parameter="theta",
    start=0.0,
    stop=np.pi / 2.0,
    points=201,
)
header, rows = run_sweep(spec)
path = OUT / "ghz_like_m3.csv"
path.write_text(_csv_text(header, rows))
print(f"GHZ-like M=3: wrote {path.name}, peak E/M = {rows[:, 2].max():.6f}")

print("\nColumns:", ",".join(header))
print("Both families reach the same ceiling E/M = 1/4 at their maxima.")
