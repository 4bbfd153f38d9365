"""Cross-validation of the analytic minimizer against independent numerics.

Three checks per state:
  * local-unitary invariance: dressing every qubit with Haar-random
    rotations must not move E;
  * a descent over the product of unit spheres, one start per qubit, must
    land on the analytic infimum (and can never go below it);
  * the per-qubit bilinears must reproduce the Bloch vector obtained from
    an explicit partial trace.

Equivalent CLI call:
    entdist verify --family brs --m 5 --phi 2.1 --trials 100 --seed 1
"""
import numpy as np

from entdist import (
    StateVector,
    brs_state,
    ghzl_state,
    three_qubit_state,
)
from entdist.verify import verify_state

rng = np.random.default_rng(12345)
z = rng.normal(size=16) + 1j * rng.normal(size=16)
cases = [
    ("GHZ-like M=4", ghzl_state(4, np.pi / 4)),
    ("chain-phase M=5", brs_state(5, 2.1)),
    ("three-qubit", three_qubit_state(0.8, 0.3)),
    ("Haar-random M=4", StateVector(4, z / np.linalg.norm(z))),
]

print(f"{'state':<18} {'E':>10} {'invariance':>12} {'optimizer gap':>14} {'Bloch gap':>11}")
for name, state in cases:
    r = verify_state(state, trials=100, seed=1)
    e, deviation = r["analytic_measure"], r["invariance_max_deviation"]
    gap = r["optimizer_value"] - e
    print(f"{name:<18} {e:>10.6f} {deviation:>12.2e} {gap:>14.2e} {r['bloch_gap']:>11.2e}")

print("\nThe descent value never undershoots E: the analytic per-qubit")
print("maximization really is the infimum over direction fields.")
