"""First steps: build states, compute the entanglement distance E, inspect
the entanglement metric and its spectrum.

E is the infimum over per-qubit rotation axes of the trace of the adapted
Fubini-Study metric.  It vanishes exactly on product states and reaches M/4
on maximally entangled ones; the metric's off-diagonal entries expose which
qubit pairs carry the correlations.
"""
import numpy as np

from entdist import (
    brs_state,
    entanglement_measure,
    entanglement_metric,
    ghzl_state,
    make_basis_state,
    spectrum,
    three_qubit_state,
    w_vectors,
)
from entdist.metric import DEGENERATE_TOL
from entdist.qstate import bloch_vectors

np.set_printoptions(precision=4, suppress=True)

# A computational basis state is a full product: E = 0 and the metric vanishes.
product = make_basis_state(3, 5)
print("|101>            E =", entanglement_measure(product))

# The balanced GHZ-like state is maximally entangled: E = M/4.
ghz = ghzl_state(3, np.pi / 4)
em = entanglement_metric(ghz)
print("GHZ (M=3)        E =", em.measure, " E/M =", em.measure / 3)
print("metric (all-ones form, every pair maximally correlated):")
print(em.matrix)
# A vanishing Bloch vector makes every axis minimizing; the z axis is returned.
bloch = bloch_vectors(*w_vectors(ghz))
print("minimizing axes are degenerate here (any axis attains the infimum):",
      (np.linalg.norm(bloch, axis=1) < DEGENERATE_TOL).tolist())

# Same E, very different metric: the chain-phase state at its maximum.
chain = brs_state(3, np.pi)
em2 = entanglement_metric(chain)
print("\nchain-phase (M=3, angle pi)   E =", em2.measure)
print("metric (diagonal form):")
print(em2.matrix)

# The spectra tell the robustness story: one large eigenvalue vs many.
print("\nGHZ spectrum:        ", spectrum(em))
print("chain-phase spectrum:", spectrum(em2))
print("A rank-1 metric leaves M-1 flat directions; the full-rank one keeps a",
      "nonzero minimum distance along every axis combination.")

# A genuinely tripartite two-parameter state sits strictly between.
mixed = three_qubit_state(0.5, 1.1)
print("\nthree-qubit family (0.5, 1.1)   E =", entanglement_measure(mixed),
      " E/M =", entanglement_measure(mixed) / 3)
