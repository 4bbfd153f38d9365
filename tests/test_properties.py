"""Property tests on random states of up to 8 qubits (hypothesis, derandomized)."""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entdist import StateVector, apply_local_unitary, entanglement_metric
from entdist.metric import trace_tol
from entdist.qstate import _haar_unitary

from oracles import permute_qubits, random_product_state, random_state

PROPERTY = settings(derandomize=True, deadline=None)


def _state(m: int, kind: str, seed: int) -> StateVector:
    """Haar-random, product, or Haar-random on a support of at most four basis states."""
    rng = np.random.default_rng(seed)
    if kind == "product":
        return StateVector(m, random_product_state(m, rng))
    amps = random_state(m, rng)
    if kind == "sparse":
        keep = rng.choice(1 << m, size=min(4, 1 << m), replace=False)[: rng.integers(1, 5)]
        sparse = np.zeros_like(amps)
        sparse[keep] = amps[keep]
        amps = sparse / np.linalg.norm(sparse)
    return StateVector(m, amps)


states = st.builds(
    _state,
    m=st.integers(1, 8),
    kind=st.sampled_from(["haar", "product", "sparse"]),
    seed=st.integers(0, 2**32 - 1),
)


@PROPERTY
@given(state=states)
def test_measure_range_trace_and_spectrum(state):
    m = state.num_qubits
    em = entanglement_metric(state)
    assert 0.0 <= em.measure <= m / 4.0
    np.testing.assert_allclose(np.trace(em.matrix), em.measure, rtol=0, atol=trace_tol(m), equal_nan=False)
    np.testing.assert_array_equal(em.eigenvalues, np.linalg.eigvalsh(em.matrix)[::-1])
    assert not em.eigenvalues.flags.writeable
    assert em.eigenvalues[-1] >= -1e-10


@PROPERTY
@given(state=states, seed=st.integers(0, 2**32 - 1))
def test_measure_invariant_under_local_unitaries(state, seed):
    rng = np.random.default_rng(seed)
    dressed = apply_local_unitary(state, [_haar_unitary(rng) for _ in range(state.num_qubits)])
    base = entanglement_metric(state)
    assert abs(entanglement_metric(dressed).measure - base.measure) < 1e-12


@PROPERTY
@given(data=st.data(), state=states)
def test_permutation_covariance(data, state):
    """Relabeling qubits permutes the metric and leaves E and the spectrum alone."""
    m = state.num_qubits
    perm = data.draw(st.permutations(range(m)))
    em = entanglement_metric(state)
    ep = entanglement_metric(StateVector(m, permute_qubits(state.amplitudes, m, perm)))
    assert abs(ep.measure - em.measure) < 1e-12
    np.testing.assert_allclose(ep.matrix[np.ix_(perm, perm)], em.matrix, rtol=0, atol=1e-12, equal_nan=False)
    np.testing.assert_allclose(ep.eigenvalues, em.eigenvalues, rtol=0, atol=1e-12, equal_nan=False)
