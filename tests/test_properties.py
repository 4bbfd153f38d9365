"""Property tests on random states of up to 8 qubits, over a fixed seeded sample."""
from __future__ import annotations

import numpy as np
import pytest

from entdist import StateVector, apply_local_unitary, entanglement_metric
from entdist.metric import trace_tol
from entdist.qstate import _haar_unitary

from oracles import permute_qubits, random_product_state, random_state

KINDS = ["haar", "product", "sparse"]


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


def _cases() -> list[tuple]:
    """(m, kind, seed, field seed, permutation): every M = 1-8 and kind at the seeds 0 and
    2^32 - 1 and at three drawn ones, 120 cases.  Each case draws a seed for a Haar field
    and a permutation of the qubits; at each M and kind the first two permutations are the
    identity and the reversal."""
    rng = np.random.default_rng(2026)
    cases = []
    for m in range(1, 9):
        for kind in KINDS:
            seeds = [0, 2**32 - 1, *rng.integers(2**32, size=3).tolist()]
            perms = [list(range(m)), list(range(m))[::-1], *(rng.permutation(m).tolist() for _ in range(3))]
            cases += [(m, kind, seed, int(rng.integers(2**32)), perm) for seed, perm in zip(seeds, perms)]
    return cases


CASES = _cases()
IDS = [f"{m}-{kind}-{seed}" for m, kind, seed, _, _ in CASES]


@pytest.mark.parametrize("m, kind, seed", [c[:3] for c in CASES], ids=IDS)
def test_measure_range_trace_and_spectrum(m, kind, seed):
    em = entanglement_metric(_state(m, kind, seed))
    assert 0.0 <= em.measure <= m / 4.0
    np.testing.assert_allclose(np.trace(em.matrix), em.measure, rtol=0, atol=trace_tol(m), equal_nan=False)
    np.testing.assert_array_equal(em.eigenvalues, np.linalg.eigvalsh(em.matrix)[::-1])
    assert not em.eigenvalues.flags.writeable
    assert em.eigenvalues[-1] >= -1e-10


@pytest.mark.parametrize("m, kind, seed, field_seed", [c[:4] for c in CASES], ids=IDS)
def test_measure_invariant_under_local_unitaries(m, kind, seed, field_seed):
    state = _state(m, kind, seed)
    rng = np.random.default_rng(field_seed)
    dressed = apply_local_unitary(state, [_haar_unitary(rng) for _ in range(m)])
    base = entanglement_metric(state)
    assert abs(entanglement_metric(dressed).measure - base.measure) < 1e-12


@pytest.mark.parametrize("m, kind, seed, perm", [c[:3] + c[4:] for c in CASES], ids=IDS)
def test_permutation_covariance(m, kind, seed, perm):
    """Relabeling qubits permutes the metric and leaves E and the spectrum alone."""
    state = _state(m, kind, seed)
    em = entanglement_metric(state)
    ep = entanglement_metric(StateVector(m, permute_qubits(state.amplitudes, m, perm)))
    assert abs(ep.measure - em.measure) < 1e-12
    np.testing.assert_allclose(ep.matrix[np.ix_(perm, perm)], em.matrix, rtol=0, atol=1e-12, equal_nan=False)
    np.testing.assert_allclose(ep.eigenvalues, em.eigenvalues, rtol=0, atol=1e-12, equal_nan=False)
