"""Dense oracles at every M: the product of two Haar states, interleaved.

For |psi> = |A> (x) |B>, with A's qubits on the odd positions and B's on
the even ones, the metric at the minimizing field splits exactly: E = E_A +
E_B, g restricted to A's qubits is g_A and to B's qubits g_B, every entry
between A and B is 0, and the spectrum is the union of the two spectra.
The interleave puts pairs across A and B in every pass of the direction
frame kernel, inside the rows, across runs and in the column pass, and a
dense state skips no block.  The factors' metrics come from
``covariance_entry_pairwise`` and their E from ``bilinears_extended``, so
the oracle does not run the code it checks.  M = 15-19 covers the
one-block pass and the row passes wider than a row; M = 20-24, under
``slow``, plans with a column pass.
"""
from __future__ import annotations

import numpy as np
import pytest

from entdist import StateVector, entanglement_metric
from entdist.metric import eig_tol, entry_tol, trace_tol

from oracles import (
    bilinears_extended,
    covariance_entry_pairwise,
    jacobi_eigenvalues,
    pairwise_share,
    permute_qubits,
    random_state,
)

SIZES = [*range(15, 20), *(pytest.param(m, marks=pytest.mark.slow) for m in range(20, 25))]


def interleave(a: np.ndarray, b: np.ndarray, a_pos: list[int]) -> np.ndarray:
    """|A> (x) |B> with A's qubit i at position a_pos[i] and B's qubits, in order, on the others.

    The outer product's axes run over A's qubits, highest first, then B's;
    one transpose puts every qubit on its position, highest first, and one
    copy makes the state contiguous.
    """
    ma, mb = a.size.bit_length() - 1, b.size.bit_length() - 1
    m = ma + mb
    b_pos = [p for p in range(m) if p not in a_pos]
    axis = {pos: ma - 1 - i for i, pos in enumerate(a_pos)}
    axis.update({pos: m - 1 - j for j, pos in enumerate(b_pos)})
    outer = np.multiply.outer(a, b).reshape((2,) * m)
    return np.ascontiguousarray(outer.transpose([axis[m - 1 - t] for t in range(m)])).reshape(-1)


def _factor_oracle(amps: np.ndarray, dirs: np.ndarray) -> tuple[float, np.ndarray]:
    """E of a factor from its extended-precision bilinears, and its metric at ``dirs`` entry by entry."""
    n = len(dirs)
    w_minus, w_3 = bilinears_extended(amps, n)
    e = 0.25 * (n - float(np.sum(w_3**2 + 4.0 * np.abs(w_minus) ** 2)))
    g = np.empty((n, n))
    for mu in range(n):
        for nu in range(mu, n):
            g[mu, nu] = g[nu, mu] = covariance_entry_pairwise(amps, n, mu, dirs[mu], nu, dirs[nu])
    return e, g


def assert_splits_into_factors(a, b, a_pos, g, directions, measure, eigenvalues) -> None:
    """The metric of |A> (x) |B>, A's qubits at ``a_pos``, splits into its factors' metrics.

    E = E_A + E_B within trace_tol(M); g within entry_tol(M) plus the
    pairwise oracle's share of diag(g_A, g_B), the factors' pairwise
    metrics on A's and on B's qubits and 0 between them.  The exact
    spectrum is the union of the factors' spectra: each eigenvalue is
    within ``eig_tol(M)`` of it, and the oracle's union within M
    ``pairwise_share(M)`` by Weyl's inequality, ||D||_2 <= M max |D_ij|.
    The oracle's Jacobi sweeps stop at an off-diagonal norm of 1e-15, far
    inside that share.
    """
    m = len(g)
    b_pos = [p for p in range(m) if p not in a_pos]
    e_a, g_a = _factor_oracle(a, directions[a_pos])
    e_b, g_b = _factor_oracle(b, directions[b_pos])
    np.testing.assert_allclose(measure, e_a + e_b, rtol=0, atol=trace_tol(m), equal_nan=False)
    split = np.zeros((m, m))
    split[np.ix_(a_pos, a_pos)], split[np.ix_(b_pos, b_pos)] = g_a, g_b
    tol = entry_tol(m) + pairwise_share(m)
    np.testing.assert_allclose(g, split, rtol=0, atol=tol, equal_nan=False)
    union = np.sort(np.concatenate([jacobi_eigenvalues(g_a), jacobi_eigenvalues(g_b)]))[::-1]
    np.testing.assert_allclose(eigenvalues, union, rtol=0, atol=eig_tol(m) + m * pairwise_share(m), equal_nan=False)


@pytest.mark.parametrize("m", SIZES)
def test_interleaved_product_splits_into_its_factors(m):
    rng = np.random.default_rng(2700 + m)
    mb = -(-m // 2)  # B on the even positions, one more when M is odd
    a, b = random_state(m - mb, rng), random_state(mb, rng)
    a_pos, b_pos = list(range(1, m, 2)), list(range(0, m, 2))
    em = entanglement_metric(StateVector(m, interleave(a, b, a_pos)))
    g = em.matrix
    assert_splits_into_factors(a, b, a_pos, g, em.directions, em.measure, em.eigenvalues)

    # a second interleave of the same factors permutes g
    places = rng.permutation(m).tolist()
    a_pos2 = places[: m - mb]
    b_pos2 = sorted(places[m - mb :])
    g2 = entanglement_metric(StateVector(m, interleave(a, b, a_pos2))).matrix
    first, second = a_pos + b_pos, a_pos2 + b_pos2
    tol = entry_tol(m) + pairwise_share(m)
    np.testing.assert_allclose(g2[np.ix_(second, second)], g[np.ix_(first, first)], rtol=0, atol=tol, equal_nan=False)


def test_interleave_is_the_kron_product_with_its_qubits_permuted():
    """np.kron(A, B) holds A on the top qubits; ``permute_qubits`` moves each to its place."""
    rng = np.random.default_rng(2699)
    a, b = random_state(2, rng), random_state(3, rng)
    for a_pos in ([1, 3], [3, 4], [4, 0]):
        b_pos = [p for p in range(5) if p not in a_pos]
        expected = permute_qubits(np.kron(a, b), 5, b_pos + a_pos)
        assert np.array_equal(interleave(a, b, a_pos), expected)
