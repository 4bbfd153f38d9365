"""Permutation-symmetric states against the collective-spin oracle, at every M.

A state sum_k c_k |D(M, k)> over the Dicke states is dense and, for a
generic c, entangled, with one direction off every axis on all qubits: so
every pass of the direction-frame kernel turns with full factors and no
block is skipped.  ``oracles.symmetric_metric`` gives its exact metric from
(M + 1) x (M + 1) spin matrices, by a route that shares nothing with the
kernels.  The GHZ state (c on k = 0 and M) and D(M, M/2) have b = 0, so
the z axis; c on k = 0 and 2, or on M - 2 and M, puts b on +z or -z; and
|c_k| = |c_(M-k)| puts it in the x-y plane.  M = 2-18 run in tier-1;
M = 20-24, where the kernel plans a column pass, under ``slow``.
"""
from __future__ import annotations

import numpy as np
import pytest

from entdist import StateVector, entanglement_metric
from entdist.metric import entry_tol, trace_tol
from entdist.qstate import ROW_BITS

from oracles import pairwise_share, spin_share, symmetric_amplitudes, symmetric_metric

EPS = np.finfo(float).eps


def _coefficients(kind: str, m: int) -> np.ndarray:
    rng = np.random.default_rng(1700 + m)
    c = np.zeros(m + 1, dtype=complex)
    if kind == "random":
        c = rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1)
    elif kind == "ghz":
        c[0], c[m] = 1.0, np.exp(0.4j)
    elif kind == "dicke-half":
        c[m // 2] = 1.0
    elif kind in ("plus-z", "minus-z"):  # S_x and S_y join only neighbouring k
        lo, hi = (0, 2) if kind == "plus-z" else (m, m - 2)
        c[lo], c[hi] = 0.8 * np.exp(0.3j), 0.6 * np.exp(-1.1j)
    else:  # "xy-plane": |c_k| = |c_(M-k)|, so <S_z> = 0
        magnitudes = rng.random(m + 1) + 0.1
        c = (magnitudes + magnitudes[::-1]) * np.exp(2j * np.pi * rng.random(m + 1))
    return c


def assert_matches_spin_oracle(c, matrix, directions, measure: float, eigenvalues) -> None:
    """Entries, E and eigenvalues of the metric of sum_k c_k |D(M, k)> against the oracle.

    An entry is held twice.  At the same field, ``directions``, the gap is
    the entries' rounding alone, within ``entry_tol(m)`` plus
    ``spin_share(m)``.  At the oracle's own optimal direction it holds the
    kernel's direction as well, which moves an off-diagonal entry to first
    order, and ``entry_tol`` does not bound the direction's rounding: this
    check keeps the bound it had before ``entry_tol``, ``trace_tol(m)`` up
    to ROW_BITS and ``entry_tol(m)`` plus ``pairwise_share(m)`` above.  E
    and the eigenvalues are held to the oracle's at its own direction,
    within trace_tol(m) and trace_tol(m) + m eps E: a + (M - 1) o once
    and a - o M - 1 times, from the oracle's diagonal a and off-diagonal
    o.  The spectrum is at another field than the kernel's, so it keeps
    the own-direction bound, not ``eig_tol``, which bounds the rounding
    at one field alone.
    """
    m = len(c) - 1
    same_field = entry_tol(m) + spin_share(m)
    np.testing.assert_allclose(matrix, symmetric_metric(c, directions), rtol=0, atol=same_field, equal_nan=False)
    g = symmetric_metric(c)
    own_direction = trace_tol(m) if m <= ROW_BITS else entry_tol(m) + pairwise_share(m)
    np.testing.assert_allclose(matrix, g, rtol=0, atol=own_direction, equal_nan=False)
    np.testing.assert_allclose(measure, np.trace(g), rtol=0, atol=trace_tol(m), equal_nan=False)
    a, o = g[0, 0], g[0, 1]
    expected = np.sort([a + (m - 1) * o] + [a - o] * (m - 1))[::-1]
    own_spectrum = trace_tol(m) + m * EPS * measure
    np.testing.assert_allclose(eigenvalues, expected, rtol=0, atol=own_spectrum, equal_nan=False)


def _check(kind: str, m: int) -> None:
    """``entanglement_metric`` of the state of kind ``kind``: its directions, then the oracle."""
    c = _coefficients(kind, m)
    em = entanglement_metric(StateVector(m, symmetric_amplitudes(c)))
    if kind == "xy-plane":
        assert np.max(np.abs(em.directions[:, 2])) <= 1e-12
    elif kind != "random":
        assert np.array_equal(em.directions, np.tile((0.0, 0.0, 1.0), (m, 1)))
    assert_matches_spin_oracle(c, em.matrix, em.directions, em.measure, em.eigenvalues)


KINDS = ["random", "ghz", "plus-z", "minus-z", "xy-plane"]


@pytest.mark.parametrize("m", range(2, 19))
@pytest.mark.parametrize("kind", KINDS)
def test_symmetric_state_matches_the_spin_oracle(kind, m):
    _check(kind, m)


@pytest.mark.parametrize("m", range(2, 19, 2))
def test_half_filled_dicke_state_matches_the_spin_oracle(m):
    """D(M, M/2) has b = 0, so the z axis, and g = I/4 - (J - I)/(4 (M - 1))."""
    _check("dicke-half", m)


@pytest.mark.slow
@pytest.mark.parametrize("m", range(20, 25))
@pytest.mark.parametrize("kind", ["random", "xy-plane"])
def test_symmetric_state_matches_the_spin_oracle_at_20_to_24_qubits(kind, m):
    _check(kind, m)


@pytest.mark.slow
@pytest.mark.parametrize("m", [20, 22, 24])
def test_half_filled_dicke_state_matches_the_spin_oracle_at_20_to_24_qubits(m):
    _check("dicke-half", m)


def test_embedding_is_the_sum_over_dicke_states():
    """Index i holds c_k / sqrt(C(M, k)), k = popcount(i), read here bit by bit."""
    m = 5
    c = _coefficients("random", m)
    c = c / np.linalg.norm(c)
    expected = [c[k] / np.sqrt(np.sum([bin(j).count("1") == k for j in range(1 << m)]))
                for k in (bin(i).count("1") for i in range(1 << m))]
    np.testing.assert_allclose(symmetric_amplitudes(c), expected, rtol=1e-15, atol=0, equal_nan=False)
