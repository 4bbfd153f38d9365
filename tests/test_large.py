"""Spot checks at 20-24 qubits, marked slow; run them with ``pytest -m slow``.

At these sizes ``metric_matrix`` reads the state in many blocks of rows,
and every sum runs over 2^20 or more amplitude products, so rounding is
at its largest.  A separate pass over the whole vectors checks the entries
that each pass of the kernel's plan gives.
"""
from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from entdist import (
    StateVector,
    brs_state,
    entanglement_metric,
    ghzl_state,
    metric_matrix,
    optimal_directions,
    w_vectors,
)
from entdist.cli import main
from entdist.metric import eig_tol, trace_tol
from entdist.qstate import ROW_BITS, _block_bits, bilinears, bloch_vectors, row_depth

from oracles import bilinears_extended, brs_n01_counts, closed_form_share, covariance_entry_pairwise, random_state
from test_metric import frame_pairs
from test_support import w_state

pytestmark = pytest.mark.slow

EPS = np.finfo(float).eps


def _state(kind: str, m: int) -> StateVector:
    if kind == "brs":
        return brs_state(m, 0.3)
    if kind == "ghzl":
        return ghzl_state(m, 0.7)
    return StateVector(m, random_state(m, np.random.default_rng(m)))


@pytest.mark.parametrize("m", [20, 21, 22])
@pytest.mark.parametrize("kind", ["brs", "ghzl", "haar"])
def test_metric_at_20_to_22_qubits(kind, m):
    """The trace, the spectrum's sum and sign, and the pairs of each pass against the pairwise oracle.

    eigvalsh is backward stable: each eigenvalue is off by a few m eps
    ||g||, and ||g|| <= tr g for a positive semidefinite g.  The sum line
    compares the eigenvalues with the computed g's own trace, which
    ``trace_tol`` holds to E, so it needs eigvalsh's share alone, not
    ``eig_tol``'s Weyl share.  The sign line keeps eigvalsh's share too:
    the chain-phase and Haar smallest eigenvalues lie above 1e-4, and the
    GHZ-like g is rank one, from moments that its unturned +z field (the
    identity rule) leaves a few roundings off, so only eigvalsh moves its
    zeros (-1.2e-15 at M = 20, 5.5% of the bound).
    """
    s = _state(kind, m)
    em = entanglement_metric(s)
    g, dirs = em.matrix, em.directions
    np.testing.assert_allclose(np.trace(g), em.measure, rtol=0, atol=trace_tol(m), equal_nan=False)
    backward = m * EPS * em.measure
    assert np.linalg.eigvalsh(g)[0] >= -backward
    np.testing.assert_allclose(np.sum(em.eigenvalues), em.measure, rtol=0, atol=trace_tol(m) + backward, equal_nan=False)
    for mu, nu in frame_pairs(m):
        reference = covariance_entry_pairwise(s.amplitudes, m, mu, dirs[mu], nu, dirs[nu])
        assert abs(g[mu, nu] - reference) <= 1e-13


def _closed_form_spectrum(em, expected: list[float]) -> None:
    """E within trace_tol(m) of the eigenvalues' sum, and each eigenvalue within eig_tol(m) plus the closed form's share."""
    m = em.size
    tol = eig_tol(m) + closed_form_share(m)
    np.testing.assert_allclose(em.measure, sum(expected), rtol=0, atol=trace_tol(m), equal_nan=False)
    np.testing.assert_allclose(em.eigenvalues, expected, rtol=0, atol=tol, equal_nan=False)


@pytest.mark.parametrize("m", [20, 22, 24])
def test_ghzl_spectrum_is_its_closed_form(m):
    """cos t |0...0> + e^(i p) sin t |1...1> has g = (sin^2 2t / 4) J: one eigenvalue M sin^2 2t / 4."""
    em = entanglement_metric(ghzl_state(m, 0.7, 0.2))
    _closed_form_spectrum(em, [m * np.sin(1.4) ** 2 / 4.0] + [0.0] * (m - 1))


@pytest.mark.parametrize("m", [20, 22, 24])
def test_w_spectrum_is_its_closed_form(m):
    """The W state has g = I / M - J / M^2: 1/M with multiplicity M - 1 and one 0, E = (M - 1)/M."""
    em = entanglement_metric(w_state(m))
    _closed_form_spectrum(em, [1.0 / m] * (m - 1) + [0.0])


@pytest.mark.parametrize("m", [20, 22])
@pytest.mark.parametrize("kind", ["brs", "haar"])
def test_bilinears_match_extended_precision(kind, m):
    """2^6 and 2^8 rows of 2^14: each bilinear within (row_depth(m) + 3) u of extended precision.

    The same bound as at 15-18 qubits in ``tests/test_kernel.py``: each
    bilinear is a sum whose terms add up to at most 1 in magnitude, of depth
    at most row_depth(m) (see ``metric.trace_tol``).
    """
    s = _state(kind, m)
    w_minus, w_3 = bilinears(s.amplitudes)
    ref_minus, ref_3 = bilinears_extended(s.amplitudes, m)
    bound = (row_depth(m) + 3) * EPS / 2
    assert float(np.max(np.abs(w_minus - ref_minus))) <= bound
    assert float(np.max(np.abs(w_3 - ref_3))) <= bound


@pytest.mark.parametrize("m", [20, 22])
def test_chain_phase_rows_give_the_bits_of_the_per_index_count(m):
    """The row-wise builder at 2^6 and 2^8 rows of 2^14, against the pair-by-pair count."""
    direct = np.exp(-0.3j * brs_n01_counts(m)) * (2.0 ** (-m / 2.0))
    assert brs_state(m, 0.3).amplitudes.tobytes() == direct.tobytes()


def test_metric_at_24_qubits_completes():
    em = entanglement_metric(brs_state(24, 0.3))
    assert em.matrix.shape == (24, 24)
    np.testing.assert_allclose(np.trace(em.matrix), em.measure, rtol=0, atol=trace_tol(24), equal_nan=False)


@pytest.mark.parametrize("m", [22, 24])
def test_frame_kernel_memory_is_two_blocks_and_the_accumulator(m):
    """Traced peak of ``metric_matrix`` beyond the state, whatever the split.

    Two blocks of 2^``_block_bits(ROW_BITS)`` amplitudes and an accumulator
    of as many floats, 5 MiB; 5% more covers the (M, M) arrays, the sign
    tables and marginals of ``_spin_moments`` and the column pass's 2^(M-L)
    marginal (4.0% measured at M = 24).  A copy of one column strip, 2 MiB,
    would exceed it.
    """
    s = brs_state(m, 0.3)
    dirs = optimal_directions(bloch_vectors(*w_vectors(s)))
    metric_matrix(s, dirs)
    tracemalloc.start()
    try:
        metric_matrix(s, dirs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    budget = 1 << _block_bits(ROW_BITS)
    assert peak <= 1.05 * (2 * 16 * budget + 8 * budget)


VERIFY_M20 = ["verify", "--family", "brs", "--m", "20", "--phi", "0.3", "--trials", "1", "--seed", "1"]


def test_verify_passes_a_valid_20_qubit_state(capsys):
    """The kernel and the partial-trace oracle differ by rounding alone: 4.7e-15
    here, mostly the kernel's row-blocked sums (the pairwise oracle is within
    1e-16 of extended precision), inside the derived Bloch threshold of
    3.7e-12.  An absolute 1e-12 on a sequential oracle failed it."""
    assert main(VERIFY_M20) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


@pytest.mark.usefixtures("conjugated_w_minus")
def test_verify_still_fails_a_planted_defect_at_20_qubits(capsys):
    assert main(VERIFY_M20) == 1
    assert json.loads(capsys.readouterr().out)["failed_checks"] == ["bloch"]
