"""Spot checks at 20-24 qubits, marked slow; run them with ``pytest -m slow``.

At these sizes ``metric_matrix`` walks the state in many rows, and every
sum runs over 2^20 or more amplitude products, so rounding is at its
largest.  A separate pass over the whole vectors checks a few entries.
"""
from __future__ import annotations

import json

import numpy as np
import pytest

from entdist import (
    StateVector,
    brs_state,
    entanglement_metric,
    ghzl_state,
    pauli_expectation,
    pauli_pair_correlation,
)
from entdist.cli import main
from entdist.metric import trace_tol
from entdist.qstate import ROW_BITS

from oracles import covariance_entry_pairwise, random_state

pytestmark = pytest.mark.slow

EPS = np.finfo(float).eps


def _state(kind: str, m: int) -> StateVector:
    if kind == "brs":
        return brs_state(m, 0.3)
    if kind == "ghzl":
        return ghzl_state(m, 0.7)
    return StateVector(m, random_state(m, np.random.default_rng(m)))


@pytest.mark.parametrize("m", [20, 22])
@pytest.mark.parametrize("kind", ["brs", "ghzl", "haar"])
def test_metric_at_20_and_22_qubits(kind, m):
    s = _state(kind, m)
    em = entanglement_metric(s)
    g, dirs = em.matrix, em.directions
    assert abs(np.trace(g) - em.measure) <= trace_tol(m)
    # eigvalsh is backward stable: each eigenvalue is off by a few m eps ||g||,
    # and ||g|| <= tr g for a positive semidefinite g
    eig_tol = m * EPS * em.measure
    assert np.linalg.eigvalsh(g)[0] >= -eig_tol
    assert abs(float(np.sum(em.eigenvalues)) - em.measure) <= trace_tol(m) + eig_tol
    # pairs within the first row, across the row boundary and between partner rows
    for mu, nu in [(0, 1), (0, m - 1), (ROW_BITS - 1, ROW_BITS), (m - 2, m - 1)]:
        reference = covariance_entry_pairwise(s.amplitudes, m, mu, dirs[mu], nu, dirs[nu])
        assert abs(g[mu, nu] - reference) <= 1e-13
        # the library's whole-vector route sums 2^m terms in turn: its three
        # sums are each off by at most about 2^m u, a quarter of that per entry
        whole_vector = 0.25 * (
            pauli_pair_correlation(s, mu, dirs[mu], nu, dirs[nu])
            - pauli_expectation(s, mu, dirs[mu]) * pauli_expectation(s, nu, dirs[nu])
        )
        assert abs(g[mu, nu] - whole_vector) <= (1 << m) * EPS / 2


def test_metric_at_24_qubits_completes():
    em = entanglement_metric(brs_state(24, 0.3))
    assert em.matrix.shape == (24, 24)
    assert abs(np.trace(em.matrix) - em.measure) <= trace_tol(24)


VERIFY_M20 = ["verify", "--family", "brs", "--m", "20", "--phi", "0.3", "--trials", "1",
              "--restarts", "1", "--seed", "1"]


def test_verify_passes_a_valid_20_qubit_state(capsys):
    """The kernel and the partial-trace oracle differ by rounding alone: 3.1e-12
    here, mostly the oracle's sum in turn over 2^19 terms, and inside the
    derived Bloch threshold of 1.2e-10.  The old absolute 1e-12 failed it."""
    assert main(VERIFY_M20) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


@pytest.mark.usefixtures("conjugated_w_minus")
def test_verify_still_fails_a_planted_defect_at_20_qubits(capsys):
    assert main(VERIFY_M20) == 1
    assert json.loads(capsys.readouterr().out)["failed_checks"] == ["bloch"]
