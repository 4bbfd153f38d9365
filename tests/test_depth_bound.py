"""The entanglement-depth bound on the metric's top eigenvalue: 4 lambda_max(g) <= k.

A state is k-producible if it is a product of pure states of at most k
qubits each (Guhne, Toth and Briegel, NJP 7, 229 (2005)).  Claim: the
metric of a k-producible state has 4 lambda_max(g) <= k at every field,
so 4 lambda_max(g) > k certifies an entanglement depth of at least k + 1.

Proof.  For qubits mu and nu of different factors, A_mu A_nu acts on two
factors of a product state, so <A_mu A_nu> = <A_mu><A_nu> and g[mu, nu]
= 0: with its qubits ordered by factor, g is block diagonal over the
factors, and its spectrum is the union of the blocks' spectra.  Each block
is its factor's metric at its factor's field, a covariance matrix over 4,
so positive semidefinite, with at most k diagonal entries (1 - <A_nu>^2)/4
<= 1/4.  A positive semidefinite block's largest eigenvalue is at most its
trace, k/4.  So lambda_max(g) <= k/4.

The bound is reached: GHZ on M qubits at the all-z field has g = J/4, so
4 lambda_max = M, and disjoint GHZ blocks of k qubits give k.  So does the
star graph state at z on the centre and x on the leaves, LU-equivalent to
GHZ, while at its optimal field it gives 1.  A computed
eigenvalue is within ``metric.eig_tol(M)`` of the exact one, so each check
holds 4 lambda_max to k within 4 eig_tol(M).
"""
from __future__ import annotations

import numpy as np
import pytest

from entdist import StateVector, entanglement_metric, ghzl_state, metric_matrix
from entdist.metric import eig_tol

from oracles import graph_amplitudes, permute_qubits, random_state
from test_metric import _random_directions

SIZES = range(6, 11)
DEPTHS = range(1, 6)


def _product(blocks: list[np.ndarray], rng: np.random.Generator) -> StateVector:
    """The product of the block states, its qubits relabelled by a random permutation."""
    amps = np.ones(1)
    for block in blocks:
        amps = np.kron(amps, block)
    m = amps.size.bit_length() - 1
    return StateVector(m, permute_qubits(amps, m, rng.permutation(m).tolist()))


def _block_sizes(m: int, k: int, rng: np.random.Generator) -> list[int]:
    """Random block sizes of at most k qubits that add up to m, the first of k."""
    sizes = [k]
    while sum(sizes) < m:
        sizes.append(min(int(rng.integers(1, k + 1)), m - sum(sizes)))
    return sizes


def _ghz(b: int) -> np.ndarray:
    """(|0...0> + |1...1>) / sqrt 2 on b qubits: |+> at b = 1, which ``ghzl_state`` does not take."""
    amps = np.zeros(1 << b, dtype=complex)
    amps[0] = amps[-1] = np.sqrt(0.5)
    return amps


def _top(g: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(g)[-1])


@pytest.mark.parametrize("k", DEPTHS)
@pytest.mark.parametrize("m", SIZES)
def test_k_producible_states_stay_within_k(m, k):
    """Four random k-producible states of Haar blocks, each at a random field and at its optimal one."""
    rng = np.random.default_rng(2400 + 10 * m + k)
    bound = k + 4 * eig_tol(m)
    for _ in range(4):
        s = _product([random_state(b, rng) for b in _block_sizes(m, k, rng)], rng)
        assert 4 * _top(metric_matrix(s, _random_directions(rng, m))) <= bound
        assert 4 * entanglement_metric(s).eigenvalues[0] <= bound


@pytest.mark.parametrize("m", [2, 6, 10, 16])
def test_ghz_reaches_m_at_the_z_field(m):
    """GHZ, ghzl at theta = pi/4, has g = J/4 at the all-z field: 4 lambda_max = M; M = 16 takes the frame kernel."""
    g = metric_matrix(ghzl_state(m, np.pi / 4), np.tile((0.0, 0.0, 1.0), (m, 1)))
    assert abs(4 * _top(g) - m) <= 4 * eig_tol(m)


@pytest.mark.parametrize("k", DEPTHS)
@pytest.mark.parametrize("m", SIZES)
def test_disjoint_ghz_blocks_reach_k(m, k):
    """GHZ blocks of k qubits, and a shorter last one, relabelled: 4 lambda_max = k at the all-z field."""
    rng = np.random.default_rng(2500 + 10 * m + k)
    sizes = [k] * (m // k) + ([m % k] if m % k else [])
    s = _product([_ghz(b) for b in sizes], rng)
    g = metric_matrix(s, np.tile((0.0, 0.0, 1.0), (m, 1)))
    assert abs(4 * _top(g) - k) <= 4 * eig_tol(m)


def _star(m: int) -> StateVector:
    """The star graph state, qubit 0 the centre: its stabilizers are X_0 Z_1 ... Z_(M-1) and Z_0 X_j."""
    return StateVector(m, graph_amplitudes(m, [(0, j) for j in range(1, m)]))


@pytest.mark.parametrize("m", [4, 8, 12])
def test_star_graph_reaches_m_at_its_ghz_field(m):
    """z on the centre, x on the leaves: <Z_0 X_j> = <X_i X_j> = 1 and every mean 0, so g = J/4 and 4 lambda_max = M."""
    field = np.tile((1.0, 0.0, 0.0), (m, 1))
    field[0] = (0.0, 0.0, 1.0)
    assert abs(4 * _top(metric_matrix(_star(m), field)) - m) <= 4 * eig_tol(m)


@pytest.mark.parametrize("m", [4, 8, 12])
def test_star_graph_gives_one_at_its_optimal_field(m):
    """Every Bloch vector is 0, so every direction is z and no Z_mu Z_nu is a stabilizer: g = I/4, 4 lambda_max = 1."""
    em = entanglement_metric(_star(m))
    assert (em.directions == (0.0, 0.0, 1.0)).all()
    np.testing.assert_allclose(em.eigenvalues, np.full(m, 0.25), rtol=0, atol=eig_tol(m), equal_nan=False)
