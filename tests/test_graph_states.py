"""Graph states against the stabilizer oracle: the metric at any field, dense and turned.

A graph state |G> = prod_(i,j) CZ_ij |+>^M has every amplitude +-2^(-M/2),
so it is dense, and every <sigma_a^mu> and <sigma_a^mu sigma_b^nu> is +1,
-1 or 0 from its stabilizer group (``oracles.graph_metric``), so its metric
is exact at any field, by a route that shares nothing with the kernels.
Stars, complete bipartite graphs K_(M/3, 2M/3) and random trees have
leaves or twins, pairs of qubits with one neighbourhood, whose K_a K_b is a
two-qubit element; the complete graph's pairs are all Y Y.  Rings and dense
random graphs are left out: with no two-qubit element, their g is I/4 at
every field.  Each graph's vertices are relabelled by a random
permutation, so its correlated pairs fall across rows, runs and groups.
M = 2-16 run in tier-1, at a random field, an axis field (x, y or z per
qubit, the z qubits held still by the identity rule) and the all-z field
(every pass held still); M = 6-12 also in rows of 2^3 and 2^5, whose plans
take the column pass and 1- to 3-qubit Kronecker groups; M = 18-24 under
``slow``, and M = 26 in ``test_max_qubits``.
"""
from __future__ import annotations

import numpy as np
import pytest

from entdist import StateVector, metric_matrix, qstate
from entdist.metric import _frame_passes, entry_tol
from entdist.qstate import _kron_groups

from oracles import covariance_metric_dense, dense_share, graph_amplitudes, graph_metric, graph_share
from test_metric import _random_directions

KINDS = ["star", "bipartite", "tree", "complete"]


def graph_edges(kind: str, m: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """The edges of a graph of ``kind`` on m qubits, its vertices relabelled by a random permutation."""
    if kind == "star":
        edges = [(0, j) for j in range(1, m)]
    elif kind == "bipartite":
        p = max(1, m // 3)
        edges = [(i, j) for i in range(p) for j in range(p, m)]
    elif kind == "tree":  # each vertex hangs from a random earlier one
        edges = [(int(rng.integers(j)), j) for j in range(1, m)]
    else:
        edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    label = rng.permutation(m)
    return [(int(label[i]), int(label[j])) for i, j in edges]


def fields(m: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """A random field, an axis field (x, y or z per qubit) and the all-z field."""
    return {
        "random": _random_directions(rng, m),
        "axis": np.eye(3)[rng.integers(0, 3, size=m)],
        "z": np.tile((0.0, 0.0, 1.0), (m, 1)),
    }


def assert_matches_graph_oracle(m: int, edges, dirs, matrix) -> None:
    """Every entry within ``entry_tol(m)`` plus the oracle's share, ``graph_share(m)``."""
    np.testing.assert_allclose(
        matrix, graph_metric(m, edges, dirs), rtol=0, atol=entry_tol(m) + graph_share(m), equal_nan=False
    )


def _check(kind: str, m: int, field_names=("random", "axis", "z")) -> None:
    rng = np.random.default_rng(2300 + 7 * m + KINDS.index(kind))
    edges = graph_edges(kind, m, rng)
    s = StateVector(m, graph_amplitudes(m, edges))
    for name, dirs in fields(m, rng).items():
        if name in field_names:
            assert_matches_graph_oracle(m, edges, dirs, metric_matrix(s, dirs))


@pytest.mark.parametrize("m", range(2, 17))
@pytest.mark.parametrize("kind", KINDS)
def test_graph_state_matches_the_stabilizer_oracle(kind, m):
    _check(kind, m)


@pytest.mark.parametrize("row_bits", [3, 5])
@pytest.mark.parametrize("m", range(6, 13))
@pytest.mark.parametrize("kind", KINDS)
def test_graph_state_in_short_rows_matches_the_stabilizer_oracle(monkeypatch, kind, m, row_bits):
    """Rows of 2^3 and 2^5 amplitudes: plans of two to four passes, the column pass and short groups.

    ``entry_tol`` reads ROW_BITS at call time, so the bound is the plan's.
    """
    monkeypatch.setattr(qstate, "ROW_BITS", row_bits)
    _check(kind, m, ("random", "axis"))


def test_short_rows_reach_the_column_pass_and_every_group_size():
    """The plans of the grid above: a column pass, and Kronecker groups of 1, 2, 3 and 4 qubits."""
    plans = [_frame_passes(m, k) for k in (3, 5) for m in range(6, 13)]
    assert any(not col_bits for plan in plans for _, col_bits in plan)
    sizes = {b for plan in plans for bits in plan for run in bits for b in _kron_groups(len(run))}
    assert sizes == {1, 2, 3, 4}


@pytest.mark.parametrize("m", [3, 9, 16])
def test_a_planted_entry_error_fails_the_check(m):
    """One off-diagonal entry moved by M times the bound, in the metric of a star at a random field."""
    rng = np.random.default_rng(2390 + m)
    edges = graph_edges("star", m, rng)
    dirs = _random_directions(rng, m)
    g = metric_matrix(StateVector(m, graph_amplitudes(m, edges)), dirs)
    assert_matches_graph_oracle(m, edges, dirs, g)
    g[0, m - 1] += m * (entry_tol(m) + graph_share(m))
    with pytest.raises(AssertionError):
        assert_matches_graph_oracle(m, edges, dirs, g)


@pytest.mark.parametrize("m", range(2, 9))
def test_stabilizer_oracle_matches_the_dense_oracle(m):
    """The stabilizer metric against dense kron-built operators, on any graph, rings and random ones too."""
    rng = np.random.default_rng(2380 + m)
    graphs = [[(j, (j + 1) % m) for j in range(m)] if m > 2 else [(0, 1)]]
    graphs += [[(i, j) for i in range(m) for j in range(i + 1, m) if rng.random() < 0.5] for _ in range(4)]
    for edges in graphs:
        amps = graph_amplitudes(m, edges)
        for dirs in fields(m, rng).values():
            np.testing.assert_allclose(
                graph_metric(m, edges, dirs), covariance_metric_dense(amps, m, dirs),
                rtol=0, atol=graph_share(m) + dense_share(m), equal_nan=False,
            )


@pytest.mark.parametrize("m", [5, 15, 17])
def test_amplitudes_are_the_edge_parities(m):
    """<x|G> = (-1)^(sum_E x_i x_j) 2^(-M/2), the parity read edge by edge over all indices; M = 15 and 17 take rows."""
    rng = np.random.default_rng(2370 + m)
    edges = [(i, j) for i in range(m) for j in range(i + 1, m) if rng.random() < 0.3]
    k = np.arange(1 << m)
    parity = sum(((k >> i) & (k >> j) & 1) for i, j in edges)
    amps = graph_amplitudes(m, edges)
    assert np.array_equal(amps.real, np.where(parity % 2 == 1, -1.0, 1.0) * abs(amps[0].real))
    assert not amps.imag.any()
    np.testing.assert_allclose(abs(amps[0]), 2.0 ** (-m / 2), rtol=np.finfo(float).eps, equal_nan=False)


@pytest.mark.slow
@pytest.mark.parametrize("m", [18, 20, 22, 24])
@pytest.mark.parametrize("kind", KINDS)
def test_graph_state_matches_the_stabilizer_oracle_at_18_to_24_qubits(kind, m):
    _check(kind, m, ("random",))
