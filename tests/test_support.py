"""The support of a state: which rows of ``row_view`` hold a non-zero amplitude.

``StateVector`` records it from the row sums of ``validate_amplitudes``,
and the state-level passes, ``w_vectors`` and ``metric_matrix``, skip the
rows and the frame-kernel blocks that hold no amplitude.  A skipped row or
block adds exactly +0.0, so they must give the bytes of the array-first
kernels, ``bilinears`` and ``metric_matrices``, which read every row.
M = 15-17 runs the one-block frame pass, M = 18-19 row passes wider than a
row; M = 20-22, under ``slow``, plans whose column pass spans every row.
"""
from __future__ import annotations

import numpy as np
import pytest

from entdist import (
    StateVector,
    ghzl_state,
    make_basis_state,
    metric,
    metric_matrix,
    qstate,
    w_vectors,
)
from entdist.metric import _frame_passes, metric_matrices
from entdist.qstate import ROW_BITS, bilinears, row_view

from oracles import random_state

SIZES = [*range(15, 20), *(pytest.param(m, marks=pytest.mark.slow) for m in range(20, 23))]


def w_state(m: int) -> StateVector:
    """The W state: amplitude 1/sqrt(M) at each basis index 2^nu."""
    amps = np.zeros(1 << m, dtype=np.complex128)
    amps[1 << np.arange(m)] = 1.0 / np.sqrt(m)
    return StateVector(m, amps)


def _haar_row_zero_dead(m: int) -> np.ndarray:
    """A Haar state with its first row zero: a block test that reads only its first row fails it."""
    amps = random_state(m, np.random.default_rng(m))
    amps[: 1 << ROW_BITS] = 0.0
    return amps / np.linalg.norm(amps)


def _negative_zero_rows(m: int) -> np.ndarray:
    """A Haar state whose odd rows are -0.0, so every lowest high qubit pairs a live row with a dead one."""
    amps = random_state(m, np.random.default_rng(100 + m)).reshape(-1, 1 << ROW_BITS)
    amps[1::2] = -0.0 - 0.0j
    return (amps / np.linalg.norm(amps)).reshape(-1)


def _tiny_row(m: int) -> np.ndarray:
    """|0...0> and, alone in the middle row, 1e-170: its square underflows, yet w_minus of qubit M-1 is 1e-170."""
    amps = np.zeros(1 << m, dtype=np.complex128)
    amps[0] = 1.0
    amps[1 << (m - 1)] = 1e-170
    return amps


STATES = {
    "ghzl": lambda m: ghzl_state(m, 0.7, 0.2),
    "w": w_state,
    "basis": lambda m: make_basis_state(m, (1 << m) // 3),
    "haar-row-0-dead": lambda m: StateVector(m, _haar_row_zero_dead(m)),
    "negative-zero-rows": lambda m: StateVector(m, _negative_zero_rows(m)),
    "tiny-row": lambda m: StateVector(m, _tiny_row(m)),
}


def _unit_rows(rng: np.random.Generator, m: int) -> np.ndarray:
    v = rng.normal(size=(m, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


@pytest.mark.parametrize("m", SIZES)
@pytest.mark.parametrize("kind", sorted(STATES))
def test_support_path_has_the_bytes_of_the_array_path(kind, m):
    s = STATES[kind](m)
    live = s._live_rows
    assert live.dtype == bool and live.nbytes <= 1 << (m - ROW_BITS)
    np.testing.assert_array_equal(live, row_view(s.amplitudes)[1].any(axis=-1))
    w_minus, w_3 = w_vectors(s)
    ref_minus, ref_3 = bilinears(s.amplitudes)
    assert w_minus.tobytes() == ref_minus.tobytes()
    assert w_3.tobytes() == ref_3.tobytes()
    dirs = _unit_rows(np.random.default_rng(m), m)
    assert metric_matrix(s, dirs).tobytes() == metric_matrices(s.amplitudes, dirs).tobytes()


@pytest.mark.parametrize("m", [15, 16])
def test_a_row_of_underflowing_squares_is_live(m):
    """Its |c|^2 sum is 0.0, but ``row.any()`` keeps it, and its pair reaches w_minus."""
    s = StateVector(m, _tiny_row(m))
    assert np.flatnonzero(s._live_rows).tolist() == [0, 1 << (m - 1 - ROW_BITS)]
    assert w_vectors(s)[0][m - 1] == 1e-170


@pytest.mark.parametrize("m", [16, 18, 19])
def test_dead_rows_are_not_read_by_the_bilinears(m):
    """NaN written into the dead rows after construction does not reach ``w_vectors``.

    ``bilinears``, which reads every row, gives NaN.  ``StateVector`` shares
    the caller's buffer and takes its support at construction.
    """
    amps = ghzl_state(m, 0.7, 0.2).amplitudes.copy()
    s = StateVector(m, amps)
    w_minus, w_3 = w_vectors(s)
    amps.reshape(-1, 1 << ROW_BITS)[1:-1] = np.nan
    assert w_vectors(s)[0].tobytes() == w_minus.tobytes()
    assert w_vectors(s)[1].tobytes() == w_3.tobytes()
    assert np.isnan(bilinears(s.amplitudes)[1]).any()


@pytest.mark.parametrize("m", [18, 19])
def test_a_basis_state_turns_fewer_blocks(monkeypatch, m):
    """The frame kernel turns only the blocks that cover a live row; a Haar state turns the whole state per pass."""
    rotate = metric._rotate
    calls = []

    def spy(x, high, low, buffers):
        calls.append(x.size)
        return rotate(x, high, low, buffers)

    monkeypatch.setattr(metric, "_rotate", spy)
    passes = len(_frame_passes(m, ROW_BITS))
    dirs = _unit_rows(np.random.default_rng(m), m)
    metric_matrix(make_basis_state(m, (1 << m) // 3), dirs)
    sparse = len(calls)
    calls.clear()
    metric_matrix(StateVector(m, random_state(m, np.random.default_rng(m))), dirs)
    assert passes <= sparse < len(calls)
    assert sum(calls) == passes << m


@pytest.mark.parametrize("row_bits", [2, 3, 4])
def test_random_supports_under_short_rows(monkeypatch, row_bits):
    """Rows of 2^2-2^4 amplitudes give the frame kernel plans of one to four passes, with and without
    the column pass, and blocks that cover rows through outer and inner bits; random supports, each
    row live with probability 1/4, keep the bytes of the array path."""
    monkeypatch.setattr(qstate, "ROW_BITS", row_bits)
    rng = np.random.default_rng(row_bits)
    for m in range(row_bits + 1, 11):
        for _ in range(4):
            amps = random_state(m, rng).reshape(-1, 1 << row_bits)
            amps[rng.random(len(amps)) < 0.75] = 0.0
            amps[rng.integers(len(amps))] = 1.0  # at least one live row
            s = StateVector(m, (amps / np.linalg.norm(amps)).reshape(-1))
            assert s._live_rows.shape == (1 << (m - row_bits),)
            assert [a.tobytes() for a in w_vectors(s)] == [a.tobytes() for a in bilinears(s.amplitudes)]
            dirs = _unit_rows(rng, m)
            assert metric_matrix(s, dirs).tobytes() == metric_matrices(s.amplitudes, dirs).tobytes()
