"""The support of a state: the blocks that hold amplitude, a non-zero byte, found as the kernels read them.

``qstate._row_bilinears`` skips a row, and a high qubit's pair with a
partner row, and ``metric._frame_moments`` a block of a row pass or a strip
of the column pass, when it fails ``qstate._holds_amplitude``; nothing
about the support is recorded.  A skipped block adds exactly +0.0, so the
kernels must give the bytes of a pass that reads every block, the frame
kernel's moments e and c whole, and they must match the oracles of
``tests/oracles.py``.  M = 15-17 runs the one-block frame pass, M = 18-19
row passes wider than a row; M = 20-22, under ``slow``, plans with a
column pass, whose strips span every row.
"""
from __future__ import annotations

import numpy as np
import pytest

from entdist import (
    StateVector,
    entanglement_measure,
    ghzl_state,
    make_basis_state,
    metric_matrix,
    qstate,
    w_vectors,
)
from entdist.metric import (
    _frame_moments,
    _frame_passes,
    _frame_unitaries,
    entry_tol,
    measure_from_bilinears,
    metric_matrices,
)
from entdist.qstate import ROW_BITS, _row_bilinears, bilinears, row_depth, row_view

from oracles import bilinears_extended, covariance_entry_pairwise, pairwise_share, random_state
from test_metric import assert_pairs_match_pairwise_oracle

SIZES = [*range(15, 20), *(pytest.param(m, marks=pytest.mark.slow) for m in range(20, 23))]
U = np.finfo(float).eps / 2


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
    """A Haar state whose odd rows are -0.0, real and imaginary parts both, written after the norm is taken.

    The zero test reads such a row as bytes, so the kernels read it.
    """
    amps = random_state(m, np.random.default_rng(100 + m)).reshape(-1, 1 << ROW_BITS)
    amps[1::2] = 0.0
    amps /= np.linalg.norm(amps)
    amps.real[1::2] = amps.imag[1::2] = -0.0  # a complex -0.0 - 0.0j, or a division, would keep +0.0 parts
    return amps.reshape(-1)


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


def frame_moment_bytes(rows: np.ndarray, dirs: np.ndarray) -> list[bytes]:
    """The bytes of the moments e (M,) and c (M, M) that ``_frame_moments`` writes for one state's rows at ``dirs``.

    All of c, its diagonal and lower triangle too, which never reach g, so
    a comparison of these bytes is stricter than one of g.  Both start as
    NaN, and every entry must be written with a finite value.
    """
    m = len(dirs)
    e, c = np.full(m, np.nan), np.full((m, m), np.nan)
    _frame_moments(rows, dirs, e, c)
    assert np.isfinite(e).all() and np.isfinite(c).all()
    return [e.tobytes(), c.tobytes()]


class _ReadAll(np.ndarray):
    """Rows whose every block reports an amplitude, so the kernels skip nothing."""

    def any(self, *args, **kwargs):
        return True


@pytest.fixture
def rotations(monkeypatch) -> list[int]:
    """The size of each block that ``qstate._rotate`` turns, one entry per call."""
    rotate = qstate._rotate
    calls = []

    def spy(x, high, low, buffers):
        calls.append(x.size)
        return rotate(x, high, low, buffers)

    monkeypatch.setattr(qstate, "_rotate", spy)
    return calls


def _unit_rows(rng: np.random.Generator, m: int) -> np.ndarray:
    v = rng.normal(size=(m, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _blocks_with_amplitude(amps: np.ndarray, m: int, dirs: np.ndarray) -> int:
    """Blocks that ``_frame_moments`` turns at ``dirs``: those that hold amplitude, from the indices of
    those amplitudes, in the passes that name a qubit whose frame unitary is not exactly I.

    A pass with row bits J and column bits C reads blocks of 2^w columns,
    w = |C|, or in the column pass as many low bits as fill the largest
    block of the plan; a block is fixed by the index bits above J and those
    between w and J, so two amplitudes share one when those bits agree.
    An entry holds amplitude when a byte of it is not zero, as the zero
    test reads it: 1e-170 does, and so does -0.0.
    """
    passes = _frame_passes(m, ROW_BITS)
    bits = max(len(row_bits) + len(col_bits) for row_bits, col_bits in passes)
    index = np.flatnonzero(amps.view(np.uint8).reshape(-1, amps.itemsize).any(axis=1))
    turned = (_frame_unitaries(dirs) != np.eye(2)).any(axis=(-2, -1))
    count = 0
    for row_bits, col_bits in passes:
        if not turned[[*row_bits, *col_bits]].any():
            continue
        w = len(col_bits) or bits - len(row_bits)
        inner = (index >> w) & ((1 << (row_bits.start - w)) - 1)
        count += len(set(zip((index >> row_bits.stop).tolist(), inner.tolist())))
    return count


@pytest.mark.parametrize("m", SIZES)
@pytest.mark.parametrize("kind", sorted(STATES))
def test_support_path_has_the_bytes_of_the_array_path(kind, m):
    """The kernels, skipping the blocks outside the support, give the bytes of a pass that reads them all.

    That pass runs on the state's rows seen as ``_ReadAll``, whose blocks all
    pass the zero test: the bilinears, and the frame kernel's moments e and
    c (``frame_moment_bytes``).  Both match the oracles: a few entries of g
    against ``covariance_entry_pairwise`` within ``entry_tol`` plus the
    oracle's share, and, up to M = 17 (the oracle takes 0.7 s at 19 qubits
    and 6 s at 22), the bilinears against ``bilinears_extended`` within
    (row_depth + 3) u.
    """
    s = STATES[kind](m)
    rows = row_view(s.amplitudes)[1]
    w_minus, w_3 = w_vectors(s)
    ref_minus, ref_3 = _row_bilinears(rows.view(_ReadAll))
    assert w_minus.tobytes() == ref_minus.tobytes()
    assert w_3.tobytes() == ref_3.tobytes()
    dirs = _unit_rows(np.random.default_rng(m), m)
    assert_pairs_match_pairwise_oracle(s.amplitudes, dirs, entry_tol(m) + pairwise_share(m))
    assert frame_moment_bytes(rows, dirs) == frame_moment_bytes(rows.view(_ReadAll), dirs)
    if m <= 17:
        ext_minus, ext_3 = bilinears_extended(s.amplitudes, m)
        bound = (row_depth(m) + 3) * U
        assert float(np.max(np.abs(w_minus - ext_minus))) <= bound
        assert float(np.max(np.abs(w_3 - ext_3))) <= bound


@pytest.mark.parametrize("m", SIZES)
@pytest.mark.parametrize("kind", sorted(STATES))
def test_rotate_turns_the_blocks_that_hold_amplitude(rotations, kind, m):
    """One ``_rotate`` call per block that holds amplitude, in every pass, the column pass included.

    For ghzl that is two blocks per pass (one when the state fits one
    block), for W one per block its M amplitudes fall in; the blocks of
    -0.0 rows and the 1e-170 block are turned.
    """
    s = STATES[kind](m)
    dirs = _unit_rows(np.random.default_rng(m), m)
    metric_matrix(s, dirs)
    assert len(rotations) == _blocks_with_amplitude(s.amplitudes, m, dirs)


@pytest.mark.parametrize("m", [15, 18])
def test_negative_zero_rows_give_the_bytes_of_positive_zero_rows(m):
    """The kernels read -0.0 rows, which the zero test keeps, and add +0.0 for them, as for the skipped +0.0 rows
    of the state's twin: the bilinears, the frame kernel's moments e and c, and g at random directions."""
    neg = StateVector(m, _negative_zero_rows(m))
    pos = StateVector(m, np.where(neg.amplitudes == 0, 0, neg.amplitudes))
    assert np.signbit(neg.amplitudes.imag).sum() >= 1 << (m - 1)
    assert not np.signbit(pos.amplitudes[neg.amplitudes == 0].view(float)).any()
    assert [a.tobytes() for a in w_vectors(neg)] == [a.tobytes() for a in w_vectors(pos)]
    dirs = _unit_rows(np.random.default_rng(m), m)
    rows = [row_view(s.amplitudes)[1] for s in (neg, pos)]
    assert frame_moment_bytes(rows[0], dirs) == frame_moment_bytes(rows[1], dirs)
    assert metric_matrix(neg, dirs).tobytes() == metric_matrix(pos, dirs).tobytes()


@pytest.mark.parametrize("m", [15, 16])
def test_a_row_of_underflowing_squares_is_live(m):
    """Its |c|^2 sum is 0.0, but the zero test keeps it, and its pair reaches w_minus as the oracle has it."""
    s = StateVector(m, _tiny_row(m))
    w_minus = w_vectors(s)[0]
    assert w_minus[m - 1] == 1e-170
    assert w_minus[m - 1] == complex(bilinears_extended(s.amplitudes, m)[0][m - 1])
    assert not w_minus[: m - 1].any()


@pytest.mark.parametrize("m", [16, 18, 19])
def test_dead_rows_are_not_read_by_the_bilinears(monkeypatch, m):
    """ghzl holds amplitude in its first and last rows only: k vecdots each, none for the rows between.

    Once NaN is written into those rows through the caller's buffer, they
    are read, and the bilinears hold NaN as those of the array do.
    """
    amps = ghzl_state(m, 0.7, 0.2).amplitudes.copy()
    s = StateVector(m, amps)
    vecdot = np.vecdot
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return vecdot(*args, **kwargs)

    monkeypatch.setattr(np, "vecdot", spy)
    w_vectors(s)
    assert len(calls) == 2 * ROW_BITS
    monkeypatch.undo()
    amps.reshape(-1, 1 << ROW_BITS)[1:-1] = np.nan
    w_minus, w_3 = w_vectors(s)
    assert np.isnan(w_3).any()
    assert [w_minus.tobytes(), w_3.tobytes()] == [a.tobytes() for a in bilinears(amps)]


@pytest.mark.parametrize("m", [18, 19])
def test_a_basis_state_turns_fewer_blocks(rotations, m):
    """The frame kernel turns one block per pass for a basis state; a Haar state turns the whole state per pass."""
    passes = len(_frame_passes(m, ROW_BITS))
    dirs = _unit_rows(np.random.default_rng(m), m)
    metric_matrix(make_basis_state(m, (1 << m) // 3), dirs)
    assert len(rotations) == passes
    rotations.clear()
    metric_matrix(StateVector(m, random_state(m, np.random.default_rng(m))), dirs)
    assert len(rotations) > passes
    assert sum(rotations) == passes << m


@pytest.mark.parametrize("row_bits", [2, 3, 4])
def test_random_supports_under_short_rows(monkeypatch, row_bits):
    """Rows of 2^2-2^4 amplitudes give the frame kernel plans of one to four passes, with and without
    the column pass, and blocks that hold amplitude through outer and inner bits.  Random supports, each
    row live with probability 1/4, keep the bytes of the pass that reads every block, the frame kernel's
    moments e and c whole, and every entry of g matches ``covariance_entry_pairwise``."""
    monkeypatch.setattr(qstate, "ROW_BITS", row_bits)
    rng = np.random.default_rng(row_bits)
    for m in range(row_bits + 1, 11):
        tol = entry_tol(m) + pairwise_share(m)
        for _ in range(4):
            amps = random_state(m, rng).reshape(-1, 1 << row_bits)
            amps[rng.random(len(amps)) < 0.75] = 0.0
            amps[rng.integers(len(amps))] = 1.0  # at least one live row
            s = StateVector(m, (amps / np.linalg.norm(amps)).reshape(-1))
            rows = row_view(s.amplitudes)[1]
            assert [a.tobytes() for a in w_vectors(s)] == [a.tobytes() for a in _row_bilinears(rows.view(_ReadAll))]
            dirs = _unit_rows(rng, m)
            assert frame_moment_bytes(rows, dirs) == frame_moment_bytes(rows.view(_ReadAll), dirs)
            g = metric_matrix(s, dirs)
            for mu in range(m):
                for nu in range(mu, m):
                    ref = covariance_entry_pairwise(s.amplitudes, m, mu, dirs[mu], nu, dirs[nu])
                    np.testing.assert_allclose(g[mu, nu], ref, rtol=0, atol=tol, err_msg=f"entry ({mu}, {nu})", equal_nan=False)


def test_a_written_buffer_is_read_as_written():
    """A ``StateVector`` shares the caller's buffer and records nothing from it but the norm check.

    A basis state at M = 16, then a normalized Haar state written into its
    buffer: E and g are those of the array as it now stands.  A support
    recorded at construction gave E = 3.96874 here against 3.99985.
    """
    m = 16
    amps = np.zeros(1 << m, dtype=np.complex128)
    amps[0] = 1.0
    s = StateVector(m, amps)
    amps[:] = random_state(m, np.random.default_rng(m))
    assert entanglement_measure(s) == float(measure_from_bilinears(*bilinears(amps)))
    dirs = _unit_rows(np.random.default_rng(m), m)
    assert metric_matrix(s, dirs).tobytes() == metric_matrices(amps, dirs).tobytes()
