"""Dense pure-state vectors with bit-indexed basis bookkeeping.

A state of ``m`` qubits is a normalized complex array of length ``2**m``
over the computational basis.  Qubit ``nu`` addresses binary digit ``nu``
of the basis index ``k``, counting from the right: qubit 0 is the least
significant bit.  All operations are pure functions on immutable inputs.

The owners:

- ``row_view``: the state-array rule and the rows every pass reads.
- ``validate_count``, ``validate_real``, ``validate_directions``,
  ``validate_unitaries`` and ``validate_amplitudes``: the argument,
  field and state rules.
- ``_dress``: every turn of a state by local unitaries, for
  ``apply_local_unitary`` and ``verify``'s dressings, with buffers it
  sizes from its plan; ``_dress_passes`` plans it.  ``_turns``,
  ``_rotate``, ``_kron_factors``, ``_kron_spec`` and ``_kron_groups``: the
  Kronecker turns of ``_dress`` and of the frame kernel, in blocks of the
  budget ``_block_bits``; ``_turns`` owns a pass's block width, from its
  column bits or its buffers, and the identity rule, which holds a pass
  whose unitaries are all exactly I.
- ``bilinears``: the per-qubit amplitude bilinears, from which every
  Bloch vector (``bloch_vectors``) and E follow; ``_row_bilinears`` for
  a state of several rows.
- ``_spin_moments``: the spin moments of a distribution, for the frame
  passes and the bilinear pass.
- ``_dot``: every BLAS dot over amplitudes (the short-dot rule), and
  ``_dot_depth`` its summation depth; ``_norm_sq``: the squared norm of a
  state, by ``_dot``.
- ``_holds_amplitude``: the zero test of the passes over a state.
"""
from __future__ import annotations

import functools
import json
import math
import numbers
import reprlib
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAX_QUBITS = 26  # 1 GiB of complex128 amplitudes; every pass streams over them in cache-sized rows
ROW_BITS = 14  # row_view splits a state into rows of 2**ROW_BITS amplitudes (256 KiB)
NORM_TOL = 1e-12
UNIT_TOL = 1e-12
BLOCK_BITS = 3  # a block holds at most 2**BLOCK_BITS rows' worth of amplitudes (see _block_bits)
KRON_BITS = 4  # a Kronecker factor turns at most this many qubits (see _kron_groups)


class StateFileError(ValueError):
    """Raised when a state file cannot be parsed into amplitude arrays."""


def row_view(amps) -> tuple[int, np.ndarray]:
    """M, and states ``(..., 2**M)`` as rows ``(..., 2**(M-k), 2**k)``, k = min(M, ROW_BITS).

    The one rule for a state array: its last axis must hold 2^M amplitudes
    with 1 <= M <= MAX_QUBITS, and any other shape raises a ValueError that
    names it.  Every pass over a state reads it by these rows, so every
    sum over its amplitudes is blocked (``row_depth``).  The rows are
    C-contiguous complex128, a view of the input itself when it has that
    layout and of a copy otherwise, so each state of a batch is read as it
    would be alone.  Row h holds basis indices
    h 2^k .. (h + 1) 2^k - 1, so a qubit nu < k pairs amplitudes within a
    row, and a qubit nu >= k pairs row h with row h ^ 2^(nu - k).  For M
    <= ROW_BITS there is one row, the whole state.
    """
    amps = np.asarray(amps, dtype=np.complex128, order="C")
    n = amps.shape[-1] if amps.ndim else 0
    m = n.bit_length() - 1
    if not (1 <= m <= MAX_QUBITS and n == 1 << m):
        raise ValueError(f"expected 2**M amplitudes, 1 <= M <= {MAX_QUBITS}, got shape {amps.shape}")
    return m, amps.reshape(amps.shape[:-1] + (max(1, n >> ROW_BITS), min(n, 1 << ROW_BITS)))


def validate_count(name: str, value, lo: int, hi: int | None = None) -> int:
    """The one rule for a count or index argument, returned as a Python int.

    It must be an int or a numpy integer, not a bool, in [lo, hi]; ``hi =
    None`` leaves it unbounded above.  Anything else raises a ValueError
    that names the argument and the range, and quotes the value as
    ``validate_real`` does.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if lo <= value and (hi is None or value <= hi):
            return int(value)
    bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    raise ValueError(f"{name} must be an integer {bound}, got {reprlib.repr(value)}")


def validate_real(name: str, value) -> float:
    """The one rule for a real-number argument, returned as a Python float.

    It must be a ``numbers.Real`` (a Python or numpy int or float), not a
    bool, and finite.  Anything else, a 0-d array or a string included,
    raises a ValueError that names the argument.  The message quotes the
    value by ``reprlib.repr``, which keeps an ordinary value's ``repr`` and
    cuts a long one, such as 10**400, to a few dozen characters.
    """
    # a Python float or np.float64 (a float subclass) skips the numbers.Real ABC check
    if isinstance(value, float) and math.isfinite(value):
        return float(value)
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise ValueError(f"{name} must be a finite real number, got {reprlib.repr(value)}")


def row_depth(m: int) -> int:
    """Summation depth 2^k + 2^(m-k) - 1 of 2^m terms summed in rows of 2^k, then row by row."""
    k = min(m, ROW_BITS)
    return (1 << k) + (1 << (m - k)) - 1


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.vecdot(a, b)`` over the last axis, in runs of at most 2^(ROW_BITS - 1) terms, then the runs' sum.

    The one owner of the short-dot rule, for every BLAS dot over
    amplitudes: OpenBLAS threads a dot of more than 10000 terms, and the
    split of its sum follows the thread count, so a longer dot would make
    the last bits of an output depend on how many threads BLAS runs.  A
    run of 2^13 terms is never threaded, and the runs' results are added
    by one ``np.sum`` over the last axis, whatever the thread count.
    ``np.vecdot`` takes one BLAS dot per vector, the one np.vdot takes, so
    a vector gets the same bits alone or in a batch.  Its depth is
    ``_dot_depth``.  The runs are sized explicitly, so an empty batch
    splits as a full one does.
    """
    run = 1 << (ROW_BITS - 1)
    if a.shape[-1] <= run:
        return np.vecdot(a, b)
    runs = (a.shape[-1] // run, run)
    return np.vecdot(a.reshape(a.shape[:-1] + runs), b.reshape(b.shape[:-1] + runs)).sum(axis=-1)


def _dot_depth(n: int) -> int:
    """Summation depth of ``_dot`` over n terms: n in one run, else a run, then the runs' sum.

    A row of 2^ROW_BITS terms is two runs, a depth of 2^(ROW_BITS - 1) +
    1.  ROW_BITS is read at call time, as ``_dot`` reads it.
    ``metric.entry_tol`` takes it for a one-row moment and
    ``metric.spectrum_tol`` for the norm sum of ``validate_amplitudes``.
    """
    run = 1 << (ROW_BITS - 1)
    return n if n <= run else run + n // run - 1


def _norm_sq(amps: np.ndarray) -> np.ndarray:
    """Squared norms (...) of C-contiguous complex128 states (..., 2**M): ``_dot`` of each float view with itself."""
    return _dot(amps.view(float), amps.view(float))


def _holds_amplitude(x: np.ndarray) -> bool:
    """The one zero test of a row or block: False exactly when every byte of ``x`` is zero, no amplitude held.

    The first entry makes the test of a dense ``x`` one element read; the
    rest is scanned as bytes, in about half the time of a complex
    ``any()``.  So an entry of 1e-170, whose square underflows, holds
    amplitude, and so does one of -0.0, whose sign bit is set.  A pass that
    skips what fails it adds exactly +0.0 where reading it would, and a
    pass over -0.0 entries adds +0.0 as well (every sum of products of
    zeros, -0.0 ones included, starts from +0.0 and stays there), so the
    test does not move the bytes.
    """
    return bool(x.item(0) or x.view(np.bool_).any())


def validate_amplitudes(amps: np.ndarray) -> None:
    """Reject non-finite or unnormalized states ``(..., 2**M)`` (see ``row_view``).

    Each state's squared norm, the sum of re^2 + im^2, must be 1 within
    ``NORM_TOL``, by ``_norm_sq``; the error names the first state that is
    not.  A norm past the float range is refused as inf with no numpy
    warning.  A non-finite entry makes its state's norm non-finite, so the
    entries are scanned only on that error path.
    """
    m, rows = row_view(amps)
    with np.errstate(over="ignore"):
        norm_sq = _norm_sq(rows.reshape(rows.shape[:-2] + (1 << m,)))
    bad = ~(np.abs(norm_sq - 1.0) <= NORM_TOL)  # also true for a NaN gap
    if np.any(bad):
        if not np.all(np.isfinite(rows)):
            raise ValueError("amplitudes contain non-finite entries")
        raise ValueError(f"state is not normalized: sum |c_k|^2 = {float(norm_sq[bad][0])!r}")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state of ``num_qubits`` qubits.

    Amplitudes are stored as a read-only complex128 array of length
    ``2**num_qubits`` that passes ``validate_amplitudes``.
    A contiguous complex128 input is not copied: the stored array is a
    read-only view that shares the caller's buffer, so writing to that
    buffer afterwards changes the state.  The caller's array itself stays
    writeable.

    The norm is checked once, at construction, so a write afterwards is not
    checked.  Nothing else is recorded: every pass over the state reads the
    amplitudes as they stand, so no recorded data can go stale.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        m = validate_count("num_qubits", self.num_qubits, 1, MAX_QUBITS)
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**m,):
            raise ValueError(f"expected {2**m} amplitudes for {m} qubits, got shape {amps.shape}")
        validate_amplitudes(amps)
        amps = amps.view()
        amps.flags.writeable = False
        object.__setattr__(self, "num_qubits", m)
        object.__setattr__(self, "amplitudes", amps)


def validate_directions(dirs: np.ndarray, shape: tuple) -> np.ndarray:
    """The one rule for a direction field: a float array of ``shape`` (..., M, 3) of real unit rows.

    Each row's squared norm must be 1 within ``UNIT_TOL``; the error gives
    the squared norm of the first row that is not.
    """
    v = np.asarray(dirs, dtype=float)
    if v.shape != shape:
        raise ValueError(f"expected directions of shape {shape}, got shape {v.shape}")
    norm_sq = (v * v).sum(axis=-1)
    gap = abs(norm_sq - 1.0)
    if not gap.max(initial=0.0) <= UNIT_TOL:  # also true for a NaN gap
        if not np.isfinite(v).all():
            raise ValueError("directions contain non-finite entries")
        first = float(norm_sq[gap > UNIT_TOL][0])
        raise ValueError(f"direction must be a unit vector: |v|^2 = {first!r}")
    return v


def validate_unitaries(unitaries, m: int) -> np.ndarray:
    """The one rule for a field of local unitaries: one 2x2 unitary per qubit, returned as a (m, 2, 2) complex copy.

    Each matrix must be finite, have no entry of modulus above 1 +
    ``UNIT_TOL`` and have max |U^H U - I| within ``UNIT_TOL``; each rule
    runs over the whole field before the next, and its error names the
    first qubit that fails it.  The size rule comes before the product, so
    an entry such as 1e200 is refused by its size and U^H U never
    overflows.
    """
    u = np.array(unitaries, dtype=np.complex128)
    if u.shape != (m, 2, 2):
        raise ValueError(f"expected unitaries of shape {(m, 2, 2)}, got shape {u.shape}")
    bad = np.flatnonzero(~np.isfinite(u).all(axis=(-2, -1)))
    if bad.size:
        raise ValueError(f"qubit {bad[0]}: matrix contains non-finite entries")
    largest = np.abs(u).max(axis=(-2, -1))
    bad = np.flatnonzero(largest > 1.0 + UNIT_TOL)
    if bad.size:
        raise ValueError(f"qubit {bad[0]}: matrix is not unitary: max |u_ij| = {float(largest[bad[0]])!r} exceeds 1")
    defect = _unitary_defect(u)
    bad = np.flatnonzero(defect > UNIT_TOL)
    if bad.size:
        raise ValueError(f"qubit {bad[0]}: matrix is not unitary: max |U^H U - I| = {float(defect[bad[0]])!r}")
    return u


def _unitary_defect(u: np.ndarray) -> np.ndarray:
    """max |U^H U - I| (M,) of a field (M, 2, 2) of 2x2 matrices."""
    return np.abs(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(2)).max(axis=(-2, -1))


def make_basis_state(m: int, k: int) -> StateVector:
    """Computational basis state |k> of m qubits."""
    m = validate_count("m", m, 1, MAX_QUBITS)
    k = validate_count("basis index k", k, 0, (1 << m) - 1)
    amps = np.zeros(1 << m, dtype=np.complex128)
    amps[k] = 1.0
    return StateVector(m, amps)


def _kron_groups(n: int) -> list[int]:
    """The one grouping of a run of n qubits into Kronecker factors: each group's size, lowest first.

    Groups of KRON_BITS qubits, and a short last one.
    """
    return [min(KRON_BITS, n - lo) for lo in range(0, n, KRON_BITS)]


def _kron_spec(b: int) -> str:
    """The einsum of a group of b <= KRON_BITS qubits, highest first: "gij,gkl,gmn,gop->gikmojlnp" at b = 4.

    So f[g, (i k m o), (j l n p)] = u3[i, j] u2[k, l] u1[m, n] u0[o, p],
    and a shorter group's spec is this one cut to its b unitaries.
    """
    rows, cols = "ikmoqsuw"[:b], "jlnprtvx"[:b]  # each unitary's row and column index
    return ",".join(f"g{i}{j}" for i, j in zip(rows, cols)) + f"->g{rows}{cols}"


def _kron_factors(u: np.ndarray, qubits: list[int]) -> list[np.ndarray]:
    """Kronecker products of the unitaries of ``qubits``, one per group of ``_kron_groups``, lowest first.

    Each factor has its group's highest qubit as the most significant bit.
    The groups of one size, the full ones and then a short last one, take
    one einsum, ``_kron_spec`` of their size, over their (G, b, 2, 2)
    unitaries.
    """
    sizes, factors, lo = _kron_groups(len(qubits)), [], 0
    for b in sorted(set(sizes), reverse=True):
        n = sizes.count(b)
        groups = u[qubits[lo : lo + n * b]].reshape(n, b, 2, 2)
        f = np.einsum(_kron_spec(b), *(groups[:, q] for q in reversed(range(b))))
        factors += list(f.reshape(n, 1 << b, 1 << b))
        lo += n * b
    return factors


def _rotate(
    x: np.ndarray, high: list[np.ndarray], low: list[np.ndarray], buffers: list[np.ndarray]
) -> np.ndarray:
    """Apply Kronecker factors to ``x`` (2^a, 2^b): ``high`` to its row bits, then ``low`` to its column bits.

    The one turn of a block, for the frame kernel and ``_dress``.  Each
    step is one matmul, written to the next of the two
    ``buffers``, lowest group of bits first in each list.  A row-bit factor
    f of size d multiplies x seen as (rest, d, below) from the left, which
    keeps the index order, so ``x`` may be a strided slice of a state's
    rows, read in place.  A column-bit factor multiplies the transpose of
    the contiguous input seen as (rest, d), written (d, rest), so the
    group's bits move to the front of the index and the next group trails;
    after all of them the column bits lead, in order, and the row bits
    trail.  The small factor is the left operand throughout, which keeps
    the BLAS packing buffers small.
    """
    below = x.shape[-1]
    for i, f in enumerate(high + low):
        d = len(f)
        out = buffers[i % 2][: x.size]
        if i < len(high):
            np.matmul(f, x.reshape(-1, d, below), out=out.reshape(-1, d, below))
            below *= d
        else:
            np.matmul(f, x.reshape(-1, d).T, out=out.reshape(d, -1))
        x = out
    return x


def _turns(
    state: np.ndarray, row_bits: range, col_bits: range, u: np.ndarray, buffers: list[np.ndarray]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The one block loop of a Kronecker turn: (block, turned block) per block that holds amplitude.

    ``state`` holds 2^M amplitudes in any C-contiguous shape.  A pass with
    row bits J, a run of qubits above the w lowest, reads blocks of the
    2^|J| rows of 2^w amplitudes that differ only in J: a (2^|J|, 2^w)
    strided slice of the state, read in place.  ``_rotate`` turns a block
    by the Kronecker factors (``_kron_factors``) of the unitaries ``u``
    (M, 2, 2) of J and of the column bits C, either range(w) or none.  A
    turned block lies in one of the two ``buffers``, of 2^b amplitudes
    each, until the next is turned.  The blocks of a pass split the
    state, so a pass turns each amplitude once.  A block that fails
    ``_holds_amplitude`` is skipped.  The frame kernel
    (``metric._frame_moments``, whose moments ``metric.metric_matrices``
    assembles into g) and ``_dress`` run it.

    The block width, stated here alone: w = |C|, or, in a pass that turns
    no column bits, as many low qubits as fill a buffer, w = b - |J|.
    Callers size the buffers and the plan, never the blocks.

    The identity rule, one for both: a pass whose unitaries of J and C
    all equal I exactly is held, and yields each block as it stands, the
    state's own, since identity factors give every amplitude back as it
    is.
    """
    w = len(col_bits) or buffers[0].size.bit_length() - 1 - len(row_bits)
    blocks = state.reshape(-1, 1 << len(row_bits), 1 << (row_bits.start - w), 1 << w)
    held = (u[[*row_bits, *col_bits]] == np.eye(2)).all()
    factors = _kron_factors(u, list(row_bits)), _kron_factors(u, list(col_bits))
    for outer, inner in np.ndindex(blocks.shape[0], blocks.shape[2]):
        blk = blocks[outer, :, inner, :]
        if _holds_amplitude(blk):
            yield blk, blk if held else _rotate(blk, *factors, buffers)


def _block_bits(k: int) -> int:
    """The block budget for rows of 2^k amplitudes: a block of the frame kernel, or of ``_dress`` at
    k = ROW_BITS, holds at most 2^(k + BLOCK_BITS) amplitudes."""
    return k + BLOCK_BITS


def _dress_passes(m: int) -> list[tuple[range, range]]:
    """The dressing's plan for m qubits: (row bits, column bits) per pass, in blocks of at most 2^b amplitudes.

    b = ``_block_bits(ROW_BITS)``, read at call time, the one budget of the
    dressing's blocks.  One pass turns the low L = min(m, b) qubits as
    column bits, a contiguous row of 2^L at a time, and one pass each run
    of at most b higher qubits as row bits.  Neither kind of pass mixes row
    and column bits, so ``_rotate`` gives each block back in its own index
    order.
    """
    b = _block_bits(ROW_BITS)
    low = min(m, b)
    return [(range(low, low), range(low))] + [(range(s, min(s + b, m)), range(0)) for s in range(low, m, b)]


def _dress(work: np.ndarray, u: np.ndarray) -> None:
    """Apply u_{M-1} x ... x u_0, ``u`` (M, 2, 2), to the 2^M amplitudes ``work`` in place, each qubit once.

    The one local-unitary turn of a state, for ``apply_local_unitary``
    and ``verify``'s dressings: the plan ``_dress_passes`` over ``_turns``,
    the frame kernel's block loop.  The turn allocates two buffers of 2^b
    amplitudes, b the low pass's width, and ``_turns`` states each pass's
    block width from them, so every block of the plan holds 2^b
    amplitudes.  Each turned block is copied back in place; a block that
    ``_turns`` skips stays as it is, and so does each block of a pass it
    holds, whose qubits all take the exact identity: numpy assigns a block
    onto itself for free.
    """
    passes = _dress_passes(work.size.bit_length() - 1)
    buffers = list(np.empty((2, 1 << len(passes[0][1])), dtype=np.complex128))
    for row_bits, col_bits in passes:
        for blk, turned in _turns(work, row_bits, col_bits, u, buffers):
            blk[...] = turned.reshape(blk.shape)


def apply_local_unitary(state: StateVector, unitaries) -> StateVector:
    """u_{M-1} x ... x u_0 times the state, for a field ``unitaries`` (M, 2, 2), one 2x2 unitary per qubit.

    The field passes ``validate_unitaries``; a qubit to leave alone takes
    the exact identity.  The amplitudes are copied and the copy is turned
    in place by ``_dress``, the dressing of ``verify.invariance_check``: at
    most two passes over the copy for every M <= 26, and a pass whose
    qubits all take the identity is held (``_turns``).  Up to 17 qubits
    the plan is one pass, so a one-qubit field there costs a whole one.
    The result is a new ``StateVector``, so its norm is checked.  It lies
    within ``metric._turn_gap`` of the plan, plus the given unitaries' own
    gap, of the exact turn, a bound that is an upper one when a pass is
    held.

    Each matrix within ``UNIT_TOL`` of unitary may still scale the squared
    norm by up to about 1 + 2 UNIT_TOL, and over M qubits the turned copy
    can leave ``NORM_TOL``.  That refusal is the field's, not the state's:
    its ValueError names the qubit of the largest max |U^H U - I|, that
    defect, and the squared norm before and after the turn.
    """
    m = state.num_qubits
    u = validate_unitaries(unitaries, m)
    work = state.amplitudes.copy()
    _dress(work, u)
    try:
        return StateVector(m, work)
    except ValueError:
        defect = _unitary_defect(u)
        q = int(np.argmax(defect))
        raise ValueError(
            f"the field moved the norm: sum |c_k|^2 = {float(_norm_sq(state.amplitudes))!r} before the turn "
            f"and {float(_norm_sq(work))!r} after; qubit {q} has the largest max |U^H U - I|, "
            f"{float(defect[q])!r}"
        ) from None


@functools.lru_cache(maxsize=None)
def _signs(n: int) -> np.ndarray:
    """(2^n, n) spins s_t(i) = +1 or -1 as bit t of i is clear or set, built once per n, read-only."""
    signs = 1.0 - 2.0 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
    signs.flags.writeable = False
    return signs


def _spin_moments(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second moments <s_t> (n,) and <s_t s_u> (n, n) of the bits of a 2^n distribution.

    The one helper for a distribution's spin moments, for the
    direction-frame kernel and the low qubits' w_3 of ``_row_bilinears``.
    The index splits into its high and low halves of bits, hi = n // 2 and
    lo = n - hi, and p into their (2^hi, 2^lo) table P.  Each half's first
    moments are its marginal @ spins and its second moments spins^T
    (marginal * spins), and the signed sum S_hi^T P S_lo gives the pairs
    across, so no sum runs over more than 2^hi + 2^lo terms in turn.
    """
    n = p.size.bit_length() - 1
    hi, lo = n // 2, n - n // 2
    s_hi, s_lo = _signs(hi), _signs(lo)
    table = p.reshape(1 << hi, 1 << lo)
    p_hi, p_lo = table.sum(axis=1), table.sum(axis=0)
    cross = s_hi.T @ table @ s_lo
    c_lo = s_lo.T @ (p_lo[:, None] * s_lo)
    c_hi = s_hi.T @ (p_hi[:, None] * s_hi)
    c = np.concatenate([np.concatenate([c_lo, cross.T], axis=1), np.concatenate([cross, c_hi], axis=1)])
    return np.concatenate([p_lo @ s_lo, p_hi @ s_hi]), c


def _row_bilinears(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bilinears ``(w_minus, w_3)`` (M,) of one state of M > k qubits from its ``row_view``.

    One pass over the (2^(M-k), 2^k) rows, one row at a time, so no
    temporary is larger than a row.  Each row's
    probabilities |c|^2 = re^2 + im^2 are added into a 2^k marginal of the k
    low qubits and their sum is kept as the row's total; w_3 then comes from
    these, the low qubits as the first moments (``_spin_moments``) of the
    marginal and the high qubits as the totals times ``_signs(M - k)``.
    Every w_minus is one formula: a vecdot of the two halves of each run of
    pairs, summed over the runs.  The row's index splits as ``_spin_moments`` splits one, into
    hi = k // 2 high and lo = k - hi low bits, and the row seen as (2^hi,
    2^lo) is copied, transposed, into one reused buffer, where a low qubit
    nu < lo sits at bit hi + nu: its runs are the copy's (2^(lo-1-nu), 2,
    2^(hi+nu)).  A qubit lo <= nu < k takes the row's own (2^(k-1-nu), 2,
    2^nu), and a high qubit nu, on rows with bit nu clear, takes ``_dot``
    of the partner row h ^ 2^(nu - k) with the row, in runs of 2^(k-1).  No
    run is shorter than 2^hi pairs (a vecdot per run of a few pairs costs
    more than the pairs it reads) nor longer than 2^(k-1), the cap of
    ``_dot``: a threaded BLAS dot of a whole row, 2^14 amplitudes, stalled
    for most of a second waking its threads, and one of at most 2^13 never
    did.  The rows' partial sums are added in row order.

    A row that fails ``_holds_amplitude`` is not read, and neither is a
    high qubit's pair with such a partner: their totals and partial sums
    stay +0.0.  Each row is tested once, before the pass.
    """
    n_rows, width = rows.shape
    k = width.bit_length() - 1
    high = n_rows.bit_length() - 1
    hi, lo = k // 2, k - k // 2
    live = [_holds_amplitude(row) for row in rows]
    marginal = np.zeros(width)
    totals = np.zeros(n_rows)
    parts = np.zeros((n_rows, k + high), dtype=np.complex128)
    probs = np.empty(width)
    im_sq = np.empty(width)
    flip = np.empty(width, dtype=np.complex128)
    for h, row in enumerate(rows):
        if not live[h]:
            continue
        # |c|^2 as re^2 + im^2 of the float views: np.abs is a hypot, four times the time
        np.square(row.real, out=probs)
        np.square(row.imag, out=im_sq)
        probs += im_sq
        marginal += probs
        totals[h] = probs.sum()
        np.copyto(flip.reshape(1 << lo, 1 << hi), row.reshape(1 << hi, 1 << lo).T)
        for nu in range(k):
            if nu < lo:
                view = flip.reshape(1 << (lo - 1 - nu), 2, 1 << (hi + nu))
            else:
                view = row.reshape(1 << (k - 1 - nu), 2, 1 << nu)
            parts[h, nu] = np.vecdot(view[:, 1, :], view[:, 0, :]).sum()
        for nu in range(k, k + high):
            partner = h ^ (1 << (nu - k))
            if partner > h and live[partner]:
                parts[h, nu] = _dot(rows[partner], row)
    w_3 = np.concatenate([_spin_moments(marginal)[0], totals @ _signs(high)])
    return parts.sum(axis=0), w_3


def bilinears(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-qubit amplitude bilinears of states with amplitudes ``(..., 2**M)``.

    Returns ``w_minus`` (complex) and ``w_3`` (real), each of shape
    ``(..., M)``.  w_minus sums c*_{k+2^nu} c_k over indices with qubit nu
    clear and w_3 is the signed probability sum (-1)^{bit nu of k} |c_k|^2;
    the third bilinear, w_plus, is conj(w_minus).  O(M 2^M) per state.
    M and the rows come from ``row_view``.

    A state of several rows goes to ``_row_bilinears``, one state at a
    time.  A state of M <= ROW_BITS qubits is one row, and the batch
    takes per qubit one einsum and two sums over the whole state, one
    per half of its pairs.  numpy adds each half pairwise over its
    2^(M-1) terms in index order, and below 8 terms a pairwise sum is a
    left-to-right sum.  So M <= 3 qubits hold their probabilities as
    (2^M, ...batch), the batch innermost, and add each half's terms one
    at a time, in index order, into a batch-wide accumulator: numpy's
    bits, from one vector add per term in place of one tiny reduction
    per state.  M >= 4 takes numpy's sums: an exact batch-innermost
    emulation of the pairwise blocks of 8 was slower than numpy's sums
    at a sweep chunk of M = 9 and at M = 14.  The
    batch is conjugated once, and each qubit's einsum reads its half from
    that copy: the values of a conjugated copy of the half, in a layout
    whose strides rank the reduction axes the same way, so einsum adds
    them in the same order and the bytes are those of a copy per qubit.
    A state gets the same bits alone or in a batch.
    """
    m, rows = row_view(amps)
    batch = rows.shape[:-2]
    w_minus = np.empty(batch + (m,), dtype=np.complex128)
    w_3 = np.empty(batch + (m,))
    if rows.shape[-2] > 1:
        for i in np.ndindex(batch):
            w_minus[i], w_3[i] = _row_bilinears(rows[i])
        return w_minus, w_3
    amps = rows[..., 0, :]
    shapes = [batch + (1 << (m - 1 - nu), 2, 1 << nu) for nu in range(m)]
    if m <= 3:
        probs = np.empty((1 << m,) + batch)  # the batch innermost: a half's term is one contiguous row
        np.abs(np.moveaxis(amps, -1, 0), out=probs)
        np.square(probs, out=probs)
        halves = np.empty(batch), np.empty(batch)
        for nu in range(m):
            for s in (0, 1):
                first, *rest = [k for k in range(1 << m) if (k >> nu) & 1 == s]
                np.copyto(halves[s], probs[first])
                for k in rest:
                    np.add(halves[s], probs[k], out=halves[s])
            np.subtract(*halves, out=w_3[..., nu])
        del halves
    else:
        probs = np.abs(amps)
        np.square(probs, out=probs)  # the bits of np.abs(amps) ** 2, one temporary fewer
        for nu, shape in enumerate(shapes):
            pview = probs.reshape(shape)
            w_3[..., nu] = pview[..., 0, :].sum(axis=(-2, -1)) - pview[..., 1, :].sum(axis=(-2, -1))
        del pview
    del probs  # the conjugate takes their place: one temporary of a batch's bytes at a time
    conj = np.conj(amps)
    for nu, shape in enumerate(shapes):
        upper, lower = conj.reshape(shape)[..., 1, :], amps.reshape(shape)[..., 0, :]
        w_minus[..., nu] = np.einsum("...ab,...ab->...", upper, lower)
    return w_minus, w_3


def bloch_vectors(w_minus: np.ndarray, w_3: np.ndarray) -> np.ndarray:
    """Reduced Bloch vectors (<X>, <Y>, <Z>) = (2 Re w_minus, -2 Im w_minus, w_3), shape (..., 3)."""
    return np.stack([2.0 * w_minus.real, -2.0 * w_minus.imag, w_3], axis=-1)


def _haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed 2x2 unitary via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def read_state_file(path: str | Path) -> StateVector:
    """Read a state from JSON {"m": M, "re": [...], "im": [...]}.

    Structural problems raise StateFileError; a state that parses but is
    not normalized raises ValueError from the StateVector constructor.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise StateFileError(f"cannot read state file {path}: {exc}") from exc
    if not isinstance(payload, dict) or not {"m", "re", "im"} <= payload.keys():
        raise StateFileError(f'state file {path} must be an object with keys "m", "re", "im"')
    try:
        m = validate_count('"m"', payload["m"], 1, MAX_QUBITS)
    except ValueError as exc:
        raise StateFileError(f"state file {path}: {exc}") from exc
    re, im = payload["re"], payload["im"]
    if not isinstance(re, list) or not isinstance(im, list) or len(re) != 2**m or len(im) != 2**m:
        raise StateFileError(f'state file {path}: "re" and "im" must be arrays of length 2**m')
    # only JSON numbers: numpy would also parse strings such as "1" or "nan" and booleans
    if not {*map(type, re), *map(type, im)} <= {int, float}:
        raise StateFileError(f"state file {path}: amplitude entries are not numbers")
    try:
        amps = np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise StateFileError(f"state file {path}: {exc}") from exc
    return StateVector(m, amps)


def write_state_file(path: str | Path, state: StateVector) -> None:
    """Write a state as JSON {"m": M, "re": [...], "im": [...]}."""
    payload = {
        "m": state.num_qubits,
        "re": state.amplitudes.real.tolist(),
        "im": state.amplitudes.imag.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
