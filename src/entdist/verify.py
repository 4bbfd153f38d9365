"""Independent numerical oracles for the analytic minimizer.

Three cross checks, none of which use the analytic minimizer v = b/|b|:

* a multi-start Riemannian gradient ascent of (v . b)^2 on the unit
  spheres, one per qubit, which minimizes the metric trace;
* single-qubit Bloch vectors from a pairwise-summed partial trace of the
  projector, validating the bilinear-to-Bloch identification;
* a local-unitary invariance harness dressing states with Haar-random
  single-qubit rotations.

``verify_state`` runs all three on one state against their thresholds and
returns the ``entdist verify`` record.  It holds the state, one copy for
the dressings and two blocks of at most 2^(ROW_BITS + BLOCK_BITS)
amplitudes, the direction-frame kernel's block budget, whatever M: the
partial trace reads the state in chunks of 2^ROW_BITS pairs, and each
dressing turns the copy in place through the frame kernel's block loop,
``metric._turns``, and its ``_rotate``, each qubit once, in at most two
passes over the copy.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .metric import (
    BLOCK_BITS,
    _UNIT_ROUNDOFF,
    _turns,
    entanglement_measure,
    measure_from_bilinears,
    w_vectors,
)
from .qstate import (
    ROW_BITS,
    StateVector,
    _haar_unitary,
    bilinears,
    bloch_vectors,
    row_depth,
    validate_count,
    validate_directions,
    validate_real,
)

DEFAULT_RESTARTS = 8
DEFAULT_TOL = 1e-8
MAX_STEPS = 100  # ascent steps before minimize_trace_numeric reports no convergence

# thresholds that verify_state enforces; the Bloch one is bloch_tol(M)
INVARIANCE_TOL = 1e-9
OPTIMIZER_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class OptimizerReport:
    """Outcome of the numeric trace minimization; ``directions`` is a read-only (M, 3) copy."""

    value: float
    directions: np.ndarray
    converged: bool
    iterations: int

    def __post_init__(self) -> None:
        dirs = validate_directions(self.directions, np.shape(self.directions)[:1] + (3,)).copy()
        dirs.flags.writeable = False
        object.__setattr__(self, "directions", dirs)


def minimize_trace_numeric(
    state: StateVector,
    restarts: int = DEFAULT_RESTARTS,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> OptimizerReport:
    """Minimize the metric trace over direction fields by a sphere ascent.

    Each qubit contributes (1 - (v . b)^2) / 4 to the trace, b its Bloch
    vector, so each v maximizes p^2 = (v . b)^2 on its own sphere.  All
    restarts and qubits ascend as one (restarts, M, 3) array of unit rows
    from Gaussian starts.  A step adds 1/L times the Riemannian gradient
    2 p (b - p v), L = 2 |b|^2, and renormalizes each row, the retraction
    onto the sphere (Absil, Mahony and Sepulchre, Optimization Algorithms
    on Matrix Manifolds, 2008).  Only rows whose gradient norm is at least
    ``tol`` move, which keeps a vanishing L out of the division; the ascent
    stops when none does (``converged``) or after ``MAX_STEPS`` steps
    (``iterations`` counts them).  ``tol`` passes ``qstate.validate_real``
    and must be positive.  Deterministic for a fixed seed; the best
    restart wins.
    """
    restarts, seed = validate_count("restarts", restarts, 1), validate_count("seed", seed, 0)
    tol = validate_real("tol", tol)
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    return _minimize_trace(bloch_vectors(*w_vectors(state)), restarts, tol, seed)


def _minimize_trace(bloch: np.ndarray, restarts: int, tol: float, seed: int) -> OptimizerReport:
    """``minimize_trace_numeric`` of valid arguments, from the state's (M, 3) Bloch vectors."""
    lipschitz = 2.0 * np.sum(bloch * bloch, axis=1)
    v = np.random.default_rng(seed).normal(size=(restarts,) + bloch.shape)
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    for steps in range(MAX_STEPS + 1):
        proj = np.sum(v * bloch, axis=-1, keepdims=True)
        grad = 2.0 * proj * (bloch - proj * v)
        active = np.linalg.norm(grad, axis=-1) >= tol
        if steps == MAX_STEPS or not active.any():
            break
        moved = v[active] + grad[active] / lipschitz[active.nonzero()[1], None]
        v[active] = moved / np.linalg.norm(moved, axis=-1, keepdims=True)
    # clipped, as ``distance_density`` clamps 1 - e^2 at 0: rounding in |b| can push (v . b)^2 past 1
    values = 0.25 * np.sum(1.0 - np.clip(proj[..., 0], -1.0, 1.0) ** 2, axis=-1)
    best = int(np.argmin(values))
    return OptimizerReport(float(values[best]), v[best], not active.any(), steps)


def bloch_vector_oracle(state: StateVector, qubit: int) -> np.ndarray:
    """Bloch vector of one qubit via an explicit partial trace.

    Reduces the projector |s><s| to a 2x2 density matrix by summing over
    all other indices, then reads off (<X>, <Y>, <Z>).
    """
    rho = reduced_density_matrix(state, qubit)
    return np.array(
        [
            2.0 * rho[0, 1].real,
            -2.0 * rho[0, 1].imag,
            (rho[0, 0] - rho[1, 1]).real,
        ]
    )


def reduced_density_matrix(state: StateVector, qubit: int) -> np.ndarray:
    """One-qubit reduced density matrix from the partial-trace oracle.

    rho_ij sums psi_i conj(psi_j) over the other qubits' indices, psi_0 and
    psi_1 the qubit's two half-views of the state.  The sums run over
    chunks of 2^c pairs, c = min(M - 1, ROW_BITS): a chunk is whole
    2^qubit runs of the half-views for a qubit below c, and a piece of one
    run above it.  A chunk's products psi_0 conj(psi_1), and the squares of
    the real and imaginary parts of psi_0 and of psi_1, go to contiguous
    buffers that ``np.sum`` adds pairwise, and one more pairwise ``np.sum``
    adds the chunks' partials (see ``bloch_tol``).  The state is read in
    place, never copied: no temporary is larger than a chunk, 2^c complex
    entries.
    """
    m = state.num_qubits
    qubit = validate_count("qubit index", qubit, 0, m - 1)
    chunk = 1 << min(m - 1, ROW_BITS)
    inner = 1 << qubit
    width = min(inner, chunk)
    shape = (-1, chunk // width, 2, inner // width, width)  # (row groups, rows, half, runs, width)
    psi = state.amplitudes.reshape(shape)
    floats = state.amplitudes.view(np.float64).reshape(psi.shape[:-1] + (2 * width,))
    groups, runs = psi.shape[0], psi.shape[3]
    off = np.empty(groups * runs, dtype=np.complex128)
    diag = np.empty((2, groups * runs))
    prod = np.empty((psi.shape[1], width), dtype=np.complex128)
    squares = np.empty((psi.shape[1], 2 * width))
    for i, (g, r) in enumerate(np.ndindex(groups, runs)):
        for h in (0, 1):
            np.square(floats[g, :, h, r], out=squares)
            diag[h, i] = np.sum(squares)
        np.conjugate(psi[g, :, 1, r], out=prod)
        prod *= psi[g, :, 0, r]
        off[i] = np.sum(prod)
    rho01 = np.sum(off)
    return np.array([[np.sum(diag[0]), rho01], [np.conj(rho01), np.sum(diag[1])]])


def _sum_depth(bits: int) -> int:
    """Rounding depth of a pairwise ``np.sum`` of 2^bits contiguous terms (see ``bloch_tol``)."""
    return min(1 << bits, bits + 21)


def _oracle_depth(m: int) -> int:
    """Rounding depth of the partial trace's nested sums at m qubits: a chunk's 2^(c+1) squares, then the partials."""
    c = min(m - 1, ROW_BITS)
    return _sum_depth(c + 1) + (_sum_depth(m - 1 - c) if m - 1 > c else 0)


def bloch_tol(m: int) -> float:
    """Largest rounding gap between the kernel's and the partial trace's m-qubit Bloch vectors.

    Each component is a sum of amplitude products whose magnitudes add up
    to at most 1 for a normalized state (Cauchy-Schwarz), so a sum of depth
    n is off by at most gamma_n + sqrt(2) gamma_2 ~ (n + 3) u, u = 2^-53
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 4).  The
    depth is at most ``row_depth(m)`` for ``qstate.bilinears``, whose sums
    ``metric.trace_tol`` takes one by one; the signs of w_3 multiply
    exactly.

    The oracle nests two pairwise ``np.sum`` calls over contiguous arrays,
    and a nested sum's depth is the sum of the two depths.  A pairwise sum
    of 2^j terms has depth at most 25 within a block of 128 (eight
    accumulators of 16 terms, three levels, 7 leftover terms), one more
    per halving of a longer array (at most j - 5) and one for the start
    value, so at most j + 21, and never more than 2^j.  A chunk of 2^c
    pairs, c = min(m - 1, ROW_BITS), sums 2^c products for rho_01 and
    2^(c+1) squares, each exact but for one rounding, for rho_00 or
    rho_11: depth at most j + 21 with j = c + 1.  The sum of the
    2^(m - 1 - c) partials adds j + 21 more with j = m - 1 - c when there
    are several, and nothing when there is one.  So the oracle's depth is
    min(2^m, m + 21) up to m = ROW_BITS + 1, and 36 + min(2^(m-15),
    m + 6) above it: 62 at m = 20 and 68 at m = 26.  The bound
    2 (n_kernel + n_oracle + 3) u covers the sum of the two errors:
    4.2e-15 at m = 3, 3.7e-12 at m = 20 and 4.6e-12 at m = 26.
    """
    return 2.0 * (row_depth(m) + _oracle_depth(m) + 3) * _UNIT_ROUNDOFF


def _dress(work: np.ndarray, u: np.ndarray, buffers: list[np.ndarray]) -> None:
    """Apply u_{M-1} x ... x u_0, ``u`` (M, 2, 2), to the 2^M amplitudes ``work`` in place, each qubit once.

    A plan over ``metric._turns``, the frame kernel's block loop, in
    blocks of 2^b amplitudes, the size of each of the two ``buffers``: one
    pass turns the low L = min(M, b) qubits as column bits, a contiguous
    row of 2^L at a time, and one pass each run of at most b higher qubits
    as row bits.  Neither kind of pass mixes row and column
    bits, so ``metric._rotate`` gives each block back in its own index
    order, and it is copied back in place.  A block that holds no
    amplitude is skipped and stays as it is.
    """
    m, b = work.size.bit_length() - 1, buffers[0].size.bit_length() - 1
    low = min(m, b)
    runs = [range(s, min(s + b, m)) for s in range(low, m, b)]
    for row_bits, col_bits in [(range(low, low), range(low))] + [(run, range(0)) for run in runs]:
        w = len(col_bits) or b - len(row_bits)
        for blk, turned in _turns(work, row_bits, col_bits, w, u, buffers):
            blk[...] = turned.reshape(blk.shape)


def _dressings(state: StateVector, trials: int, seed: int) -> Iterator[np.ndarray]:
    """Yield ``trials`` Haar-random local dressings of ``state``, each in the same reused array.

    Each trial draws one Haar unitary per qubit, qubit 0 first, and applies
    them by ``_dress`` to a fresh copy of the amplitudes, so the state is
    copied into one array for all trials, and turned in blocks of at most
    2^(ROW_BITS + BLOCK_BITS) amplitudes, the direction-frame kernel's
    block budget, through two buffers of a block each: at most two passes
    over the copy for every M <= 26.  A yielded array is overwritten by the
    next trial.
    """
    rng = np.random.default_rng(seed)
    m = state.num_qubits
    work = np.empty(1 << m, dtype=np.complex128)
    buffers = list(np.empty((2, min(1 << (ROW_BITS + BLOCK_BITS), 1 << m)), dtype=np.complex128))
    for _ in range(trials):
        u = np.array([_haar_unitary(rng) for _ in range(m)])
        np.copyto(work, state.amplitudes)
        _dress(work, u, buffers)
        yield work


def invariance_check(state: StateVector, trials: int, seed: int = 0) -> float:
    """Max |E(dressed) - E(state)| over Haar-random local dressings.

    Each trial draws an independent Haar unitary for every qubit, qubit 0
    first, and applies them all to a copy of the amplitudes, the dressing
    that M ``apply_local_unitary`` calls would give, but in place, by the
    direction-frame kernel's Kronecker turns of four qubits at a time
    (``_dressings``); it takes E of the result.  A unitary keeps the norm,
    so the dressed array is not revalidated.
    Deterministic for a fixed seed.
    """
    trials, seed = validate_count("trials", trials, 1), validate_count("seed", seed, 0)
    return _invariance_check(state, trials, seed, entanglement_measure(state))


def _invariance_check(state: StateVector, trials: int, seed: int, base: float) -> float:
    """``invariance_check`` of valid counts against ``base``, E of the state."""
    return max(
        abs(float(measure_from_bilinears(*bilinears(dressed))) - base)
        for dressed in _dressings(state, trials, seed)
    )


def verify_state(state: StateVector, trials: int, restarts: int, seed: int) -> dict:
    """The ``entdist verify`` record: E and the three oracle checks against their thresholds.

    E, the ascent's Bloch vectors and the Bloch check's come from one
    ``w_vectors`` call, the one bilinear pass over the state itself.  The
    invariance dressings are drawn from ``seed`` and the ascent starts from
    ``seed + 1``.  A check fails unless its gap is below its threshold;
    ``failed_checks`` names the failures in the order of ``thresholds``.
    ``trials``, ``restarts`` and ``seed`` pass ``qstate.validate_count``
    before any pass over the state.
    """
    trials = validate_count("trials", trials, 1)
    restarts = validate_count("restarts", restarts, 1)
    seed = validate_count("seed", seed, 0)
    w_minus, w_3 = w_vectors(state)
    analytic = float(measure_from_bilinears(w_minus, w_3))
    bloch = bloch_vectors(w_minus, w_3)
    deviation = _invariance_check(state, trials, seed, analytic)
    report = _minimize_trace(bloch, restarts, DEFAULT_TOL, seed + 1)
    bloch_gap = max(
        float(np.max(np.abs(b - bloch_vector_oracle(state, nu)))) for nu, b in enumerate(bloch)
    )
    gaps = {"invariance": deviation, "optimizer": abs(report.value - analytic), "bloch": bloch_gap}
    thresholds = {"invariance": INVARIANCE_TOL, "optimizer": OPTIMIZER_TOL}
    thresholds["bloch"] = bloch_tol(state.num_qubits)
    failed = [name for name, tol in thresholds.items() if not gaps[name] < tol]
    return {
        "m": state.num_qubits,
        "analytic_measure": analytic,
        "invariance_max_deviation": deviation,
        "optimizer_value": report.value,
        "optimizer_gap": gaps["optimizer"],
        "optimizer_converged": report.converged,
        "bloch_gap": bloch_gap,
        "passed": not failed,
        "thresholds": thresholds,
        "failed_checks": failed,
    }
