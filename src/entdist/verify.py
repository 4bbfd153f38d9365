"""Independent numerical oracles for the analytic minimizer.

Three cross checks, none of which use the analytic minimizer v = b/|b|:

* a Riemannian gradient ascent of (v . b)^2 on the unit spheres, one
  start per qubit, which minimizes the metric trace;
* single-qubit Bloch vectors from a pairwise-summed partial trace of the
  projector, validating the bilinear-to-Bloch identification;
* a local-unitary invariance harness dressing states with Haar-random
  single-qubit rotations.

The owners:

- ``verify_state``: the ``entdist verify`` record, each check against its threshold.
- ``minimize_trace_numeric``: the ascent; ``optimizer_tol`` its bound.
- ``reduced_density_matrix``: the partial trace; ``bloch_tol`` its bound.
- ``_dressings``: the dressings and their memory, each one
  ``qstate._dress``, the turn of ``apply_local_unitary``, which sizes
  its own blocks; ``qstate._dress_passes`` plans them, and
  ``invariance_tol`` holds ``invariance_check`` to ``metric._turn_gap``
  of that plan, read at call time.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import qstate
from .metric import (
    _UNIT_ROUNDOFF,
    _field_traces,
    _turn_gap,
    entanglement_measure,
    measure_from_bilinears,
    measure_tol,
    w_vectors,
)
from .qstate import (
    StateVector,
    _dress,
    _dress_passes,
    _haar_unitary,
    bilinears,
    bloch_vectors,
    row_depth,
    validate_count,
    validate_directions,
)

# a qubit moves while its gradient norm exceeds this share of |b|^2 (see minimize_trace_numeric)
GRADIENT_TOL = 1e-8
MAX_STEPS = 100  # ascent steps before minimize_trace_numeric reports no convergence
# the largest singular-value gap from 1 that invariance_tol takes for one computed Haar draw
HAAR_DRAW_GAP = 16 * _UNIT_ROUNDOFF


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


def minimize_trace_numeric(state: StateVector, seed: int = 0) -> OptimizerReport:
    """Minimize the metric trace over direction fields by a sphere ascent.

    Each qubit contributes (1 - (v . b)^2) / 4 to the trace, b its Bloch
    vector, so each v maximizes p^2 = (v . b)^2 on its own sphere.  The
    qubits ascend as one (M, 3) array of unit rows from one Gaussian start
    each.  A step adds 1/L times the Riemannian gradient 2 p (b - p v),
    L = 2 |b|^2, and renormalizes the row, the retraction onto the sphere
    (Absil, Mahony and Sepulchre, Optimization Algorithms on Matrix
    Manifolds, 2008).  With c = v . b/|b| = cos(theta) that step is
    v + c (b/|b| - c v), renormalized, which does not depend on |b|, and
    the gradient norm is 2 |b|^2 |c| |b/|b| - c v| = |b|^2 |sin 2 theta|.
    So the stop rule is scale-free too: a qubit moves while |sin 2 theta|
    > ``GRADIENT_TOL``, its gradient norm above ``GRADIENT_TOL`` |b|^2,
    and a qubit with b = 0 never moves.  The ascent runs on b/|b|, taken
    after scaling b by its largest component, so a tiny b underflows
    nowhere.  It stops when no qubit moves (``converged``) or after
    ``MAX_STEPS`` steps (``iterations`` counts them).  Near the equator c
    about doubles per step, and near the pole sin(theta) about cubes, so a
    start at c = 1e-6 converges in about 25 steps.  A start with |c| <=
    ``GRADIENT_TOL``/2 would stay put, its term off by up to |b|^2 / 4, so
    a qubit with b != 0 whose start has |c| <= ``GRADIENT_TOL`` draws its
    start again from the same generator until it lies off the equator;
    from there it converges in about 30 steps.  For a uniform start on the
    sphere c is uniform on [-1, 1] (Archimedes), so a redraw happens with
    probability ``GRADIENT_TOL`` per qubit, and the other starts are those
    of the first draw.  The trace is ``metric._field_traces``,
    ``distance_density``'s formula.  Deterministic for a fixed seed.
    """
    seed = validate_count("seed", seed, 0)
    return _minimize_trace(bloch_vectors(*w_vectors(state)), seed)


def _minimize_trace(bloch: np.ndarray, seed: int) -> OptimizerReport:
    """``minimize_trace_numeric`` of a valid seed, from the state's (M, 3) Bloch vectors."""
    scale = np.max(np.abs(bloch), axis=1, keepdims=True)
    unit = np.divide(bloch, scale, out=np.zeros_like(bloch), where=scale > 0.0)
    unit /= np.maximum(np.linalg.norm(unit, axis=1, keepdims=True), 1.0)  # a zero row stays 0
    rng = np.random.default_rng(seed)
    v = np.empty_like(bloch)
    draw = np.ones(len(v), dtype=bool)
    while draw.any():
        start = rng.normal(size=(np.count_nonzero(draw), 3))
        v[draw] = start / np.linalg.norm(start, axis=1, keepdims=True)
        draw = (np.abs(np.sum(v * unit, axis=1)) <= GRADIENT_TOL) & unit.any(axis=1)
    for steps in range(MAX_STEPS + 1):
        c = np.sum(v * unit, axis=1, keepdims=True)
        tangent = unit - c * v
        active = 2.0 * np.abs(c[:, 0]) * np.linalg.norm(tangent, axis=1) > GRADIENT_TOL
        if steps == MAX_STEPS or not active.any():
            break
        moved = v[active] + c[active] * tangent[active]
        v[active] = moved / np.linalg.norm(moved, axis=1, keepdims=True)
    return OptimizerReport(float(_field_traces(v, bloch)), v, not active.any(), steps)


def optimizer_tol(m: int) -> float:
    """Largest gap |trace at the ascent's field - E| that ``verify_state`` accepts at m qubits.

    Both values come from the same computed bilinears w, so only what each
    computes from w differs; take b and |b|^2 = w_3^2 + 4 |w_minus|^2 as
    exact, |b|^2 <= 1 (to first order), and u = 2^-53.

    * The ascent's stop: a qubit that stopped near its pole has
      sin(theta)^2 (1 - sin(theta)^2) <= ``GRADIENT_TOL``^2 / 4, so its
      term (1 - |b|^2 cos(theta)^2) / 4 lies within |b|^2
      ``GRADIENT_TOL``^2 / 16 of the optimum (1 - |b|^2) / 4.  Twice that,
      m ``GRADIENT_TOL``^2 / 8 for m qubits, covers the factor
      1 - sin(theta)^2 and the stop test's rounding, which moves sin(theta)
      by a few u against its ~``GRADIENT_TOL``/2.  A computed unit row has
      |v|^2 within 9 u of 1, which moves each (v . b)^2 by at most 9 u
      and its term by 9 u / 4.
    * The trace, ``metric._field_traces``: e = v . b is within 3 u, so e^2
      within 7 u and each term (1 - e^2) / 4 within 2 u; adding the m
      terms, each at most 1/4, adds at most (m - 1) m u / 4.
    * E, ``metric.measure_from_bilinears``: each term w_3^2 + 4
      |w_minus|^2, hypot within 2 u, is within 6 u of |b|^2; adding the m
      terms adds (m - 1) m u and the subtraction from m adds m u, all
      divided by 4.

    The sum, m (m + 11) u / 2 + m ``GRADIENT_TOL``^2 / 8, is 2.4e-15 at
    m = 3, 1.0e-14 at m = 9, 2.4e-14 at m = 16 and 5.4e-14 at m = 26.
    """
    return m * (m + 11) * _UNIT_ROUNDOFF / 2.0 + m * GRADIENT_TOL**2 / 8.0


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
    chunks of 2^c pairs, c = min(M - 1, ``qstate.ROW_BITS``), read at call
    time as every reader of the row width reads it: a chunk is whole
    2^qubit runs of the half-views for a qubit below c, and a piece of one
    run above it.  A chunk's products psi_0 conj(psi_1), and the squares of
    the real and imaginary parts of psi_0 and of psi_1, go to contiguous
    buffers that ``np.sum`` adds pairwise, and one more pairwise ``np.sum``
    adds the chunks' partials (see ``_oracle_depth``).  The state is read in
    place, never copied: no temporary is larger than a chunk, 2^c complex
    entries.
    """
    m = state.num_qubits
    qubit = validate_count("qubit index", qubit, 0, m - 1)
    chunk = 1 << min(m - 1, qstate.ROW_BITS)
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
    """Rounding depth of a pairwise ``np.sum`` of 2^bits contiguous terms.

    Within a block of 128 terms numpy keeps eight accumulators of 16 terms
    and adds them in three levels: depth at most 25, with 7 leftover terms.
    A longer array adds one per halving (at most bits - 5), and the start
    value one more: at most bits + 21, and never more than 2^bits.
    """
    return min(1 << bits, bits + 21)


def _oracle_depth(m: int) -> int:
    """Rounding depth of ``reduced_density_matrix`` at m qubits: a chunk's sum, then the partials'.

    A nested sum's depth is the sum of the two depths.  A chunk of 2^c
    pairs, c = min(m - 1, ``qstate.ROW_BITS``) read at call time, sums 2^c
    products for rho_01 and 2^(c+1) squares, each exact but for one
    rounding, for rho_00 or rho_11.  The sum of the 2^(m - 1 - c) partials
    adds its own depth when there are several.  So the depth is
    min(2^m, m + 21) up to m = ROW_BITS + 1, and 36 + min(2^(m-15), m + 6)
    above it: 62 at m = 20 and 68 at m = 26.
    """
    c = min(m - 1, qstate.ROW_BITS)
    return _sum_depth(c + 1) + (_sum_depth(m - 1 - c) if m - 1 > c else 0)


def bloch_tol(m: int) -> float:
    """Largest rounding gap between the kernel's and the partial trace's m-qubit Bloch vectors.

    Each component is a sum of amplitude products whose magnitudes add up
    to at most 1 for a normalized state (Cauchy-Schwarz), so a sum of depth
    n is off by at most gamma_n + sqrt(2) gamma_2 ~ (n + 3) u, u = 2^-53
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 4).  The
    depth is at most ``row_depth(m)`` for ``qstate.bilinears``, whose sums
    ``metric.trace_tol`` takes one by one; the signs of w_3 multiply
    exactly.  The oracle's depth is ``_oracle_depth(m)``.  The bound
    2 (n_kernel + n_oracle + 3) u covers the sum of the two errors:
    4.2e-15 at m = 3, 3.7e-12 at m = 20 and 4.6e-12 at m = 26.
    """
    return 2.0 * (row_depth(m) + _oracle_depth(m) + 3) * _UNIT_ROUNDOFF


def invariance_tol(m: int) -> float:
    """Largest rounding gap |E(dressed) - E(state)| that ``invariance_check`` can show at m qubits.

    To first order in u = 2^-53, for a normalized state, as ``bloch_tol``.
    A dressing multiplies the state by U = u_{M-1} x ... x u_0, the Haar
    draws as computed.  Each draw is W P, W unitary and |P - I|_2 its
    largest singular-value gap from 1.  Householder QR makes that gap a
    small multiple of u whose constant Higham leaves open (Accuracy and
    Stability of Numerical Algorithms, ch. 19); the largest of 2 10^6
    draws, measured in extended precision, is 10.6 u, and the bound takes
    ``HAAR_DRAW_GAP`` = 16 u a draw (``tests/test_qstate.py`` holds the
    draws to it).  So U is within m ``HAAR_DRAW_GAP`` of the unitary W =
    W_{M-1} x ... x W_0 in the 2-norm.  The dressing computes U times the
    state within ``metric._turn_gap`` of its plan, ``qstate._dress_passes``
    as it runs, so the dressed vector lies within delta = ``metric._turn_gap``
    + m ``HAAR_DRAW_GAP`` of W times the state.

    * The change in E: W turns each Bloch vector b_nu by a rotation, so E
      of W times the state is E.  For a unit v, v . b_nu is the
      expectation of an observable of norm 1, which a vector off by delta
      moves by at most 2 delta; |b_nu| is the largest such v . b_nu, so it
      moves by at most 2 delta too, and |b_nu|^2 <= 1 by at most 4 delta.
      E = (m - sum_nu |b_nu|^2) / 4, clamped at 0, so it moves by at most
      m delta.
    * E's own rounding, ``metric.measure_tol(m)`` for each of the two E
      values, both taken by ``measure_from_bilinears`` of ``bilinears``.

    The bound m delta + 2 measure_tol(m) is 3.4e-15 at m = 1, 5.8e-14 at
    m = 3, 3.8e-11 at m = 16, 4.8e-11 at m = 20 and 7.9e-11 at m = 26.
    The dressing's share m delta is the larger up to m = 9, E's rounding
    from m = 10 on: m delta is 2.6e-12 of the 3.8e-11 at m = 16.
    """
    delta = _turn_gap(_dress_passes(m)) + m * HAAR_DRAW_GAP
    return m * delta + 2.0 * measure_tol(m)


def _dressings(state: StateVector, trials: int, seed: int) -> Iterator[np.ndarray]:
    """Yield ``trials`` Haar-random local dressings of ``state``, each in the same reused array.

    Each trial draws one Haar unitary per qubit, qubit 0 first, and applies
    them by ``qstate._dress`` to a fresh copy of the amplitudes.  So the
    state is copied into one array for all trials, and turned in place in
    blocks of at most 2^b amplitudes, b = ``qstate._block_bits(ROW_BITS)``,
    the direction-frame kernel's block budget, in the two buffers that
    ``_dress`` allocates per trial, whatever M; ``qstate._turns`` states
    each pass's block width from them.  At most two passes over the copy
    for every M <= 26.  A yielded array is overwritten by the next trial.
    """
    rng = np.random.default_rng(seed)
    m = state.num_qubits
    work = np.empty(1 << m, dtype=np.complex128)
    for _ in range(trials):
        u = np.array([_haar_unitary(rng) for _ in range(m)])
        np.copyto(work, state.amplitudes)
        _dress(work, u)
        yield work


def invariance_check(state: StateVector, trials: int, seed: int = 0) -> float:
    """Max |E(dressed) - E(state)| over Haar-random local dressings.

    Each trial takes E of one dressing of ``_dressings``, the turn of
    ``apply_local_unitary`` by the trial's field of Haar draws: the same
    ``qstate._dress``, its blocks and its bytes.  A unitary keeps the norm,
    so the dressed array is not revalidated.  Deterministic for a fixed
    seed.
    """
    trials, seed = validate_count("trials", trials, 1), validate_count("seed", seed, 0)
    return _invariance_check(state, trials, seed, entanglement_measure(state))


def _invariance_check(state: StateVector, trials: int, seed: int, base: float) -> float:
    """``invariance_check`` of valid counts against ``base``, E of the state."""
    return max(
        abs(float(measure_from_bilinears(*bilinears(dressed))) - base)
        for dressed in _dressings(state, trials, seed)
    )


def verify_state(state: StateVector, trials: int, seed: int) -> dict:
    """The ``entdist verify`` record: E and the three oracle checks against their thresholds.

    E, the ascent's Bloch vectors and the Bloch check's come from one
    ``w_vectors`` call, the one bilinear pass over the state itself.  The
    invariance dressings are drawn from ``seed`` and the ascent starts from
    ``seed + 1``.  A check fails unless its gap is below its threshold;
    ``failed_checks`` names the failures in the order of ``thresholds``.
    ``trials`` and ``seed`` pass ``qstate.validate_count`` before any pass
    over the state.  It holds the state and what ``_dressings`` holds,
    whatever M.
    """
    trials, seed = validate_count("trials", trials, 1), validate_count("seed", seed, 0)
    w_minus, w_3 = w_vectors(state)
    analytic = float(measure_from_bilinears(w_minus, w_3))
    bloch = bloch_vectors(w_minus, w_3)
    deviation = _invariance_check(state, trials, seed, analytic)
    report = _minimize_trace(bloch, seed + 1)
    bloch_gap = max(
        float(np.max(np.abs(b - bloch_vector_oracle(state, nu)))) for nu, b in enumerate(bloch)
    )
    gaps = {"invariance": deviation, "optimizer": abs(report.value - analytic), "bloch": bloch_gap}
    m = state.num_qubits
    thresholds = {"invariance": invariance_tol(m), "optimizer": optimizer_tol(m), "bloch": bloch_tol(m)}
    failed = [name for name, tol in thresholds.items() if not gaps[name] < tol]
    return {
        "m": m,
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
