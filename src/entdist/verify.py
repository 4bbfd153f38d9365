"""Independent numerical oracles for the analytic minimizer.

Three cross checks, none of which use the analytic minimizer v = b/|b|:

* a multi-start Riemannian gradient ascent of (v . b)^2 on the unit
  spheres, one per qubit, which minimizes the metric trace;
* single-qubit Bloch vectors from a pairwise-summed partial trace of the
  projector, validating the bilinear-to-Bloch identification;
* a local-unitary invariance harness dressing states with Haar-random
  single-qubit rotations.

``verify_state`` runs all three on one state against their thresholds and
returns the ``entdist verify`` record.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric import (
    _UNIT_ROUNDOFF,
    entanglement_measure,
    measure_from_bilinears,
    w_vectors,
)
from .qstate import (
    StateVector,
    _apply_one_qubit_matrix,
    _haar_unitary,
    bilinears,
    bloch_vectors,
    row_depth,
    validate_count,
    validate_directions,
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
    (``iterations`` counts them).  Deterministic for a fixed seed; the
    best restart wins.
    """
    restarts = validate_count("restarts", restarts, 1)
    seed = validate_count("seed", seed, 0)
    if not tol > 0.0:  # also true for NaN
        raise ValueError("tol must be positive")
    bloch = bloch_vectors(*bilinears(state.amplitudes))  # (m, 3)
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

    rho_ij sums psi_i conj(psi_j) over the other qubits' indices by
    ``np.sum``, pairwise (see ``bloch_tol``), over products of the
    qubit's two half-views; no temporary is larger than the state.
    """
    m = state.num_qubits
    qubit = validate_count("qubit index", qubit, 0, m - 1)
    psi = state.amplitudes.reshape(1 << (m - 1 - qubit), 2, 1 << qubit)
    half0, half1 = psi[:, 0, :], psi[:, 1, :]
    rho01 = np.sum(half0 * np.conj(half1))
    rho00 = np.sum(np.abs(half0) ** 2)
    rho11 = np.sum(np.abs(half1) ** 2)
    return np.array([[rho00, rho01], [np.conj(rho01), rho11]])


def bloch_tol(m: int) -> float:
    """Largest rounding gap between the kernel's and the partial trace's m-qubit Bloch vectors.

    Each component is a sum of amplitude products whose magnitudes add up
    to at most 1 for a normalized state (Cauchy-Schwarz), so a sum of depth
    n is off by at most gamma_n + sqrt(2) gamma_2 ~ (n + 3) u, u = 2^-53
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 4).  The
    depth is at most ``row_depth(m)`` for ``qstate.bilinears``, whose sums
    ``metric.trace_tol`` takes one by one; the signs of w_3 multiply
    exactly.  The oracle's
    ``np.sum`` of N = 2^(m-1) terms is pairwise: depth at most 25 within a
    block of 128 (eight accumulators of 16 terms, three levels, 7 leftover
    terms), one more per halving of a longer array (at most m - 6) and one
    for the start value, so at most m + 20, and never more than N.  The
    bound 2 (n_kernel + n_oracle + 3) u covers the sum of the two errors:
    3.7e-12 at m = 20, 3.3e-15 at m = 3.
    """
    return 2.0 * (row_depth(m) + min(1 << (m - 1), m + 20) + 3) * _UNIT_ROUNDOFF


def invariance_check(state: StateVector, trials: int, seed: int = 0) -> float:
    """Max |E(dressed) - E(state)| over Haar-random local dressings.

    Each trial applies an independent Haar unitary to every qubit of the
    amplitude array, as ``apply_local_unitary`` would, and takes E of the
    result; a unitary keeps the norm, so the dressed array is not
    revalidated.  Deterministic for a fixed seed.
    """
    trials = validate_count("trials", trials, 1)
    seed = validate_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    m = state.num_qubits
    base = entanglement_measure(state)
    worst = 0.0
    for _ in range(trials):
        dressed = state.amplitudes
        for qubit in range(m):
            dressed = _apply_one_qubit_matrix(dressed, m, qubit, _haar_unitary(rng))
        worst = max(worst, abs(float(measure_from_bilinears(*bilinears(dressed))) - base))
    return worst


def verify_state(state: StateVector, trials: int, restarts: int, seed: int) -> dict:
    """The ``entdist verify`` record: E and the three oracle checks against their thresholds.

    E and the Bloch vectors come from one ``w_vectors`` call.  The
    invariance dressings are drawn from ``seed`` and the ascent starts from
    ``seed + 1``.  A check fails unless its gap is below its threshold;
    ``failed_checks`` names the failures in the order of ``thresholds``.
    """
    w_minus, w_3 = w_vectors(state)
    analytic = float(measure_from_bilinears(w_minus, w_3))
    deviation = invariance_check(state, trials=trials, seed=seed)
    report = minimize_trace_numeric(state, restarts=restarts, seed=seed + 1)
    bloch_gap = max(
        float(np.max(np.abs(b - bloch_vector_oracle(state, nu))))
        for nu, b in enumerate(bloch_vectors(w_minus, w_3))
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
