"""Independent numerical oracles for the analytic minimizer.

Three cross checks, none of which use the analytic minimizer v = b/|b|:

* direct multi-start descent of the metric trace over the product of unit
  spheres (one spherical pair per qubit), on expectation triples from the
  shared bilinear kernel;
* single-qubit Bloch vectors from an explicit partial trace of the
  projector, validating the bilinear-to-Bloch identification;
* a local-unitary invariance harness dressing states with Haar-random
  single-qubit rotations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric import entanglement_measure
from .qstate import (
    Direction,
    LocalUnitary,
    StateVector,
    _haar_unitary,
    apply_local_unitary,
    bilinears,
    bloch_vectors,
)

DEFAULT_RESTARTS = 8
DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class OptimizerReport:
    """Outcome of the numeric trace minimization."""

    value: float
    directions: tuple[Direction, ...]
    restarts_used: int
    converged: bool
    iterations: int


def _angles_to_directions(x: np.ndarray) -> list[Direction]:
    thetas, phis = x[0::2], x[1::2]
    return [
        Direction(
            float(np.sin(t) * np.cos(p)),
            float(np.sin(t) * np.sin(p)),
            float(np.cos(t)),
        )
        for t, p in zip(thetas, phis)
    ]


def minimize_trace_numeric(
    state: StateVector,
    restarts: int = DEFAULT_RESTARTS,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> OptimizerReport:
    """Minimize the metric trace over direction fields by local descent.

    Each qubit contributes (1 - (v(theta, phi) . e)^2) / 4 to the trace,
    where e is the qubit's expectation triple (<X>, <Y>, <Z>); e does not
    depend on the directions, so it is computed once per state and the
    descent runs on the spherical angles with an analytic gradient.
    Deterministic for a fixed seed; the best restart wins.  scipy is
    imported here, on first use, so that ``import entdist`` does not load it.
    """
    from scipy.optimize import minimize

    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    m = state.num_qubits
    bloch = bloch_vectors(*bilinears(state.amplitudes))  # (m, 3)

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        thetas, phis = x[0::2], x[1::2]
        st, ct = np.sin(thetas), np.cos(thetas)
        sp, cp = np.sin(phis), np.cos(phis)
        v = np.stack([st * cp, st * sp, ct], axis=1)
        dv_dt = np.stack([ct * cp, ct * sp, -st], axis=1)
        dv_dp = np.stack([-st * sp, st * cp, np.zeros(m)], axis=1)
        proj = np.sum(v * bloch, axis=1)
        value = 0.25 * float(np.sum(1.0 - proj**2))
        grad = np.empty(2 * m)
        grad[0::2] = -0.5 * proj * np.sum(dv_dt * bloch, axis=1)
        grad[1::2] = -0.5 * proj * np.sum(dv_dp * bloch, axis=1)
        return value, grad

    rng = np.random.default_rng(seed)
    best_value = np.inf
    best_x = None
    best_success = False
    iterations = 0
    for _ in range(restarts):
        x0 = np.empty(2 * m)
        x0[0::2] = np.arccos(rng.uniform(-1.0, 1.0, size=m))
        x0[1::2] = rng.uniform(0.0, 2.0 * np.pi, size=m)
        res = minimize(objective, x0, jac=True, method="L-BFGS-B", tol=tol)
        iterations += int(res.nit)
        if res.fun < best_value:
            best_value = float(res.fun)
            best_x = res.x
            best_success = bool(res.success)
    return OptimizerReport(
        value=best_value,
        directions=tuple(_angles_to_directions(best_x)),
        restarts_used=restarts,
        converged=best_success,
        iterations=iterations,
    )


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
    """One-qubit reduced density matrix from the partial-trace oracle."""
    m = state.num_qubits
    if not 0 <= qubit < m:
        raise ValueError(f"qubit index must satisfy 0 <= qubit < {m}, got {qubit}")
    psi = state.amplitudes.reshape(1 << (m - 1 - qubit), 2, 1 << qubit)
    return np.einsum("aib,ajb->ij", psi, np.conj(psi))


def invariance_check(state: StateVector, trials: int, seed: int = 0) -> float:
    """Max |E(dressed) - E(state)| over Haar-random local dressings.

    Each trial applies an independent Haar unitary to every qubit.
    Deterministic for a fixed seed.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    base = entanglement_measure(state)
    worst = 0.0
    for _ in range(trials):
        dressed = state
        for qubit in range(state.num_qubits):
            u = LocalUnitary(_haar_unitary(rng))
            dressed = apply_local_unitary(dressed, qubit, u)
        worst = max(worst, abs(entanglement_measure(dressed) - base))
    return worst
