"""Entanglement distance and entanglement metric for pure M-qubit states.

For a direction field {v^nu} (one unit 3-vector per qubit) the adapted
Fubini-Study metric has entries

    g[mu, nu] = (<A_mu A_nu> - <A_mu><A_nu>) / 4,   A_nu = v^nu . sigma^nu,

so its trace is (1/4) sum_nu (1 - <A_nu>^2).  Since <v . sigma^nu> = v . b^nu
with b^nu the reduced Bloch vector of qubit nu, the trace is minimized per
qubit by v^nu = b^nu / |b^nu|, which gives the entanglement measure

    E = (1/4) (M - sum_nu |b^nu|^2),   0 <= E <= M/4.

The Bloch vector is assembled from the amplitude bilinears of each qubit:
b = (2 Re w_minus, -2 Im w_minus, w_3), so E needs nothing else.  One
array-first kernel, ``qstate.bilinears``, computes them for amplitudes of
shape (..., 2**M): a single state, or a whole batch in one pass (the
three-qubit surface evaluates all of its grid points in one call), and
``measure_from_bilinears`` turns them into E.  ``entanglement_metric``
computes them once per state and shares them between the directions and E;
``WVector`` is the per-qubit record view of the same numbers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qstate import (
    Direction,
    StateVector,
    _apply_one_qubit_matrix,
    bilinears,
    direction_operator,
    pauli_expectation,
)

DEGENERATE_TOL = 1e-12
DEFAULT_RANK_TOL = 1e-8
SYMMETRY_TOL = 1e-9
_CONJUGACY_TOL = 1e-12
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


def trace_tol(m: int) -> float:
    """Largest rounding gap |tr g - E| that an m-qubit metric can show.

    E and tr g are two different sums per qubit over the 2^m amplitudes:
    the bilinears w_minus, w_3 for E, the expectation <s|A_nu|s> for the
    diagonal of g.  Error model: the einsum and dot products accumulate
    sequentially, and a sum of n terms whose magnitudes add up to S is off
    by at most gamma_n S ~ n u S, with u = 2^-53 the unit roundoff.  For a
    normalized state S <= 1 (Cauchy-Schwarz), so per qubit the diagonal
    entry (1 - e^2)/4 is off by at most 0.71 * 2^m u and the term
    (w_3^2 + 4 |w_minus|^2)/4 of E by 0.61 * 2^m u; the two sums over the
    m qubits add m^2 u / 2.  The bound 2 m (2^m + m) u covers the sum with
    room to spare: at m = 20 it is 4.7e-9, and the largest gaps measured on
    chain-phase states at m = 16-22 (3.3e-12 at m = 20) are 0.6-1.1e-3 of it.
    """
    return 2.0 * m * ((1 << m) + m) * _UNIT_ROUNDOFF


@dataclass(frozen=True)
class WVector:
    """Per-qubit amplitude bilinears (w_minus, w_plus, w_3).

    w_minus sums c*_{k+2^nu} c_k over indices with qubit nu clear, w_plus
    sums c*_{k-2^nu} c_k over indices with qubit nu set, and w_3 is the
    signed probability sum (-1)^{bit nu of k} |c_k|^2.  w_plus is the
    conjugate of w_minus term by term, so ``w_vectors`` sets it as such;
    for a normalized state the effective norm w_3^2 + 4 |w_minus|^2 is at
    most 1 (equality for a pure marginal).
    """

    w_minus: complex
    w_plus: complex
    w_3: float

    def __post_init__(self) -> None:
        if abs(self.w_plus - np.conj(self.w_minus)) > _CONJUGACY_TOL:
            raise ValueError("w_plus must equal conj(w_minus) for a normalized state")
        norm_sq = self.effective_norm_sq
        if not -_CONJUGACY_TOL <= norm_sq <= 1.0 + _CONJUGACY_TOL:
            raise ValueError(f"effective norm^2 out of [0, 1]: {norm_sq!r}")

    @property
    def effective_norm_sq(self) -> float:
        return self.w_3**2 + 4.0 * abs(self.w_minus) ** 2

    @property
    def bloch(self) -> np.ndarray:
        """Reduced Bloch vector (2 Re w_minus, -2 Im w_minus, w_3)."""
        return np.array([2.0 * self.w_minus.real, -2.0 * self.w_minus.imag, self.w_3])


@dataclass(frozen=True)
class EntanglementMetric:
    """Metric evaluated at the minimizing direction field.

    ``matrix`` is real symmetric positive semidefinite with diagonal in
    [0, 1/4] and trace equal to ``measure``.
    """

    size: int
    matrix: np.ndarray
    directions: tuple[Direction, ...]
    measure: float

    def __post_init__(self) -> None:
        g = np.ascontiguousarray(self.matrix, dtype=float)
        if g.shape != (self.size, self.size):
            raise ValueError(f"expected a {self.size}x{self.size} matrix, got {g.shape}")
        if len(self.directions) != self.size:
            raise ValueError("one direction per qubit is required")
        if np.max(np.abs(g - g.T), initial=0.0) > 1e-12:
            raise ValueError("metric matrix must be symmetric")
        diag = np.diagonal(g)
        if np.any(diag < -1e-12) or np.any(diag > 0.25 + 1e-12):
            raise ValueError("metric diagonal entries must lie in [0, 1/4]")
        gap = abs(self.measure - float(np.trace(g)))
        tol = trace_tol(self.size)
        if not gap <= tol:
            raise ValueError(
                f"measure must equal the matrix trace: |tr g - E| = {gap:.3e} exceeds "
                f"the rounding bound {tol:.3e} for {self.size} qubits"
            )
        if float(np.linalg.eigvalsh(g)[0]) < -1e-10:
            raise ValueError("metric matrix must be positive semidefinite")
        g.flags.writeable = False
        object.__setattr__(self, "matrix", g)
        object.__setattr__(self, "directions", tuple(self.directions))

    def to_dict(self) -> dict:
        """JSON-ready record: m, row-major matrix, directions, measure, eigenvalues."""
        return {
            "m": self.size,
            "matrix": [float(x) for x in self.matrix.reshape(-1)],
            "directions": [[d.v1, d.v2, d.v3] for d in self.directions],
            "measure": self.measure,
            "eigenvalues": [float(x) for x in spectrum(self).eigenvalues],
        }


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of an entanglement metric, sorted descending."""

    eigenvalues: np.ndarray
    rank_tol: float

    def __post_init__(self) -> None:
        eigs = np.ascontiguousarray(self.eigenvalues, dtype=float)
        eigs.flags.writeable = False
        object.__setattr__(self, "eigenvalues", eigs)

    @property
    def nonnull_count(self) -> int:
        return int(np.sum(self.eigenvalues > self.rank_tol))


def w_vectors(state: StateVector) -> list[WVector]:
    """Amplitude bilinears (w_minus, w_plus, w_3) for every qubit, O(M 2^M)."""
    w_minus, w_3 = bilinears(state.amplitudes)
    return [WVector(wm, wm.conjugate(), w3) for wm, w3 in zip(w_minus.tolist(), w_3.tolist())]


def measure_from_bilinears(w_minus: np.ndarray, w_3: np.ndarray) -> np.ndarray:
    """E = (1/4)(M - sum_nu (w_3^2 + 4 |w_minus|^2)) for bilinears of shape (..., M).

    The per-qubit terms are added in qubit order, and |w_minus| is taken
    with hypot, so a state gives the same bits alone or in a batch.
    """
    m = w_3.shape[-1]
    terms = w_3**2 + 4.0 * np.hypot(w_minus.real, w_minus.imag) ** 2
    total = terms[..., 0]
    for nu in range(1, m):
        total = total + terms[..., nu]
    return np.maximum(0.0, 0.25 * (m - total))


def _canonicalize(v: np.ndarray) -> np.ndarray:
    """Flip the overall sign so the first component above 1e-12 is positive."""
    for x in v:
        if abs(x) > 1e-12:
            return -v if x < 0.0 else v
    return v


def optimal_directions(ws: list[WVector] | tuple[WVector, ...]) -> list[Direction]:
    """Directions minimizing the metric trace, one per qubit.

    The trace term (v . b)^2 is maximized by the unit vector along the
    Bloch vector b; when |b| falls below DEGENERATE_TOL every direction is
    minimizing and the z axis is returned with the degenerate flag set.
    Signs are canonicalized (first nonzero component positive), which
    leaves (v . b)^2 and the measure unchanged.
    """
    dirs = []
    for w in ws:
        b = w.bloch
        norm = float(np.linalg.norm(b))
        if norm < DEGENERATE_TOL:
            dirs.append(Direction(0.0, 0.0, 1.0, degenerate=True))
            continue
        v = _canonicalize(b / norm)
        v = v / np.linalg.norm(v)
        dirs.append(Direction(float(v[0]), float(v[1]), float(v[2])))
    return dirs


def entanglement_measure(state: StateVector) -> float:
    """Infimum of the metric trace: E = (1/4)(M - sum_nu |b^nu|^2)."""
    return float(measure_from_bilinears(*bilinears(state.amplitudes)))


def metric_matrix(state: StateVector, dirs: list[Direction] | tuple[Direction, ...]) -> np.ndarray:
    """Adapted metric at a given direction field.

    Entries: g[mu, nu] = (<A_mu A_nu> - <A_mu><A_nu>) / 4 off the diagonal
    and g[mu, mu] = (1 - <A_mu>^2) / 4, with A_nu = v^nu . sigma^nu.
    """
    m = state.num_qubits
    if len(dirs) != m:
        raise ValueError(f"expected {m} directions, got {len(dirs)}")
    amps = state.amplitudes
    applied = [
        _apply_one_qubit_matrix(amps, m, nu, direction_operator(v))
        for nu, v in enumerate(dirs)
    ]
    expectations = np.array([np.vdot(amps, t).real for t in applied])
    g = np.zeros((m, m))
    for mu in range(m):
        g[mu, mu] = 0.25 * max(0.0, 1.0 - expectations[mu] ** 2)
        for nu in range(mu + 1, m):
            cross = np.vdot(applied[mu], applied[nu]).real
            g[mu, nu] = g[nu, mu] = 0.25 * (cross - expectations[mu] * expectations[nu])
    return g


def entanglement_metric(state: StateVector) -> EntanglementMetric:
    """Metric at the minimizing directions, with E = trace attained."""
    ws = w_vectors(state)
    dirs = optimal_directions(ws)
    g = metric_matrix(state, dirs)
    measure = measure_from_bilinears(
        np.array([w.w_minus for w in ws]), np.array([w.w_3 for w in ws])
    )
    return EntanglementMetric(state.num_qubits, g, tuple(dirs), float(measure))


def spectrum(em: EntanglementMetric, rank_tol: float = DEFAULT_RANK_TOL) -> Spectrum:
    """All eigenvalues of the metric, sorted descending."""
    g = em.matrix
    if np.max(np.abs(g - g.T), initial=0.0) > SYMMETRY_TOL:
        raise ValueError("metric matrix is asymmetric beyond tolerance")
    eigs = np.linalg.eigvalsh(0.5 * (g + g.T))
    return Spectrum(eigs[::-1].copy(), rank_tol)


def distance_density(state: StateVector, dirs: list[Direction] | tuple[Direction, ...]) -> float:
    """Metric trace ds^2/dr^2 at a direction field; bounded below by E.

    Only the diagonal contributes to the trace, so this runs in O(M 2^M)
    without assembling the full matrix.
    """
    m = state.num_qubits
    if len(dirs) != m:
        raise ValueError(f"expected {m} directions, got {len(dirs)}")
    total = 0.0
    for nu, v in enumerate(dirs):
        e = pauli_expectation(state, nu, v)
        total += 1.0 - e * e
    return 0.25 * total
