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
computes them once per state (``w_vectors``) and passes the same arrays to
the directions, through ``qstate.bloch_vectors``, and to E.  The metric is
diagonalised once, when the ``EntanglementMetric`` is built; ``spectrum``
and the JSON record read that one set of eigenvalues.

Both passes over the state, the bilinears and ``metric_matrix``, walk it
by ``qstate.row_walk`` in rows of 2**ROW_BITS amplitudes (256 KiB), so
every sum is blocked, of depth ``qstate.row_depth(M)`` rather than 2^M,
and ``trace_tol`` bounds the rounding by that depth.  ``metric_matrix``
builds the M applied states A_nu|s> one row at a time, so its working
memory is the state plus M rows.  Up to ROW_BITS qubits there is one row
and the arithmetic is that of the whole-vector products.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .qstate import (
    StateVector,
    _apply_one_qubit_matrix,
    _operator,
    bilinears,
    bloch_vectors,
    row_depth,
    row_walk,
    validate_directions,
)

DEGENERATE_TOL = 1e-12
DEFAULT_RANK_TOL = 1e-8
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


def trace_tol(m: int) -> float:
    """Largest rounding gap |tr g - E| that an m-qubit metric can show.

    E and tr g are two different sums per qubit over the 2^m amplitudes:
    the bilinears w_minus, w_3 for E, the expectation <s|A_nu|s> for the
    diagonal of g.  Error model (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 4): a sum of n terms whose magnitudes add up
    to S, accumulated in turn, is off by at most gamma_n S ~ n u S, with
    u = 2^-53 the unit roundoff.  Both passes walk the state by rows
    (``qstate.row_walk``): 2^(m-r) row sums of 2^r terms each, r =
    min(m, ROW_BITS), added in row order, so n is the blocked depth
    ``row_depth(m)`` = 2^r + 2^(m-r) - 1, which is 2^m up to ROW_BITS
    qubits.  For a normalized state S <= 1 (Cauchy-Schwarz), so per qubit
    the diagonal entry (1 - e^2)/4 is off by at most 0.71 n u and the term
    (w_3^2 + 4 |w_minus|^2)/4 of E by 0.61 n u; the two sums over the m
    qubits add m^2 u / 2.  The bound 2 m (n + m) u covers the sum with room
    to spare: at m = 20 it is 7.3e-11, and the largest gap measured on
    chain-phase, GHZ-like and Haar states at m = 15-24 is 1.1e-13, 1.3e-3
    of the bound.
    """
    return 2.0 * m * (row_depth(m) + m) * _UNIT_ROUNDOFF


@dataclass(frozen=True, eq=False)
class EntanglementMetric:
    """Metric evaluated at the minimizing direction field.

    ``matrix`` is real symmetric positive semidefinite with diagonal in
    [0, 1/4] and trace equal to ``measure``, stored as a read-only copy of
    the array passed in.  ``directions`` is a read-only copy of the
    (size, 3) direction field, one unit row per qubit.  ``eigenvalues`` is
    its spectrum, sorted descending and read-only, taken once at
    construction.
    """

    size: int
    matrix: np.ndarray
    directions: np.ndarray
    measure: float
    eigenvalues: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        g = np.array(self.matrix, dtype=float, order="C")
        if g.shape != (self.size, self.size):
            raise ValueError(f"expected a {self.size}x{self.size} matrix, got {g.shape}")
        dirs = validate_directions(self.directions, self.size).copy()
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
        eigs = np.linalg.eigvalsh(0.5 * (g + g.T))[::-1].copy()
        if float(eigs[-1]) < -1e-10:
            raise ValueError("metric matrix must be positive semidefinite")
        for a in (g, dirs, eigs):
            a.flags.writeable = False
        object.__setattr__(self, "matrix", g)
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "eigenvalues", eigs)

    def to_dict(self) -> dict:
        """The ``entdist measure`` record: m, E, E/M, directions, matrix, eigenvalues.

        The matrix is flattened row-major and the eigenvalues run descending.
        """
        return {
            "m": self.size,
            "measure": self.measure,
            "measure_over_m": self.measure / self.size,
            "directions": self.directions.tolist(),
            "matrix": [float(x) for x in self.matrix.reshape(-1)],
            "eigenvalues": [float(x) for x in self.eigenvalues],
        }


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues of an entanglement metric, sorted descending, as a read-only copy."""

    eigenvalues: np.ndarray
    rank_tol: float

    def __post_init__(self) -> None:
        eigs = np.array(self.eigenvalues, dtype=float, order="C")
        eigs.flags.writeable = False
        object.__setattr__(self, "eigenvalues", eigs)

    @property
    def nonnull_count(self) -> int:
        return int(np.sum(self.eigenvalues > self.rank_tol))


def w_vectors(state: StateVector) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude bilinears ``(w_minus, w_3)``, each of shape (M,), in O(M 2^M).

    w_plus, the third bilinear, is conj(w_minus); see ``qstate.bilinears``.
    """
    return bilinears(state.amplitudes)


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


def optimal_directions(bloch: np.ndarray) -> np.ndarray:
    """Directions minimizing the metric trace, one unit row per row of the (M, 3) Bloch array.

    The trace term (v . b)^2 is maximized by the unit vector along the
    Bloch vector b; when |b| falls below DEGENERATE_TOL every direction is
    minimizing and the z axis is returned.  Signs are canonicalized (first
    nonzero component positive), which leaves (v . b)^2 and the measure
    unchanged.  The norm is taken row by row: np.linalg.norm(..., axis=1)
    rounds differently and would move the bits of the directions.
    """
    dirs = np.empty((len(bloch), 3))
    for nu, b in enumerate(bloch):
        norm = float(np.linalg.norm(b))
        if norm < DEGENERATE_TOL:
            dirs[nu] = (0.0, 0.0, 1.0)
            continue
        v = _canonicalize(b / norm)
        dirs[nu] = v / np.linalg.norm(v)
    return dirs


def entanglement_measure(state: StateVector) -> float:
    """Infimum of the metric trace: E = (1/4)(M - sum_nu |b^nu|^2)."""
    return float(measure_from_bilinears(*bilinears(state.amplitudes)))


def metric_matrix(state: StateVector, dirs: np.ndarray) -> np.ndarray:
    """Adapted metric at an (M, 3) direction field, in O(2^M) working memory.

    Entries: g[mu, nu] = (<A_mu A_nu> - <A_mu><A_nu>) / 4 off the diagonal
    and g[mu, mu] = (1 - <A_mu>^2) / 4, with A_nu = v^nu . sigma^nu.

    The state is walked by ``qstate.row_walk`` in rows of 2^k amplitudes.
    A qubit below k acts within a row; a higher qubit mixes the row with its
    partner row, the one whose index differs in that qubit's bit.  Per row
    the M applied row vectors give row sums of <A_mu> and <A_mu A_nu>, which
    are added across rows.  For M <= ROW_BITS there is one row.
    """
    m = state.num_qubits
    ops = [_operator(*v) for v in validate_directions(dirs, m).tolist()]
    k, walk = row_walk(state.amplitudes)
    applied = list(np.empty((m, 1 << k), dtype=np.complex128))  # reused for every row
    partner_term = np.empty(1 << k, dtype=np.complex128)
    pairs = list(itertools.combinations(range(m), 2))
    expectations = np.zeros(m)
    cross = np.zeros(len(pairs))
    for h, row, partners in walk:
        for nu in range(k):
            _apply_one_qubit_matrix(row, k, nu, ops[nu], out=applied[nu])
        for nu, partner in enumerate(partners, k):
            b = (h >> (nu - k)) & 1  # row h holds the |b> half of qubit nu's pairs
            np.multiply(ops[nu][b, b], row, out=applied[nu])
            np.multiply(ops[nu][b, 1 - b], partner, out=partner_term)
            applied[nu] += partner_term
        expectations += [np.vdot(row, t).real for t in applied]
        cross += [np.vdot(applied[mu], applied[nu]).real for mu, nu in pairs]
    e = expectations.tolist()
    g = np.zeros((m, m))
    for mu in range(m):
        g[mu, mu] = 0.25 * max(0.0, 1.0 - e[mu] ** 2)
    for (mu, nu), c in zip(pairs, cross.tolist()):
        g[mu, nu] = g[nu, mu] = 0.25 * (c - e[mu] * e[nu])
    return g


def entanglement_metric(state: StateVector) -> EntanglementMetric:
    """Metric at the minimizing directions, with E = trace attained."""
    w_minus, w_3 = w_vectors(state)
    dirs = optimal_directions(bloch_vectors(w_minus, w_3))
    g = metric_matrix(state, dirs)
    measure = measure_from_bilinears(w_minus, w_3)
    return EntanglementMetric(state.num_qubits, g, dirs, float(measure))


def spectrum(em: EntanglementMetric, rank_tol: float = DEFAULT_RANK_TOL) -> Spectrum:
    """All eigenvalues of the metric, sorted descending, with a rank threshold."""
    return Spectrum(em.eigenvalues, rank_tol)


def distance_density(state: StateVector, dirs: np.ndarray) -> float:
    """Metric trace ds^2/dr^2 at an (M, 3) direction field; bounded below by E.

    Only the diagonal contributes to the trace, so this runs in O(M 2^M)
    without assembling the full matrix.
    """
    dirs = validate_directions(dirs, state.num_qubits).tolist()
    total = 0.0
    for (v1, v2, v3), (e1, e2, e3) in zip(dirs, bloch_vectors(*w_vectors(state))):
        e = float(np.clip(v1 * e1 + v2 * e2 + v3 * e3, -1.0, 1.0))
        total += 1.0 - e * e
    return 0.25 * total
