"""Entanglement distance and entanglement metric for pure M-qubit states.

For a direction field {v^nu} (one unit 3-vector per qubit) the adapted
Fubini-Study metric has entries

    g[mu, nu] = (<A_mu A_nu> - <A_mu><A_nu>) / 4,   A_nu = v^nu . sigma^nu,

so its trace is (1/4) sum_nu (1 - <A_nu>^2).  Since <v . sigma^nu> = v . b^nu
with b^nu the reduced Bloch vector of qubit nu, the trace is minimized per
qubit by v^nu = b^nu / |b^nu|, which gives the entanglement measure

    E = (1/4) (M - sum_nu |b^nu|^2),   0 <= E <= M/4.

The Bloch vector is assembled from the amplitude bilinears of each qubit:
b = (2 Re w_minus, -2 Im w_minus, w_3), so E needs nothing else.

The pipeline is array-first: each stage takes a batch of states
(..., 2**M) as readily as one.  ``qstate.bilinears`` gives the
bilinears, ``measure_from_bilinears`` E, ``optimal_directions`` the
(..., M, 3) fields, ``metric_matrices`` the (..., M, M) metrics, and
``check_metrics`` checks them and takes their spectra with one batched
eigvalsh; ``cli.run_sweep`` runs its grid through them in chunks.  The
single-state functions are the case of one state: ``entanglement_metric``
computes the bilinears once (``w_vectors``) for the directions, through
``qstate.bloch_vectors``, and for E, and the ``EntanglementMetric`` runs
``check_metrics`` once, at construction, so ``spectrum`` and the JSON
record read that one set of eigenvalues.  A state gets the same bits
alone or in a batch.

Both passes over the states, the bilinears and ``metric_matrices``, walk
them by ``qstate.row_walk`` in rows of 2**ROW_BITS amplitudes (256 KiB),
so every sum is blocked, of depth ``qstate.row_depth(M)`` rather than
2^M, and ``trace_tol`` bounds the rounding by that depth.
``metric_matrices`` builds the M applied states A_nu|s> one row at a
time, so its working memory is the states plus M rows per state.  Up to
ROW_BITS qubits there is one row and the arithmetic is that of the
whole-vector products.
"""
from __future__ import annotations

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
SYMMETRY_TOL = 1e-12  # on max |g - g^T|
DIAGONAL_TOL = 1e-12  # on how far a diagonal entry lies outside [0, 1/4]
PSD_TOL = 1e-10  # on how far the smallest eigenvalue lies below 0
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


def check_metrics(g: np.ndarray, measure, at: tuple[str, np.ndarray] | None = None) -> np.ndarray:
    """Check metrics ``(..., M, M)`` against measures ``(...)``; return the spectra, descending.

    Each g must be symmetric within SYMMETRY_TOL, have its diagonal in
    [0, 1/4] within DIAGONAL_TOL and its trace within ``trace_tol(M)`` of E;
    one batched eigvalsh of the symmetric parts gives every spectrum, whose
    smallest eigenvalue must not fall below -PSD_TOL.  A failed check raises
    ValueError with the measured value and its bound; for a batch taken
    over a grid, ``at = (name, values)`` adds the grid value of the first
    point that fails.
    """
    *batch, m, _ = g.shape
    g = g.reshape(-1, m, m)
    gt = np.swapaxes(g, -1, -2)

    def check(value: np.ndarray, bound: float, message: str) -> None:
        failed = ~(value <= bound)  # also true for NaN
        if np.any(failed):
            i = int(np.argmax(failed))
            where = f" at {at[0]} = {float(at[1][i])!r}" if at is not None else ""
            raise ValueError(message.format(value[i], bound) + where)

    check(
        np.max(np.abs(g - gt), axis=(-2, -1)),
        SYMMETRY_TOL,
        "metric matrix must be symmetric: max |g - g^T| = {:.3e} exceeds {:.0e}",
    )
    diag = np.diagonal(g, axis1=-2, axis2=-1)
    check(
        np.maximum(-diag, diag - 0.25).max(axis=-1),
        DIAGONAL_TOL,
        "metric diagonal entries must lie in [0, 1/4]: one lies {:.3e} outside, more than {:.0e}",
    )
    check(
        np.abs(np.reshape(measure, -1) - np.trace(g, axis1=-2, axis2=-1)),
        trace_tol(m),
        "measure must equal the matrix trace: |tr g - E| = {:.3e} exceeds the rounding bound "
        f"{{:.3e}} for {m} qubits",
    )
    eigs = np.linalg.eigvalsh(0.5 * (g + gt))[:, ::-1].copy()
    check(
        -eigs[:, -1],
        PSD_TOL,
        "metric matrix must be positive semidefinite: smallest eigenvalue -{:.3e} is below -{:.0e}",
    )
    return eigs.reshape(*batch, m)


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
        eigs = check_metrics(g, self.measure)
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


def optimal_directions(bloch: np.ndarray) -> np.ndarray:
    """Directions minimizing the metric trace, one unit row per row of a (..., M, 3) Bloch array.

    The trace term (v . b)^2 is maximized by the unit vector along the
    Bloch vector b; when |b| falls below DEGENERATE_TOL every direction is
    minimizing and the z axis is returned.  Signs are canonicalized (the
    first component above 1e-12 in magnitude made positive), which leaves
    (v . b)^2 and the measure unchanged.  Each norm is sqrt(vecdot(b, b)):
    vecdot takes one BLAS dot per row, the one np.linalg.norm takes of a
    row alone, so a row gets the same bits alone or in a batch;
    np.linalg.norm(..., axis=-1) sums the squares in numpy's own loop and
    would move the bits of the directions.
    """
    bloch = np.asarray(bloch, dtype=float)
    norm = np.sqrt(np.vecdot(bloch, bloch))[..., None]
    degenerate = norm < DEGENERATE_TOL
    v = bloch / np.where(degenerate, 1.0, norm)
    big = np.abs(v) > 1e-12
    first = np.take_along_axis(v, np.argmax(big, axis=-1)[..., None], axis=-1)
    v = np.where(degenerate, (0.0, 0.0, 1.0), np.where(first < 0.0, -v, v))
    return v / np.sqrt(np.vecdot(v, v))[..., None]


def entanglement_measure(state: StateVector) -> float:
    """Infimum of the metric trace: E = (1/4)(M - sum_nu |b^nu|^2)."""
    return float(measure_from_bilinears(*bilinears(state.amplitudes)))


def metric_matrices(amps: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Adapted metrics (..., M, M) of states ``(..., 2**M)`` at direction fields ``(..., M, 3)``.

    Entries: g[mu, nu] = (<A_mu A_nu> - <A_mu><A_nu>) / 4 off the diagonal
    and g[mu, mu] = (1 - <A_mu>^2) / 4, with A_nu = v^nu . sigma^nu.

    The states are walked by ``qstate.row_walk`` in rows of 2^k amplitudes.
    A qubit below k acts within a row; a higher qubit mixes the row with its
    partner row, the one whose index differs in that qubit's bit.  Per row
    the M applied rows form one (M, ..., 2^k) stack, and ``np.vecdot``
    takes the row sums of <A_mu> in one call and those of <A_mu A_nu> in
    one call per mu against every nu > mu; the row sums are added across
    rows.  vecdot takes the BLAS dot per vector that np.vdot takes, so a
    state gets the same bits alone or in a batch.  The diagonal squares
    <A_mu> with Python's float power: numpy's square differs from it in the
    last bit of some values.  Working memory is the states, the stack of M
    applied rows and, when the states have partner rows (M > ROW_BITS), one
    row for the partner products.  For M <= ROW_BITS a state is one row;
    ``cli.run_sweep`` batches 2^(ROW_BITS - M) of them, so the stack holds
    M 2^ROW_BITS amplitudes, as it does for one state of more qubits.
    """
    batch = amps.shape[:-1]
    m = dirs.shape[-2]
    ops = _operator(*np.moveaxis(dirs, -1, 0))  # (..., M, 2, 2)
    k, walk = row_walk(amps)
    applied = np.empty((m,) + batch + (1 << k,), dtype=np.complex128)  # reused for every row
    # a partner row product only for qubits at or above k: none when the state is one row
    partner_term = np.empty(batch + (1 << k,), dtype=np.complex128) if k < m else None
    expectations = np.zeros((m,) + batch)
    mu, nu = np.triu_indices(m, 1)  # the pairs mu < nu, mu-major
    cross = np.zeros(mu.shape + batch)
    blocks = np.split(cross, np.cumsum(range(m - 1, 1, -1)))  # views: each mu's pairs
    for h, row, partners in walk:
        for q in range(k):
            _apply_one_qubit_matrix(row, k, q, ops[..., q, :, :], out=applied[q])
        for q, partner in enumerate(partners, k):
            b = (h >> (q - k)) & 1  # row h holds the |b> half of qubit q's pairs
            np.multiply(ops[..., q, b, b, None], row, out=applied[q])
            np.multiply(ops[..., q, b, 1 - b, None], partner, out=partner_term)
            applied[q] += partner_term
        expectations += np.vecdot(row, applied).real
        for q, block in enumerate(blocks):
            block += np.vecdot(applied[q], applied[q + 1 :]).real
    g = np.empty(batch + (m, m))
    g[..., mu, nu] = g[..., nu, mu] = np.moveaxis(
        0.25 * (cross - expectations[mu] * expectations[nu]), 0, -1
    )
    e = np.moveaxis(expectations, 0, -1)
    diag = [0.25 * max(0.0, 1.0 - x**2) for x in e.ravel().tolist()]
    g[..., range(m), range(m)] = np.reshape(diag, e.shape)
    return g


def metric_matrix(state: StateVector, dirs: np.ndarray) -> np.ndarray:
    """Adapted metric of one state at an (M, 3) direction field: ``metric_matrices`` for P = 1."""
    return metric_matrices(state.amplitudes, validate_directions(dirs, state.num_qubits))


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
