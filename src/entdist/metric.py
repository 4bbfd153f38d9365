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

Each stage takes a batch of states (..., 2**M) as readily as one, and a
state gets the same bits alone or in a batch.  The owners:

- ``measure_from_bilinears``: E, from the bilinears of ``qstate.bilinears``.
- ``optimal_directions``: the minimizing direction fields (..., M, 3).
- ``metric_matrices``: the metrics (..., M, M), from the moments of the
  whole batch, which either kernel fills; the moments of a state of one
  row by ``_applied_rows`` and ``qstate._dot``.
- ``_applied_rows``: the one-row apply of the operators ``_operator``, and
  its short-run rule ``SHORT_RUN_BITS``.
- ``_frame_moments``: the direction-frame kernel, the moments of a state
  of several rows; ``_frame_passes`` plans its passes, within
  ``qstate._block_bits``, and ``qstate._turns`` turns them, or holds a
  pass by its identity rule.
- ``_metric_from_moments`` and ``_diagonal``: g from the moments, for both
  kernels, called once per ``metric_matrices`` call.
- ``check_metrics``: the checks and spectra of metrics.
- ``EntanglementMetric``: the one record of a metric and its spectrum, its
  floor ``rank_tol`` and its ``nonnull_count``; ``spectrum`` returns the
  record's own eigenvalues.
- ``measure_tol``, ``trace_tol``, ``entry_tol`` and ``eig_tol``: the rounding bounds of
  E, of tr g - E, of one entry and of one eigenvalue; ``_turn_gap``: the gap
  that a plan's Kronecker turns add, for ``entry_tol`` and ``verify``;
  ``spectrum_tol``: the floor of a spectrum, for ``check_metrics`` and
  ``EntanglementMetric.rank_tol``.  The depths of ``qstate._dot`` come from
  ``qstate._dot_depth``.
- ``entanglement_metric``, ``w_vectors``, ``metric_matrix``: the one-state calls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import qstate
from .qstate import (
    MAX_QUBITS,
    NORM_TOL,
    StateVector,
    _block_bits,
    _dot,
    _dot_depth,
    _kron_groups,
    _spin_moments,
    _turns,
    bilinears,
    bloch_vectors,
    row_depth,
    row_view,
    validate_count,
    validate_directions,
    validate_real,
)

DEGENERATE_TOL = 1e-12
# a bit below it pairs amplitudes in runs of fewer than 2**SHORT_RUN_BITS, too short for einsum's inner loop
SHORT_RUN_BITS = 4
_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2.0


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u)."""
    return n * _UNIT_ROUNDOFF / (1 - n * _UNIT_ROUNDOFF)


def _turn_gap(passes: list[tuple[range, range]]) -> float:
    """Bound on the 2-norm gap that the Kronecker turns of the plan ``passes`` add to a unit vector.

    The one error model of a turn by ``qstate._kron_factors`` and
    ``qstate._rotate``, against the exact turn by the 2 x 2 unitaries as
    given.  However its 2n real products are ordered or fused, a complex
    inner product of n terms is off by at most 2 gamma_2n sum |a_i| |b_i|
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3), so a
    turn x -> F x by a d x d unitary adds at most 2 gamma_2d || |F| |x| ||_2
    <= 2 gamma_2d sqrt(d) to the error, |F| having 2-norm at most ||F||_F
    = sqrt(d).  A unitary turn carries the earlier error with it
    unchanged, so the turns' errors add.  ``_kron_factors`` takes one
    factor per group of ``qstate._kron_groups`` of a pass's row bits, and
    of its column bits; the factor of a group of b qubits, d = 2^b, is a
    product of b unitary entries, b - 1 complex products each within 2
    gamma_2 relatively, so it is off by at most 2 (b - 1) gamma_2 sqrt(d)
    in the 2-norm as well: 304 u for a full group, b = 4.  math.fsum adds
    the groups' terms exactly rounded, so two plans with the same groups
    in another order give the same bound.  ``entry_tol`` takes it per
    pass of the frame kernel, and ``verify.invariance_tol`` and the tests
    of ``qstate.apply_local_unitary`` over ``qstate._dress``' whole plan.
    """
    groups = [b for step in passes for bits in step for b in _kron_groups(len(bits))]
    return math.fsum((2 * (b - 1) * _gamma(2) + 2 * _gamma(2 << b)) * math.sqrt(1 << b) for b in groups)


def measure_tol(m: int) -> float:
    """Largest rounding gap of E at m qubits, as ``measure_from_bilinears`` takes it from ``qstate.bilinears``.

    The error model of ``trace_tol``, for a normalized state: each term
    of a bilinear passes through at most n - 1 additions, n =
    ``row_depth(m)``, and the magnitudes of a bilinear's terms add up to
    at most 1 (Cauchy-Schwarz), so per qubit the term (w_3^2 + 4
    |w_minus|^2)/4 of E is off by at most 0.61 n u.  The sum of the m
    terms in turn, each at most 1, and its subtraction from m add at most
    m^2 u / 4, which m^2 u / 2 covers twice over.  So E is within m (0.61
    n + m/2) u: 1.9e-16 at m = 1, 1.4e-13 at m = 8 and 3.6e-11 at m =
    26.  ``trace_tol`` and ``verify.invariance_tol`` take it.
    """
    return m * (0.61 * row_depth(m) + m / 2) * _UNIT_ROUNDOFF


def trace_tol(m: int) -> float:
    """Largest rounding gap |tr g - E| that an m-qubit metric can show.

    E and tr g are two different sums per qubit over the 2^m amplitudes:
    the bilinears w_minus, w_3 for E, the expectation e = <s|A_nu|s> for
    the diagonal of g.  Error model (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 4): a sum of n terms whose magnitudes add up
    to S, accumulated in turn, is off by at most gamma_n S ~ n u S, with
    u = 2^-53 the unit roundoff; a term that passes through d additions
    is off by at most gamma_d of its size, so n can be any bound on the d of
    every term.  The bilinears read the state by the rows of
    ``qstate.row_view``, 2^(m-r) rows of 2^r amplitudes, r = min(m,
    ROW_BITS), and n is the blocked depth ``row_depth(m)`` = 2^r + 2^(m-r)
    - 1.  Up to ROW_BITS qubits the state is one row, and each bilinear is
    a whole-row sum of at most 2^m terms.  The metric takes each moment by
    ``qstate._dot``, of depth at most 2^r, within n.  Above it
    (``qstate._row_bilinears``) each term passes through at most 2^r +
    2^(m-r) - 2 = n - 1 additions, the rows' partial sums added in row
    order:

    * w_minus of a low qubit nu < r: a vecdot per run of pairs and a sum
      of the runs' results.  The row's index splits into hi = r // 2 high
      and lo = r - hi low bits, and a qubit nu < lo is read from the row's
      transposed copy, in 2^(lo-1-nu) runs of 2^(hi+nu) pairs: 2^(hi+nu)
      + 2^(lo-1-nu) - 2 additions.  A qubit lo <= nu < r is read in
      2^(r-1-nu) runs of 2^nu pairs: 2^nu + 2^(r-1-nu) - 2.  Both counts
      are x + y - 2 with x y = 2^(r-1), at most 2^(r-1) - 1; then 2^(m-r)
      - 1 over the rows.
    * w_minus of a high qubit: ``qstate._dot`` of the partner row with the
      row, two vecdots of 2^(r-1) pairs and their sum,
      2^(r-1) additions, then 2^(m-r) - 1 over the rows, half of them of an
      exact zero.
    * w_3 of a low qubit: 2^(m-r) - 1 additions into the marginal, then in
      ``qstate._spin_moments`` a half marginal and a signed dot, 2^hi +
      2^lo - 2 <= 2^r - 1 for the r = hi + lo bits (hi, lo = 7 at
      ROW_BITS = 14, so 254, far below 2^14 - 1).
    * w_3 of a high qubit: the row total, a sum of 2^r terms, then the
      signed dot of the 2^(m-r) totals, 2^r + 2^(m-r) - 2 additions.

    Any pairing or blocking inside np.sum, einsum or a BLAS dot only
    shortens a path.  For a normalized state S <= 1 (Cauchy-Schwarz), so
    per qubit the diagonal entry (1 - e^2)/4 is off by at most 0.71 n u,
    and the sum of the m entries in turn adds m^2 u / 4; E is off by at
    most ``measure_tol(m)`` = m (0.61 n + m/2) u.

    Above ROW_BITS qubits a diagonal entry is off by at most ``entry_tol(m)``
    <= 0.75 (n + 2625) u (see there), which adds at most 1969 u per qubit
    above 0.75 n u, below 0.13 n u.  The bound 2 m (n + m) u covers the
    sum in both cases with room to spare: at m = 20 it is 7.3e-11.  The
    largest gap measured on chain-phase (phi = 0.3), GHZ-like (theta =
    0.7, phase 0.2) and Haar states at m = 15-24 is 6.2e-14 (chain phase,
    m = 22), and no gap exceeds 7.9e-4 of its bound.
    """
    return 2.0 * m * (row_depth(m) + m) * _UNIT_ROUNDOFF


def entry_tol(m: int) -> float:
    """Largest rounding gap of one entry of an m-qubit metric, from either kernel.

    The error model of ``trace_tol``, for a normalized state at a field of
    unit rows; a complex product or inner product of n terms takes
    gamma_(n+2) for gamma_n (Higham, sec. 3.6).  If every moment <A_mu>
    is within delta_e and every <A_mu A_nu> within delta_c, an entry
    (c - e_mu e_nu)/4 is off by at most (delta_c + 2 delta_e + 2 u)/4,
    and a diagonal entry (1 - e^2)/4 by at most (2 delta_e + 2 u)/4.

    * Up to ROW_BITS qubits, one row: an entry of an applied row A_nu|s>
      is a two-term sum, off by at most (2 sqrt 2 + 1) u of |A| |s|, and
      || |A| ||_2 <= sqrt 2, so the row is off by at most 6 u in 2-norm.
      Each moment is one ``qstate._dot``, of depth d =
      ``qstate._dot_depth(2^m)``: 2^m, or 2^(ROW_BITS-1) + 1 at m =
      ROW_BITS.  So delta_e <= (d + 8) u and delta_c <= (d + 14) u, and an
      entry is off by at most 0.75 (d + 11) u.
    * Above ROW_BITS qubits, the direction-frame kernel: each pass of
      ``_frame_passes`` reads the state afresh and turns it, a block at a
      time, by the Kronecker factors of its row bits and its column bits,
      so its turned amplitudes phi lie within that pass's ``_turn_gap``
      of their exact turn in the 2-norm, and p = |phi|^2 within twice that
      of its unit mass.  Its signed sums, the blocks or strips of a pass
      in turn and then ``qstate._spin_moments``, run no deeper than
      ``row_depth(m)`` (see ``trace_tol``), so every <s_mu> and <s_mu
      s_nu> is within delta = row_depth(m) u + 2 G, G the largest gap of
      one pass of the plan: its ``_turn_gap`` plus 5 u for each qubit it
      turns, the frame unitaries' own gap (``_frame_unitaries``).  An
      entry is within 0.75 delta.

    ROW_BITS is read at call time, as ``qstate.row_view`` reads it.  The
    bound is 1.1e-15 at m = 1, 2.2e-14 at m = 8, 6.8e-13 at m = 14 and
    1.6e-12 to 1.9e-12 at m = 15-26.  A check against an oracle adds the
    oracle's own rounding (``tests/oracles.py``).  The largest gap
    measured against the dense, pairwise and collective-spin oracles, at
    m = 1-22, is 4.6% of that sum for the one-row kernel (1.1e-16 at m =
    1) and 0.37% for the frame kernel (5.9e-15 at m = 18).
    """
    k = qstate.ROW_BITS
    if m > k:
        turn = max(
            _turn_gap([step]) + 5 * _UNIT_ROUNDOFF * (len(step[0]) + len(step[1]))
            for step in _frame_passes(m, k)
        )
        return 0.75 * (row_depth(m) * _UNIT_ROUNDOFF + 2.0 * turn)
    return 0.75 * (_dot_depth(1 << m) + 11) * _UNIT_ROUNDOFF


def eig_tol(m: int) -> float:
    """Largest rounding gap of one eigenvalue of an m-qubit metric, as ``check_metrics`` takes it.

    Two shares, for a state normalized to working precision at a field of
    unit rows.  Weyl's inequality: every entry of the computed g is within
    ``entry_tol(m)`` of the exact one, so g is within m entry_tol(m) in
    the 2-norm (||D||_2 <= m max |D_ij|), and so is each eigenvalue.
    eigvalsh (LAPACK's syevd) is backward stable: its eigenvalues are the
    exact ones of g + F, ||F||_2 <= p(m) u ||g||_2 with p a modestly
    growing function of m (LAPACK Users' Guide, sec. 4.7), taken here as
    4 m; and ||g||_2 <= tr g <= m/4, g being positive semidefinite with
    its diagonal in [0, 1/4].  So each eigenvalue is within m (entry_tol(m)
    + m u): 1.2e-15 at m = 1, 1.9e-13 at m = 8 and 5.0e-11 at m = 26, of
    which eigvalsh's share is at most 17% (m = 3) and below 1% from m =
    11 on.  A check against an oracle adds m times the oracle's share of
    an entry, or its own rounding of a closed form.  The bound is for the
    rounding alone; ``spectrum_tol`` adds what an accepted norm moves.
    """
    return m * (entry_tol(m) + m * _UNIT_ROUNDOFF)


def spectrum_tol(m: int) -> float:
    """The floor of an m-qubit spectrum: how far below 0 an eigenvalue of a valid state's metric may lie.

    ``check_metrics`` refuses a smallest eigenvalue below -spectrum_tol(m),
    and ``EntanglementMetric.nonnull_count`` counts the eigenvalues above
    it.  Two shares.  ``eig_tol(m)`` bounds the rounding of an eigenvalue
    for a state normalized to working precision, but
    ``qstate.validate_amplitudes`` accepts a squared norm 1 + delta.  Its
    sum is ``qstate._dot`` of the 2^(m+1) squares, of depth d =
    ``qstate._dot_depth(2^(m+1))``, so the computed sum within NORM_TOL of
    1 leaves |delta| <= (NORM_TOL + gamma_(d+1)) / (1 - gamma_(d+1)), the
    squares' rounding counted.  The state is sqrt(1 + delta) times its
    normalized one, so the kernels give the moments e and c times 1 +
    delta, and ``_diagonal`` takes 1 - e^2 with its 1 unscaled: g is (1 +
    delta) times the normalized state's metric, less delta (1 + delta) e
    e^T / 4 with ||e||^2 <= m, less delta / 4 on the diagonal.  A delta < 0 moves no
    eigenvalue down, and for delta > 0 Weyl's inequality moves each down
    by at most (1 + delta)(m + 1) delta / 4; the rounding scales by 1 +
    delta too.  So the floor is (1 + delta)(eig_tol(m) + (m + 1) delta /
    4): 1.0e-12 at m = 3, 2.6e-12 at m = 8, 3.3e-11 at m = 16 and 7.5e-11
    at m = 26, where d is 2^13 + 2^14 - 1 and delta 3.7e-12.  The metric
    of |0...0> scaled to a squared norm of 1 + 0.9e-12 has its smallest
    eigenvalue at -(m - 1) 0.9e-12 / 4: -4.5e-13 at m = 3, -1.6e-12 at m
    = 8.
    """
    gap = _gamma(_dot_depth(2 << m) + 1)
    delta = (NORM_TOL + gap) / (1.0 - gap)
    return (1.0 + delta) * (eig_tol(m) + (m + 1) * delta / 4.0)


def check_metrics(g: np.ndarray, measure, at: tuple[str, np.ndarray] | None = None) -> np.ndarray:
    """Check metrics ``(..., M, M)`` against measures ``(...)``; return the spectra, descending.

    Each g must have its diagonal exactly in [0, 1/4], be exactly
    symmetric and have its trace within ``trace_tol(M)`` of E, checked in
    that order, so a NaN on the diagonal fails the diagonal rule and one
    off it the symmetry rule; one batched eigvalsh gives every spectrum,
    whose smallest eigenvalue must not fall below -``spectrum_tol(M)``.
    The first two rules take no bound, since every metric the library
    builds meets them exactly: ``_metric_from_moments`` mirrors the upper
    triangle below the diagonal, and ``_diagonal`` clamps a negative (1 -
    e^2)/4 to 0, while e^2 >= 0 keeps it at most 1/4.  A matrix built by
    hand is held to the same rules.  A failed check raises ValueError with
    the measured value, and with its bound where it has one; for a batch
    taken over a grid, ``at = (name, values)`` adds the grid value of the
    first point that fails.
    """
    *batch, m, _ = g.shape
    g = g.reshape(-1, m, m)

    def check(value: np.ndarray, bound: float, message: str) -> None:
        failed = ~(value <= bound)  # also true for NaN
        if np.any(failed):
            i = int(np.argmax(failed))
            where = f" at {at[0]} = {float(at[1][i])!r}" if at is not None else ""
            raise ValueError(message.format(value[i], bound) + where)

    diag = np.diagonal(g, axis1=-2, axis2=-1)
    check(
        np.maximum(-diag, diag - 0.25).max(axis=-1),
        0.0,
        "metric diagonal entries must lie exactly in [0, 1/4]: one lies {:.3e} outside",
    )
    check(
        np.max(np.abs(g - np.swapaxes(g, -1, -2)), axis=(-2, -1)),
        0.0,
        "metric matrix must be exactly symmetric: max |g - g^T| = {:.3e}",
    )
    check(
        np.abs(np.reshape(measure, -1) - np.trace(g, axis1=-2, axis2=-1)),
        trace_tol(m),
        "measure must equal the matrix trace: |tr g - E| = {:.3e} exceeds the rounding bound "
        f"{{:.3e}} for {m} qubits",
    )
    eigs = np.linalg.eigvalsh(g)[:, ::-1].copy()
    check(
        -eigs[:, -1],
        spectrum_tol(m),
        "metric matrix must be positive semidefinite: smallest eigenvalue -{:.3e} is below the "
        f"floor -{{:.3e}} for {m} qubits",
    )
    return eigs.reshape(*batch, m)


@dataclass(frozen=True, eq=False)
class EntanglementMetric:
    """Metric evaluated at the minimizing direction field: the one record of a metric and its spectrum.

    ``size`` passes ``qstate.validate_count`` and is stored as a Python
    int, and ``measure`` passes ``qstate.validate_real`` and is stored as a
    Python float, so the ``to_dict`` record serialises.  ``matrix``, a
    read-only copy of the array passed in, passes ``check_metrics``
    against ``measure``, once, at construction, so it is exactly symmetric
    with its diagonal exactly in [0, 1/4], and ``eigenvalues`` is the
    spectrum that call gives, sorted descending and read-only; ``spectrum``
    returns it and ``to_dict`` reads it.  ``rank_tol`` is
    ``spectrum_tol(size)``, a Python float like every rounding bound, the
    floor that ``check_metrics`` holds the smallest eigenvalue to, and
    ``nonnull_count`` counts the eigenvalues above it.  ``directions`` is
    a read-only copy of the (size, 3) direction field, one unit row per
    qubit.
    """

    size: int
    matrix: np.ndarray
    directions: np.ndarray
    measure: float
    eigenvalues: np.ndarray = field(init=False)
    rank_tol: float = field(init=False)
    nonnull_count: int = field(init=False)

    def __post_init__(self) -> None:
        m = validate_count("size", self.size, 1, MAX_QUBITS)
        measure = validate_real("measure", self.measure)
        g = np.array(self.matrix, dtype=float, order="C")
        if g.shape != (m, m):
            raise ValueError(f"expected a {m}x{m} matrix, got {g.shape}")
        dirs = validate_directions(self.directions, (m, 3)).copy()
        eigs = check_metrics(g, measure)
        for a in (g, dirs, eigs):
            a.flags.writeable = False
        object.__setattr__(self, "size", m)
        object.__setattr__(self, "measure", measure)
        object.__setattr__(self, "matrix", g)
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "eigenvalues", eigs)
        object.__setattr__(self, "rank_tol", spectrum_tol(m))
        object.__setattr__(self, "nonnull_count", int(np.sum(eigs > self.rank_tol)))

    def to_dict(self) -> dict:
        """The ``entdist measure`` record: m, E, E/M, directions, matrix, eigenvalues.

        The matrix is flattened row-major and the eigenvalues run descending;
        each array becomes Python floats by one ``.tolist()``.
        """
        return {
            "m": self.size,
            "measure": self.measure,
            "measure_over_m": self.measure / self.size,
            "directions": self.directions.tolist(),
            "matrix": self.matrix.reshape(-1).tolist(),
            "eigenvalues": self.eigenvalues.tolist(),
        }


def w_vectors(state: StateVector) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude bilinears ``(w_minus, w_3)`` (M,): ``qstate.bilinears`` of the state's array.

    So a ``StateVector`` and its array take one path.
    """
    return bilinears(state.amplitudes)


def measure_from_bilinears(w_minus: np.ndarray, w_3: np.ndarray) -> np.ndarray:
    """E = (1/4)(M - sum_nu (w_3^2 + 4 |w_minus|^2)) for bilinears of shape (..., M).

    The per-qubit terms are added in qubit order, and |w_minus| is taken
    with hypot, so a state gives the same bits alone or in a batch.
    """
    m = w_3.shape[-1]
    terms = w_3**2 + 4.0 * np.hypot(w_minus.real, w_minus.imag) ** 2
    # one add per qubit over the whole batch: np.add.accumulate(terms, axis=-1) gives the same
    # bits but runs its inner loop once per state, 170 us against 15 us on the 10201 states of
    # a 101 x 101 surface (numpy 2.4, 2-vCPU x86-64)
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
    return float(measure_from_bilinears(*w_vectors(state)))


def _frame_unitaries(dirs: np.ndarray) -> np.ndarray:
    """Unitaries U (..., M, 2, 2) with U (v . sigma) U^dagger = Z, one per unit row v of ``dirs``.

    The rows of U are the conjugated +1 and -1 eigenvectors of v . sigma in
    closed form, scaled by 1 / sqrt(2 (1 + |v_3|)).  The form follows the
    sign of v_3, so 1 + |v_3| >= 1 never cancels: v = +z (a degenerate
    qubit's direction) gives U = I exactly and v = -z gives U = X.  So
    ``qstate._turns``' identity rule holds a pass whose qubits are all on
    +z, or on a direction whose U rounds to I, such as (0, 0, 1 - 2^-53).

    Its gap from the exact U of a unit row: a = 1 + |v_3| and sqrt(2 a)
    round once each, and the division by sqrt(2 a), numpy's complex by
    real, rounds twice per part (1 / s, then the product).  So each real
    part of an entry is within (1/2 + 1 + 2) u = 3.5 u of its exact value
    relatively, and U within 3.5 u ||U||_F = 3.5 sqrt(2) u < 5 u in the
    2-norm.  ``entry_tol`` adds 5 u per qubit a pass turns, since a
    Kronecker product of near-unitaries is off by at most the sum of their
    gaps (to first order).  Measured over 10^5 random unit rows against the
    closed form in ``np.longdouble``: 2.1 u in the 2-norm, 2.64 u in a part.
    """
    v1, v2, v3 = np.moveaxis(np.asarray(dirs, dtype=float), -1, 0)
    a = 1.0 + np.abs(v3)
    plus, minus = v1 + 1j * v2, v1 - 1j * v2
    north = np.array([[a, minus], [-plus, a]])
    south = np.array([[plus, a], [a, -minus]])
    u = np.where(v3 >= 0.0, north, south) / np.sqrt(2.0 * a)
    return np.moveaxis(u, (0, 1), (-2, -1))


def _frame_passes(m: int, k: int) -> list[tuple[range, range]]:
    """The direction-frame kernel's plan for M > k qubits in rows of 2^k: (row bits, column bits) per pass.

    A pass turns the qubits it names, its row bits as the rows of its
    blocks and its column bits as their columns, and gives their moments.
    The high qubits, L to M - 1, split into runs as even as they divide,
    and each run J is one row pass, (J, the L low qubits).  With several
    runs, the column pass, (every high qubit, none), gives the pairs across
    runs, from strips of columns; it comes first, and the kernel keeps a
    qubit's or a pair's moments from the last pass that turns it, so the
    row passes give the first moments and the pairs inside a run.  The
    rule, with b = ``_block_bits(k)``: the fewest passes, then the largest
    L <= min(M, b), for which every block, L + |J| bits, fits b and the
    column strip, M - L high bits, fits max(b, M - k).  So a state that
    fits one block is one pass, (none, all M qubits), turned as one row.
    """
    budget = _block_bits(k)
    for passes in range(1, m - k + 1):  # at m - k passes, one qubit per run, L = k always fits
        for low in range(min(m, budget), 0, -1):
            run = -(-(m - low) // passes)  # the longest run
            if low + run <= budget and m - low <= max(budget, m - k):
                bounds = [low + (m - low) * i // passes for i in range(passes + 1)]
                plan = [(range(start, stop), range(low)) for start, stop in zip(bounds, bounds[1:])]
                return plan if passes == 1 else [(range(low, m), range(0))] + plan


def _frame_moments(rows: np.ndarray, dirs: np.ndarray, e: np.ndarray, c: np.ndarray) -> None:
    """Fill e (M,) and c (M, M) with the moments <A_nu>, <A_mu A_nu> of one state of M > k qubits, from its rows.

    With U_nu (v^nu . sigma) U_nu^dagger = Z (``_frame_unitaries``) and
    phi = (U_{M-1} x ... x U_0)|s>, every A_nu becomes Z_nu, so <A_nu> and
    <A_mu A_nu> are the first and second moments of the M spins s_nu = +-1
    (bit nu clear or set) under p = |phi|^2.  phi would take 2^M amplitudes;
    the state, from ``rows``, its (2^(M-k), 2^k) ``qstate.row_view`` (k is
    read from its width), is instead read in place, never written, a block
    at a time, in the passes of ``_frame_passes``.

    A pass with row bits J and column bits C takes from ``_turns`` each
    block, turned in J and C, of 2^w columns, a width that ``_turns``
    states: C, or in the column pass as many low qubits as fill a block
    buffer.  |.|^2 of each is added into one accumulator, 2^(|J| + |C|)
    floats, or the whole of it for the column pass.  That is the joint
    distribution of the turned spins, once the column pass has added up
    the columns it does not turn, and ``_spin_moments`` gives their
    moments at the end of the pass.

    Every block's |y|^2 is squared into the first block buffer, in place
    when ``_rotate`` left the block there.  A pass whose unitaries all
    equal I exactly is held by ``_turns``' identity rule, and yields the
    state's own blocks: +z gives U = I exactly, and so does any direction
    whose U rounds to I.  A held block keeps the state's index order, C's
    bits low and J's high, the reverse of a turned block's, so a held row
    pass, told by its block being the state's own, hands ``_spin_moments``
    a C-order copy of its sums' transpose: the very array the turned pass
    gives, so the bytes do not move.  A strided view of the transpose
    would not do: where |C| is half the pass's bits it is already the
    table that ``_spin_moments`` sums, and strided sums change the bits.
    The column pass, whose turned blocks keep that order too, needs no
    copy.  So a GHZ-like, W or basis state at its optimal directions,
    every qubit on +z, runs no gemm.

    Working memory is two block buffers of the plan's largest block, at
    most 2^b amplitudes, b = ``_block_bits(k)``, unless a row's index has
    more bits, one accumulator of as many floats, and a held row pass's
    copy of its sums, whatever M.  Each entry of e and c, c's diagonal and
    lower triangle included, is written by the last pass that turns its
    qubits; ``metric_matrices`` passes its batch's slots for the state and
    hands them to ``_metric_from_moments``.
    """
    k = rows.shape[-1].bit_length() - 1
    passes = _frame_passes(len(dirs), k)
    bits = max(len(row_bits) + len(col_bits) for row_bits, col_bits in passes)
    u = _frame_unitaries(dirs)
    n = 1 << bits
    # one allocation for the two blocks and the sums: three separate ones were mapped afresh,
    # page by page, on every call at M = 16
    work = np.empty(5 * n // 2, dtype=np.complex128)
    buffers = [work[:n], work[n : 2 * n]]
    sums = work[2 * n :].view(float)  # each pass's accumulator is a prefix of it
    for row_bits, col_bits in passes:
        j = len(row_bits)
        qubits = list(row_bits) + list(col_bits)  # the turned block's index: J's bits low, C's high
        total = sums[: 1 << (j + len(col_bits))] if col_bits else sums  # a column strip fills the buffer
        total.fill(0.0)
        held = False
        for blk, y in _turns(rows, row_bits, col_bits, u, buffers):
            held = y is blk
            parts = y.view(float)  # |y|^2 is the sum of its real and imaginary parts' squares
            squares = buffers[0][: y.size].view(float)
            np.square(parts, out=squares.reshape(parts.shape))  # in place when _rotate left y there
            total += squares[0::2]
            total += squares[1::2]
        if not col_bits:  # the column pass: add up the strip's columns, which trail its row bits
            total = total.reshape(1 << j, -1).sum(axis=1)
        elif held:  # the sums of blocks as they stand, C's bits low: a C-order copy with J's bits low
            total = total.reshape(1 << j, -1).T.copy()
        e[qubits], c[np.ix_(qubits, qubits)] = _spin_moments(total)


def _diagonal(e: np.ndarray) -> np.ndarray:
    """Diagonal entries (1 - e^2)/4 of a metric at expectations e = <A_nu> (...).

    e is squared by ``np.float_power``, which gives Python's float power
    ``x**2`` bit for bit, the power the committed one-row output was made
    with (numpy's square differs from it in the last bit of some values);
    a negative 1 - e^2, which rounding in |e| can give, is clamped to 0,
    and a NaN is kept (max(0.0, d) would make it 0.0).
    """
    gaps = 1.0 - np.float_power(e, 2.0)
    return 0.25 * np.where(gaps < 0.0, 0.0, gaps)


def _metric_from_moments(e: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Metrics (..., M, M) from the moments <A_mu> (..., M) and <A_mu A_nu> (..., M, M).

    The one assembly of g, for both kernels, which give only these
    moments: g[mu, nu] = (c[mu, nu] - e_mu e_nu) / 4 from the
    upper triangle of c, mu < nu, mirrored below it, and ``_diagonal`` on
    the diagonal; c's diagonal and lower triangle do not reach g.
    """
    m = e.shape[-1]
    g = np.triu(0.25 * (c - e[..., :, None] * e[..., None, :]), 1)
    g += np.swapaxes(g, -1, -2)
    g[..., range(m), range(m)] = _diagonal(e)
    return g


def _operator(v1, v2, v3) -> np.ndarray:
    """v . sigma = [[v3, v1 - i v2], [v1 + i v2, -v3]], shape (..., 2, 2), for components (...)."""
    ops = np.array([[v3, v1 - 1j * v2], [v1 + 1j * v2, -v3]], dtype=complex)
    return np.moveaxis(ops, (0, 1), (-2, -1))


def _applied_rows(amps: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """The stack (M, ..., 2^M) of rows A_q|s>, one-row states ``(..., 2**M)``, operators ``(..., M, 2, 2)``.

    The one-row metric's apply: one loop over ascending q, each A_q mixing
    the amplitude pairs (k, k + 2^q) by one two-term einsum into its slot
    of the stack.  Each output entry is the same two-term sum whatever the
    iteration order or the layout of the pairs, so the bits depend on
    neither, nor on the batch.  A qubit at a bit below SHORT_RUN_BITS pairs
    amplitudes in runs too short for einsum's inner loop, so its outer axes
    are iterated innermost, order "F" (with a batch, the batch axis, P
    states long), and the low qubits go to a transposed copy of the batch
    where that lengthens their runs.  The index splits as
    ``qstate._row_bilinears`` splits a row, into hi = M // 2 high and lo = M
    - hi low bits, and the batch seen as (..., 2^hi, 2^lo) is copied,
    transposed, into the last slot of the stack, where a qubit q < lo sits
    at bit hi + q.  Each q < lo with hi + q >= SHORT_RUN_BITS is applied
    there, into the slot before it, and copied back, transposed, into its
    own slot (a qubit that would land lower keeps short runs, and stays);
    every other qubit is applied in place, at bit q.  The two borrowed
    slots' own qubits, M - 2 and M - 1 >= lo, come last in the loop, so the
    flip takes no memory beyond the stack, and from M = 8 on every q < lo
    is flipped.  The bytes are those of applying every qubit in place.

    Measured on one sweep chunk, 2^ROW_BITS amplitudes (numpy 2.4, 2-vCPU
    x86-64): the M applies took 1717 -> 1141 us at M = 9 and 1714 -> 1431 us
    at M = 14; at M = 5, where only q = 2 is flipped, 1448 against 1450 us.
    """
    m = ops.shape[-3]
    batch = amps.shape[:-1]
    applied = np.empty((m,) + amps.shape, dtype=np.complex128)
    hi, lo = m // 2, m - m // 2
    flipped = range(max(0, SHORT_RUN_BITS - hi), lo)  # empty for M <= 4
    by_rows, by_cols = batch + (1 << hi, 1 << lo), batch + (1 << lo, 1 << hi)
    if flipped:
        np.copyto(applied[-1].reshape(by_cols), amps.reshape(by_rows).swapaxes(-1, -2))
    for q in range(m):
        source, bit, out = (applied[-1], hi + q, applied[-2]) if q in flipped else (amps, q, applied[q])
        shape = batch + (1 << (m - 1 - bit), 2, 1 << bit)
        order = "F" if bit < SHORT_RUN_BITS else "K"
        np.einsum(
            "...ij,...ajb->...aib", ops[..., q, :, :], source.reshape(shape), out=out.reshape(shape), order=order
        )
        if q in flipped:
            np.copyto(applied[q].reshape(by_rows), out.reshape(by_cols).swapaxes(-1, -2))
    return applied


def metric_matrices(amps: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Adapted metrics (..., M, M) of states ``(..., 2**M)`` at direction fields ``(..., M, 3)``.

    Entries: g[mu, nu] = (<A_mu A_nu> - <A_mu><A_nu>) / 4 off the diagonal
    and g[mu, mu] = (1 - <A_mu>^2) / 4, with A_nu = v^nu . sigma^nu.

    M and the rows come from ``qstate.row_view``, and the fields pass
    ``qstate.validate_directions``.  The moments <A_mu> and <A_mu A_nu> of
    the whole batch are allocated once and filled by either kernel, and
    ``_metric_from_moments`` assembles g from them in one call.  A state
    of several rows has its moments filled by ``_frame_moments``, one
    state at a time.  A state of one row, M <= ROW_BITS, takes its M
    applied rows A_nu|s> from ``_applied_rows``, each A_nu the
    ``_operator`` of its direction, and ``qstate._dot`` takes the <A_mu>
    in one call and the upper triangle of <A_mu A_nu> in one call per mu
    against every nu > mu.
    """
    m, rows = row_view(amps)
    batch = rows.shape[:-2]
    dirs = validate_directions(dirs, batch + (m, 3))
    e = np.empty(batch + (m,))
    c = np.zeros(batch + (m, m))  # the one-row path fills only the upper triangle, all that is read
    if rows.shape[-2] > 1:
        for i in np.ndindex(batch):
            _frame_moments(rows[i], dirs[i], e[i], c[i])
    else:
        amps = rows[..., 0, :]
        applied = _applied_rows(amps, _operator(*np.moveaxis(dirs, -1, 0)))
        e[...] = np.moveaxis(_dot(amps, applied).real, 0, -1)
        for q in range(m - 1):
            c[..., q, q + 1 :] = np.moveaxis(_dot(applied[q], applied[q + 1 :]).real, 0, -1)
    return _metric_from_moments(e, c)


def metric_matrix(state: StateVector, dirs: np.ndarray) -> np.ndarray:
    """Adapted metric of one state at an (M, 3) direction field: ``metric_matrices`` for P = 1."""
    return metric_matrices(state.amplitudes, dirs)


def entanglement_metric(state: StateVector) -> EntanglementMetric:
    """Metric at the minimizing directions, with E = trace attained.

    One ``w_vectors`` call gives the bilinears for both the directions and E.
    """
    w_minus, w_3 = w_vectors(state)
    dirs = optimal_directions(bloch_vectors(w_minus, w_3))
    g = metric_matrix(state, dirs)
    measure = measure_from_bilinears(w_minus, w_3)
    return EntanglementMetric(state.num_qubits, g, dirs, float(measure))


def spectrum(em: EntanglementMetric) -> np.ndarray:
    """All eigenvalues of the metric, sorted descending: the record's own read-only ``eigenvalues``, not a copy."""
    return em.eigenvalues


def _field_traces(dirs: np.ndarray, bloch: np.ndarray) -> np.ndarray:
    """Metric traces (...) at direction fields ``dirs`` (..., M, 3), the state's Bloch vectors ``bloch`` (..., M, 3).

    The one formula of the trace at a field, for ``distance_density`` and
    ``verify``'s ascent: e = v . b, its products added in component
    order, then ``_diagonal`` of e, then the diagonal entries added in
    qubit order.  So a field gets the bits that Python floats would give
    it, alone or in a batch.
    """
    p = dirs * bloch
    return np.add.accumulate(_diagonal(p[..., 0] + p[..., 1] + p[..., 2]), axis=-1)[..., -1]


def distance_density(state: StateVector, dirs: np.ndarray) -> float:
    """Metric trace ds^2/dr^2 at an (M, 3) direction field; bounded below by E.

    Only the diagonal contributes to the trace, so this runs in O(M 2^M)
    without assembling the full matrix: <A_nu> = v^nu . b^nu, and
    ``_field_traces`` adds the diagonal entries.
    """
    dirs = validate_directions(dirs, (state.num_qubits, 3))
    return float(_field_traces(dirs, bloch_vectors(*w_vectors(state))))
