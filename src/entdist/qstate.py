"""Dense pure-state vectors with bit-indexed basis bookkeeping.

A state of ``m`` qubits is a normalized complex array of length ``2**m``
over the computational basis.  Qubit ``nu`` addresses binary digit ``nu``
of the basis index ``k``, counting from the right: qubit 0 is the least
significant bit.  All operations are pure functions on immutable inputs.

The per-qubit amplitude bilinears, from which every Bloch vector and the
entanglement measure follow, come from one array-first kernel,
``bilinears``, for a single state or a batch of shape (..., 2**M).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

MAX_QUBITS = 26  # 1 GiB of complex128 amplitudes; the metric streams over them in O(2^M) memory
NORM_TOL = 1e-12
UNIT_TOL = 1e-12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


class StateFileError(ValueError):
    """Raised when a state file cannot be parsed into amplitude arrays."""


def validate_amplitudes(amps: np.ndarray) -> None:
    """Reject non-finite or unnormalized states, row-wise over ``(..., 2**M)``.

    Each row's squared norm must be 1 within ``NORM_TOL``; the error names
    the first row that is not.
    """
    if not np.all(np.isfinite(amps)):
        raise ValueError("amplitudes contain non-finite entries")
    norm_sq = np.sum(np.abs(amps) ** 2, axis=-1)
    bad = np.abs(norm_sq - 1.0) > NORM_TOL
    if np.any(bad):
        raise ValueError(f"state is not normalized: sum |c_k|^2 = {float(norm_sq[bad][0])!r}")


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state of ``num_qubits`` qubits.

    Amplitudes are stored as a read-only complex128 array of length
    ``2**num_qubits``; the squared norm must be 1 within ``NORM_TOL``.
    A contiguous complex128 input is not copied: the stored array is a
    read-only view that shares the caller's buffer, so writing to that
    buffer afterwards changes the state.  The caller's array itself stays
    writeable.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        m = self.num_qubits
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or not 1 <= m <= MAX_QUBITS:
            raise ValueError(f"num_qubits must be an integer in [1, {MAX_QUBITS}], got {m!r}")
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**m,):
            raise ValueError(f"expected {2**m} amplitudes for {m} qubits, got shape {amps.shape}")
        validate_amplitudes(amps)
        amps = amps.view()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits


def validate_directions(dirs: np.ndarray, m: int | None = None) -> np.ndarray:
    """A direction field as a float array of m real unit rows, shape (m, 3).

    With ``m`` None, a single unit 3-vector, shape (3,).  Each row's squared
    norm must be 1 within ``UNIT_TOL``; the error gives the squared norm of
    the first row that is not.
    """
    v = np.asarray(dirs, dtype=float)
    shape = (3,) if m is None else (m, 3)
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


@dataclass(frozen=True)
class LocalUnitary:
    """2x2 unitary acting on a single qubit, stored as a read-only copy."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        u = np.array(self.matrix, dtype=np.complex128, order="C")
        if u.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
        defect = np.max(np.abs(u.conj().T @ u - np.eye(2)))
        if defect > UNIT_TOL:
            raise ValueError(f"matrix is not unitary: max |U^H U - I| = {defect!r}")
        if abs(abs(np.linalg.det(u)) - 1.0) > UNIT_TOL:
            raise ValueError("matrix determinant does not have modulus 1")
        u.flags.writeable = False
        object.__setattr__(self, "matrix", u)


def _operator(v1: float, v2: float, v3: float) -> np.ndarray:
    return np.array([[v3, v1 - 1j * v2], [v1 + 1j * v2, -v3]], dtype=complex)


def direction_operator(v: np.ndarray) -> np.ndarray:
    """2x2 Hermitian matrix v . sigma = v1*X + v2*Y + v3*Z for a unit 3-vector v."""
    return _operator(*validate_directions(v).tolist())


def make_basis_state(m: int, k: int) -> StateVector:
    """Computational basis state |k> of m qubits."""
    if not 1 <= m <= MAX_QUBITS:
        raise ValueError(f"m must be in [1, {MAX_QUBITS}], got {m}")
    if not 0 <= k < (1 << m):
        raise ValueError(f"basis index must satisfy 0 <= k < 2**{m}, got {k}")
    amps = np.zeros(1 << m, dtype=np.complex128)
    amps[k] = 1.0
    return StateVector(m, amps)


def _apply_one_qubit_matrix(
    amps: np.ndarray, m: int, qubit: int, mat: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Mix amplitude pairs (k, k + 2**qubit) by an arbitrary 2x2 matrix.

    The result goes to ``out`` (a new array if None), a contiguous array of
    2**m amplitudes.  Each output entry is the same two-term sum whatever
    the iteration order, so the bits do not depend on it; for qubits below
    4 the short innermost axis 2**qubit would make einsum's inner loop
    tiny, so the long outer axis is iterated innermost instead.
    """
    shape = (1 << (m - 1 - qubit), 2, 1 << qubit)
    if out is None:
        out = np.empty(1 << m, dtype=np.complex128)
    order = "F" if qubit < 4 else "K"
    np.einsum("ij,ajb->aib", mat, amps.reshape(shape), out=out.reshape(shape), order=order)
    return out


def _check_qubit(qubit: int, m: int) -> None:
    if not 0 <= qubit < m:
        raise ValueError(f"qubit index must satisfy 0 <= qubit < {m}, got {qubit}")


def apply_local_unitary(state: StateVector, qubit: int, u: LocalUnitary) -> StateVector:
    """Apply a single-qubit unitary; norm is preserved by construction."""
    _check_qubit(qubit, state.num_qubits)
    out = _apply_one_qubit_matrix(state.amplitudes, state.num_qubits, qubit, u.matrix)
    return StateVector(state.num_qubits, out)


def bilinears(
    amps: np.ndarray, qubits: Sequence[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-qubit amplitude bilinears of states with amplitudes ``(..., 2**M)``.

    Returns ``w_minus`` (complex) and ``w_3`` (real), each of shape
    ``(..., len(qubits))``, for ``qubits`` (default: all, in order).
    w_minus sums c*_{k+2^nu} c_k over indices with qubit nu clear and w_3
    is the signed probability sum (-1)^{bit nu of k} |c_k|^2; the third
    bilinear, w_plus, is conj(w_minus).  One einsum and two sums per qubit,
    O(M 2^M) per state.  A batch row gives the same bits as the row alone.
    """
    amps = np.asarray(amps, dtype=np.complex128)
    batch = amps.shape[:-1]
    m = amps.shape[-1].bit_length() - 1
    if amps.shape[-1] != 1 << m:
        raise ValueError(f"expected 2**M amplitudes per state, got {amps.shape[-1]}")
    qubits = range(m) if qubits is None else qubits
    probs = np.abs(amps)
    np.square(probs, out=probs)  # the bits of np.abs(amps) ** 2, one temporary fewer
    w_minus = np.empty(batch + (len(qubits),), dtype=np.complex128)
    w_3 = np.empty(batch + (len(qubits),))
    for i, nu in enumerate(qubits):
        shape = batch + (1 << (m - 1 - nu), 2, 1 << nu)
        view = amps.reshape(shape)
        pview = probs.reshape(shape)
        w_minus[..., i] = np.einsum("...ab,...ab->...", np.conj(view[..., 1, :]), view[..., 0, :])
        w_3[..., i] = np.sum(pview[..., 0, :], axis=(-2, -1)) - np.sum(pview[..., 1, :], axis=(-2, -1))
    return w_minus, w_3


def bloch_vectors(w_minus: np.ndarray, w_3: np.ndarray) -> np.ndarray:
    """Reduced Bloch vectors (<X>, <Y>, <Z>) = (2 Re w_minus, -2 Im w_minus, w_3), shape (..., 3)."""
    return np.stack([2.0 * w_minus.real, -2.0 * w_minus.imag, w_3], axis=-1)


def pauli_expectation(state: StateVector, qubit: int, v: np.ndarray) -> float:
    """<s| (v . sigma^qubit) |s> for a unit 3-vector v, a real number in [-1, 1]."""
    _check_qubit(qubit, state.num_qubits)
    v1, v2, v3 = validate_directions(v).tolist()
    e1, e2, e3 = bloch_vectors(*bilinears(state.amplitudes, (qubit,)))[0]
    value = v1 * e1 + v2 * e2 + v3 * e3
    return float(np.clip(value, -1.0, 1.0))


def pauli_pair_correlation(
    state: StateVector, q_mu: int, v_mu: np.ndarray, q_nu: int, v_nu: np.ndarray
) -> float:
    """<s| (v_mu . sigma^mu)(v_nu . sigma^nu) |s> for two distinct qubits and unit 3-vectors.

    The operators act on different qubits, so they commute and the product
    is Hermitian; the expectation is real and lies in [-1, 1].
    """
    m = state.num_qubits
    _check_qubit(q_mu, m)
    _check_qubit(q_nu, m)
    if q_mu == q_nu:
        raise ValueError(
            "pair correlation requires distinct qubits; "
            "for equal qubits use pauli_expectation and (v.sigma)^2 = 1"
        )
    left = _apply_one_qubit_matrix(state.amplitudes, m, q_mu, direction_operator(v_mu))
    right = _apply_one_qubit_matrix(state.amplitudes, m, q_nu, direction_operator(v_nu))
    value = np.vdot(left, right).real
    return float(np.clip(value, -1.0, 1.0))


def _haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed 2x2 unitary via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_local_unitary(seed: int) -> LocalUnitary:
    """Haar-random single-qubit unitary, deterministic for a fixed seed."""
    return LocalUnitary(_haar_unitary(np.random.default_rng(seed)))


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
    m = payload["m"]
    if isinstance(m, bool) or not isinstance(m, int) or not 1 <= m <= MAX_QUBITS:
        raise StateFileError(f'state file {path}: "m" must be an integer in [1, {MAX_QUBITS}]')
    re, im = payload["re"], payload["im"]
    if not isinstance(re, list) or not isinstance(im, list) or len(re) != 2**m or len(im) != 2**m:
        raise StateFileError(f'state file {path}: "re" and "im" must be arrays of length 2**m')
    try:
        amps = np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)
    except (TypeError, ValueError) as exc:
        raise StateFileError(f"state file {path}: amplitude entries are not numbers") from exc
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
