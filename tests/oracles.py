"""Independent oracles for the test suite.

Everything here recomputes quantities by a route the library does not use:
dense kron-built operators, literal per-index sums, a hand-rolled cyclic
Jacobi eigensolver, and the projector-product construction of the diagonal
chain-phase operator.  Basis convention matches the library: bit nu of the
index k is qubit nu, composite kron order is qubit M-1 (MSB) first.
"""
from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
P0 = (I2 + SZ) / 2.0  # projector onto |0> (sigma_z eigenvalue +1)
P1 = (I2 - SZ) / 2.0


def dense_qubit_operator(m: int, qubit: int, mat: np.ndarray) -> np.ndarray:
    """Full 2^m x 2^m matrix of a single-qubit operator."""
    return np.kron(np.eye(1 << (m - 1 - qubit)), np.kron(mat, np.eye(1 << qubit)))


def dense_direction_operator(v) -> np.ndarray:
    return v[0] * SX + v[1] * SY + v[2] * SZ


def expectation_dense(amps: np.ndarray, op: np.ndarray) -> float:
    return float(np.vdot(amps, op @ amps).real)


def w_triples_literal(amps: np.ndarray, m: int) -> list[tuple[complex, complex, float]]:
    """(w_minus, w_plus, w_3) per qubit by literal per-index sums."""
    out = []
    for nu in range(m):
        step = 1 << nu
        w_minus = 0.0j
        w_plus = 0.0j
        w_3 = 0.0
        for k in range(len(amps)):
            bit = (k >> nu) & 1
            if bit == 0:
                w_minus += np.conj(amps[k + step]) * amps[k]
            else:
                w_plus += np.conj(amps[k - step]) * amps[k]
            w_3 += (-1.0) ** bit * abs(amps[k]) ** 2
        out.append((complex(w_minus), complex(w_plus), float(w_3)))
    return out


def bilinears_extended(amps: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(w_minus, w_3) per qubit in extended precision, summed pairwise.

    The amplitudes are widened to ``np.clongdouble`` (a 64-bit significand
    on x86-64, 2^11 times finer than float64), the index pairs (k, k + 2^nu)
    are gathered by integer arithmetic on the basis index, and ``np.sum``
    adds the products pairwise, so the reference is off by about
    log2(2^m) 2^-64, far below the float64 kernel's rounding.
    """
    a = np.asarray(amps).astype(np.clongdouble)
    probs = a.real**2 + a.imag**2
    k = np.arange(1 << m)
    w_minus = np.empty(m, dtype=np.clongdouble)
    w_3 = np.empty(m, dtype=np.longdouble)
    for nu in range(m):
        clear = k[(k >> nu) & 1 == 0]
        w_minus[nu] = np.sum(np.conj(a[clear + (1 << nu)]) * a[clear])
        w_3[nu] = np.sum(probs[clear]) - np.sum(probs[clear + (1 << nu)])
    return w_minus, w_3


def covariance_metric_dense(amps: np.ndarray, m: int, dirs) -> np.ndarray:
    """Metric entries from dense operators: (<AB> - <A><B>) / 4."""
    ops = [dense_qubit_operator(m, nu, dense_direction_operator(v)) for nu, v in enumerate(dirs)]
    means = [expectation_dense(amps, op) for op in ops]
    g = np.zeros((m, m))
    for mu in range(m):
        for nu in range(m):
            g[mu, nu] = 0.25 * (expectation_dense(amps, ops[mu] @ ops[nu]) - means[mu] * means[nu])
    return g


def covariance_entry_pairwise(amps: np.ndarray, m: int, mu: int, v_mu, nu: int, v_nu) -> float:
    """One off-diagonal metric entry from whole vectors, summed pairwise.

    (<A_mu A_nu> - <A_mu><A_nu>) / 4, with each operator applied by slicing
    and broadcasting and every inner product taken as ``np.sum`` of the real
    parts of the products.  numpy sums those pairwise, a rounding error of
    order (128 + log2 N) u against N u for a sequential sum, so this serves
    as a reference at 20 and more qubits.
    """

    def apply(qubit, v):
        view = amps.reshape(1 << (m - 1 - qubit), 2, 1 << qubit)
        mat = dense_direction_operator(v)
        out = np.empty_like(view)
        for i in range(2):
            out[:, i, :] = mat[i, 0] * view[:, 0, :] + mat[i, 1] * view[:, 1, :]
        return out.reshape(-1)

    def inner(x, y):
        return float(np.sum(x.real * y.real + x.imag * y.imag))

    a_mu, a_nu = apply(mu, v_mu), apply(nu, v_nu)
    return 0.25 * (inner(a_mu, a_nu) - inner(amps, a_mu) * inner(amps, a_nu))


def jacobi_eigenvalues(matrix: np.ndarray, max_sweeps: int = 60, tol: float = 1e-15) -> np.ndarray:
    """Eigenvalues of a small real symmetric matrix by cyclic Jacobi rotations."""
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = 0.5 * np.arctan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diagonal(a))[::-1]


def phase_chain_operator(m: int, phi: float) -> np.ndarray:
    """Diagonal chain-phase operator built from explicit projector products.

    Product over adjacent pairs (j, j+1) of (I + alpha P0_j P1_{j+1}) with
    alpha = e^{-i phi} - 1; the library instead uses the resummed eigenvalue
    e^{-i phi n(k)}, and this construction is the convention oracle.
    """
    alpha = np.exp(-1j * phi) - 1.0
    dim = 1 << m
    u = np.eye(dim, dtype=complex)
    for j in range(m - 1):
        mats = [I2] * m
        mats[j] = P0
        mats[j + 1] = P1
        full = np.eye(1, dtype=complex)
        for q in reversed(range(m)):
            full = np.kron(full, mats[q])
        u = u @ (np.eye(dim) + alpha * full)
    return u


def n01_string_reading(k: int, m: int) -> int:
    """Count of '01' substrings in the printed ket string |n_{M-1} ... n_0>.

    The opposite reading of the phase exponent; related to the library's
    projector reading by a global bit-order reflection.
    """
    return format(k, f"0{m}b").count("01")


def bit_reversed_state(amps: np.ndarray, m: int) -> np.ndarray:
    out = np.zeros_like(amps)
    for k in range(len(amps)):
        out[int(format(k, f"0{m}b")[::-1], 2)] = amps[k]
    return out


def permute_qubits(amps: np.ndarray, m: int, perm) -> np.ndarray:
    """Relabel qubits: bit nu of the input becomes bit perm[nu] of the output."""
    out = np.zeros_like(amps)
    for k in range(len(amps)):
        kp = 0
        for nu in range(m):
            if (k >> nu) & 1:
                kp |= 1 << perm[nu]
        out[kp] = amps[k]
    return out


def random_state(m: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
    return z / np.linalg.norm(z)


def random_product_state(m: int, rng: np.random.Generator) -> np.ndarray:
    amps = np.ones(1, dtype=complex)
    for _ in range(m):  # kron order: qubit M-1 first
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps = np.kron(amps, z / np.linalg.norm(z))
    return amps
