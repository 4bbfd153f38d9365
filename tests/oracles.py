"""Independent oracles for the test suite.

Everything here recomputes quantities by a route the library does not use:
dense kron-built operators, literal per-index sums, a hand-rolled cyclic
Jacobi eigensolver, the projector-product construction of the diagonal
chain-phase operator, pair-by-pair adjacent-pair counts, the analytic
two- and three-qubit chain-phase metric forms, the metric of a
permutation-symmetric state from (M + 1) x (M + 1) collective-spin
matrices, the metric of a graph state from its stabilizer group, and the
metric of any state in exact rational arithmetic.
Beside each metric oracle stands its share of a check's bound, its own
rounding (``dense_share``, ``pairwise_share``, ``spin_share``,
``graph_share``, ``EXACT_SHARE``): a check holds a kernel's entry to ``metric.entry_tol(M)``
plus that share, and an eigenvalue to ``metric.eig_tol(M)`` plus M times
it, or plus ``closed_form_share(M)`` against a closed form.
Basis convention matches the library: bit nu of the index k is qubit nu,
composite kron order is qubit M-1 (MSB) first.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
P0 = (I2 + SZ) / 2.0  # projector onto |0> (sigma_z eigenvalue +1)
P1 = (I2 - SZ) / 2.0


def dense_qubit_operator(m: int, qubit: int, mat: np.ndarray) -> np.ndarray:
    """Full 2^m x 2^m matrix of a single-qubit operator."""
    return np.kron(np.eye(1 << (m - 1 - qubit)), np.kron(mat, np.eye(1 << qubit)))


def dense_local_operator(unitaries) -> np.ndarray:
    """Full 2^m x 2^m matrix u_(m-1) x ... x u_0 of one 2x2 matrix per qubit, built by a chain of np.kron."""
    op = np.ones((1, 1), dtype=complex)
    for u in reversed(list(unitaries)):  # the highest qubit is the most significant bit
        op = np.kron(op, u)
    return op


def dense_local_share(m: int) -> float:
    """Bound on the 2-norm gap of ``dense_local_operator(u) @ x`` from the exact product, for a unit x.

    Higham's model (Accuracy and Stability of Numerical Algorithms, ch. 3),
    to first order in u = 2^-53, d = 2^m.  Each entry of the chain is a
    product of m entries of the given matrices, m - 1 complex products each
    within 2 gamma_2 relatively, so the chain is off by at most 2 (m - 1)
    gamma_2 times |U| entrywise, and by 2 (m - 1) gamma_2 sqrt(d) in the
    2-norm, |U| having 2-norm at most ||U||_F = sqrt(d) for a unitary U.
    The product with x takes inner products of d complex terms, each off by
    at most 2 gamma_2d sum |a_i| |x_i|, which adds 2 gamma_2d sqrt(d).
    """
    u = np.finfo(float).eps / 2.0
    d = 1 << m

    def gamma(n: int) -> float:
        return n * u / (1 - n * u)

    return (2 * (m - 1) * gamma(2) + 2 * gamma(2 * d)) * math.sqrt(d)


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
    """Metric entries from dense operators: (<A_mu A_nu> - <A_mu><A_nu>) / 4.

    Each A_nu is a dense kron-built 2^m x 2^m matrix, applied to the state
    once; <A_mu A_nu> is the inner product of the applied vectors A_mu|s>
    and A_nu|s>, A_mu being Hermitian, so no product of two dense
    operators is formed.
    """
    applied = [dense_qubit_operator(m, nu, dense_direction_operator(v)) @ amps for nu, v in enumerate(dirs)]
    means = [float(np.vdot(amps, a).real) for a in applied]
    g = np.zeros((m, m))
    for mu in range(m):
        for nu in range(m):
            g[mu, nu] = 0.25 * (float(np.vdot(applied[mu], applied[nu]).real) - means[mu] * means[nu])
    return g


def dense_share(m: int) -> float:
    """Rounding bound of one entry of ``covariance_metric_dense``: 0.75 (2^m + 11) u, u = 2^-53.

    The error model of ``metric.entry_tol``.  Each v . sigma has exact
    entries (v_3, v_1 -+ i v_2), and a Kronecker product with identities
    keeps them.  A row of A_nu holds two of them, and a zero term adds
    exactly, so each applied vector A_nu|s> is off by at most 6 u in
    2-norm.  ``np.vdot`` then sums 2^m terms, within gamma_(2^m + 2) of
    the product of the two vectors' norms, each 1 since A_nu is unitary.
    So <A_mu> is within (2^m + 8) u and <A_mu A_nu> within (2^m + 14) u,
    and an entry within (2^m + 14 + 2 (2^m + 8) + 2) u / 4 = 0.75 (2^m +
    32/3) u.
    """
    return 0.75 * ((1 << m) + 11) * np.finfo(float).eps / 2.0


def closed_form_share(m: int) -> float:
    """Rounding bound of a closed-form eigenvalue of an m-qubit metric: 4 m u, u = 2^-53.

    A check holds a computed eigenvalue to ``metric.eig_tol(m)`` plus this.
    The closed forms of the tests (GHZ-like (m/4) sin^2(2 theta), W's 1/m,
    0) are at most m/4 and take a few roundings, each within 2 u of that
    scale: m u.  A theta rounded within 2 u relative, at most pi/2, moves
    (m/4) sin^2(2 theta), whose slope is at most m/2, by at most pi m u / 2.
    """
    return 4 * m * np.finfo(float).eps / 2.0


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


def pairwise_share(m: int) -> float:
    """Rounding bound of one ``covariance_entry_pairwise`` entry of an m-qubit state: (128 + m) u, u = 2^-53.

    numpy's pairwise sum adds blocks of at most 128 terms in turn and the
    blocks' sums in pairs, a depth of at most 128 + m over the 2^m terms.
    An applied vector is off by at most 6 u in 2-norm, as in
    ``metric.entry_tol``, and each term of ``inner`` by 2 u of its size, so
    a moment is within (128 + m + 14) u, and an entry within 0.75 (142 +
    m) u <= (128 + m) u.
    """
    return (128 + m) * np.finfo(float).eps / 2.0


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


def brs_n01(k: int, m: int) -> int:
    """Number of adjacent qubit pairs (j, j+1) of |k> with qubit j clear
    and qubit j+1 set, for j = 0 .. m-2 on the open chain.

    This is the exponent of the controlled-phase eigenvalue e^{-i phi n(k)},
    counted pair by pair rather than by the library's whole-word bit trick.
    """
    if not 0 <= k < (1 << m):
        raise ValueError(f"basis index must satisfy 0 <= k < 2**{m}, got {k}")
    return sum(1 for j in range(m - 1) if not (k >> j) & 1 and (k >> (j + 1)) & 1)


def brs_n01_counts(m: int) -> np.ndarray:
    """``brs_n01`` of every basis index of m qubits, as uint8: one adjacent pair at a time.

    Each pair (j, j+1) adds 1 where bit j of the index is clear and bit j+1
    set, over all 2^m indices at once; no row template and no word-wide
    bit trick.
    """
    k = np.arange(1 << m)
    counts = np.zeros(1 << m, dtype=np.uint8)
    for j in range(m - 1):
        counts += ((k >> j) & 1 == 0) & ((k >> (j + 1)) & 1 == 1)
    return counts


def brs_reference_metric(m: int, phi: float) -> np.ndarray:
    """Analytic reference form of the chain-phase entanglement metric, m = 2 or 3.

    Used as a regression target for the trace and diagonal; the constant
    off-diagonal entries encode a fixed minimizer-sign convention that a
    direct evaluation reproduces only at odd multiples of pi, so they are
    compared in reports rather than asserted.
    """
    c = math.cos(phi / 2.0)
    s = math.sin(phi / 2.0)
    if m == 2:
        return 0.25 * np.array([[s * s, 1.0], [1.0, s * s]])
    if m == 3:
        c2, s2 = c * c, s * s
        return (s2 / 4.0) * np.array(
            [
                [1.0, c, -2.0 * s2 * c2],
                [c, 1.0 + c2, c],
                [-2.0 * s2 * c2, c, 1.0],
            ]
        )
    raise ValueError("reference metric forms exist only for m = 2 and m = 3")


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


def signed_zero_batch(m: int, points: int, rng: np.random.Generator) -> np.ndarray:
    """A (points, 2^m) batch of random amplitudes, about a third of its real and imaginary parts +-0.0.

    Not normalized: for kernel stages that read amplitudes without
    validating them, where the sign of a zero product is what could move.
    """
    parts = rng.normal(size=(2, points, 1 << m))
    zeros = rng.integers(0, 6, size=parts.shape)  # 0: +0.0, 1: -0.0, otherwise kept
    parts[zeros == 0] = 0.0
    parts[zeros == 1] = -0.0
    batch = np.empty((points, 1 << m), dtype=np.complex128)
    batch.real, batch.imag = parts  # re + 1j * im would turn an imaginary -0.0 into +0.0
    return batch


def random_product_state(m: int, rng: np.random.Generator) -> np.ndarray:
    amps = np.ones(1, dtype=complex)
    for _ in range(m):  # kron order: qubit M-1 first
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps = np.kron(amps, z / np.linalg.norm(z))
    return amps


def collective_spin(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S_x, S_y, S_z of S = sum_mu sigma^mu / 2 on the Dicke basis |D(m, k)>, k = 0 .. m, in ``np.clongdouble``.

    |D(m, k)> has k qubits in |1> (sigma_z = -1), so S_z = m/2 - k, and
    S_+ = S_x + i S_y takes k to k - 1 with the spin-j ladder factor
    sqrt(j (j + 1) - m_z (m_z + 1)), j = m/2, m_z = j - k.  Every entry is
    exact but the square root's, rounded once in extended precision.
    """
    j = np.longdouble(m) / 2
    mz = j - np.arange(m + 1)
    raise_ = np.diag(np.sqrt(j * (j + 1) - mz[1:] * (mz[1:] + 1)), 1).astype(np.clongdouble)
    return (raise_ + raise_.T) / 2, (raise_ - raise_.T) / 2j, np.diag(mz).astype(np.clongdouble)


def symmetric_amplitudes(c) -> np.ndarray:
    """2^M amplitudes of sum_k c_k |D(M, k)> (c normalized here), M = len(c) - 1.

    Index i holds c_k / sqrt(C(M, k)) with k = popcount(i), filled by rows
    of at most 2^14 indices with ``np.bitwise_count`` on each row's
    indices, so no popcount of all 2^M indices is held at once.
    """
    c = np.asarray(c, dtype=complex)
    c = c / np.linalg.norm(c)
    m = c.size - 1
    per_index = c / np.sqrt([float(math.comb(m, k)) for k in range(m + 1)])
    width = 1 << min(m, 14)
    amps = np.empty(1 << m, dtype=complex)
    for start in range(0, 1 << m, width):
        amps[start : start + width] = per_index[np.bitwise_count(np.arange(start, start + width))]
    return amps


def symmetric_metric(c, dirs=None) -> np.ndarray:
    """The (M, M) metric of sum_k c_k |D(M, k)>, M >= 2, at a field ``dirs`` (M, 3), or at its optimal directions.

    c is normalized as ``symmetric_amplitudes`` normalizes it, in float64,
    and widened to ``np.clongdouble``, in which all the rest is computed.
    Every qubit has the Bloch vector b = 2 <S> / M, and every pair mu !=
    nu the correlation tensor T_ij = <sigma_i^mu sigma_j^nu>, since
    <S_i S_j + S_j S_i> / 2 = (M <c|c> I + M (M - 1) T) / 4 and, S being
    Hermitian, <S_i S_j + S_j S_i> / 2 = Re <S_i c, S_j c>.  So with e_mu =
    v^mu . b, g[mu, nu] = (v^mu . T v^nu - e_mu e_nu) / 4 and g[mu, mu] =
    (1 - e_mu^2) / 4: the moments of c as it stands, as the kernels take
    those of the state.  Without a field, one direction v = b / |b| serves
    every qubit, the z axis when |b| < 1e-12 (b = 0: every direction
    minimizes the trace).  Then g = a I + o (J - I) with a = (1 - (v .
    b)^2) / 4 and o = (v . T v - (v . b)^2) / 4, and its eigenvalues are
    a + (M - 1) o = Var(S_v) / M, once, and a - o, M - 1 times.  All of
    it comes from (M + 1) x (M + 1) matrices.
    """
    c = np.asarray(c, dtype=complex)
    c = (c / np.linalg.norm(c)).astype(np.clongdouble)
    m = c.size - 1
    applied = [s @ c for s in collective_spin(m)]
    b = np.array([2 * np.vdot(c, x).real / m for x in applied])
    if dirs is None:
        norm = np.sqrt(b @ b)
        dirs = np.tile(b / norm if norm >= 1e-12 else np.array([0.0, 0.0, 1.0]), (m, 1))
    dirs = np.asarray(dirs, dtype=np.longdouble)
    q = np.array([[np.vdot(x, y).real for y in applied] for x in applied])
    t = (4 * q - m * np.vdot(c, c).real * np.eye(3)) / (m * (m - 1))
    e = dirs @ b
    g = (dirs @ t @ dirs.T - np.multiply.outer(e, e)) / 4
    g[np.diag_indices(m)] = (1 - e**2) / 4
    return g.astype(float)


def spin_share(m: int) -> float:
    """Rounding bound of one ``symmetric_metric`` entry against the state of ``symmetric_amplitudes``.

    The error model of ``metric.entry_tol``.  ``symmetric_amplitudes``
    rounds each amplitude c_k / sqrt(C(M, k)) twice, the root and the
    quotient, so the state is off by at most 2 u in 2-norm from the one
    whose moments ``symmetric_metric`` takes, and each moment by at most
    4 u: an entry by at most 3.1 u.  The extended arithmetic, u_x = 2^-64
    on x86-64, adds at most 3 (M + 14) u_x, and the cast to float64 0.5 u.
    """
    u = np.finfo(float).eps / 2.0
    return 3.6 * u + 3 * (m + 14) * float(np.finfo(np.longdouble).eps) / 2.0


def graph_amplitudes(m: int, edges) -> np.ndarray:
    """2^m amplitudes of the graph state |G> = prod_(i,j) CZ_ij |+>^m: <x|G> = (-1)^(sum_E x_i x_j) 2^(-m/2).

    Filled by rows of at most 2^14 indices.  With x = (h, l), l the w low
    bits of the index and h the high ones, the exponent is the sum over the
    edges among the low qubits, one array over the 2^w values of l, plus,
    per row h, the edges among the high qubits and l . c(h) over the
    edges across, c(h) the low neighbours of the set high qubits: so no
    index array longer than a row is held.
    """
    w = min(m, 14)
    low = np.arange(1 << w)
    low_parity = np.zeros(1 << w, dtype=np.int64)
    cross = [0] * m  # for a high qubit, the mask of its low neighbours
    high_edges = []
    for i, j in edges:
        i, j = min(i, j), max(i, j)
        if j < w:
            low_parity += (low >> i) & (low >> j) & 1
        elif i < w:
            cross[j] ^= 1 << i
        else:
            high_edges.append((i, j))
    low_sign = 1.0 - 2.0 * (low_parity & 1)
    scale = 0.5 ** (m // 2) * (math.sqrt(0.5) if m % 2 else 1.0)  # 2^(-m/2), rounded once
    amps = np.empty(1 << m, dtype=complex)
    for h in range(1 << (m - w)):
        x = h << w
        mask = 0
        for j in range(w, m):
            if (x >> j) & 1:
                mask ^= cross[j]
        flip = sum((x >> i) & (x >> j) & 1 for i, j in high_edges) & 1
        sign = low_sign * (1.0 - 2.0 * (np.bitwise_count(low & mask) & 1))
        amps[x : x + (1 << w)] = (-scale if flip else scale) * sign
    return amps


def _pauli_product(p, q):
    """(x, z, k) of i^k X^x Z^z, qubit by qubit X first, for the product of two such triples.

    Z^z1 X^x2 = (-1)^|z1 & x2| X^x2 Z^z1, so the phases add with 2 |z1 & x2|.
    """
    (x1, z1, k1), (x2, z2, k2) = p, q
    return x1 ^ x2, z1 ^ z2, (k1 + k2 + 2 * bin(z1 & x2).count("1")) % 4


def _graph_expectation(generators, pauli) -> int:
    """<G|P|G> of a Pauli string P = i^k X^x Z^z, x and z bit masks: +1, -1 or 0.

    The stabilizer group of |G> is generated by K_a = X_a Z_N(a) (Hein,
    Eisert and Briegel, PRA 69, 062311 (2004)), and the product of the
    K_a over a set A has X part A: so S_x, the product over the qubits of
    x, is the one element that can equal +-P.  If its Z part is z, P =
    i^(k - k_S) S_x and <P> = i^(k - k_S), a sign; otherwise P anticommutes
    with some element of the group and <P> = 0.
    """
    x, z, k = pauli
    s = (0, 0, 0)
    for a, g in enumerate(generators):
        if (x >> a) & 1:
            s = _pauli_product(s, g)
    if s[1] != z:
        return 0
    phase = (k - s[2]) % 4
    assert phase in (0, 2), "a Hermitian Pauli string has a real expectation"
    return 1 - phase  # i^0 = 1, i^2 = -1


def graph_metric(m: int, edges, dirs) -> np.ndarray:
    """The (m, m) metric of the graph state of ``edges`` at a field ``dirs`` (m, 3), from its stabilizer group.

    Each <sigma_a^mu> and <sigma_a^mu sigma_b^nu> is +1, -1 or 0
    (``_graph_expectation``), with sigma_x = X, sigma_y = i X Z and
    sigma_z = Z.  With the Bloch vectors b and correlations T exact and
    e_mu = v^mu . b^mu, g[mu, nu] = (v^mu . T^(mu nu) v^nu - e_mu e_nu) / 4
    and g[mu, mu] = (1 - e_mu^2) / 4, the field's products taken in
    ``np.longdouble`` and rounded once to float64.
    """
    nbrs = [0] * m
    for i, j in edges:
        nbrs[i] |= 1 << j
        nbrs[j] |= 1 << i
    generators = [(1 << a, nbrs[a], 0) for a in range(m)]
    axes = [(1, 0, 0), (1, 1, 1), (0, 1, 0)]  # sigma_x, sigma_y, sigma_z as (x, z, k) on one qubit

    def on(mu, axis):
        x, z, k = axes[axis]
        return x << mu, z << mu, k

    b = np.array([[_graph_expectation(generators, on(mu, a)) for a in range(3)] for mu in range(m)])
    v = np.asarray(dirs, dtype=np.longdouble)
    e = np.sum(v * b, axis=1)
    g = np.diag((1 - e**2) / 4)
    for mu in range(m):
        for nu in range(mu + 1, m):
            t = np.array([[_graph_expectation(generators, _pauli_product(on(mu, a), on(nu, c))) for c in range(3)]
                          for a in range(3)])
            g[mu, nu] = g[nu, mu] = (v[mu] @ (t @ v[nu]) - e[mu] * e[nu]) / 4
    return g.astype(float)


def graph_share(m: int) -> float:
    """Rounding bound of one ``graph_metric`` entry against the state of ``graph_amplitudes``.

    The error model of ``metric.entry_tol``.  Every amplitude is the one
    rounding of 2^(-m/2), so the state is off by at most u in 2-norm from
    |G>, each moment of a +-1-valued product by at most 2 u, and an entry
    (c - e_mu e_nu) / 4 by at most 1.5 u.  In ``np.longdouble``, u_x =
    2^-64 on x86-64, a Bloch component and T's entries are exact, e is
    within 3.5 u_x, v^mu . T v^nu within 15 u_x and e_mu e_nu within 8 u_x,
    so an entry within 7 u_x; the cast to float64 adds u |g| <= u / 4.
    """
    u = np.finfo(float).eps / 2.0
    return 1.75 * u + 7 * float(np.finfo(np.longdouble).eps) / 2.0


EXACT_SHARE = np.finfo(float).eps / 8.0  # u / 4, u = 2^-53: the one rounding of an ``exact_metric`` entry


def exact_metric(amps: np.ndarray, dirs) -> np.ndarray:
    """The metric of states ``(2**M,)`` at a field ``(M, 3)`` in exact arithmetic, each entry rounded once.

    Entries g[mu, nu] = (<A_mu A_nu> - <A_mu><A_nu>) / 4 off the diagonal
    and (1 - <A_mu>^2) / 4 on it, A_nu = v^nu . sigma^nu, as
    ``metric.metric_matrices`` defines them, taken in the given amplitudes
    and field as they stand.  A float64 is a dyadic rational, so
    ``fractions.Fraction`` holds each amplitude part and field component
    exactly, and every sum and product after it.  Each applied vector
    A_nu|s> is built pair by pair, (k, k + 2^nu) for each k with bit nu
    clear, and each moment is the real part of an inner product.  So only
    the final rounding to float64, within u |g| <= u / 4 for a unit state
    at a unit field, separates an entry from the exact g: ``EXACT_SHARE``.
    About 0.03 s at M = 6 and 0.2 s at M = 8.
    """
    s = [(Fraction(a.real), Fraction(a.imag)) for a in np.asarray(amps, dtype=complex).tolist()]
    m = len(s).bit_length() - 1
    applied = []
    for nu, (v1, v2, v3) in enumerate(np.asarray(dirs, dtype=float).tolist()):
        v1, v2, v3 = Fraction(v1), Fraction(v2), Fraction(v3)
        a = list(s)
        for k0 in range(len(s)):
            if k0 >> nu & 1:
                continue
            k1 = k0 | 1 << nu
            (r0, i0), (r1, i1) = s[k0], s[k1]
            a[k0] = (v3 * r0 + v1 * r1 + v2 * i1, v3 * i0 + v1 * i1 - v2 * r1)  # v3 s_k0 + (v1 - i v2) s_k1
            a[k1] = (v1 * r0 - v2 * i0 - v3 * r1, v1 * i0 + v2 * r0 - v3 * i1)  # (v1 + i v2) s_k0 - v3 s_k1
        applied.append(a)

    def inner(x, y) -> Fraction:  # Re <x|y>
        return sum((xr * yr + xi * yi for (xr, xi), (yr, yi) in zip(x, y)), Fraction(0))

    e = [inner(s, a) for a in applied]
    g = np.empty((m, m))
    for mu in range(m):
        g[mu, mu] = float((1 - e[mu] ** 2) / 4)
        for nu in range(mu + 1, m):
            g[mu, nu] = g[nu, mu] = float((inner(applied[mu], applied[nu]) - e[mu] * e[nu]) / 4)
    return g
