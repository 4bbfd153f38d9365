"""Entanglement measure, metric, spectrum: oracles and invariants."""
from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from entdist import (
    EntanglementMetric,
    StateVector,
    brs_state,
    distance_density,
    entanglement_measure,
    entanglement_metric,
    ghzl_state,
    make_basis_state,
    metric_matrix,
    minimize_trace_numeric,
    optimal_directions,
    spectrum,
    w_vectors,
)
from entdist import qstate
from entdist.families import FAMILY_ANGLES, FamilySpec, family_amplitudes
from entdist.metric import (
    DEGENERATE_TOL,
    _diagonal,
    _frame_passes,
    _frame_unitaries,
    _metric_from_moments,
    check_metrics,
    eig_tol,
    entry_tol,
    measure_tol,
    metric_matrices,
    spectrum_tol,
    trace_tol,
)
from entdist.qstate import KRON_BITS, _block_bits, _kron_groups, bloch_vectors
from entdist.verify import HAAR_DRAW_GAP, bloch_tol, invariance_tol, optimizer_tol

from oracles import (
    covariance_entry_pairwise,
    covariance_metric_dense,
    dense_direction_operator,
    dense_qubit_operator,
    EXACT_SHARE,
    dense_share,
    exact_metric,
    expectation_dense,
    jacobi_eigenvalues,
    pairwise_share,
    random_product_state,
    random_state,
    w_triples_literal,
)

X = np.array([1.0, 0.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def _bloch(w_minus: complex, w_3: float) -> np.ndarray:
    """(1, 3) Bloch array of one qubit with the given bilinears."""
    return bloch_vectors(np.array([w_minus], dtype=complex), np.array([w_3]))


def _random_directions(rng, m: int) -> np.ndarray:
    """(m, 3) field of random unit rows, each drawn and normalized in turn."""
    rows = []
    for _ in range(m):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        rows.append(v)
    return np.array(rows)


# ---------------------------------------------------------------------------
# w-vectors and Bloch vectors
# ---------------------------------------------------------------------------


class TestWVectors:
    def test_uniform_state(self):
        """Uniform superposition: every qubit has w_minus = w_plus = 1/2, w_3 = 0."""
        for m in [2, 3, 5]:
            w_minus, w_3 = w_vectors(brs_state(m, 0.0))
            assert w_minus.shape == w_3.shape == (m,)
            assert np.all(np.abs(w_minus - 0.5) < 1e-14)
            assert np.all(np.abs(np.conj(w_minus) - 0.5) < 1e-14)
            assert np.all(np.abs(w_3) < 1e-14)
            assert np.all(np.abs(w_3**2 + 4.0 * np.abs(w_minus) ** 2 - 1.0) < 1e-13)

    def test_ghz_marginals_vanish(self):
        """One bit flip never connects |0...0> and |1...1>; w_3 cancels at theta=pi/4."""
        for m in [2, 4, 6]:
            w_minus, w_3 = w_vectors(ghzl_state(m, np.pi / 4))
            assert np.all(np.abs(w_minus) < 1e-15)
            assert np.all(np.abs(w_3) < 1e-15)

    def test_all_zeros_state(self):
        w_minus, w_3 = w_vectors(make_basis_state(4, 0))
        assert np.all(w_minus == 0.0)
        np.testing.assert_allclose(w_3, 1.0, rtol=0, atol=1e-15, equal_nan=False)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_matches_literal_sums(self, m):
        """Vectorized bilinears equal the literal per-index definition."""
        rng = np.random.default_rng(100 + m)
        s = StateVector(m, random_state(m, rng))
        expected = w_triples_literal(s.amplitudes, m)
        for w_minus, w_3, (wm, wp, w3) in zip(*w_vectors(s), expected):
            assert abs(w_minus - wm) < 1e-13
            assert abs(np.conj(w_minus) - wp) < 1e-13
            assert abs(w_3 - w3) < 1e-13

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_bloch_vectors_match_dense_operators(self, m):
        """Each qubit's (<X>, <Y>, <Z>) is <s|sigma|s> of the dense operator: pins <Y> = -2 Im w_minus.

        The states are |0...0>, |1...1>, |+...+> and two Haar states.
        """
        rng = np.random.default_rng(30 + m)
        n = 1 << m
        states = [make_basis_state(m, 0), make_basis_state(m, n - 1), StateVector(m, np.full(n, n**-0.5))]
        states += [StateVector(m, random_state(m, rng)) for _ in range(2)]
        for s in states:
            dense = [
                [expectation_dense(s.amplitudes, dense_qubit_operator(m, q, dense_direction_operator(axis))) for axis in np.eye(3)]
                for q in range(m)
            ]
            np.testing.assert_allclose(bloch_vectors(*w_vectors(s)), dense, rtol=0, atol=1e-15, equal_nan=False)


# ---------------------------------------------------------------------------
# optimal directions
# ---------------------------------------------------------------------------


class TestOptimalDirections:
    def test_transverse_bloch(self):
        dirs = optimal_directions(_bloch(0.5, 0.0))
        assert dirs.shape == (1, 3)
        assert tuple(dirs[0]) == pytest.approx((1.0, 0.0, 0.0))

    def test_pure_z_bloch(self):
        (d,) = optimal_directions(_bloch(0.0, 1.0))
        assert d.tolist() == [0.0, 0.0, 1.0]

    def test_degenerate_marginal(self):
        (d,) = optimal_directions(_bloch(0.0, 0.0))
        assert d.tolist() == [0.0, 0.0, 1.0]

    def test_sign_canonicalized(self):
        (d,) = optimal_directions(_bloch(0.0, -0.8))
        assert d[2] == 1.0

    def test_beats_sphere_grid(self):
        """(v.b)^2 at the returned direction majorizes a dense sphere scan."""
        rng = np.random.default_rng(7)
        golden = np.pi * (3.0 - np.sqrt(5.0))
        n = 20_000
        i = np.arange(n)
        z = 1.0 - 2.0 * (i + 0.5) / n
        r = np.sqrt(1.0 - z**2)
        grid = np.stack([r * np.cos(golden * i), r * np.sin(golden * i), z], axis=1)
        for _ in range(5):
            wm = complex(rng.normal(scale=0.2), rng.normal(scale=0.2))
            w3 = rng.normal(scale=0.3)
            bloch = _bloch(wm, w3)
            (d,) = optimal_directions(bloch)
            achieved = float(np.dot(d, bloch[0])) ** 2
            best_on_grid = float(np.max((grid @ bloch[0]) ** 2))
            assert achieved >= best_on_grid - 1e-12


# ---------------------------------------------------------------------------
# entanglement measure; its range, local-unitary invariance and permutation
# covariance are property tests, tests/test_properties.py
# ---------------------------------------------------------------------------


class TestEntanglementMeasure:
    def test_basis_states_are_separable(self):
        for m, k in [(1, 0), (3, 5), (5, 17)]:
            assert entanglement_measure(make_basis_state(m, k)) < 1e-15

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_ghz_maximum(self, m):
        assert entanglement_measure(ghzl_state(m, np.pi / 4)) == pytest.approx(m / 4, abs=1e-13)

    def test_two_qubit_chain_phase_maximum(self):
        assert entanglement_measure(brs_state(2, np.pi)) == pytest.approx(0.5, abs=1e-14)

    def test_random_product_states_give_zero(self):
        rng = np.random.default_rng(55)
        for m in [2, 3, 4, 5]:
            s = StateVector(m, random_product_state(m, rng))
            assert entanglement_measure(s) < 1e-12

    def test_purity_identity(self):
        """E = (1/4) sum_nu (1 - |b_nu|^2) with b_nu from the partial-trace oracle."""
        from entdist import bloch_vector_oracle

        rng = np.random.default_rng(58)
        for m in [2, 3, 5]:
            s = StateVector(m, random_state(m, rng))
            total = sum(
                1.0 - float(np.dot(b, b))
                for b in (bloch_vector_oracle(s, nu) for nu in range(m))
            )
            assert abs(entanglement_measure(s) - 0.25 * total) < 1e-12


# ---------------------------------------------------------------------------
# metric matrix
# ---------------------------------------------------------------------------


class TestMetricMatrix:
    def test_product_state_has_no_correlations(self):
        rng = np.random.default_rng(61)
        s = make_basis_state(3, 0)
        dirs = _random_directions(rng, 3)
        g = metric_matrix(s, dirs)
        for mu in range(3):
            assert g[mu, mu] == pytest.approx(0.25 * (1 - dirs[mu, 2] ** 2), abs=1e-14)
            for nu in range(mu + 1, 3):
                assert abs(g[mu, nu]) < 1e-14
        g_opt = metric_matrix(s, optimal_directions(bloch_vectors(*w_vectors(s))))
        np.testing.assert_allclose(g_opt, np.zeros((3, 3)), rtol=0, atol=1e-14, equal_nan=False)

    @pytest.mark.parametrize("theta", [0.3, np.pi / 4, 1.1])
    def test_ghz_all_z_gives_ones_matrix(self, theta):
        m = 4
        g = metric_matrix(ghzl_state(m, theta), np.tile(Z, (m, 1)))
        expected = 0.25 * np.sin(2 * theta) ** 2 * np.ones((m, m))
        np.testing.assert_allclose(g, expected, rtol=0, atol=1e-14, equal_nan=False)

    def test_two_qubit_chain_phase_all_ones_form(self):
        """At phi = pi the axes (0,-1,0)/(0,1,0) give the all-ones metric."""
        g = metric_matrix(brs_state(2, np.pi), np.array([[0.0, -1.0, 0.0], [0.0, 1.0, 0.0]]))
        np.testing.assert_allclose(g, 0.25 * np.ones((2, 2)), rtol=0, atol=1e-14, equal_nan=False)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_dense_covariance(self, m):
        """Every entry of the one-row metric within ``entry_tol`` plus the dense oracle's share.

        The states are a Haar state and a product state, whose pair
        correlations factorize, so its entries off the diagonal vanish.
        """
        rng = np.random.default_rng(62 + m)
        for draw in (random_state, random_product_state):
            s = StateVector(m, draw(m, rng))
            dirs = _random_directions(rng, m)
            dense = covariance_metric_dense(s.amplitudes, m, dirs)
            np.testing.assert_allclose(metric_matrix(s, dirs), dense, rtol=0, atol=entry_tol(m) + dense_share(m), equal_nan=False)

    def test_wrong_direction_count(self):
        with pytest.raises(ValueError, match="shape"):
            metric_matrix(make_basis_state(2, 0), Z[None, :])

    @pytest.mark.parametrize(
        "amps_shape, dirs_shape",
        [((8,), (2, 3)), ((8,), (4, 3)), ((2, 8), (3, 3)), ((2, 8), (3, 3, 3)), ((6,), (3, 3))],
    )
    def test_batch_entry_names_both_shapes(self, amps_shape, dirs_shape):
        """8 amplitudes with a (2, 3) field raised numpy's reshape error, naming neither.

        A field that does not fit the states is refused with its shape and
        the one the states take; states of other than 2**M amplitudes are
        refused, before the field is read, with their own shape.
        """
        amps = np.zeros(amps_shape, dtype=np.complex128)
        with pytest.raises(ValueError) as err:
            metric_matrices(amps, np.zeros(dirs_shape))
        if amps_shape[-1] == 8:
            fits = amps_shape[:-1] + (3, 3)
            expected = f"expected directions of shape {fits}, got shape {dirs_shape}"
        else:
            expected = (
                f"expected 2**M amplitudes, 1 <= M <= {qstate.MAX_QUBITS}, "
                f"got shape {amps_shape}"
            )
        assert str(err.value) == expected



def assert_matches_exact_oracle(g: np.ndarray, amps: np.ndarray, dirs: np.ndarray) -> None:
    """Every entry within ``entry_tol(M)`` plus the exact oracle's one rounding, ``EXACT_SHARE``."""
    atol = entry_tol(len(dirs)) + EXACT_SHARE
    np.testing.assert_allclose(g, exact_metric(amps, dirs), rtol=0, atol=atol, equal_nan=False)


@pytest.mark.parametrize("m", [*range(2, 7), pytest.param(8, marks=pytest.mark.slow)])
def test_one_row_metric_matches_the_exact_oracle(m):
    """A Haar state and brs phi = 1.1, each at its optimal field and at a seeded random one.

    Then one entry of the last metric, moved by M times the bound, fails
    the check.
    """
    rng = np.random.default_rng(2900 + m)
    for amps in (random_state(m, rng), brs_state(m, 1.1).amplitudes):
        s = StateVector(m, amps)
        for dirs in (entanglement_metric(s).directions, _random_directions(rng, m)):
            g = metric_matrix(s, dirs)
            assert_matches_exact_oracle(g, amps, dirs)
    g[0, m - 1] += m * (entry_tol(m) + EXACT_SHARE)
    with pytest.raises(AssertionError):
        assert_matches_exact_oracle(g, amps, dirs)


def _run_vdot(a: np.ndarray, b: np.ndarray) -> complex:
    """np.vdot in runs of at most 2^(ROW_BITS - 1) terms, the runs' results added in turn.

    OpenBLAS threads a dot of more than 10^4 terms and splits its sum by
    the thread count, so a whole-row vdot at M = ROW_BITS = 14 gives other
    bits on one thread than on two.  Runs of 2^13 terms are never threaded.
    The runs change the summation depth of an entry from 2^14 to at most
    2^13 + 1, within row_depth(14) = 2^14, so ``trace_tol`` holds as it is.
    """
    run = 1 << (qstate.ROW_BITS - 1)
    parts = [np.vdot(a[i : i + run], b[i : i + run]) for i in range(0, a.size, run)]
    return sum(parts[1:], parts[0])


def _whole_vector_metric(state, dirs) -> np.ndarray:
    """Reference for a state that is one row: M whole applied copies of it.

    One einsum per qubit, by v . sigma written out here, and one
    ``_run_vdot`` per entry, the arithmetic that ``metric_matrix`` must
    reproduce bit for bit when M <= ROW_BITS.
    """
    m = state.num_qubits
    amps = state.amplitudes
    applied = []
    for nu, (v1, v2, v3) in enumerate(dirs):
        view = amps.reshape(1 << (m - 1 - nu), 2, 1 << nu)
        sigma = np.array([[v3, v1 - 1j * v2], [v1 + 1j * v2, -v3]], dtype=complex)
        applied.append(np.einsum("ij,ajb->aib", sigma, view).reshape(-1))
    expectations = np.array([_run_vdot(amps, t).real for t in applied])
    g = np.zeros((m, m))
    for mu in range(m):
        g[mu, mu] = 0.25 * max(0.0, 1.0 - expectations[mu] ** 2)
        for nu in range(mu + 1, m):
            cross = _run_vdot(applied[mu], applied[nu]).real
            g[mu, nu] = g[nu, mu] = 0.25 * (cross - expectations[mu] * expectations[nu])
    return g


class TestRowBlockedMetric:
    """``metric_matrix`` walks the state in rows of 2**min(M, ROW_BITS) amplitudes."""

    @pytest.mark.parametrize("row_bits", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
    def test_short_rows_match_dense_oracle(self, monkeypatch, row_bits, m):
        """Rows of 2 to 32 amplitudes run the direction-frame kernel.

        They give it one row pass or several, with and without the column
        pass, and full and partial 4-qubit groups in the rows and the runs.
        """
        rng = np.random.default_rng(1000 * row_bits + m)
        s = StateVector(m, random_state(m, rng))
        dirs = _random_directions(rng, m)
        one_row = metric_matrix(s, dirs)
        monkeypatch.setattr(qstate, "ROW_BITS", row_bits)
        rows = metric_matrix(s, dirs)
        tol = entry_tol(m) + dense_share(m)
        np.testing.assert_allclose(rows, covariance_metric_dense(s.amplitudes, m, dirs), rtol=0, atol=tol, equal_nan=False)
        np.testing.assert_allclose(rows, one_row, rtol=0, atol=1e-15, equal_nan=False)

    def test_short_rows_reach_several_passes_and_the_column_pass(self, monkeypatch):
        """The grid above runs plans of one pass, and of two and three row passes with the column pass.

        The field is a random unit one, as the grid's is: a Z field's frames
        are all the identity, which the kernel leaves unturned.
        """
        rotate = qstate._rotate
        calls = []

        def spy(x, high, low, buffers):
            calls.append("row" if low else "column")
            return rotate(x, high, low, buffers)

        monkeypatch.setattr(qstate, "_rotate", spy)
        reached = set()
        for row_bits in [1, 2, 3, 4, 5]:
            monkeypatch.setattr(qstate, "ROW_BITS", row_bits)
            for m in range(max(3, row_bits + 1), 9):
                calls.clear()
                rng = np.random.default_rng(m)
                metric_matrix(StateVector(m, random_state(m, rng)), _random_directions(rng, m))
                reached.add((len(_frame_passes(m, row_bits)), "column" in calls))
        assert reached == {(1, False), (3, True), (4, True)}

    @pytest.mark.parametrize("m", [3, 15])
    def test_nan_amplitude_gives_a_nan_diagonal(self, m):
        """Both paths keep a NaN expectation on the diagonal; max(0.0, nan) made it 0.0 at M <= 14."""
        amps = np.zeros(1 << m, dtype=np.complex128)
        amps[0] = 1.0
        amps[5] = np.nan
        g = metric_matrices(amps, np.tile(Z, (m, 1)))
        assert np.isnan(np.diagonal(g)).all()

    def test_one_row_is_bit_identical_to_whole_vector_loop(self):
        rng = np.random.default_rng(1100)
        for m in range(1, qstate.ROW_BITS + 1):
            states = [StateVector(m, random_state(m, rng))]
            if m >= 2:
                states += [brs_state(m, rng.uniform(0, 2 * np.pi)), ghzl_state(m, rng.uniform(0, np.pi))]
            for s in states:
                for dirs in (
                    optimal_directions(bloch_vectors(*w_vectors(s))),
                    _random_directions(rng, m),
                ):
                    assert metric_matrix(s, dirs).tobytes() == _whole_vector_metric(s, dirs).tobytes()

    @pytest.mark.parametrize(
        "tag, parameter",
        [("brs", "phi"), ("ghzl", "theta"), ("ghzl", "phase"), ("threeq", "gamma"), ("threeq", "tau")],
    )
    def test_batch_is_bit_identical_to_whole_vector_loop(self, tag, parameter):
        """Sweep-like batches of 201 points at m = 2-9, point by point."""
        rng = np.random.default_rng(len(tag) + len(parameter))
        for m in [3] if tag == "threeq" else range(2, 10):
            angles = {name: rng.uniform(-7.0, 7.0) for name in FAMILY_ANGLES[tag]}
            fam = FamilySpec(tag, m=m, **angles)
            amps = family_amplitudes(fam, parameter, rng.uniform(-7.0, 7.0, 201))
            dirs = optimal_directions(bloch_vectors(*qstate.bilinears(amps)))
            for g, a, d in zip(metric_matrices(amps, dirs), amps, dirs):
                assert g.tobytes() == _whole_vector_metric(StateVector(m, a), d).tobytes()

    def test_working_memory_below_twice_the_state(self):
        """At M = 20 the whole-vector loop peaked at 320 MiB for a 16 MiB state."""
        s = brs_state(20, 0.3)
        tracemalloc.start()
        try:
            entanglement_metric(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * s.amplitudes.nbytes


def frame_pairs(m: int) -> list[tuple[int, int]]:
    """Entries of an m-qubit metric that each pass of the direction-frame kernel gives.

    Two qubits in one Kronecker factor and two across factors, the first
    and the last qubit and a diagonal entry; then, from each pass of
    ``_frame_passes`` that has row bits, the pair of its first and last row
    bit (across runs, in the column pass) and the pair of its last column
    bit and first row bit.
    """
    pairs = {(0, 1), (3, 4), (0, m - 1), (m - 1, m - 1)}
    for row_bits, col_bits in _frame_passes(m, qstate.ROW_BITS):
        if row_bits:
            pairs.add((row_bits[0], row_bits[-1]))
        if row_bits and col_bits:
            pairs.add((col_bits[-1], row_bits[0]))
    return sorted(pairs)


def assert_pairs_match_pairwise_oracle(amps: np.ndarray, dirs: np.ndarray, tol: float) -> np.ndarray:
    """The metric of ``amps`` at ``dirs``, its ``frame_pairs`` entries checked against the pairwise oracle."""
    m = len(dirs)
    g = metric_matrices(amps, dirs)
    for mu, nu in frame_pairs(m):
        ref = covariance_entry_pairwise(amps, m, mu, dirs[mu], nu, dirs[nu])
        np.testing.assert_allclose(g[mu, nu], ref, rtol=0, atol=tol, err_msg=f"entry ({mu}, {nu}) of {m} qubits", equal_nan=False)
    return g


class TestDirectionFrameMetric:
    """States of more than ROW_BITS qubits: the metric as spin moments in the direction frame."""

    AXES = np.vstack([np.eye(3), -np.eye(3)])  # +x, +y, +z, -x, -y, -z

    def test_frame_unitaries_rotate_each_direction_to_z(self):
        rng = np.random.default_rng(1400)
        vz = -1.0 + 2.0**-52
        dirs = np.vstack([self.AXES, [(np.sqrt(1.0 - vz * vz), 0.0, vz)], _random_directions(rng, 1000)])
        u = _frame_unitaries(dirs)
        uh = np.conj(np.swapaxes(u, -1, -2))
        v1, v2, v3 = dirs.T
        sigma = np.array([[v3, v1 - 1j * v2], [v1 + 1j * v2, -v3]], dtype=complex).transpose(2, 0, 1)
        eps = np.finfo(float).eps
        assert np.max(np.abs(u @ sigma @ uh - np.diag([1.0, -1.0]))) <= 4 * eps
        assert np.max(np.abs(u @ uh - np.eye(2))) <= 4 * eps

    def test_frame_unitaries_within_their_gap(self):
        """Each U within 5 u of its closed form in the 2-norm, the gap ``entry_tol`` adds per turned qubit.

        The closed form is taken in ``np.longdouble`` at the same rows.
        """
        rng = np.random.default_rng(1401)
        vz = -1.0 + 2.0**-52
        dirs = np.vstack([self.AXES, [(np.sqrt(1.0 - vz * vz), 0.0, vz)], _random_directions(rng, 10**4)])
        v1, v2, v3 = dirs.T.astype(np.longdouble)
        a, zero, north = 1 + np.abs(v3), np.zeros(len(dirs), dtype=np.longdouble), v3 >= 0
        re = np.where(north, [[a, v1], [-v1, a]], [[v1, a], [a, -v1]]) / np.sqrt(2 * a)
        im = np.where(north, [[zero, -v2], [-v2, zero]], [[v2, zero], [zero, v2]]) / np.sqrt(2 * a)
        u = _frame_unitaries(dirs)
        gap = (u.real - np.moveaxis(re, -1, 0)).astype(float) + 1j * (u.imag - np.moveaxis(im, -1, 0)).astype(float)
        assert np.max(np.linalg.norm(gap, 2, axis=(-2, -1))) <= 5 * np.finfo(float).eps / 2

    def test_plus_z_and_degenerate_qubits_get_the_identity(self):
        dirs = optimal_directions(np.array([[0.0, 0.0, 0.5], [1e-13, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        assert (_frame_unitaries(dirs) == np.eye(2)).all()
        assert (_frame_unitaries(self.AXES[5]) == [[0.0, 1.0], [1.0, 0.0]]).all()

    @pytest.mark.parametrize("m", [15, 16, 17, 18])
    def test_entries_match_pairwise_oracle(self, m):
        """Entries inside the rows, across their boundary, inside a run and, at M = 18, across runs."""
        rng = np.random.default_rng(1500 + m)
        tol = entry_tol(m) + pairwise_share(m)
        for s in (brs_state(m, 0.3), ghzl_state(m, 0.7), StateVector(m, random_state(m, rng))):
            for dirs in (optimal_directions(bloch_vectors(*w_vectors(s))), _random_directions(rng, m)):
                assert_pairs_match_pairwise_oracle(s.amplitudes, dirs, tol)

    @pytest.mark.parametrize("k", range(1, qstate.ROW_BITS + 1))
    def test_split_keeps_its_invariants(self, k):
        """``_frame_passes`` for rows of 2^k and every M from k + 1 to 26: every pair, blocks that fit.

        Every pair mu <= nu of qubits is turned together by some pass, so
        the kernel gives every moment.  Every row pass's block, its column
        bits and its run of row bits, fits ``_block_bits(k)`` bits, and with
        several passes the column pass's strip of high bits fits the larger
        of those and the M - k bits of a row's index.
        """
        for m in range(k + 1, qstate.MAX_QUBITS + 1):
            plan = _frame_passes(m, k)
            together = np.zeros((m, m), dtype=bool)
            for row_bits, col_bits in plan:
                qubits = list(row_bits) + list(col_bits)
                together[np.ix_(qubits, qubits)] = True
                if col_bits:
                    assert len(row_bits) + len(col_bits) <= _block_bits(k), (m, plan)
                elif len(plan) > 1:
                    assert len(row_bits) <= max(_block_bits(k), m - k), (m, plan)
            assert together.all(), (m, plan)

    def test_split_at_row_bits_is_the_documented_table(self):
        """(L, row passes) at k = ROW_BITS = 14 for M = 15-26: L column bits in every row pass."""
        table = {15: (15, 1), 16: (16, 1), 17: (17, 1), 18: (16, 2), 19: (15, 2), 20: (14, 2),
                 21: (13, 2), 22: (12, 2), 23: (11, 2), 24: (10, 2), 25: (9, 2), 26: (12, 3)}
        assert qstate.ROW_BITS == 14
        split = {}
        for m in table:
            row_passes = [col_bits for _, col_bits in _frame_passes(m, 14) if col_bits]
            assert len(set(row_passes)) == 1, (m, row_passes)
            split[m] = (len(row_passes[0]), len(row_passes))
        assert split == table

    @pytest.mark.parametrize("m", [15, 16, 17])
    def test_a_state_that_fits_one_block_is_one_rotation(self, monkeypatch, m):
        """A one-pass plan that turns all M qubits as column bits: one ``_rotate`` call, a factor per group."""
        assert _frame_passes(m, qstate.ROW_BITS) == [(range(m, m), range(m))]
        rotate = qstate._rotate
        calls = []

        def spy(x, high, low, buffers):
            calls.append((x.shape, len(high), [len(f) for f in low]))
            return rotate(x, high, low, buffers)

        monkeypatch.setattr(qstate, "_rotate", spy)
        metric_matrix(StateVector(m, random_state(m, np.random.default_rng(m))), np.tile(X, (m, 1)))
        assert calls == [((1, 1 << m), 0, [1 << b for b in _kron_groups(m)])]

    @pytest.mark.parametrize("n", range(14))
    def test_kron_groups_split_a_run_lowest_first(self, n):
        """Groups of KRON_BITS qubits from the lowest, the last one short, that add up to the run."""
        groups = _kron_groups(n)
        assert sum(groups) == n
        assert all(b == KRON_BITS for b in groups[:-1])
        assert all(0 < b <= KRON_BITS for b in groups)

    @pytest.mark.parametrize("n", range(1, 14))
    def test_kron_factors_match_the_kron_chain(self, n):
        """The einsum-built factors, full and short, against np.kron of each group of ``_kron_groups``."""
        u = _frame_unitaries(_random_directions(np.random.default_rng(1450 + n), n))
        qubits = list(np.random.default_rng(n).permutation(n))
        factors = qstate._kron_factors(u, qubits)
        groups = _kron_groups(n)
        assert len(factors) == len(groups)
        for lo, b, f in zip(np.cumsum([0] + groups), groups, factors):
            chain = np.ones((1, 1))
            for q in reversed(qubits[lo : lo + b]):
                chain = np.kron(chain, u[q])
            assert f.shape == chain.shape
            assert np.max(np.abs(f - chain)) <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize(
        "m, row_bits, plan",
        [
            (12, 5, [(range(4, 12), range(0)), (range(4, 8), range(4)), (range(8, 12), range(4))]),
            (15, 7, [(range(5, 15), range(0)), (range(5, 10), range(5)), (range(10, 15), range(5))]),
        ],
    )
    def test_split_below_the_row_width(self, monkeypatch, m, row_bits, plan):
        """Short rows that make the kernel take L < ROW_BITS low qubits, as M = 21-26 do.

        At (15, 7) each run has five qubits, two Kronecker factors.  The
        whole metric must agree with the one taken in rows of 2^14.
        """
        rng = np.random.default_rng(1600 + m)
        s = StateVector(m, random_state(m, rng))
        dirs = _random_directions(rng, m)
        whole = metric_matrix(s, dirs)
        monkeypatch.setattr(qstate, "ROW_BITS", row_bits)
        assert _frame_passes(m, row_bits) == plan
        tol = entry_tol(m) + pairwise_share(m)
        g = assert_pairs_match_pairwise_oracle(s.amplitudes, dirs, tol)
        np.testing.assert_allclose(g, whole, rtol=0, atol=tol, equal_nan=False)


class TestMomentAssembly:
    """``_metric_from_moments`` and ``_diagonal``, the one assembly of g for both metric kernels."""

    def test_diagonal_clamps_past_one_and_keeps_a_nan(self):
        past = 1.0 + 2.0**-52  # squares to 1 + 2^-51, so 1 - e^2 < 0
        d = _diagonal(np.array([past, -past, np.nan]))
        assert d[:2].tobytes() == np.zeros(2).tobytes()  # +0.0, not -0.0
        assert np.isnan(d[2])

    def test_diagonal_squares_as_python_does(self):
        """``_diagonal`` gives the bytes of Python's 0.25 * max(0, 1 - x**2), contiguous or strided.

        ``np.float_power`` squares as ``x**2`` does; ``np.square`` differs in
        the last bit of about 1 value in 1000.  The values: +-1, +-0, NaN, 1 +
        2u, a subnormal and 10^5 random ones.
        """
        rng = np.random.default_rng(1704)
        special = [1.0, -1.0, 0.0, -0.0, np.nan, 1.0 + 2.0**-52, -(1.0 + 2.0**-52), 5e-324]
        e = np.concatenate([special, rng.uniform(-1.0, 1.0, 10**5)]).reshape(-1, 4)
        for x in (e, e[:, ::2]):
            python = [0.25 * (0.0 if d < 0.0 else d) for d in (1.0 - v**2 for v in x.ravel().tolist())]
            assert _diagonal(x).tobytes() == np.reshape(python, x.shape).tobytes()

    def test_matrix_equals_its_transpose_byte_for_byte(self):
        rng = np.random.default_rng(1700)
        for m in [1, 2, 5, 14]:
            e = rng.uniform(-1.0, 1.0, m)
            c = rng.uniform(-1.0, 1.0, (m, m))
            g = _metric_from_moments(e, c)
            assert g.tobytes() == np.ascontiguousarray(g.T).tobytes()

    def test_only_the_upper_triangle_of_c_reaches_g(self):
        rng = np.random.default_rng(1701)
        m = 6
        e = rng.uniform(-1.0, 1.0, m)
        c = rng.uniform(-1.0, 1.0, (m, m))
        below = np.tril(np.full((m, m), np.nan))  # the diagonal and lower triangle
        g = _metric_from_moments(e, np.triu(c, 1) + below)
        assert g.tobytes() == _metric_from_moments(e, np.triu(c, 1)).tobytes()
        mu, nu = np.triu_indices(m, 1)
        assert (g[mu, nu] == 0.25 * (c[mu, nu] - e[mu] * e[nu])).all()
        assert g.diagonal().tobytes() == _diagonal(e).tobytes()

    def test_batch_rows_get_the_bytes_they_get_alone(self):
        rng = np.random.default_rng(1702)
        p, m = 7, 5
        e = rng.uniform(-1.0, 1.0, (p, m))
        c = rng.uniform(-1.0, 1.0, (p, m, m))
        g = _metric_from_moments(e, c)
        assert g.shape == (p, m, m)
        for i in range(p):
            assert g[i].tobytes() == _metric_from_moments(e[i], c[i]).tobytes()


# ---------------------------------------------------------------------------
# entanglement metric (composition) and spectrum
# ---------------------------------------------------------------------------


class TestEntanglementMetric:
    def test_separable_state(self):
        em = entanglement_metric(make_basis_state(4, 0))
        np.testing.assert_allclose(em.matrix, np.zeros((4, 4)), rtol=0, atol=1e-14, equal_nan=False)
        assert em.measure == 0.0

    def test_ghz_seven_qubits(self):
        s = ghzl_state(7, np.pi / 4)
        em = entanglement_metric(s)
        np.testing.assert_allclose(em.matrix, 0.25 * np.ones((7, 7)), rtol=0, atol=1e-13, equal_nan=False)
        assert em.measure == pytest.approx(7 / 4, abs=1e-13)
        # every Bloch vector vanishes, so every qubit gets the z axis
        assert np.all(np.linalg.norm(bloch_vectors(*w_vectors(s)), axis=1) < DEGENERATE_TOL)
        np.testing.assert_array_equal(em.directions, np.tile(Z, (7, 1)))

    @pytest.mark.parametrize("phi", np.linspace(0.1, 2 * np.pi - 0.1, 9))
    def test_three_qubit_chain_phase_trace(self, phi):
        em = entanglement_metric(brs_state(3, phi))
        s2, c2 = np.sin(phi / 2) ** 2, np.cos(phi / 2) ** 2
        assert np.trace(em.matrix) == pytest.approx(s2 * (3 + c2) / 4, abs=1e-13)

    def test_measure_equals_trace(self):
        rng = np.random.default_rng(71)
        for m in [2, 3, 5]:
            em = entanglement_metric(StateVector(m, random_state(m, rng)))
            assert abs(em.measure - np.trace(em.matrix)) < 1e-12

    def test_serialization_schema(self):
        em = entanglement_metric(ghzl_state(3, 0.4))
        record = em.to_dict()
        assert list(record) == [
            "m", "measure", "measure_over_m", "directions", "matrix", "eigenvalues"
        ]
        assert record["m"] == 3
        assert record["measure_over_m"] == em.measure / 3
        assert len(record["matrix"]) == 9
        assert len(record["directions"]) == 3
        assert record["eigenvalues"] == sorted(record["eigenvalues"], reverse=True)
        assert record["eigenvalues"] == em.eigenvalues.tolist()
        np.testing.assert_allclose(
            np.asarray(record["matrix"]).reshape(3, 3), em.matrix, rtol=0, atol=0, equal_nan=False
        )

    def test_caller_array_stays_writeable(self):
        g = np.zeros((2, 2))
        dirs = np.array([Z, Z])
        em = EntanglementMetric(2, g, dirs, 0.0)
        assert g.flags.writeable
        assert dirs.flags.writeable
        assert not em.matrix.flags.writeable
        assert not em.directions.flags.writeable
        assert not em.eigenvalues.flags.writeable
        g[0, 0] = 1.0
        dirs[0] = X
        assert em.matrix[0, 0] == 0.0
        np.testing.assert_array_equal(em.directions, [Z, Z])

    @pytest.mark.parametrize(
        "measure", [np.array(0.0), False, np.bool_(False), "0", None, np.nan, np.inf, -np.inf, 0.0j]
    )
    def test_measure_must_be_a_finite_real_number(self, measure):
        """A 0-d array failed json.dumps, False was written as false and '0' raised numpy's UFuncTypeError."""
        with pytest.raises(ValueError, match="^measure must be a finite real number, got "):
            EntanglementMetric(1, np.zeros((1, 1)), [Z], measure)

    @pytest.mark.parametrize("measure", [0, np.int64(0), np.float32(0.0), np.float64(0.0)])
    def test_measure_is_stored_as_a_python_float(self, measure):
        em = EntanglementMetric(1, np.zeros((1, 1)), [Z], measure)
        assert type(em.measure) is float and em.measure == 0.0
        assert json.loads(json.dumps(em.to_dict()))["measure"] == 0.0

    @pytest.mark.parametrize("matrix", [np.zeros((2, 3)), np.zeros((3, 3)), np.zeros(4), np.zeros((1, 2, 2))])
    def test_matrix_of_another_shape_is_refused(self, matrix):
        with pytest.raises(ValueError) as err:
            EntanglementMetric(2, matrix, np.array([Z, Z]), 0.0)
        assert str(err.value) == f"expected a 2x2 matrix, got {np.shape(matrix)}"

    def test_invariants_enforced(self):
        bad = np.array([[0.1, 0.2], [0.3, 0.1]])  # asymmetric
        with pytest.raises(ValueError, match="symmetric"):
            EntanglementMetric(2, bad, np.array([Z, Z]), 0.2)

    def test_inconsistent_trace_rejected(self):
        em = entanglement_metric(brs_state(12, 0.3))
        bad = em.matrix.copy()
        bad[5, 5] += 1e-9
        with pytest.raises(ValueError, match=r"\|tr g - E\| = 1.000e-09 exceeds .* 1.095e-11"):
            EntanglementMetric(12, bad, em.directions, em.measure)

    def test_near_normalized_basis_state_is_separable(self):
        """|c|^2 = 1 + 0.9e-12 is within NORM_TOL: a valid state with E = 0."""
        amps = np.zeros(8, dtype=complex)
        amps[5] = np.sqrt(1.0 + 0.9e-12)
        em = entanglement_metric(StateVector(3, amps))
        assert em.measure == 0.0
        np.testing.assert_allclose(em.matrix, np.zeros((3, 3)), rtol=0, atol=1e-12, equal_nan=False)


class TestCheckMetrics:
    """Each invariant of ``check_metrics`` rejects a planted defect, naming its value and bound."""

    AT = ("phi", np.array([0.5, 1.5, 2.5]))

    def _batch(self) -> tuple[np.ndarray, np.ndarray, list]:
        ems = [entanglement_metric(brs_state(4, phi)) for phi in self.AT[1]]
        return np.array([em.matrix for em in ems]), np.array([em.measure for em in ems]), ems

    def test_valid_batch_gives_each_spectrum(self):
        g, measure, ems = self._batch()
        eigs = check_metrics(g, measure, at=self.AT)
        assert eigs.shape == (3, 4)
        for row, em in zip(eigs, ems):
            assert row.tobytes() == em.eigenvalues.tobytes()

    def test_asymmetry(self):
        g, measure, _ = self._batch()
        g[1, 0, 2] += 3e-12
        g[2, 0, 2] += 1.0
        with pytest.raises(
            ValueError, match=r"exactly symmetric: max \|g - g\^T\| = 3.000e-12 at phi = 1.5$"
        ):
            check_metrics(g, measure, at=self.AT)

    def test_one_ulp_asymmetry(self):
        """Library metrics are mirrored, so a one-ulp gap between g[0, 2] and g[2, 0] is refused."""
        g, measure, _ = self._batch()
        entry = g[1, 0, 2]
        g[1, 0, 2] = np.nextafter(entry, np.inf)
        with pytest.raises(
            ValueError, match=rf"exactly symmetric: max \|g - g\^T\| = {abs(np.spacing(entry)):.3e} at phi = 1.5$"
        ):
            check_metrics(g, measure, at=self.AT)

    @pytest.mark.parametrize(
        "entry, outside",
        [
            (0.25 + 5e-12, "5.000e-12"),
            (-2e-12, "2.000e-12"),
            (np.nextafter(0.25, 1.0), f"{np.spacing(0.25):.3e}"),
            (-np.nextafter(0.0, 1.0), "4.941e-324"),
        ],
    )
    def test_diagonal_outside_range(self, entry, outside):
        """A library diagonal is clamped, so one ulp outside [0, 1/4], 0.25 + ulp or -ulp, is refused too."""
        g, measure, _ = self._batch()
        g[2, 3, 3] = entry
        with pytest.raises(
            ValueError,
            match=rf"exactly in \[0, 1/4\]: one lies {outside} outside at phi = 2.5$",
        ):
            check_metrics(g, measure, at=self.AT)

    def test_diagonal_of_negative_zero_is_accepted(self):
        """-0.0 lies in [0, 1/4]: the metric of a basis state, with every diagonal entry -0.0."""
        g = np.full((3, 3), -0.0)
        np.testing.assert_array_equal(check_metrics(g, 0.0), np.zeros(3))

    def test_nan_is_refused(self):
        """A NaN on the diagonal fails the diagonal rule, which runs first; a NaN off it, the symmetry rule."""
        g, measure, _ = self._batch()
        g[1, 2, 2] = np.nan
        with pytest.raises(ValueError, match=r"exactly in \[0, 1/4\]: one lies nan outside at phi = 1.5$"):
            check_metrics(g, measure, at=self.AT)
        g, measure, _ = self._batch()
        g[1, 0, 2] = np.nan
        with pytest.raises(ValueError, match=r"exactly symmetric: max \|g - g\^T\| = nan at phi = 1.5$"):
            check_metrics(g, measure, at=self.AT)

    def test_trace_gap(self):
        g, measure, _ = self._batch()
        g[1, 2, 2] += 1e-9
        g[2, 2, 2] += 1e-9
        tol = trace_tol(4)
        with pytest.raises(
            ValueError,
            match=rf"\|tr g - E\| = 1.000e-09 exceeds the rounding bound {tol:.3e} "
            r"for 4 qubits at phi = 1.5$",
        ):
            check_metrics(g, measure, at=self.AT)

    def test_negative_eigenvalue(self):
        """Symmetric, diagonal in range, trace equal to E, but indefinite at the middle point."""
        g = np.array(
            [[[0.1, 0.05], [0.05, 0.1]], [[0.1, 0.2], [0.2, 0.1]], [[0.2, 0.0], [0.0, 0.0]]]
        )
        measure = np.array([0.2, 0.2, 0.2])
        with pytest.raises(
            ValueError,
            match=rf"semidefinite: smallest eigenvalue -1.000e-01 is below the floor "
            rf"-{spectrum_tol(2):.3e} for 2 qubits at phi = 1.5$",
        ):
            check_metrics(g, measure, at=self.AT)

    def test_single_metric_message_has_no_grid_value(self):
        with pytest.raises(ValueError, match=rf"-1.000e-01 is below the floor -{spectrum_tol(2):.3e} for 2 qubits$"):
            EntanglementMetric(2, np.array([[0.1, 0.2], [0.2, 0.1]]), np.array([Z, Z]), 0.2)

    @pytest.mark.parametrize("m", [3, 9, 16])
    def test_floor_is_spectrum_tol(self, m):
        """A smallest eigenvalue of -2 ``spectrum_tol(M)`` is refused, and one of -spectrum_tol(M) / 2 accepted.

        g = (1/8 - x) I + (J - I) / 8 has the eigenvalue -x, M - 1 times, and
        its diagonal 1/8 - x inside [0, 1/4].
        """
        floor = spectrum_tol(m)
        for x, refused in ((2.0 * floor, True), (0.5 * floor, False)):
            g = np.full((m, m), 0.125) - x * np.eye(m)
            measure = np.trace(g)
            if refused:
                with pytest.raises(ValueError, match=rf"is below the floor -{floor:.3e} for {m} qubits$"):
                    check_metrics(g, measure)
            else:
                assert -floor < check_metrics(g, measure)[-1] < 0.0


class TestSpectrum:
    """The spectrum is the record's: ``spectrum(em)`` is ``em.eigenvalues``, with ``rank_tol`` and ``nonnull_count``."""

    def test_caller_array_stays_writeable(self):
        """The record copies the caller's matrix, and its spectrum, returned as it is, is read-only."""
        g = np.diag([0.25, 0.0, 0.0])
        em = EntanglementMetric(3, g, np.array([Z, Z, Z]), 0.25)
        assert spectrum(em) is em.eigenvalues
        assert g.flags.writeable
        assert not spectrum(em).flags.writeable
        g[0, 0] = 0.0
        np.testing.assert_array_equal(spectrum(em), [0.25, 0.0, 0.0])

    def test_counts_the_eigenvalues_above_the_floor(self):
        """``rank_tol`` is ``spectrum_tol(size)``; an eigenvalue at the floor is not counted.

        g = diag(1/4, 2f) + [[0, f], [f, 0]], f the floor: exactly symmetric,
        its diagonal in [0, 1/4], and its spectrum exactly [1/4, 2f, f, -f],
        so the smallest eigenvalue sits on the floor and is accepted.
        """
        floor = spectrum_tol(4)
        g = np.diag([0.25, 2.0 * floor, 0.0, 0.0])
        g[2, 3] = g[3, 2] = floor
        em = EntanglementMetric(4, g, np.array([Z] * 4), 0.25 + 2.0 * floor)
        np.testing.assert_array_equal(em.eigenvalues, [0.25, 2.0 * floor, floor, -floor])
        assert em.rank_tol == floor
        assert em.nonnull_count == 2

    def test_ghz_rank_one(self):
        em = entanglement_metric(ghzl_state(7, np.pi / 4))
        assert em.eigenvalues[0] == pytest.approx(7 / 4, abs=1e-12)
        assert np.all(np.abs(em.eigenvalues[1:]) < 1e-12)
        assert em.nonnull_count == 1

    def test_zero_matrix(self):
        em = entanglement_metric(make_basis_state(5, 0))
        np.testing.assert_allclose(em.eigenvalues, np.zeros(5), rtol=0, atol=1e-14, equal_nan=False)
        assert em.nonnull_count == 0

    def test_chain_phase_full_rank_against_jacobi(self):
        """M=7, phi=pi/2: all eigenvalues positive; values match the Jacobi oracle."""
        em = entanglement_metric(brs_state(7, np.pi / 2))
        assert np.all(em.eigenvalues > 1e-8)
        assert em.nonnull_count == 7
        np.testing.assert_allclose(em.eigenvalues, jacobi_eigenvalues(em.matrix), rtol=0, atol=1e-11, equal_nan=False)

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_random_states_against_jacobi(self, m):
        rng = np.random.default_rng(80 + m)
        em = entanglement_metric(StateVector(m, random_state(m, rng)))
        assert em.rank_tol == spectrum_tol(m)
        np.testing.assert_allclose(
            em.eigenvalues, jacobi_eigenvalues(em.matrix), rtol=0, atol=1e-11, equal_nan=False
        )

    def test_eigenvalue_sum_equals_measure(self):
        rng = np.random.default_rng(81)
        for m in [2, 3, 5]:
            em = entanglement_metric(StateVector(m, random_state(m, rng)))
            assert abs(np.sum(em.eigenvalues) - em.measure) < 1e-10


@pytest.mark.parametrize(
    "m, entry, floor",
    [
        (1, 1.0824674490095276e-15, 5.014710455081304e-13),
        (8, 2.223221606811876e-14, 2.563110648522761e-12),
        (13, 6.830369603250119e-13, 1.5582251865702543e-11),
        (14, 6.831202270518588e-13, 1.6747714016235706e-11),
        (15, 1.5475349476861993e-12, 3.087953575418684e-11),
        (26, 1.923763433303414e-12, 7.526016805365475e-11),
    ],
)
def test_bounds_read_the_dot_depth(m, entry, floor):
    """``entry_tol`` and ``spectrum_tol`` take ``qstate._dot_depth`` and keep their values bit for bit.

    The depth is n in one run of 2^13 terms, and 2^13 + n / 2^13 - 1 in
    more: 2^13 + 1 for a row of 2^14, 2^13 + 2^14 - 1 for the 2^27 floats
    of an M = 26 norm.
    """
    assert entry_tol(m) == entry
    assert spectrum_tol(m) == floor
    depths = [qstate._dot_depth(n) for n in (4, 1 << 13, 1 << 14, 1 << 27)]
    assert depths == [4, 1 << 13, (1 << 13) + 1, (1 << 13) + (1 << 14) - 1]


@pytest.mark.parametrize("m", [1, 14, 15, 26])
@pytest.mark.parametrize(
    "bound",
    [measure_tol, trace_tol, entry_tol, eig_tol, spectrum_tol, optimizer_tol, bloch_tol, invariance_tol],
    ids=lambda bound: bound.__name__,
)
def test_bounds_are_python_floats(bound, m):
    """Every rounding bound is a Python float, so no message or ``repr`` shows ``np.float64(...)``."""
    assert type(bound(m)) is float
    assert type(HAAR_DRAW_GAP) is float


# ---------------------------------------------------------------------------
# distance density; its bound trace >= E is acceptance criterion 8
# ---------------------------------------------------------------------------


class TestDistanceDensity:
    def test_optimal_directions_attain_measure(self):
        rng = np.random.default_rng(90)
        for m in [2, 3, 4]:
            s = StateVector(m, random_state(m, rng))
            dirs = optimal_directions(bloch_vectors(*w_vectors(s)))
            assert abs(distance_density(s, dirs) - entanglement_measure(s)) < 1e-12

    def test_all_x_on_zero_state(self):
        m = 5
        assert distance_density(make_basis_state(m, 0), np.tile(X, (m, 1))) == pytest.approx(m / 4)

    def test_ghz_trace_is_constant_maximum(self):
        rng = np.random.default_rng(91)
        m = 4
        s = ghzl_state(m, np.pi / 4)
        for _ in range(20):
            dirs = _random_directions(rng, m)
            assert distance_density(s, dirs) >= m / 4 - 1e-12

    @pytest.mark.parametrize("m", [3, 15])
    def test_trace_of_metric_matrix(self, m):
        """One row at M = 3; the direction-frame kernel at M = 15."""
        rng = np.random.default_rng(93)
        s = StateVector(m, random_state(m, rng))
        dirs = _random_directions(rng, m)
        assert distance_density(s, dirs) == pytest.approx(
            float(np.trace(metric_matrix(s, dirs))), abs=1e-13
        )


_RECORDS = {
    "EntanglementMetric": lambda: entanglement_metric(brs_state(3, 0.3)),
    "StateVector": lambda: brs_state(3, 0.3),
    "OptimizerReport": lambda: minimize_trace_numeric(brs_state(3, 0.3), seed=1),
}


@pytest.mark.parametrize("record", sorted(_RECORDS))
def test_records_compare_and_hash_by_identity(record):
    """Records that hold arrays compare and hash by identity, without raising."""
    a, b = _RECORDS[record](), _RECORDS[record]()
    assert a == a
    assert a != b
    assert len({a, b, a}) == 2
