"""Entanglement measure, metric, spectrum: oracles and invariants."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from entdist import (
    EntanglementMetric,
    LocalUnitary,
    Spectrum,
    StateVector,
    apply_local_unitary,
    brs_state,
    distance_density,
    entanglement_measure,
    entanglement_metric,
    ghzl_state,
    make_basis_state,
    metric_matrix,
    optimal_directions,
    spectrum,
    w_vectors,
)
from entdist import qstate
from entdist.metric import DEGENERATE_TOL, trace_tol
from entdist.qstate import _haar_unitary, bloch_vectors, direction_operator

from oracles import (
    covariance_metric_dense,
    jacobi_eigenvalues,
    permute_qubits,
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
# w-vectors
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
        np.testing.assert_allclose(w_3, 1.0, rtol=0, atol=1e-15)

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
# entanglement measure
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

    def test_range_bound(self):
        rng = np.random.default_rng(56)
        for m in [2, 3, 4, 5, 6]:
            s = StateVector(m, random_state(m, rng))
            e = entanglement_measure(s)
            assert 0.0 <= e <= m / 4 + 1e-12

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(57)
        for m in [2, 4]:
            s = StateVector(m, random_state(m, rng))
            base = entanglement_measure(s)
            for _ in range(10):
                dressed = s
                for qubit in range(m):
                    dressed = apply_local_unitary(dressed, qubit, LocalUnitary(_haar_unitary(rng)))
                assert abs(entanglement_measure(dressed) - base) < 1e-9

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

    def test_permutation_covariance(self):
        """Relabeling qubits permutes the metric and leaves E and eigenvalues alone."""
        rng = np.random.default_rng(59)
        m = 4
        s = StateVector(m, random_state(m, rng))
        perm = [2, 0, 3, 1]
        sp = StateVector(m, permute_qubits(s.amplitudes, m, perm))
        assert abs(entanglement_measure(sp) - entanglement_measure(s)) < 1e-12
        g = entanglement_metric(s).matrix
        gp = entanglement_metric(sp).matrix
        for mu in range(m):
            for nu in range(m):
                assert abs(gp[perm[mu], perm[nu]] - g[mu, nu]) < 1e-12
        np.testing.assert_allclose(
            spectrum(entanglement_metric(s)).eigenvalues,
            spectrum(entanglement_metric(sp)).eigenvalues,
            atol=1e-12,
        )


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
        np.testing.assert_allclose(g_opt, np.zeros((3, 3)), atol=1e-14)

    @pytest.mark.parametrize("theta", [0.3, np.pi / 4, 1.1])
    def test_ghz_all_z_gives_ones_matrix(self, theta):
        m = 4
        g = metric_matrix(ghzl_state(m, theta), np.tile(Z, (m, 1)))
        expected = 0.25 * np.sin(2 * theta) ** 2 * np.ones((m, m))
        np.testing.assert_allclose(g, expected, atol=1e-14)

    def test_two_qubit_chain_phase_all_ones_form(self):
        """At phi = pi the axes (0,-1,0)/(0,1,0) give the all-ones metric."""
        g = metric_matrix(brs_state(2, np.pi), np.array([[0.0, -1.0, 0.0], [0.0, 1.0, 0.0]]))
        np.testing.assert_allclose(g, 0.25 * np.ones((2, 2)), atol=1e-14)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_matches_dense_covariance(self, m):
        rng = np.random.default_rng(62 + m)
        s = StateVector(m, random_state(m, rng))
        dirs = _random_directions(rng, m)
        np.testing.assert_allclose(
            metric_matrix(s, dirs),
            covariance_metric_dense(s.amplitudes, m, dirs),
            atol=1e-12,
        )

    def test_wrong_direction_count(self):
        with pytest.raises(ValueError, match="shape"):
            metric_matrix(make_basis_state(2, 0), Z[None, :])


def _whole_vector_metric(state, dirs) -> np.ndarray:
    """Reference for a state that is one row: M whole applied copies of it.

    One einsum per qubit and one vdot per entry, the arithmetic that
    ``metric_matrix`` must reproduce bit for bit when M <= ROW_BITS.
    """
    m = state.num_qubits
    amps = state.amplitudes
    applied = []
    for nu, v in enumerate(dirs):
        view = amps.reshape(1 << (m - 1 - nu), 2, 1 << nu)
        applied.append(np.einsum("ij,ajb->aib", direction_operator(v), view).reshape(-1))
    expectations = np.array([np.vdot(amps, t).real for t in applied])
    g = np.zeros((m, m))
    for mu in range(m):
        g[mu, mu] = 0.25 * max(0.0, 1.0 - expectations[mu] ** 2)
        for nu in range(mu + 1, m):
            cross = np.vdot(applied[mu], applied[nu]).real
            g[mu, nu] = g[nu, mu] = 0.25 * (cross - expectations[mu] * expectations[nu])
    return g


class TestRowBlockedMetric:
    """``metric_matrix`` walks the state in rows of 2**min(M, ROW_BITS) amplitudes."""

    @pytest.mark.parametrize("row_bits", [1, 2, 3])
    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
    def test_short_rows_match_dense_oracle(self, monkeypatch, row_bits, m):
        """Rows of 2, 4 and 8 amplitudes run every partner-row pattern."""
        rng = np.random.default_rng(1000 * row_bits + m)
        s = StateVector(m, random_state(m, rng))
        dirs = _random_directions(rng, m)
        one_row = metric_matrix(s, dirs)
        monkeypatch.setattr(qstate, "ROW_BITS", row_bits)
        rows = metric_matrix(s, dirs)
        np.testing.assert_allclose(rows, covariance_metric_dense(s.amplitudes, m, dirs), atol=1e-12)
        np.testing.assert_allclose(rows, one_row, rtol=0, atol=1e-15)

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


# ---------------------------------------------------------------------------
# entanglement metric (composition) and spectrum
# ---------------------------------------------------------------------------


class TestEntanglementMetric:
    def test_separable_state(self):
        em = entanglement_metric(make_basis_state(4, 0))
        np.testing.assert_allclose(em.matrix, np.zeros((4, 4)), atol=1e-14)
        assert em.measure == 0.0

    def test_ghz_seven_qubits(self):
        s = ghzl_state(7, np.pi / 4)
        em = entanglement_metric(s)
        np.testing.assert_allclose(em.matrix, 0.25 * np.ones((7, 7)), atol=1e-13)
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
            np.asarray(record["matrix"]).reshape(3, 3), em.matrix, atol=0
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
        np.testing.assert_allclose(em.matrix, np.zeros((3, 3)), atol=1e-12)


class TestSpectrum:
    def test_caller_array_stays_writeable(self):
        eigs = np.array([0.5, 0.25, 0.0])
        sp = Spectrum(eigs, 1e-8)
        assert eigs.flags.writeable
        assert not sp.eigenvalues.flags.writeable
        eigs[0] = 1.0
        assert sp.eigenvalues[0] == 0.5

    def test_ghz_rank_one(self):
        sp = spectrum(entanglement_metric(ghzl_state(7, np.pi / 4)))
        assert sp.eigenvalues[0] == pytest.approx(7 / 4, abs=1e-12)
        assert np.all(np.abs(sp.eigenvalues[1:]) < 1e-12)
        assert sp.nonnull_count == 1

    def test_zero_matrix(self):
        sp = spectrum(entanglement_metric(make_basis_state(5, 0)))
        np.testing.assert_allclose(sp.eigenvalues, np.zeros(5), atol=1e-14)
        assert sp.nonnull_count == 0

    def test_chain_phase_full_rank_against_jacobi(self):
        """M=7, phi=pi/2: all eigenvalues positive; values match the Jacobi oracle."""
        em = entanglement_metric(brs_state(7, np.pi / 2))
        sp = spectrum(em)
        assert np.all(sp.eigenvalues > 1e-8)
        np.testing.assert_allclose(sp.eigenvalues, jacobi_eigenvalues(em.matrix), atol=1e-11)

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_random_states_against_jacobi(self, m):
        rng = np.random.default_rng(80 + m)
        em = entanglement_metric(StateVector(m, random_state(m, rng)))
        np.testing.assert_allclose(
            spectrum(em).eigenvalues, jacobi_eigenvalues(em.matrix), atol=1e-11
        )

    def test_eigenvalue_sum_equals_measure(self):
        rng = np.random.default_rng(81)
        for m in [2, 3, 5]:
            em = entanglement_metric(StateVector(m, random_state(m, rng)))
            assert abs(np.sum(spectrum(em).eigenvalues) - em.measure) < 1e-10


# ---------------------------------------------------------------------------
# distance density
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

    def test_bounded_below_by_measure(self):
        rng = np.random.default_rng(92)
        for m in [2, 3, 5]:
            s = StateVector(m, random_state(m, rng))
            e = entanglement_measure(s)
            for _ in range(200):
                dirs = _random_directions(rng, m)
                assert distance_density(s, dirs) >= e - 1e-12

    def test_trace_of_metric_matrix(self):
        rng = np.random.default_rng(93)
        s = StateVector(3, random_state(3, rng))
        dirs = _random_directions(rng, 3)
        assert distance_density(s, dirs) == pytest.approx(
            float(np.trace(metric_matrix(s, dirs))), abs=1e-13
        )
