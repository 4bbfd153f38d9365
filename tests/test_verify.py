"""Numeric oracles: trace descent, partial-trace Bloch vectors, invariance."""
from __future__ import annotations

import numpy as np
import pytest

from entdist import (
    StateVector,
    bloch_vector_oracle,
    brs_state,
    distance_density,
    entanglement_measure,
    ghzl_state,
    invariance_check,
    make_basis_state,
    minimize_trace_numeric,
    reduced_density_matrix,
    w_vectors,
)
from entdist.cli import bloch_tol
from entdist.qstate import bloch_vectors

from oracles import random_state


class TestMinimizeTraceNumeric:
    def test_separable_minimum_is_zero(self):
        report = minimize_trace_numeric(make_basis_state(3, 0), seed=1)
        assert report.value < 1e-9

    def test_ghz_three_qubits(self):
        report = minimize_trace_numeric(ghzl_state(3, np.pi / 4), seed=2)
        assert report.value == pytest.approx(3 / 4, abs=1e-6)

    def test_matches_analytic_measure_on_random_state(self):
        rng = np.random.default_rng(314)
        s = StateVector(3, random_state(3, rng))
        report = minimize_trace_numeric(s, seed=5)
        assert abs(report.value - entanglement_measure(s)) < 1e-6

    def test_deterministic_by_seed(self):
        s = brs_state(3, 1.3)
        a = minimize_trace_numeric(s, seed=9)
        b = minimize_trace_numeric(s, seed=9)
        assert a.value == b.value
        np.testing.assert_array_equal(a.directions, b.directions)
        assert a.directions.shape == (3, 3)
        assert not a.directions.flags.writeable
        assert a.iterations == b.iterations

    def test_never_beats_analytic_infimum(self):
        """A value below E would falsify the analytic minimizer."""
        rng = np.random.default_rng(101)
        for m in [2, 3, 4]:
            for _ in range(5):
                s = StateVector(m, random_state(m, rng))
                report = minimize_trace_numeric(s, restarts=4, seed=int(rng.integers(1 << 30)))
                assert report.value >= entanglement_measure(s) - 1e-9

    def test_directions_evaluate_to_reported_value(self):
        s = brs_state(4, 2.0)
        report = minimize_trace_numeric(s, seed=3)
        assert distance_density(s, report.directions) == pytest.approx(
            report.value, abs=1e-10
        )

    def test_parameter_validation(self):
        s = make_basis_state(2, 0)
        with pytest.raises(ValueError):
            minimize_trace_numeric(s, restarts=0)
        with pytest.raises(ValueError):
            minimize_trace_numeric(s, tol=0.0)


class TestBlochVectorOracle:
    def test_zero_state(self):
        np.testing.assert_allclose(bloch_vector_oracle(make_basis_state(1, 0), 0), [0, 0, 1])

    def test_ghz_marginals_maximally_mixed(self):
        s = ghzl_state(4, np.pi / 4)
        for qubit in range(4):
            np.testing.assert_allclose(bloch_vector_oracle(s, qubit), np.zeros(3), atol=1e-15)

    def test_uniform_state_marginals_point_along_x(self):
        s = brs_state(5, 0.0)
        for qubit in range(5):
            np.testing.assert_allclose(bloch_vector_oracle(s, qubit), [1, 0, 0], atol=1e-14)

    def test_norm_bounded_by_one(self):
        rng = np.random.default_rng(202)
        for m in [2, 4]:
            s = StateVector(m, random_state(m, rng))
            for qubit in range(m):
                assert np.linalg.norm(bloch_vector_oracle(s, qubit)) <= 1 + 1e-12

    def test_qubit_range(self):
        with pytest.raises(ValueError):
            bloch_vector_oracle(make_basis_state(2, 0), 2)

    def test_bilinears_reproduce_partial_trace_bloch(self):
        """Decisive cross check: (2 Re w-, -2 Im w-, w3) is the reduced Bloch
        vector from the explicit partial trace, per qubit and component."""
        rng = np.random.default_rng(203)
        for m in [2, 3, 4, 5]:
            s = StateVector(m, random_state(m, rng))
            for nu, b in enumerate(bloch_vectors(*w_vectors(s))):
                np.testing.assert_allclose(b, bloch_vector_oracle(s, nu), atol=1e-12)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_gap_stays_inside_the_derived_threshold(self, m):
        """``verify``'s derived Bloch threshold refuses no valid state.  The
        largest gap seen is a quarter of ``cli.bloch_tol``, at m = 1 (12 u)."""
        rng = np.random.default_rng(205 + m)
        states = [StateVector(m, random_state(m, rng)) for _ in range(12)]
        if m >= 2:
            states += [brs_state(m, phi) for phi in rng.uniform(0.0, 2 * np.pi, 6)]
            states += [ghzl_state(m, theta, 1.1) for theta in rng.uniform(0.0, np.pi, 6)]
        for s in states:
            for nu, b in enumerate(bloch_vectors(*w_vectors(s))):
                assert np.max(np.abs(b - bloch_vector_oracle(s, nu))) <= bloch_tol(m)

    def test_purity_identity(self):
        """1 - |b|^2 = 2 (1 - tr rho^2) for the one-qubit reduced state."""
        rng = np.random.default_rng(204)
        for m in [2, 3, 5]:
            s = StateVector(m, random_state(m, rng))
            for qubit in range(m):
                b = bloch_vector_oracle(s, qubit)
                rho = reduced_density_matrix(s, qubit)
                purity = float(np.trace(rho @ rho).real)
                assert abs((1 - np.dot(b, b)) - 2 * (1 - purity)) < 1e-12


class TestInvarianceCheck:
    def test_separable_state(self):
        assert invariance_check(make_basis_state(4, 0), trials=50, seed=11) < 1e-9

    def test_ghz_state(self):
        assert invariance_check(ghzl_state(4, np.pi / 4), trials=100, seed=12) < 1e-9

    def test_chain_phase_state(self):
        assert invariance_check(brs_state(5, 1.3), trials=100, seed=13) < 1e-9

    def test_deterministic_by_seed(self):
        s = brs_state(3, 2.2)
        assert invariance_check(s, trials=20, seed=7) == invariance_check(s, trials=20, seed=7)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            invariance_check(make_basis_state(2, 0), trials=0)
