"""State families: generators, closed forms, convention regressions."""
from __future__ import annotations

import numpy as np
import pytest

from entdist import (
    ClosedForm,
    FamilySpec,
    StateVector,
    brs_state,
    closed_form_E,
    entanglement_measure,
    entanglement_metric,
    family_state,
    ghzl_state,
    metric_matrix,
    spectrum,
    three_qubit_state,
)

from oracles import (
    bit_reversed_state,
    brs_n01,
    brs_reference_metric,
    n01_string_reading,
    phase_chain_operator,
)


# ---------------------------------------------------------------------------
# adjacent-pair counting and the diagonal phase operator
# ---------------------------------------------------------------------------


class TestAdjacentPairCount:
    def test_examples(self):
        assert brs_n01(0, 4) == 0
        assert brs_n01(2, 2) == 1  # binary 10: qubit 0 clear, qubit 1 set
        assert brs_n01(10, 4) == 2  # binary 1010: pairs (0,1) and (2,3)

    def test_range_error(self):
        with pytest.raises(ValueError):
            brs_n01(16, 4)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("phi", [0.9, np.pi, 4.4])
    def test_projector_product_oracle(self, m, phi):
        """The resummed eigenvalue e^{-i phi n(k)} equals the diagonal of the
        explicit projector-product operator, pinning the pair convention."""
        u = phase_chain_operator(m, phi)
        off_diagonal = u - np.diag(np.diagonal(u))
        assert np.max(np.abs(off_diagonal)) < 1e-14
        expected = np.exp(-1j * phi * np.array([brs_n01(k, m) for k in range(1 << m)]))
        np.testing.assert_allclose(np.diagonal(u), expected, atol=1e-13)

    def test_state_is_dressed_uniform_superposition(self):
        """brs_state equals the projector-product operator applied to the
        uniform superposition."""
        for m, phi in [(2, 1.1), (4, 2.7)]:
            expected = phase_chain_operator(m, phi) @ (np.full(1 << m, 2.0 ** (-m / 2)))
            np.testing.assert_allclose(brs_state(m, phi).amplitudes, expected, atol=1e-13)


class TestBrsState:
    def test_phi_zero_is_uniform(self):
        np.testing.assert_allclose(brs_state(2, 0.0).amplitudes, np.full(4, 0.5), atol=0)

    def test_phi_pi_sign_pattern(self):
        """Only k=2 (binary 10) carries one adjacent pair, hence the sign."""
        np.testing.assert_allclose(
            brs_state(2, np.pi).amplitudes, np.array([1, 1, -1, 1]) / 2, atol=1e-15
        )

    def test_full_period_returns_to_separable(self):
        np.testing.assert_allclose(
            brs_state(4, 2 * np.pi).amplitudes, brs_state(4, 0.0).amplitudes, atol=1e-13
        )

    def test_periodicity(self):
        for phi in [0.3, 1.7, 5.0]:
            np.testing.assert_allclose(
                brs_state(3, phi).amplitudes, brs_state(3, phi + 2 * np.pi).amplitudes,
                atol=1e-12,
            )

    def test_separable_points(self):
        for k in range(3):
            assert entanglement_measure(brs_state(4, 2 * np.pi * k)) < 1e-12

    def test_m_below_two_rejected(self):
        with pytest.raises(ValueError):
            brs_state(1, 0.5)

    @pytest.mark.parametrize("m", range(2, 13))
    def test_amplitude_table_gives_the_bits_of_the_direct_formula(self, m):
        """Indexing the m // 2 + 1 distinct amplitudes builds c_k to the bit."""
        counts = np.array([brs_n01(k, m) for k in range(1 << m)], dtype=np.uint8)
        for phi in [0.3, 1.1, 5.9, -2.0, np.pi]:
            direct = np.exp(-1j * phi * counts) * (2.0 ** (-m / 2.0))
            assert brs_state(m, phi).amplitudes.tobytes() == direct.tobytes()

    def test_bit_reflection_leaves_measure_and_spectrum_alone(self):
        """The opposite reading of 'adjacent 01 pairs' (printed-string order)
        builds the bit-reversed state; E and the eigenvalue multiset agree."""
        for m, phi in [(3, 1.2), (5, 2.5)]:
            s = brs_state(m, phi)
            counts = np.array([n01_string_reading(k, m) for k in range(1 << m)])
            other = StateVector(m, np.exp(-1j * phi * counts) * 2.0 ** (-m / 2))
            np.testing.assert_allclose(
                other.amplitudes, bit_reversed_state(s.amplitudes, m), atol=1e-13
            )
            assert abs(entanglement_measure(other) - entanglement_measure(s)) < 1e-12
            np.testing.assert_allclose(
                spectrum(entanglement_metric(other)).eigenvalues,
                spectrum(entanglement_metric(s)).eigenvalues,
                atol=1e-12,
            )


class TestGhzlState:
    def test_theta_zero(self):
        np.testing.assert_array_equal(
            ghzl_state(3, 0.0).amplitudes, np.eye(8, dtype=complex)[0]
        )

    def test_balanced_point(self):
        s = ghzl_state(3, np.pi / 4)
        assert s.amplitudes[0] == pytest.approx(1 / np.sqrt(2))
        assert s.amplitudes[7] == pytest.approx(1 / np.sqrt(2))
        assert np.count_nonzero(s.amplitudes) == 2

    def test_phase_lives_on_top_amplitude(self):
        s = ghzl_state(2, np.pi / 2, phase=np.pi / 3)
        assert abs(s.amplitudes[3] - np.exp(1j * np.pi / 3)) < 1e-15
        assert np.count_nonzero(np.abs(s.amplitudes) > 1e-15) == 1

    def test_measure_independent_of_phase(self):
        for theta in [0.2, 0.9]:
            base = entanglement_measure(ghzl_state(4, theta, 0.0))
            for phase in [0.7, 2.2, 5.9]:
                assert abs(entanglement_measure(ghzl_state(4, theta, phase)) - base) < 1e-12


class TestThreeQubitState:
    def test_corner_is_separable(self):
        np.testing.assert_array_equal(
            three_qubit_state(0.0, 0.0).amplitudes, np.eye(8, dtype=complex)[0]
        )

    def test_ghz_point(self):
        s = three_qubit_state(np.pi / 4, 0.0)
        expected = np.zeros(8)
        expected[0] = expected[7] = 1 / np.sqrt(2)
        np.testing.assert_allclose(s.amplitudes, expected, atol=1e-15)

    def test_biseparable_line(self):
        """tau = pi/4 with gamma = 0 factorizes as |0> x (|00>+|11>)/sqrt(2)."""
        s = three_qubit_state(0.0, np.pi / 4)
        expected = np.zeros(8)
        expected[0] = expected[3] = 1 / np.sqrt(2)
        np.testing.assert_allclose(s.amplitudes, expected, atol=1e-15)

    def test_amplitude_slots(self):
        s = three_qubit_state(0.3, 0.8)
        assert np.all(np.abs(s.amplitudes[[1, 2, 5, 6]]) == 0.0)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


class TestClosedForms:
    def test_ghzl_example(self):
        cf = closed_form_E(FamilySpec("ghzl", m=9, theta=np.pi / 8))
        assert cf.value == pytest.approx(9 / 8, abs=1e-14)

    def test_brs_three_qubit_maximum(self):
        cf = closed_form_E(FamilySpec("brs", m=3, phi=np.pi))
        assert cf.value == pytest.approx(3 / 4, abs=1e-14)

    def test_threeq_biseparable_value_independent_of_gamma(self):
        for gamma in [0.0, 0.4, 1.3]:
            cf = closed_form_E(FamilySpec("threeq", gamma=gamma, tau=np.pi / 4))
            assert cf.value == pytest.approx(0.5, abs=1e-14)

    def test_closed_forms_are_non_negative_in_floating_point(self):
        """Every family's closed form is >= 0 on a dense grid, so ClosedForm needs no tolerance."""
        special = [0.0, np.pi / 4, np.pi / 2, np.pi, 3 * np.pi / 2, 2 * np.pi]
        angles = [float(a) for a in np.concatenate([special, np.linspace(-7.0, 13.0, 2001)])]
        for m in (2, 3, 9, 26):
            for angle in angles:
                assert closed_form_E(FamilySpec("brs", m=m, phi=angle)).value >= 0.0
                assert closed_form_E(FamilySpec("ghzl", m=m, theta=angle)).value >= 0.0
        coarse = angles[: len(special)] + angles[len(special) :: 20]
        for gamma in coarse:
            for tau in coarse:
                assert closed_form_E(FamilySpec("threeq", gamma=gamma, tau=tau)).value >= 0.0

    def test_a_negative_closed_form_is_rejected_with_its_value(self):
        with pytest.raises(ValueError, match=r"cannot be negative: -5e-324 from E"):
            ClosedForm(-5e-324, "E")
        assert ClosedForm(-0.0, "E").value == 0.0

    def test_sources_name_their_formulas(self):
        assert "sin" in closed_form_E(FamilySpec("brs", m=2, phi=1.0)).source
        assert "theta" in closed_form_E(FamilySpec("ghzl", m=2, theta=1.0)).source

    @pytest.mark.parametrize("m", [2, 3, 4, 7, 12])
    def test_brs_grid_agreement(self, m):
        for phi in np.linspace(0.0, 2 * np.pi, 61):
            spec = FamilySpec("brs", m=m, phi=float(phi))
            gap = abs(entanglement_measure(family_state(spec)) - closed_form_E(spec).value)
            assert gap < 1e-12

    def test_brs_general_m_consistency_with_direct_trace(self):
        """m >= 4: the closed form agrees with the direct metric trace at the
        optimal directions."""
        for m in [4, 5, 6]:
            for phi in np.linspace(0.2, 6.0, 7):
                spec = FamilySpec("brs", m=m, phi=float(phi))
                state = family_state(spec)
                direct = float(np.trace(entanglement_metric(state).matrix))
                assert abs(closed_form_E(spec).value - direct) < 1e-12

    def test_ghzl_grid_agreement(self):
        for m in [2, 5]:
            for theta in np.linspace(0.0, np.pi, 41):
                spec = FamilySpec("ghzl", m=m, theta=float(theta), phase=0.3)
                gap = abs(entanglement_measure(family_state(spec)) - closed_form_E(spec).value)
                assert gap < 1e-12

    def test_threeq_grid_agreement(self):
        for gamma in np.linspace(0.0, np.pi, 21):
            for tau in np.linspace(0.0, np.pi, 21):
                spec = FamilySpec("threeq", gamma=float(gamma), tau=float(tau))
                gap = abs(entanglement_measure(family_state(spec)) - closed_form_E(spec).value)
                assert gap < 1e-12

    def test_equal_maxima_across_families(self):
        for m in [2, 3, 4, 7]:
            e_brs = entanglement_measure(brs_state(m, np.pi))
            e_ghz = entanglement_measure(ghzl_state(m, np.pi / 4))
            assert e_brs == pytest.approx(m / 4, abs=1e-12)
            assert e_ghz == pytest.approx(m / 4, abs=1e-12)


# ---------------------------------------------------------------------------
# family specs
# ---------------------------------------------------------------------------


class TestFamilySpec:
    def test_json_round_trip(self):
        spec = FamilySpec("ghzl", m=5, theta=0.7, phase=1.1)
        assert FamilySpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_validates_tag(self):
        with pytest.raises(ValueError, match="family"):
            FamilySpec.from_dict({"family": "w-state"})

    def test_threeq_m_fixed(self):
        with pytest.raises(ValueError):
            FamilySpec("threeq", m=4)

    def test_m_lower_bound(self):
        with pytest.raises(ValueError):
            FamilySpec("brs", m=1)

    def test_angles_must_be_finite(self):
        with pytest.raises(ValueError):
            FamilySpec("brs", m=2, phi=float("nan"))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: brs_state(1, 0.5), r"m must be in \[2, 26\] for family 'brs'"),
        (lambda: brs_state(27, 0.5), r"m must be in \[2, 26\] for family 'brs'"),
        (lambda: brs_state(3, np.nan), "angle 'phi' must be finite"),
        (lambda: ghzl_state(1, 0.5), r"m must be in \[2, 26\] for family 'ghzl'"),
        (lambda: ghzl_state(27, 0.5), r"m must be in \[2, 26\] for family 'ghzl'"),
        (lambda: ghzl_state(3, np.nan), "angle 'theta' must be finite"),
        (lambda: ghzl_state(3, 0.5, np.nan), "angle 'phase' must be finite"),
        (lambda: three_qubit_state(np.nan, 0.5), "angle 'gamma' must be finite"),
        (lambda: three_qubit_state(0.5, np.nan), "angle 'tau' must be finite"),
    ],
    ids=["brs-m1", "brs-m27", "brs-nan", "ghzl-m1", "ghzl-m27", "ghzl-nan-theta",
         "ghzl-nan-phase", "threeq-nan-gamma", "threeq-nan-tau"],
)
def test_state_builders_reject_what_family_spec_rejects(build, message):
    """Each named builder is family_state of a FamilySpec and fails with FamilySpec's message."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


# ---------------------------------------------------------------------------
# reference metric forms (m = 2, 3)
# ---------------------------------------------------------------------------


class TestReferenceMetricForms:
    @pytest.mark.parametrize("m", [2, 3])
    def test_trace_and_diagonal_regression(self, m, capsys):
        """Trace and diagonal of the computed metric match the reference form;
        the off-diagonal gap is reported, not asserted (the reference keeps a
        fixed sign convention that direct evaluation reproduces only at the
        maximally entangled point)."""
        worst_offdiag = 0.0
        for phi in np.linspace(0.05, 2 * np.pi - 0.05, 25):
            reference = brs_reference_metric(m, float(phi))
            computed = entanglement_metric(brs_state(m, float(phi))).matrix
            assert abs(np.trace(computed) - np.trace(reference)) < 1e-12
            np.testing.assert_allclose(
                np.sort(np.diagonal(computed)), np.sort(np.diagonal(reference)), atol=1e-12
            )
            mask = ~np.eye(m, dtype=bool)
            worst_offdiag = max(worst_offdiag, float(np.max(np.abs(computed - reference)[mask])))
        print(f"[report] m={m} reference-form max off-diagonal gap: {worst_offdiag:.3e}")

    def test_three_qubit_axis_substitution_matches_ghz_form(self):
        """At the maximally entangled point the stated axis substitution turns
        the chain-phase metric into the all-ones GHZ form."""
        dirs = np.array([[1.0, 0, 0], [0, 0, 1.0], [-1.0, 0, 0]])
        g = metric_matrix(brs_state(3, np.pi), dirs)
        np.testing.assert_allclose(g, 0.25 * np.ones((3, 3)), atol=1e-13)

    def test_reference_form_only_small_m(self):
        with pytest.raises(ValueError):
            brs_reference_metric(4, 0.3)
