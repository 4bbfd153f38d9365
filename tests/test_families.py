"""State families: generators, closed forms, convention regressions."""
from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from entdist import (
    FamilySpec,
    StateVector,
    brs_state,
    closed_form_E,
    entanglement_measure,
    entanglement_metric,
    family_state,
    ghzl_state,
    spectrum,
    three_qubit_state,
)

from entdist import qstate
from entdist.families import FAMILY_ANGLES, FAMILY_TAGS, family_amplitudes
from entdist.metric import measure_tol

from oracles import (
    bit_reversed_state,
    brs_n01,
    brs_n01_counts,
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
        np.testing.assert_allclose(np.diagonal(u), expected, rtol=0, atol=1e-13, equal_nan=False)

    def test_state_is_dressed_uniform_superposition(self):
        """brs_state equals the projector-product operator applied to the
        uniform superposition."""
        for m, phi in [(2, 1.1), (4, 2.7)]:
            expected = phase_chain_operator(m, phi) @ (np.full(1 << m, 2.0 ** (-m / 2)))
            np.testing.assert_allclose(brs_state(m, phi).amplitudes, expected, rtol=0, atol=1e-13, equal_nan=False)


class TestBrsState:
    def test_phi_zero_is_uniform(self):
        np.testing.assert_allclose(brs_state(2, 0.0).amplitudes, np.full(4, 0.5), rtol=0, atol=0, equal_nan=False)

    def test_phi_pi_sign_pattern(self):
        """Only k=2 (binary 10) carries one adjacent pair, hence the sign."""
        np.testing.assert_allclose(
            brs_state(2, np.pi).amplitudes, np.array([1, 1, -1, 1]) / 2, rtol=0, atol=1e-15, equal_nan=False
        )

    def test_full_period_returns_to_separable(self):
        np.testing.assert_allclose(
            brs_state(4, 2 * np.pi).amplitudes, brs_state(4, 0.0).amplitudes, rtol=0, atol=1e-13, equal_nan=False
        )

    def test_periodicity(self):
        for phi in [0.3, 1.7, 5.0]:
            np.testing.assert_allclose(
                brs_state(3, phi).amplitudes, brs_state(3, phi + 2 * np.pi).amplitudes,
                rtol=0, atol=1e-12, equal_nan=False,
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

    @pytest.mark.parametrize("row_bits, ms", [(2, range(2, 10)), (3, range(2, 10)), (14, range(2, 19))])
    def test_rows_give_the_bits_of_the_per_index_count(self, monkeypatch, row_bits, ms):
        """The builder works by the rows of ``row_view``, from a template of the low qubits' counts.

        Rows of 4, 8 and 2^14 amplitudes, one state and a batch: every
        amplitude has the bits of the direct formula on the pair-by-pair
        count, across the row boundary and in the high qubits too.
        """
        monkeypatch.setattr(qstate, "ROW_BITS", row_bits)
        phis = np.array([0.3, -2.0, np.pi])
        for m in ms:
            direct = np.exp(-1j * phis[:, None] * brs_n01_counts(m)) * (2.0 ** (-m / 2.0))
            amps = family_amplitudes(FamilySpec("brs", m=m), "phi", phis)
            assert amps.flags.c_contiguous
            assert amps.tobytes() == direct.tobytes()
            assert family_amplitudes(FamilySpec("brs", m=m), "phi", phis[:1]).tobytes() == direct[0].tobytes()

    def test_builder_holds_no_more_than_a_row_beyond_the_state(self):
        """At M = 20 the whole-state count array, 1 MiB of uint8, lived beside the amplitudes."""
        m = 20
        family_amplitudes(FamilySpec("brs", m=m), "phi", [0.3])  # the templates are built once
        tracemalloc.start()
        try:
            amps = family_amplitudes(FamilySpec("brs", m=m), "phi", [0.3])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - amps.nbytes < 16 << qstate.ROW_BITS

    def test_bit_reflection_leaves_measure_and_spectrum_alone(self):
        """The opposite reading of 'adjacent 01 pairs' (printed-string order)
        builds the bit-reversed state; E and the eigenvalue multiset agree."""
        for m, phi in [(3, 1.2), (5, 2.5)]:
            s = brs_state(m, phi)
            counts = np.array([n01_string_reading(k, m) for k in range(1 << m)])
            other = StateVector(m, np.exp(-1j * phi * counts) * 2.0 ** (-m / 2))
            np.testing.assert_allclose(
                other.amplitudes, bit_reversed_state(s.amplitudes, m), rtol=0, atol=1e-13, equal_nan=False
            )
            assert abs(entanglement_measure(other) - entanglement_measure(s)) < 1e-12
            np.testing.assert_allclose(
                spectrum(entanglement_metric(other)),
                spectrum(entanglement_metric(s)),
                rtol=0, atol=1e-12, equal_nan=False,
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
        np.testing.assert_allclose(s.amplitudes, expected, rtol=0, atol=1e-15, equal_nan=False)

    def test_biseparable_line(self):
        """tau = pi/4 with gamma = 0 factorizes as |0> x (|00>+|11>)/sqrt(2)."""
        s = three_qubit_state(0.0, np.pi / 4)
        expected = np.zeros(8)
        expected[0] = expected[3] = 1 / np.sqrt(2)
        np.testing.assert_allclose(s.amplitudes, expected, rtol=0, atol=1e-15, equal_nan=False)

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
        """Every family's closed form is >= 0 on a dense grid, at every m it takes, as ``closed_form_E`` proves."""
        special = [0.0, np.pi / 4, np.pi / 2, np.pi, 3 * np.pi / 2, 2 * np.pi]
        angles = [float(a) for a in np.concatenate([special, np.linspace(-7.0, 13.0, 2001)])]
        for m in range(2, qstate.MAX_QUBITS + 1):
            for angle in angles:
                assert closed_form_E(FamilySpec("brs", m=m, phi=angle)).value >= 0.0
                assert closed_form_E(FamilySpec("ghzl", m=m, theta=angle)).value >= 0.0
        coarse = angles[: len(special)] + angles[len(special) :: 20]
        for gamma in coarse:
            for tau in coarse:
                assert closed_form_E(FamilySpec("threeq", gamma=gamma, tau=tau)).value >= 0.0

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

    @pytest.mark.parametrize("m", [13, 14, 15, 16])
    def test_closed_forms_across_the_row_boundary(self, m):
        """brs phi = 0.7 and ghzl theta = 0.7 where the bilinears go from one row to rows (m > ROW_BITS = 14).

        E lies within ``measure_tol(m)``, the kernel's rounding, of the
        exact E of the float64 state, and that within the share below, m
        (11 + m |angle| / 2) u, u = 2^-53, of the computed closed form.
        libm's sine, cosine and complex exp are taken within 2 ulps, so a
        computed sine is off by at most 4 u of itself, and a cosine or sine
        of size at most 1 by at most 2 u.

        * The state.  A brs amplitude is 2^(-m/2) e^(-i phi k), k <= m // 2:
          the rounded phi k moves the phase by at most u |phi| m / 2, the
          complex exp adds 2 sqrt 2 u and the two roundings of the scale
          2 u, so the state is within (5 + |phi| m / 2) u of the exact one
          in 2-norm; a ghzl state, whose phase is 0, within 2 sqrt 2 u.  A
          gap delta moves each Bloch vector by at most 2 delta and each
          |b|^2 by 4 delta, so E = (m - sum |b|^2) / 4 by m delta.
        * The formula.  For brs, s^2 is within 9 u of itself and (m - 2)
          s^2 within 10 u; 2m - 2 - (m - 2) s^2 >= m is then within 11 u,
          and E within 21 u of itself, at most 5.25 m u at E <= m / 4.  The
          ghzl E, (m/4) sin^2(2 theta), is within 10 u of itself: 2.5 m u.

        So the share is m (5 + |phi| m / 2 + 5.25) u for brs and m (2 sqrt
        2 + 2.5) u for ghzl, both within m (11 + m |angle| / 2) u.
        """
        angle, u = 0.7, np.finfo(float).eps / 2.0
        for spec in (FamilySpec("brs", m=m, phi=angle), FamilySpec("ghzl", m=m, theta=angle)):
            gap = abs(entanglement_measure(family_state(spec)) - closed_form_E(spec).value)
            assert gap <= measure_tol(m) + m * (11 + m * angle / 2) * u

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
    def test_tags_are_the_keys_of_the_angle_table(self):
        """The one list of families, in the order the CLI offers them."""
        assert FAMILY_TAGS == ("brs", "ghzl", "threeq") == tuple(FAMILY_ANGLES)

    def test_unknown_tag_is_refused(self):
        with pytest.raises(ValueError) as err:
            FamilySpec("w-state", m=3)
        assert str(err.value) == f"unknown family tag 'w-state'; expected one of {FAMILY_TAGS}"

    def test_m_defaults_only_for_threeq(self):
        assert FamilySpec("threeq").m == 3
        for tag in ["brs", "ghzl"]:
            with pytest.raises(ValueError, match=f"^family '{tag}' requires m$"):
                FamilySpec(tag)

    @pytest.mark.parametrize(
        "tag, angle, value",
        [("brs", "theta", 0.5), ("brs", "tau", -1.0), ("ghzl", "phi", float("nan")),
         ("threeq", "phase", 2.0)],
    )
    def test_angle_of_another_family_is_refused(self, tag, angle, value):
        """An angle the family does not use raises whenever it is given, 0 and -0.0 included."""
        for given in (value, 0.0, -0.0, 1.0, None):
            with pytest.raises(ValueError, match=f"^family '{tag}' has no angle '{angle}'$"):
                FamilySpec(tag, m=3, **{angle: given})

    def test_own_angles_not_given_are_zero(self):
        """Not given is 0 for a family's own angles, and a ``dataclasses.replace`` of one angle keeps the rest."""
        spec = FamilySpec("ghzl", m=3, phase=0.2)
        assert (spec.theta, spec.phase) == (0.0, 0.2)
        assert dataclasses.replace(spec, theta=0.7) == FamilySpec("ghzl", m=3, theta=0.7, phase=0.2)

    def test_threeq_m_fixed(self):
        with pytest.raises(ValueError):
            FamilySpec("threeq", m=4)

    def test_m_lower_bound(self):
        with pytest.raises(ValueError):
            FamilySpec("brs", m=1)

    def test_angles_must_be_finite(self):
        with pytest.raises(ValueError):
            FamilySpec("brs", m=2, phi=float("nan"))


_M_RANGE = r"must be an integer in \[2, 26\], got"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: brs_state(1, 0.5), rf"m for family 'brs' {_M_RANGE} 1"),
        (lambda: brs_state(27, 0.5), rf"m for family 'brs' {_M_RANGE} 27"),
        (lambda: brs_state(3, np.nan), "angle 'phi' must be a finite real number, got nan"),
        (lambda: ghzl_state(1, 0.5), rf"m for family 'ghzl' {_M_RANGE} 1"),
        (lambda: ghzl_state(27, 0.5), rf"m for family 'ghzl' {_M_RANGE} 27"),
        (lambda: ghzl_state(3, np.nan), "angle 'theta' must be a finite real number, got nan"),
        (lambda: ghzl_state(3, 0.5, np.nan), "angle 'phase' must be a finite real number, got nan"),
        (lambda: three_qubit_state(np.nan, 0.5), "angle 'gamma' must be a finite real number, got nan"),
        (lambda: three_qubit_state(0.5, np.nan), "angle 'tau' must be a finite real number, got nan"),
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
                np.sort(np.diagonal(computed)), np.sort(np.diagonal(reference)), rtol=0, atol=1e-12, equal_nan=False
            )
            mask = ~np.eye(m, dtype=bool)
            worst_offdiag = max(worst_offdiag, float(np.max(np.abs(computed - reference)[mask])))
        print(f"[report] m={m} reference-form max off-diagonal gap: {worst_offdiag:.3e}")

    def test_reference_form_only_small_m(self):
        with pytest.raises(ValueError):
            brs_reference_metric(4, 0.3)
