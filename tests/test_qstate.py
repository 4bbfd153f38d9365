"""State-vector core: basis bookkeeping, local operators, expectations."""
from __future__ import annotations

import numpy as np
import pytest

from entdist import (
    HADAMARD,
    PAULI_X,
    Direction,
    LocalUnitary,
    StateFileError,
    StateVector,
    apply_local_unitary,
    brs_state,
    ghzl_state,
    make_basis_state,
    pauli_expectation,
    pauli_pair_correlation,
    random_local_unitary,
    read_state_file,
    write_state_file,
)
from entdist.qstate import _haar_unitary

from oracles import dense_direction_operator, dense_qubit_operator, random_state

X = Direction(1.0, 0.0, 0.0)
Y = Direction(0.0, 1.0, 0.0)
Z = Direction(0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


class TestStateVector:
    def test_basis_states(self):
        np.testing.assert_array_equal(make_basis_state(1, 0).amplitudes, [1, 0])
        np.testing.assert_array_equal(make_basis_state(2, 3).amplitudes, [0, 0, 0, 1])
        s = make_basis_state(3, 5)  # |101>: qubit 0 and qubit 2 set
        assert s.amplitudes[5] == 1.0
        assert np.count_nonzero(s.amplitudes) == 1

    @pytest.mark.parametrize("m,k", [(0, 0), (27, 0), (2, -1), (2, 4)])
    def test_basis_state_range_errors(self, m, k):
        with pytest.raises(ValueError):
            make_basis_state(m, k)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(1, np.array([1.0, 1.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            StateVector(2, np.array([1.0, 0.0]))

    def test_amplitudes_immutable(self):
        s = make_basis_state(2, 0)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0

    def test_caller_array_stays_writeable(self):
        """The state stores a read-only view of the caller's complex128 buffer."""
        amps = np.zeros(4, dtype=np.complex128)
        amps[0] = 1.0
        s = StateVector(2, amps)
        assert amps.flags.writeable
        assert not s.amplitudes.flags.writeable
        assert np.shares_memory(s.amplitudes, amps)
        amps[0] = 0.5  # the caller may still write its own array


class TestDirection:
    def test_unit_enforced(self):
        with pytest.raises(ValueError, match="unit"):
            Direction(1.0, 1.0, 0.0)

    def test_degenerate_flag_not_compared(self):
        assert Direction(0.0, 0.0, 1.0, degenerate=True) == Direction(0.0, 0.0, 1.0)


class TestLocalUnitary:
    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError, match="unitary"):
            LocalUnitary(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_caller_array_stays_writeable(self):
        u = np.array(HADAMARD, dtype=np.complex128)
        lu = LocalUnitary(u)
        assert u.flags.writeable
        assert not lu.matrix.flags.writeable
        u[0, 0] = 0.0
        np.testing.assert_array_equal(lu.matrix, HADAMARD)


# ---------------------------------------------------------------------------
# single-qubit operator application
# ---------------------------------------------------------------------------


class TestApplyLocalUnitary:
    def test_bit_flip(self):
        out = apply_local_unitary(make_basis_state(1, 0), 0, LocalUnitary(PAULI_X))
        np.testing.assert_allclose(out.amplitudes, [0, 1], atol=1e-15)

    def test_identity(self):
        s = make_basis_state(1, 0)
        out = apply_local_unitary(s, 0, LocalUnitary(np.eye(2)))
        np.testing.assert_allclose(out.amplitudes, s.amplitudes, atol=1e-15)

    def test_hadamard_pair_gives_uniform_state(self):
        """H on each qubit of |00> produces the uniform two-qubit state."""
        h = LocalUnitary(HADAMARD)
        s = apply_local_unitary(apply_local_unitary(make_basis_state(2, 0), 0, h), 1, h)
        np.testing.assert_allclose(s.amplitudes, np.full(4, 0.5), atol=1e-15)
        np.testing.assert_allclose(s.amplitudes, brs_state(2, 0.0).amplitudes, atol=1e-15)

    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError):
            apply_local_unitary(make_basis_state(2, 0), 2, LocalUnitary(PAULI_X))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_matches_dense_operator(self, m):
        """Pair-mixing application equals the kron-built full matrix."""
        rng = np.random.default_rng(11 + m)
        for qubit in range(m):
            s = StateVector(m, random_state(m, rng))
            u = LocalUnitary(_haar_unitary(rng))
            out = apply_local_unitary(s, qubit, u)
            expected = dense_qubit_operator(m, qubit, u.matrix) @ s.amplitudes
            np.testing.assert_allclose(out.amplitudes, expected, atol=1e-13)

    def test_norm_preserved_along_chain(self):
        rng = np.random.default_rng(5)
        s = StateVector(4, random_state(4, rng))
        for step in range(20):
            s = apply_local_unitary(s, step % 4, LocalUnitary(_haar_unitary(rng)))
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12

    def test_commutes_on_distinct_qubits(self):
        rng = np.random.default_rng(17)
        s = StateVector(3, random_state(3, rng))
        ua, ub = LocalUnitary(_haar_unitary(rng)), LocalUnitary(_haar_unitary(rng))
        ab = apply_local_unitary(apply_local_unitary(s, 0, ua), 2, ub)
        ba = apply_local_unitary(apply_local_unitary(s, 2, ub), 0, ua)
        np.testing.assert_allclose(ab.amplitudes, ba.amplitudes, atol=1e-12)


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------


class TestPauliExpectation:
    def test_sigma3_eigenstates(self):
        assert pauli_expectation(make_basis_state(1, 0), 0, Z) == pytest.approx(1.0, abs=1e-15)
        assert pauli_expectation(make_basis_state(1, 1), 0, Z) == pytest.approx(-1.0, abs=1e-15)

    def test_sigma1_eigenstate(self):
        plus = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2))
        assert pauli_expectation(plus, 0, X) == pytest.approx(1.0, abs=1e-15)

    def test_linear_in_direction(self):
        """<v.sigma> decomposes over the three axis expectations."""
        rng = np.random.default_rng(23)
        s = StateVector(3, random_state(3, rng))
        for _ in range(10):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            d = Direction(*v)
            combo = (
                v[0] * pauli_expectation(s, 1, X)
                + v[1] * pauli_expectation(s, 1, Y)
                + v[2] * pauli_expectation(s, 1, Z)
            )
            assert abs(pauli_expectation(s, 1, d) - combo) < 1e-12

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_dense_operator(self, m):
        rng = np.random.default_rng(29 + m)
        s = StateVector(m, random_state(m, rng))
        for qubit in range(m):
            v = rng.normal(size=3)
            d = Direction(*(v / np.linalg.norm(v)))
            dense = dense_qubit_operator(m, qubit, dense_direction_operator(d))
            expected = np.vdot(s.amplitudes, dense @ s.amplitudes).real
            assert abs(pauli_expectation(s, qubit, d) - expected) < 1e-12


class TestPauliPairCorrelation:
    def test_zz_on_basis_state(self):
        assert pauli_pair_correlation(make_basis_state(2, 0), 0, Z, 1, Z) == pytest.approx(1.0)

    def test_zz_on_ghz(self):
        """Both branches of the GHZ pair have even parity; direct 4-term sum."""
        s = ghzl_state(2, np.pi / 4)
        assert pauli_pair_correlation(s, 0, Z, 1, Z) == pytest.approx(1.0, abs=1e-15)

    def test_maximally_entangled_chain_phase_pair(self):
        """At phi = pi the y-y correlation is -1; flipping one axis gives +1.

        The +1 value with axes (0,-1,0)/(0,1,0) is what makes the metric at
        those axes the all-ones form (checked in the metric tests).
        """
        s = brs_state(2, np.pi)
        np.testing.assert_allclose(s.amplitudes, np.array([1, 1, -1, 1]) / 2.0, atol=1e-15)
        assert pauli_pair_correlation(s, 0, Y, 1, Y) == pytest.approx(-1.0, abs=1e-14)
        minus_y = Direction(0.0, -1.0, 0.0)
        assert pauli_pair_correlation(s, 0, minus_y, 1, Y) == pytest.approx(1.0, abs=1e-14)

    def test_equal_qubits_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            pauli_pair_correlation(make_basis_state(2, 0), 1, Z, 1, Z)

    def test_factorizes_on_product_states(self):
        from oracles import random_product_state

        rng = np.random.default_rng(31)
        for _ in range(5):
            s = StateVector(3, random_product_state(3, rng))
            va = Direction(*(lambda u: u / np.linalg.norm(u))(rng.normal(size=3)))
            vb = Direction(*(lambda u: u / np.linalg.norm(u))(rng.normal(size=3)))
            corr = pauli_pair_correlation(s, 0, va, 2, vb)
            product = pauli_expectation(s, 0, va) * pauli_expectation(s, 2, vb)
            assert abs(corr - product) < 1e-12

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_matches_dense_operator(self, m):
        rng = np.random.default_rng(37 + m)
        s = StateVector(m, random_state(m, rng))
        for _ in range(4):
            qa, qb = rng.choice(m, size=2, replace=False)
            va = Direction(*(lambda u: u / np.linalg.norm(u))(rng.normal(size=3)))
            vb = Direction(*(lambda u: u / np.linalg.norm(u))(rng.normal(size=3)))
            dense = dense_qubit_operator(m, qa, dense_direction_operator(va)) @ dense_qubit_operator(
                m, qb, dense_direction_operator(vb)
            )
            expected = np.vdot(s.amplitudes, dense @ s.amplitudes).real
            assert abs(pauli_pair_correlation(s, int(qa), va, int(qb), vb) - expected) < 1e-12


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------


class TestRandomLocalUnitary:
    def test_deterministic_by_seed(self):
        np.testing.assert_array_equal(
            random_local_unitary(0).matrix, random_local_unitary(0).matrix
        )

    def test_unitarity(self):
        for seed in range(20):
            u = random_local_unitary(seed).matrix
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12

    def test_haar_first_moment(self):
        """|U00|^2 is uniform on [0, 1] under Haar, so its mean is 1/2."""
        rng = np.random.default_rng(2024)
        samples = np.array([abs(_haar_unitary(rng)[0, 0]) ** 2 for _ in range(10_000)])
        assert abs(samples.mean() - 0.5) < 0.02


# ---------------------------------------------------------------------------
# state files
# ---------------------------------------------------------------------------


class TestStateFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(41)
        s = StateVector(3, random_state(3, rng))
        path = tmp_path / "state.json"
        write_state_file(path, s)
        loaded = read_state_file(path)
        assert loaded.num_qubits == 3
        np.testing.assert_allclose(loaded.amplitudes, s.amplitudes, atol=1e-15)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(StateFileError):
            read_state_file(path)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"m": 1, "re": [1.0, 0.0]}')
        with pytest.raises(StateFileError):
            read_state_file(path)

    def test_unnormalized_file_raises_value_error(self, tmp_path):
        path = tmp_path / "unnorm.json"
        path.write_text('{"m": 1, "re": [1.0, 1.0], "im": [0.0, 0.0]}')
        with pytest.raises(ValueError, match="not normalized"):
            read_state_file(path)
