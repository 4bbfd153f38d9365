"""State-vector core: basis bookkeeping, validation, local operators, expectations, Haar draws, state files.

The Bloch vector of each qubit is checked against dense operators in
``test_metric.py::TestWVectors``, and the metric's pair correlations
against the dense covariance in ``test_metric.py::TestMetricMatrix``;
the cases here pin the eigenstates of one qubit and the factorization
on product states.
"""
from __future__ import annotations

import re

import numpy as np
import pytest

from entdist import (
    EntanglementMetric,
    OptimizerReport,
    StateFileError,
    StateVector,
    apply_local_unitary,
    brs_state,
    distance_density,
    make_basis_state,
    metric_matrix,
    read_state_file,
    write_state_file,
)
from entdist import qstate
from entdist.metric import _turn_gap
from entdist.qstate import NORM_TOL, UNIT_TOL, _haar_unitary, _signs, bilinears, bloch_vectors, validate_unitaries
from entdist.verify import HAAR_DRAW_GAP, _dressings

from oracles import (
    HADAMARD,
    SX,
    dense_local_operator,
    dense_local_share,
    dense_qubit_operator,
    random_product_state,
    random_state,
)
from test_support import rotations  # noqa: F401 (a fixture)

X = np.array([1.0, 0.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _expectation(state: StateVector, qubit: int, v: np.ndarray) -> float:
    """<v . sigma^qubit> as the kernel's Bloch vector of the qubit dotted with v."""
    return float(bloch_vectors(*bilinears(state.amplitudes))[qubit] @ v)


def _pair_correlation(state: StateVector, qa: int, va: np.ndarray, qb: int, vb: np.ndarray):
    """<(va . sigma^qa)(vb . sigma^qb)> = 4 g[qa, qb] + <A_qa><A_qb>, from the metric."""
    dirs = np.tile(Z, (state.num_qubits, 1))
    dirs[qa], dirs[qb] = va, vb
    g = metric_matrix(state, dirs)
    return 4.0 * g[qa, qb] + _expectation(state, qa, va) * _expectation(state, qb, vb)


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
        np.testing.assert_array_equal(make_basis_state(np.int64(3), np.uint8(5)).amplitudes, s.amplitudes)

    @pytest.mark.parametrize("m,k", [(0, 0), (27, 0), (2, -1), (2, 4), (True, 0)])
    def test_basis_state_range_errors(self, m, k):
        with pytest.raises(ValueError):
            make_basis_state(m, k)

    @pytest.mark.parametrize(
        "m,k,argument",
        [(3.0, 0, "m"), (3, True, "basis index k"), (3, np.True_, "basis index k"), (3, 1.0, "basis index k")],
    )
    def test_basis_state_integer_rule(self, m, k, argument):
        """An int or a numpy integer, not a bool: k = True once set all 8 amplitudes by mask."""
        with pytest.raises(ValueError, match=f"^{argument} must be an integer"):
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


# Every public entry that takes directions checks the whole (2, 3) field of a
# two-qubit state once.
_TAKES_DIRECTIONS = {
    "metric_matrix": lambda s, d: metric_matrix(s, d),
    "distance_density": lambda s, d: distance_density(s, d),
    "EntanglementMetric": lambda s, d: EntanglementMetric(2, np.zeros((2, 2)), d, 0.0),
    "OptimizerReport": lambda s, d: OptimizerReport(0.0, d, True, 0),
}
_BAD_FIELDS = {
    "shape": np.array([[1.0, 0.0], [0.0, 1.0]]),
    "unit": np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    "non-finite": np.array([[np.nan, 0.0, 0.0], [0.0, 0.0, 1.0]]),
}


class TestDirectionValidation:
    @pytest.mark.parametrize("problem", sorted(_BAD_FIELDS))
    @pytest.mark.parametrize("entry", sorted(_TAKES_DIRECTIONS))
    def test_bad_field_rejected(self, entry, problem):
        with pytest.raises(ValueError, match=problem):
            _TAKES_DIRECTIONS[entry](make_basis_state(2, 0), _BAD_FIELDS[problem])

    @pytest.mark.parametrize("entry", sorted(_TAKES_DIRECTIONS))
    def test_scalar_field_rejected(self, entry):
        """A scalar is refused by its shape; OptimizerReport raised TypeError from len()."""
        with pytest.raises(ValueError, match=r"^expected directions of shape .*, got shape \(\)$"):
            _TAKES_DIRECTIONS[entry](make_basis_state(2, 0), 1.0)


class TestLocalUnitary:
    """The rule of a field of local unitaries, ``qstate.validate_unitaries``: each refusal names the first qubit."""

    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError, match=r"^qubit 1: matrix is not unitary"):
            validate_unitaries([np.eye(2), [[1.0, 1.0], [0.0, 1.0]], [[1.0, 1.0], [0.0, 1.0]]], 3)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite(self, entry):
        """The matrix is blamed, before any arithmetic on it can warn."""
        u = np.array([HADAMARD, HADAMARD], dtype=np.complex128)
        u[1, 1, 0] = entry
        with pytest.raises(ValueError) as err:
            validate_unitaries(u, 2)
        assert str(err.value) == "qubit 1: matrix contains non-finite entries"

    @pytest.mark.parametrize("entry", [1e200, -1e200j, 1e155, 2.0])
    def test_rejects_large_entries_before_the_product(self, entry):
        """An entry beyond modulus 1 is refused by its size, quoted as a float; 1e200 overflowed U^H U first."""
        with pytest.raises(ValueError) as err:
            validate_unitaries([[[entry, 0.0], [0.0, 1.0]]], 1)
        assert str(err.value) == f"qubit 0: matrix is not unitary: max |u_ij| = {abs(entry)!r} exceeds 1"

    @pytest.mark.parametrize("delta", [UNIT_TOL / 2, 4 * UNIT_TOL])
    def test_unitarity_is_held_at_its_bound(self, delta):
        """U = [[1, delta], [0, 1]]: max |U^H U - I| = delta, no |u_ij| above 1, and det U = 1."""
        u = np.array([[1.0, delta], [0.0, 1.0]])
        if delta <= UNIT_TOL:
            np.testing.assert_array_equal(validate_unitaries([u], 1), [u])
        else:
            with pytest.raises(ValueError) as err:
                validate_unitaries([SX, u], 2)
            assert str(err.value) == f"qubit 1: matrix is not unitary: max |U^H U - I| = {delta!r}"

    @pytest.mark.parametrize("matrix", [np.eye(3), np.eye(2)[0], [[1.0]], np.eye(2)[None]])
    def test_rejects_a_matrix_that_is_not_2x2(self, matrix):
        """A field of two qubits is (2, 2, 2); one 2x2 matrix alone, or a field of one, is refused by its shape."""
        with pytest.raises(ValueError) as err:
            validate_unitaries(matrix, 2)
        assert str(err.value) == f"expected unitaries of shape (2, 2, 2), got shape {np.shape(matrix)}"

    def test_caller_array_stays_writeable(self):
        """The field comes back as a copy: a later write to the caller's array does not reach it."""
        u = np.array([HADAMARD], dtype=np.complex128)
        field = validate_unitaries(u, 1)
        assert u.flags.writeable
        u[0, 0, 0] = 0.0
        np.testing.assert_array_equal(field, [HADAMARD])


# ---------------------------------------------------------------------------
# local-unitary application
# ---------------------------------------------------------------------------


def _haar_field(m: int, rng: np.random.Generator) -> np.ndarray:
    return np.array([_haar_unitary(rng) for _ in range(m)])


def _one_qubit_field(m: int, qubit: int, u: np.ndarray) -> np.ndarray:
    """The identity on every qubit but ``qubit``, which takes ``u``."""
    field = np.tile(np.eye(2, dtype=complex), (m, 1, 1))
    field[qubit] = u
    return field


class TestApplyLocalUnitary:
    def test_bit_flip(self):
        out = apply_local_unitary(make_basis_state(1, 0), [SX])
        np.testing.assert_allclose(out.amplitudes, [0, 1], rtol=0, atol=1e-15, equal_nan=False)

    def test_identity(self):
        """A field of exact identities turns nothing: the state's bytes come back, in a new array."""
        s = StateVector(5, random_state(5, np.random.default_rng(8)))
        out = apply_local_unitary(s, np.tile(np.eye(2), (5, 1, 1)))
        assert out.amplitudes.tobytes() == s.amplitudes.tobytes()
        assert not np.shares_memory(out.amplitudes, s.amplitudes)

    def test_hadamard_pair_gives_uniform_state(self):
        """H on each qubit of |00> produces the uniform two-qubit state."""
        s = apply_local_unitary(make_basis_state(2, 0), [HADAMARD, HADAMARD])
        np.testing.assert_allclose(s.amplitudes, np.full(4, 0.5), rtol=0, atol=1e-15, equal_nan=False)
        np.testing.assert_allclose(s.amplitudes, brs_state(2, 0.0).amplitudes, rtol=0, atol=1e-15, equal_nan=False)

    def test_qubit_out_of_range(self):
        """A matrix for a qubit the state does not have is refused by the field's shape."""
        with pytest.raises(ValueError, match=r"^expected unitaries of shape \(2, 2, 2\), got shape \(3, 2, 2\)$"):
            apply_local_unitary(make_basis_state(2, 0), [SX, SX, SX])

    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_dense_operator(self, m, monkeypatch):
        """Every qubit turned, against the kron-built operator of ``tests/oracles.py``.

        Within ``metric._turn_gap`` of the plan plus the oracle's share, in
        blocks of 2^1 to 2^3 amplitudes, plans of a low pass and up to 7 runs
        of row bits, and at the default budget, one pass.
        """
        rng = np.random.default_rng(11 + m)
        s = StateVector(m, random_state(m, rng))
        u = _haar_field(m, rng)
        expected = dense_local_operator(u) @ s.amplitudes
        for block_bits in [1, 2, 3, qstate._block_bits(qstate.ROW_BITS)]:
            monkeypatch.setattr(qstate, "_block_bits", lambda k, b=block_bits: b)
            out = apply_local_unitary(s, u)
            bound = _turn_gap(qstate._dress_passes(m)) + dense_local_share(m)
            assert np.linalg.norm(out.amplitudes - expected) <= bound, block_bits

    @pytest.mark.parametrize("qubit", range(5))
    def test_one_qubit_field_matches_dense_operator(self, qubit, monkeypatch):
        """A field that turns one qubit of five matches the dense one-qubit operator.

        In blocks of 2^2 the plan is a low pass (0, 1) and runs (2, 3) and
        (4,), so each qubit's turn runs beside identities in a pass of its own
        kind.
        """
        monkeypatch.setattr(qstate, "_block_bits", lambda k: 2)
        rng = np.random.default_rng(19 + qubit)
        s = StateVector(5, random_state(5, rng))
        u = _haar_unitary(rng)
        out = apply_local_unitary(s, _one_qubit_field(5, qubit, u))
        expected = dense_qubit_operator(5, qubit, u) @ s.amplitudes
        np.testing.assert_allclose(out.amplitudes, expected, rtol=0, atol=1e-15, equal_nan=False)

    @pytest.mark.parametrize("qubit", [0, 1, 2, 7, 11])
    def test_one_qubit_field_turns_only_the_pass_that_names_it(self, qubit, monkeypatch, rotations):
        """At M = 12 in blocks of 2^2 the plan is a low pass (0, 1) and five runs of two, each
        of 2^10 blocks of four amplitudes.  The passes whose qubits all take the identity are
        held, so ``_rotate`` turns only the blocks of the pass that names the qubit."""
        monkeypatch.setattr(qstate, "_block_bits", lambda k: 2)
        assert len(qstate._dress_passes(12)) == 6
        rng = np.random.default_rng(31 + qubit)
        s = StateVector(12, random_state(12, rng))
        u = _haar_unitary(rng)
        out = apply_local_unitary(s, _one_qubit_field(12, qubit, u))
        assert rotations == [4] * (1 << 10)
        expected = np.einsum("ij,ajb->aib", u, s.amplitudes.reshape(1 << (11 - qubit), 2, 1 << qubit))
        np.testing.assert_allclose(out.amplitudes, expected.reshape(-1), rtol=0, atol=1e-15, equal_nan=False)

    def test_identity_field_turns_no_block(self, monkeypatch, rotations):
        """At M = 12 in blocks of 2^2, six passes, a field of exact identities holds every pass:
        no ``_rotate`` call, and the state's bytes come back."""
        monkeypatch.setattr(qstate, "_block_bits", lambda k: 2)
        s = StateVector(12, random_state(12, np.random.default_rng(12)))
        out = apply_local_unitary(s, np.tile(np.eye(2), (12, 1, 1)))
        assert not rotations
        assert out.amplitudes.tobytes() == s.amplitudes.tobytes()

    @pytest.mark.parametrize("m", [5, 18])
    def test_is_the_dressing_of_the_invariance_check(self, m):
        """The field of one trial's Haar draws gives the bytes of ``verify._dressings``: one local-unitary turn.

        At M = 18 the plan is a low pass of 17 qubits and a run of one.
        """
        s = StateVector(m, random_state(m, np.random.default_rng(m)))
        (dressed,) = _dressings(s, 1, 23)
        out = apply_local_unitary(s, _haar_field(m, np.random.default_rng(23)))
        assert out.amplitudes.tobytes() == dressed.tobytes()

    @pytest.mark.parametrize("m", range(1, 9))
    def test_haar_fields_are_accepted(self, m):
        """Fields of ``_haar_unitary`` draws keep every turned state within ``NORM_TOL``."""
        rng = np.random.default_rng(40 + m)
        s = StateVector(m, random_state(m, rng))
        for _ in range(20):
            apply_local_unitary(s, _haar_field(m, rng))

    @pytest.mark.parametrize("m", [3, 8])
    @pytest.mark.parametrize("worst", [0, 2])
    def test_field_that_moves_the_norm_is_refused_as_the_field(self, m, worst):
        """A field that ``validate_unitaries`` accepts can move the norm past ``NORM_TOL``; the error says so.

        U = [[1, t], [0, 1]], t = UNIT_TOL / 2, has max |U^H U - I| = t and
        scales its top eigenvector of U^H U by |.|^2 = 1 + t + O(t^2); on
        every qubit of the product of those eigenvectors the squared norm
        grows by about M t, past NORM_TOL from M = 3.  Qubit ``worst`` takes
        t = 0.9 UNIT_TOL in place of UNIT_TOL / 2, and the message names it.
        """
        field = np.array([[[1.0, UNIT_TOL / 2], [0.0, 1.0]]] * m, dtype=complex)
        field[worst, 0, 1] = 0.9 * UNIT_TOL
        amps = np.ones(1)
        for u in field:
            amps = np.kron(np.linalg.eigh(u.conj().T @ u)[1][:, -1], amps)
        state = StateVector(m, amps)
        with pytest.raises(ValueError) as err:
            apply_local_unitary(state, field)
        match = re.fullmatch(
            r"the field moved the norm: sum \|c_k\|\^2 = (\S+) before the turn and (\S+) after; "
            r"qubit (\d+) has the largest max \|U\^H U - I\|, (\S+)",
            str(err.value),
        )
        assert match is not None, str(err.value)
        before, after, qubit, defect = float(match[1]), float(match[2]), int(match[3]), float(match[4])
        assert abs(before - 1.0) <= NORM_TOL < abs(after - 1.0)
        growth = np.prod([np.linalg.eigvalsh(u.conj().T @ u)[-1] for u in field])
        assert after == pytest.approx(before * growth, rel=0, abs=1e-15)
        assert (qubit, defect) == (worst, float(np.abs(field[worst].conj().T @ field[worst] - np.eye(2)).max()))

    def test_norm_preserved_along_chain(self):
        rng = np.random.default_rng(5)
        s = StateVector(4, random_state(4, rng))
        for step in range(20):
            s = apply_local_unitary(s, _one_qubit_field(4, step % 4, _haar_unitary(rng)))
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12

    def test_commutes_on_distinct_qubits(self):
        """Qubit 0 then qubit 2, qubit 2 then qubit 0, and both in one field agree."""
        rng = np.random.default_rng(17)
        s = StateVector(3, random_state(3, rng))
        ua, ub = _one_qubit_field(3, 0, _haar_unitary(rng)), _one_qubit_field(3, 2, _haar_unitary(rng))
        ab = apply_local_unitary(apply_local_unitary(s, ua), ub)
        ba = apply_local_unitary(apply_local_unitary(s, ub), ua)
        both = apply_local_unitary(s, ua @ ub)
        np.testing.assert_allclose(ab.amplitudes, ba.amplitudes, rtol=0, atol=1e-12, equal_nan=False)
        np.testing.assert_allclose(both.amplitudes, ab.amplitudes, rtol=0, atol=1e-12, equal_nan=False)


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------


class TestPauliExpectation:
    """<v . sigma> of one qubit is the kernel's Bloch vector dotted with v."""

    def test_sigma3_eigenstates(self):
        assert _expectation(make_basis_state(1, 0), 0, Z) == pytest.approx(1.0, abs=1e-15)
        assert _expectation(make_basis_state(1, 1), 0, Z) == pytest.approx(-1.0, abs=1e-15)

    def test_sigma1_eigenstate(self):
        plus = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2))
        assert _expectation(plus, 0, X) == pytest.approx(1.0, abs=1e-15)


class TestPauliPairCorrelation:
    """<(va . sigma^a)(vb . sigma^b)> from the metric's covariance entry."""

    def test_factorizes_on_product_states(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            s = StateVector(3, random_product_state(3, rng))
            va = _unit(rng.normal(size=3))
            vb = _unit(rng.normal(size=3))
            corr = _pair_correlation(s, 0, va, 2, vb)
            product = _expectation(s, 0, va) * _expectation(s, 2, vb)
            assert abs(corr - product) < 1e-12


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------


class TestRandomLocalUnitary:
    """``_haar_unitary``, the sampler of ``verify.invariance_check``'s dressings."""

    def test_deterministic_by_seed(self):
        np.testing.assert_array_equal(
            _haar_unitary(np.random.default_rng(0)), _haar_unitary(np.random.default_rng(0))
        )

    def test_unitarity(self):
        """Each draw's singular values lie within ``verify.HAAR_DRAW_GAP`` of 1, the gap ``invariance_tol`` takes a draw.

        They come from u^H u in extended precision; the largest gap seen over 2 10^6 draws is 10.6 u.
        """
        rng = np.random.default_rng(2025)
        u = np.array([_haar_unitary(rng) for _ in range(10_000)]).astype(np.clongdouble)
        gram = np.swapaxes(u.conj(), 1, 2) @ u
        a, d, b = gram[:, 0, 0].real, gram[:, 1, 1].real, gram[:, 0, 1]
        radius = np.sqrt(((a - d) / 2) ** 2 + b.real**2 + b.imag**2)
        singular = np.sqrt(np.concatenate([(a + d) / 2 - radius, (a + d) / 2 + radius]))
        assert np.max(np.abs(singular - 1)) <= HAAR_DRAW_GAP

    def test_haar_first_moment(self):
        """|U00|^2 is uniform on [0, 1] under Haar, so its mean is 1/2."""
        rng = np.random.default_rng(2024)
        samples = np.array([abs(_haar_unitary(rng)[0, 0]) ** 2 for _ in range(10_000)])
        assert abs(samples.mean() - 0.5) < 0.02


class TestSpinSigns:
    """``_signs``, the sign tables of ``_spin_moments``, built once per size."""

    @pytest.mark.parametrize("n", [1, 5, 9])
    def test_the_same_read_only_table_on_a_second_call(self, n):
        table = _signs(n)
        assert _signs(n) is table
        assert not table.flags.writeable
        expected = [[-1.0 if (i >> t) & 1 else 1.0 for t in range(n)] for i in range(1 << n)]
        assert table.tolist() == expected
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = -1.0


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
        np.testing.assert_allclose(loaded.amplitudes, s.amplitudes, rtol=0, atol=1e-15, equal_nan=False)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(StateFileError):
            read_state_file(path)

    @pytest.mark.parametrize(
        "re, im",
        [('["1", 0]', "[0, 0]"), ("[true, 0]", "[false, 0]"), ('["nan", 0]', "[0, 0]"),
         ("[[1], [0]]", "[0, 0]")],
        ids=["string", "boolean", "string-nan", "nested"],
    )
    def test_entries_must_be_json_numbers(self, re, im, tmp_path):
        """numpy would parse these entries; a state file takes JSON numbers only."""
        path = tmp_path / "bad.json"
        path.write_text(f'{{"m": 1, "re": {re}, "im": {im}}}')
        with pytest.raises(StateFileError, match="amplitude entries are not numbers$"):
            read_state_file(path)

    @pytest.mark.parametrize(
        "re, im",
        [("[1, 0, 0]", "[0, 0, 0]"), ("[1]", "[0]"), ("[1, 0]", "[0]"), ('{"0": 1, "1": 0}', "[0, 0]"),
         ("1", "0")],
        ids=["long", "short", "im-short", "object", "number"],
    )
    def test_re_and_im_must_be_arrays_of_2_to_the_m(self, re, im, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"m": 1, "re": {re}, "im": {im}}}')
        with pytest.raises(StateFileError) as err:
            read_state_file(path)
        assert str(err.value) == f'state file {path}: "re" and "im" must be arrays of length 2**m'

    def test_integer_beyond_float_range(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"m": 1, "re": [1{"0" * 400}, 0], "im": [0, 0]}}')
        with pytest.raises(StateFileError, match="int too large to convert to float$"):
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
