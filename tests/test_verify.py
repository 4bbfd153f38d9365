"""Numeric oracles: trace descent, partial-trace Bloch vectors, invariance."""
from __future__ import annotations

import tracemalloc

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
from entdist import qstate, verify
from entdist.verify import HAAR_DRAW_GAP, _dressings, _oracle_depth, bloch_tol, invariance_tol, optimizer_tol
from entdist.metric import _turn_gap, measure_tol
from entdist.qstate import (
    ROW_BITS,
    _block_bits,
    _dress,
    _dress_passes,
    _haar_unitary,
    bloch_vectors,
)

from oracles import bilinears_extended, random_state
from test_identity_frames import top_haar_state
from test_support import w_state

U = np.finfo(float).eps / 2


class TestMinimizeTraceNumeric:
    def test_separable_minimum_is_zero(self):
        report = minimize_trace_numeric(make_basis_state(3, 0), seed=1)
        assert report.value < 1e-9

    def test_ghz_three_qubits(self):
        report = minimize_trace_numeric(ghzl_state(3, np.pi / 4), seed=2)
        assert report.value == pytest.approx(3 / 4, abs=1e-6)

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
                report = minimize_trace_numeric(s, seed=int(rng.integers(1 << 30)))
                assert report.value >= entanglement_measure(s) - 1e-9

    def test_directions_evaluate_to_reported_value(self):
        s = brs_state(4, 2.0)
        report = minimize_trace_numeric(s, seed=3)
        assert distance_density(s, report.directions) == pytest.approx(
            report.value, abs=1e-10
        )

    def test_step_cap_reports_no_convergence(self, monkeypatch):
        """``converged`` is False exactly when the ascent stops at ``MAX_STEPS``."""
        s = brs_state(4, 2.0)
        full = minimize_trace_numeric(s, seed=3)
        assert full.converged and 1 <= full.iterations < verify.MAX_STEPS
        monkeypatch.setattr(verify, "MAX_STEPS", full.iterations - 1)
        capped = minimize_trace_numeric(s, seed=3)
        assert not capped.converged
        assert capped.iterations == full.iterations - 1

    def test_vanishing_bloch_vectors_need_no_step(self):
        """Every direction is optimal for a qubit whose b is exactly 0: no row moves.

        The GHZ state's two amplitudes are the same float, so each b is 0
        exactly; ``ghzl_state(4, pi/4)``'s b is about 1e-16, and its rows
        move to it (``test_tiny_bloch_vectors_raise_no_warning``)."""
        amps = np.zeros(16)
        amps[[0, 15]] = np.sqrt(0.5)
        state = StateVector(4, amps)
        assert not np.any(bloch_vectors(*w_vectors(state)))
        report = minimize_trace_numeric(state, seed=4)
        assert report.converged and report.iterations == 0
        assert report.value == 1.0

    @pytest.mark.parametrize("delta", [3e-3, 1e-3, 1e-4])
    def test_one_start_passes_near_ghz(self, delta):
        """GHZ-like states at theta = pi/4 + delta have |b|^2 = sin^2(2 delta), 3.6e-5 to 4.0e-8
        at M = 16.  One start under an absolute stop rule, |grad| < 1e-8, froze a qubit near
        its equator and failed a 1e-6 check in 3 and 14 of 2000 seeds at delta = 3e-3 and
        1e-3; under the relative rule every seed of 200 passes the derived bound."""
        state = ghzl_state(16, np.pi / 4 + delta)
        bloch = bloch_vectors(*w_vectors(state))
        e = entanglement_measure(state)
        for seed in range(200):
            report = verify._minimize_trace(bloch, seed)
            assert report.converged and abs(report.value - e) < optimizer_tol(16), seed

    @staticmethod
    def _planted(c0: float, m: int = 5, seed: int = 6) -> tuple[np.ndarray, float]:
        """Bloch vectors of |b| 0.2 to 0.9 at cos(theta_0) = c0 from the seed's first start, and E."""
        rng = np.random.default_rng(seed)
        start = rng.normal(size=(m, 3))
        start /= np.linalg.norm(start, axis=1, keepdims=True)
        normal = np.cross(start, rng.normal(size=(m, 3)))
        normal /= np.linalg.norm(normal, axis=1, keepdims=True)
        bloch = np.linspace(0.2, 0.9, m)[:, None] * (c0 * start + np.sqrt(1 - c0**2) * normal)
        return bloch, 0.25 * (m - np.sum(bloch**2))

    def test_start_near_the_equator_converges(self):
        """At cos(theta_0) = 1e-6 c about doubles per step, so the ascent takes 24 steps,
        well within ``MAX_STEPS``."""
        bloch, best = self._planted(1e-6)
        report = verify._minimize_trace(bloch, 6)
        assert report.converged and 20 <= report.iterations < verify.MAX_STEPS
        assert abs(report.value - best) < optimizer_tol(5)

    @pytest.mark.parametrize("c0", [1e-9, 0.0, -4e-9])
    def test_start_on_the_equator_is_drawn_again(self, c0):
        """A first start within ``GRADIENT_TOL``/2 of the equator would pass the stop test at
        once: kept, the ascent took 0 steps and its trace was 0.45 above E."""
        bloch, best = self._planted(c0)
        report = verify._minimize_trace(bloch, 6)
        assert report.converged and 0 < report.iterations < verify.MAX_STEPS
        assert abs(report.value - best) < optimizer_tol(5)
        assert verify._minimize_trace(bloch, 6).directions.tobytes() == report.directions.tobytes()

    def test_tiny_bloch_vectors_raise_no_warning(self):
        """b of size 1e-160, whose |b|^2 is subnormal, 1e-170, whose |b|^2 underflows to 0,
        and a subnormal b: the rows still turn to b/|b|, with no RuntimeWarning (an error here)."""
        rng = np.random.default_rng(8)
        dirs = rng.normal(size=(4, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        bloch = np.array([1e-160, 1e-170, 1e-310, 5e-324])[:, None] * dirs
        report = verify._minimize_trace(bloch, 9)
        assert report.converged and report.value == 1.0
        scaled = bloch / np.max(np.abs(bloch), axis=1, keepdims=True)
        alignment = np.sum(report.directions * scaled, axis=1) / np.linalg.norm(scaled, axis=1)
        np.testing.assert_allclose(np.abs(alignment), 1.0, rtol=0, atol=1e-12, equal_nan=False)
        ghz = minimize_trace_numeric(ghzl_state(4, np.pi / 4), seed=4)
        assert ghz.converged and ghz.value == 1.0


class TestOptimizerCheck:
    @pytest.mark.parametrize("m", [3, 9, 16])
    def test_planted_gap_fails(self, m, monkeypatch):
        """``verify_state`` passes a chain phase state and fails it once its ascent's value
        is moved by M ``optimizer_tol(M)``."""
        state = brs_state(m, 0.3)
        assert verify.verify_state(state, trials=1, seed=0)["passed"]
        ascent = verify._minimize_trace

        def planted(bloch, seed):
            r = ascent(bloch, seed)
            return verify.OptimizerReport(r.value + m * optimizer_tol(m), r.directions, r.converged, r.iterations)

        monkeypatch.setattr(verify, "_minimize_trace", planted)
        record = verify.verify_state(state, trials=1, seed=0)
        assert record["failed_checks"] == ["optimizer"]
        assert record["thresholds"]["optimizer"] == optimizer_tol(m)


class TestBlochVectorOracle:
    def test_zero_state(self):
        np.testing.assert_allclose(bloch_vector_oracle(make_basis_state(1, 0), 0), [0, 0, 1], rtol=0, equal_nan=False)

    def test_ghz_marginals_maximally_mixed(self):
        s = ghzl_state(4, np.pi / 4)
        for qubit in range(4):
            np.testing.assert_allclose(bloch_vector_oracle(s, qubit), np.zeros(3), rtol=0, atol=1e-15, equal_nan=False)

    def test_uniform_state_marginals_point_along_x(self):
        s = brs_state(5, 0.0)
        for qubit in range(5):
            np.testing.assert_allclose(bloch_vector_oracle(s, qubit), [1, 0, 0], rtol=0, atol=1e-14, equal_nan=False)

    def test_norm_bounded_by_one(self):
        rng = np.random.default_rng(202)
        for m in [2, 4]:
            s = StateVector(m, random_state(m, rng))
            for qubit in range(m):
                assert np.linalg.norm(bloch_vector_oracle(s, qubit)) <= 1 + 1e-12

    def test_qubit_range(self):
        with pytest.raises(ValueError):
            bloch_vector_oracle(make_basis_state(2, 0), 2)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_gap_stays_inside_the_derived_threshold(self, m):
        """``verify``'s derived Bloch threshold refuses no valid state.  The
        largest gap seen is 3/14 of ``verify.bloch_tol``, at m = 1 (3 u against 14 u)."""
        rng = np.random.default_rng(205 + m)
        states = [StateVector(m, random_state(m, rng)) for _ in range(12)]
        if m >= 2:
            states += [brs_state(m, phi) for phi in rng.uniform(0.0, 2 * np.pi, 6)]
            states += [ghzl_state(m, theta, 1.1) for theta in rng.uniform(0.0, np.pi, 6)]
        for s in states:
            for nu, b in enumerate(bloch_vectors(*w_vectors(s))):
                assert np.max(np.abs(b - bloch_vector_oracle(s, nu))) <= bloch_tol(m)

    @pytest.mark.parametrize("m", [3, 9, 16])
    def test_planted_gap_fails(self, m, monkeypatch):
        """``verify_state`` passes a chain phase state and fails it once one component
        of the partial trace's Bloch vectors is moved by M ``bloch_tol(M)``."""
        state = brs_state(m, 0.3)
        assert verify.verify_state(state, trials=1, seed=0)["passed"]
        oracle = verify.bloch_vector_oracle

        def planted(state, qubit):
            b = oracle(state, qubit)
            b[2] += m * bloch_tol(m) * (qubit == 0)
            return b

        monkeypatch.setattr(verify, "bloch_vector_oracle", planted)
        record = verify.verify_state(state, trials=1, seed=0)
        assert record["failed_checks"] == ["bloch"]
        assert record["thresholds"]["bloch"] == bloch_tol(m)

    @pytest.mark.parametrize(
        "m, qubits",
        [(12, range(12)), (16, range(16)), (18, [0, ROW_BITS - 1, ROW_BITS, ROW_BITS + 1, 16, 17])],
        ids=["12", "16", "18-chunk-boundaries"],
    )
    def test_pairwise_oracle_error_within_its_depth(self, m, qubits):
        """The oracle's share of ``verify.bloch_tol``: its nested pairwise sums, of depth
        n = ``_oracle_depth(m)``, are off by at most (n + 3) u from an extended-precision
        reference.  At m = 18 the half-views are chunked by whole runs below qubit
        ROW_BITS = 14, by one run at it and by pieces of runs above it, and 8 chunk
        partials are summed; at m = 16 there are 2, at m = 12 one."""
        s = StateVector(m, random_state(m, np.random.default_rng(206 + m)))
        w_minus, w_3 = bilinears_extended(s.amplitudes, m)
        reference = np.stack([2 * w_minus.real, -2 * w_minus.imag, w_3], axis=-1)
        for nu in qubits:
            gap = np.max(np.abs(bloch_vector_oracle(s, nu) - reference[nu]))
            assert float(gap) <= (_oracle_depth(m) + 3) * U

    def test_the_oracle_reads_the_row_width_at_call_time(self, monkeypatch):
        """Rows of 2^3: the partial trace sums chunks of 2^3 pairs, so at M = 8 its depth is
        a chunk's sum of 2^4 terms and then the sum of 2^4 partials, and a Haar state passes
        the Bloch check against the kernel's bilinears in rows of 2^3."""
        monkeypatch.setattr(qstate, "ROW_BITS", 3)
        assert _oracle_depth(8) == verify._sum_depth(4) + verify._sum_depth(4)
        s = StateVector(8, random_state(8, np.random.default_rng(208)))
        record = verify.verify_state(s, trials=1, seed=0)
        assert "bloch" not in record["failed_checks"]
        assert record["bloch_gap"] < bloch_tol(8)

    def test_oracle_holds_no_more_than_a_chunk(self):
        """At M = 20 the partial trace reads the 16 MiB state in place: its chunk
        buffers, 2^14 complex products and 2^15 squares, take 0.5 MiB (0.50-0.63 MiB
        measured).  Half-state temporaries took 8 MiB each."""
        s = brs_state(20, 0.3)
        reduced_density_matrix(s, 0)
        tracemalloc.start()
        try:
            peaks = []
            for nu in [0, 3, ROW_BITS - 1, ROW_BITS, 19]:
                tracemalloc.reset_peak()
                reduced_density_matrix(s, nu)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert max(peaks) <= 2**20

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


_INVARIANCE_STATES = {
    "haar": lambda m: StateVector(m, random_state(m, np.random.default_rng(700 + m))),
    "brs": lambda m: brs_state(m, 1.1),
    "ghzl": lambda m: ghzl_state(m, 0.7, 0.2),
    "w": w_state,
    "basis": lambda m: make_basis_state(m, (1 << m) // 3),
}


class TestInvarianceCheck:
    @pytest.mark.parametrize(
        "m, build, trials, seed",
        [
            pytest.param(
                m, _INVARIANCE_STATES[kind], 10 if m <= 16 else 2, m, marks=[pytest.mark.slow] * (m > 16),
                id=f"{kind}-{m}",
            )
            for m in [*range(1, 17), 18, 20, 22, 24]
            for kind in _INVARIANCE_STATES
            if m > 1 or kind not in ("brs", "ghzl")
        ]
        + [
            pytest.param(4, lambda m: make_basis_state(m, 0), 50, 11, id="separable-4"),
            pytest.param(4, lambda m: ghzl_state(m, np.pi / 4), 100, 12, id="ghz-4"),
            pytest.param(5, lambda m: brs_state(m, 1.3), 100, 13, id="chain-phase-5"),
        ],
    )
    def test_deviation_stays_below_the_derived_threshold(self, m, build, trials, seed):
        """``verify``'s derived invariance threshold refuses no valid state: 10 dressings
        each up to M = 16, 2 at M = 18-24 (slow), and 50 or 100 for |0000>, GHZ and a chain
        phase state.  Over 50 dressings a case, the largest deviation seen is 11% of the
        bound (3.6e-16 at M = 1, Haar), at most 2.0% from M = 4 on and 0.07% at M = 18-24."""
        assert invariance_check(build(m), trials, seed) < invariance_tol(m)

    def test_deterministic_by_seed(self):
        s = brs_state(3, 2.2)
        assert invariance_check(s, trials=20, seed=7) == invariance_check(s, trials=20, seed=7)

    @pytest.mark.parametrize("m", [3, 9, 16])
    def test_planted_gap_fails(self, m, monkeypatch):
        """``verify_state`` passes a chain phase state and fails it once its dressings'
        deviation is moved by M ``invariance_tol(M)``."""
        state = brs_state(m, 0.3)
        assert verify.verify_state(state, trials=1, seed=0)["passed"]
        check = verify._invariance_check
        monkeypatch.setattr(verify, "_invariance_check", lambda *args: check(*args) + m * invariance_tol(m))
        record = verify.verify_state(state, trials=1, seed=0)
        assert record["failed_checks"] == ["invariance"]
        assert record["thresholds"]["invariance"] == invariance_tol(m)

    @pytest.mark.parametrize(
        "name, value, m, passes",
        [
            ("ROW_BITS", 3, 5, 1),
            ("ROW_BITS", 3, 12, 2),
            ("_block_bits", lambda k: 2, 5, 3),
            ("_block_bits", lambda k: 2, 12, 6),
        ],
        ids=["rows-3-5", "rows-3-12", "blocks-2-5", "blocks-2-12"],
    )
    def test_the_bound_takes_the_plan_that_runs(self, name, value, m, passes, monkeypatch):
        """``invariance_tol`` bounds the passes that ``_dress`` runs, read at call time: rows
        of 2^3 give blocks of 2^6, one pass at M = 5 and two at 12; blocks of 2^2 give a
        low pass of two qubits and runs of two, three passes at M = 5 and six at 12."""
        monkeypatch.setattr(qstate, name, value)
        turns, ran = qstate._turns, []

        def spy(work, row_bits, col_bits, *rest):
            ran.append((row_bits, col_bits))
            return turns(work, row_bits, col_bits, *rest)

        monkeypatch.setattr(qstate, "_turns", spy)
        invariance_check(brs_state(m, 0.3), trials=1)
        assert len(ran) == passes
        assert invariance_tol(m) == m * (_turn_gap(ran) + m * HAAR_DRAW_GAP) + 2 * measure_tol(m)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda s: minimize_trace_numeric(s, seed=-1), "seed must be an integer >= 0, got -1"),
        (lambda s: invariance_check(s, trials=0), "trials must be an integer >= 1, got 0"),
        (lambda s: invariance_check(s, trials=1, seed=-1), "seed must be an integer >= 0, got -1"),
    ],
    ids=["minimize-seed", "trials", "invariance-seed"],
)
def test_refusals_come_before_any_pass_over_the_state(call, message, monkeypatch):
    """The public checks validate every argument before they read the state for its E or Bloch vectors."""

    def no_pass(*args):
        raise AssertionError("a pass over the state before the arguments were checked")

    for name in ("w_vectors", "bilinears", "entanglement_measure", "_dressings"):
        monkeypatch.setattr(verify, name, no_pass)
    with pytest.raises(ValueError) as err:
        call(make_basis_state(2, 0))
    assert str(err.value) == message


def _chain(amps: np.ndarray, m: int, unitaries: list[np.ndarray]) -> np.ndarray:
    """The dressing as one two-term einsum pass per qubit: u mixes the amplitude pairs (k, k + 2^q)."""
    for q, u in enumerate(unitaries):
        amps = np.einsum("ij,ajb->aib", u, amps.reshape(1 << (m - 1 - q), 2, 1 << q)).reshape(-1)
    return amps


def _chain_bound(m: int) -> float:
    """Bound on ||dressing - chain||_2 for a unit vector: the gap of the dressing's plan as it
    stands when called, plus the chain's, one qubit a pass."""
    return _turn_gap(_dress_passes(m)) + _turn_gap([(range(q, q + 1), range(0)) for q in range(m)])


def _dressed(amps: np.ndarray, unitaries: list[np.ndarray]) -> np.ndarray:
    """``_dress`` of a copy of ``amps``."""
    work = amps.copy()
    _dress(work, np.array(unitaries))
    return work


class TestDressing:
    """The in-place dressing, a low pass of column bits and runs of row bits over
    ``qstate._turns``' blocks, against the per-qubit chain.  A test sizes the blocks
    by patching ``qstate._block_bits``, which ``_dress_passes`` reads at call time."""

    @pytest.mark.parametrize("m", range(3, 13))
    def test_matches_the_chain_within_its_bound(self, m, monkeypatch):
        """Blocks of 2^2 (runs of two row bits), 2^5 (one or two runs) and the whole state
        (the low pass alone).  The largest gap seen is 4.3e-16, at M = 12; the largest
        share of its bound is 1/46, at M = 3 in blocks of 2^2."""
        rng = np.random.default_rng(300 + m)
        amps = random_state(m, rng)
        unitaries = [_haar_unitary(rng) for _ in range(m)]
        expected = _chain(amps, m, unitaries)
        for block_bits in [2, 5, m]:
            monkeypatch.setattr(qstate, "_block_bits", lambda k, b=block_bits: b)
            assert np.linalg.norm(_dressed(amps, unitaries) - expected) <= _chain_bound(m)

    @pytest.mark.parametrize("m", range(3, 27))
    def test_the_plan_bound_is_no_looser_than_one_pass_of_fours(self, m, monkeypatch):
        """The plan's groups, at the default budget of 2^17, are never looser than the
        fours from qubit 0 over the whole state, a group of four across the low pass's
        edge splits into smaller ones: equal at M <= 17, 21 and 25, below them elsewhere."""
        default = _turn_gap(_dress_passes(m))
        monkeypatch.setattr(qstate, "_block_bits", lambda k: m)
        assert default <= _turn_gap(_dress_passes(m))

    @pytest.mark.parametrize("m", [3, 5, 9])
    def test_draws_one_unitary_per_qubit_from_qubit_0(self, m):
        """Each trial's dressing is the chain of the next M Haar draws of ``seed``'s generator."""
        s = StateVector(m, random_state(m, np.random.default_rng(m)))
        rng = np.random.default_rng(17)
        for dressed in _dressings(s, 3, 17):
            expected = _chain(s.amplitudes, m, [_haar_unitary(rng) for _ in range(m)])
            assert np.linalg.norm(dressed - expected) <= _chain_bound(m)

    @pytest.mark.parametrize("m", [17, 18])
    def test_matches_the_chain_at_the_default_budget(self, m):
        """``_dress``' own blocks, 2^``_block_bits(ROW_BITS)`` = 2^17 amplitudes each:
        the low pass alone at M = 17; at 18 a low pass of two rows and a run of one qubit."""
        s = StateVector(m, random_state(m, np.random.default_rng(400 + m)))
        rng = np.random.default_rng(m)
        (dressed,) = _dressings(s, 1, m)
        expected = _chain(s.amplitudes, m, [_haar_unitary(rng) for _ in range(m)])
        assert np.linalg.norm(dressed - expected) <= _chain_bound(m)

    @pytest.mark.parametrize("kind", ["ghzl", "top-haar"])
    @pytest.mark.parametrize("block_bits", [12, _block_bits(ROW_BITS)])
    def test_blocks_that_hold_no_amplitude_are_skipped(self, kind, block_bits, monkeypatch):
        """At M = 18 a pass yields exactly the blocks that hold amplitude when it reads
        them, and leaves every other block exactly zero.  In blocks of 2^12 the ghzl
        state's low pass turns 2 of its 64 rows and the top-Haar one's 2 of 64, and the
        run of six qubits all 64 blocks; at the default budget both low rows hold
        amplitude, and both blocks of the run.  The dressing matches the chain."""
        m = 18
        monkeypatch.setattr(qstate, "_block_bits", lambda k: block_bits)
        state = ghzl_state(m, 0.7, 0.2) if kind == "ghzl" else top_haar_state(m)
        turns = qstate._turns
        yielded = []

        def spy(work, row_bits, col_bits, u, buffers):
            before, shapes = work.copy(), set()
            yielded.append(0)
            for blk, turned in turns(work, row_bits, col_bits, u, buffers):
                assert blk.any()
                shapes.add(blk.shape)
                yielded[-1] += 1
                yield blk, turned
            ((_, width),) = shapes  # the pass's block width, from the blocks it yielded
            shape = (1 << (m - row_bits.stop), 1 << len(row_bits), (1 << row_bits.start) // width, width)
            held = before.reshape(shape).swapaxes(1, 2).any(axis=(2, 3))  # per (outer, inner) block
            assert yielded[-1] == held.sum()
            assert not work.reshape(shape).swapaxes(1, 2)[~held].any()

        monkeypatch.setattr(qstate, "_turns", spy)
        rng = np.random.default_rng(500)
        unitaries = [_haar_unitary(rng) for _ in range(m)]
        expected = _chain(state.amplitudes, m, unitaries)
        assert np.linalg.norm(_dressed(state.amplitudes, unitaries) - expected) <= _chain_bound(m)
        assert yielded == ([2, 64] if block_bits == 12 else [2, 2])  # the low pass, then the run

    @pytest.mark.slow
    def test_matches_the_chain_at_20_qubits(self):
        """Blocks of 2^17 amplitudes: the low pass over eight rows, then a run of three qubits."""
        m = 20
        s = brs_state(m, 0.3)
        rng = np.random.default_rng(20)
        (dressed,) = _dressings(s, 1, 20)
        expected = _chain(s.amplitudes, m, [_haar_unitary(rng) for _ in range(m)])
        assert np.linalg.norm(dressed - expected) <= _chain_bound(m)

    @pytest.mark.slow
    @pytest.mark.parametrize("m", [22, 24])
    def test_matches_the_chain_with_a_long_high_run(self, m):
        """The run above the low pass's 17 qubits holds 5 qubits at M = 22 and 7 at 24,
        one full group of four and a short one each."""
        s = StateVector(m, random_state(m, np.random.default_rng(600 + m)))
        rng = np.random.default_rng(m)
        (dressed,) = _dressings(s, 1, m)
        expected = _chain(s.amplitudes, m, [_haar_unitary(rng) for _ in range(m)])
        assert np.linalg.norm(dressed - expected) <= _chain_bound(m)
