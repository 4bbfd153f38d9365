"""The array-first bilinear kernel: batches, per-state wrappers, the surface."""
from __future__ import annotations

import json
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
    w_vectors,
)
from entdist import qstate
from entdist.cli import run_surface
from entdist.families import three_qubit_amplitudes
from entdist.metric import measure_from_bilinears
from entdist.qstate import bilinears, row_depth, validate_amplitudes

from child import python_child
from oracles import bilinears_extended, random_state, signed_zero_batch, w_triples_literal

U = np.finfo(float).eps / 2


def _stacked_batch(m: int, rng: np.random.Generator) -> np.ndarray:
    """Rows of chain-phase, GHZ-like and Haar states of m qubits."""
    rows = [random_state(m, rng) for _ in range(3)]
    if m >= 2:
        rows += [brs_state(m, phi).amplitudes for phi in rng.uniform(0.0, 2.0 * np.pi, 3)]
        rows += [
            ghzl_state(m, theta, phase).amplitudes
            for theta, phase in rng.uniform(0.0, 2.0 * np.pi, (3, 2))
        ]
    return np.array(rows)


@pytest.mark.parametrize("m", range(1, 13))
def test_batch_rows_equal_single_states_bit_for_bit(m):
    batch = _stacked_batch(m, np.random.default_rng(300 + m))
    w_minus, w_3 = bilinears(batch)
    measures = measure_from_bilinears(w_minus, w_3)
    assert w_minus.shape == w_3.shape == (len(batch), m)
    for i, amps in enumerate(batch):
        wm_i, w3_i = bilinears(amps)
        np.testing.assert_array_equal(w_minus[i], wm_i)
        np.testing.assert_array_equal(w_3[i], w3_i)
        assert measures[i] == measure_from_bilinears(wm_i, w3_i)
        assert measures[i] == entanglement_measure(StateVector(m, amps))


@pytest.mark.parametrize("m", [1, 2, 3, 5, 7])
def test_kernel_and_w_vectors_match_literal_sums(m):
    batch = _stacked_batch(m, np.random.default_rng(400 + m))
    w_minus, w_3 = bilinears(batch)
    for i, amps in enumerate(batch):
        expected = w_triples_literal(amps, m)
        ws_minus, ws_3 = w_vectors(StateVector(m, amps))
        for nu, (wm, wp, w3) in enumerate(expected):
            assert abs(w_minus[i, nu] - wm) < 1e-13
            assert abs(w_3[i, nu] - w3) < 1e-13
            assert abs(ws_minus[nu] - wm) < 1e-13
            assert abs(np.conj(ws_minus[nu]) - wp) < 1e-13
            assert abs(ws_3[nu] - w3) < 1e-13


def _whole_vector_bilinears(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One einsum and two sums per qubit over the whole state, in one pass each.

    The arithmetic that ``bilinears`` must reproduce bit for bit when the
    state is one row, M <= ROW_BITS.  Each qubit's einsum reads its own
    conjugated copy of the upper half of its pairs, where ``bilinears``
    conjugates the whole batch once.
    """
    m = amps.shape[-1].bit_length() - 1
    probs = np.abs(amps) ** 2
    w_minus = np.empty(amps.shape[:-1] + (m,), dtype=np.complex128)
    w_3 = np.empty(amps.shape[:-1] + (m,))
    for nu in range(m):
        shape = amps.shape[:-1] + (1 << (m - 1 - nu), 2, 1 << nu)
        view, pview = amps.reshape(shape), probs.reshape(shape)
        w_minus[..., nu] = np.einsum("...ab,...ab->...", np.conj(view[..., 1, :]), view[..., 0, :])
        w_3[..., nu] = np.sum(pview[..., 0, :], axis=(-2, -1)) - np.sum(pview[..., 1, :], axis=(-2, -1))
    return w_minus, w_3


def test_one_conjugate_is_byte_equal_on_the_surface_grid():
    """The 101 x 101 three-qubit grid of ``run_surface``, one batch of 10201 states."""
    grid = np.linspace(0.0, np.pi, 101)
    amps = three_qubit_amplitudes(grid, grid)
    for got, expected in zip(bilinears(amps), _whole_vector_bilinears(amps)):
        assert got.tobytes() == expected.tobytes()


_SHORT_ROWS = (
    [(m, row_bits) for m in range(3, 9) for row_bits in (1, 2, 3)]
    + [(m, row_bits) for row_bits in (4, 5, 6) for m in (row_bits + 1, row_bits + 3)]
    + [(8, 7), (9, 7)]
)


class TestRowWalkedKernel:
    """``bilinears`` walks the state in rows of 2**min(M, ROW_BITS) amplitudes."""

    @pytest.mark.parametrize("m", range(1, 15))
    def test_one_row_is_bit_identical_to_whole_vector_einsum(self, m):
        """Family and Haar states, alone and as a batch, and a sweep chunk's worth of states.

        The chunk, 2^ROW_BITS amplitudes, has about a third of its parts
        +0.0 or -0.0, and is read as a batch and its first state alone.
        The batch is read in Fortran order too, against the reference on
        its C-ordered copy.  At M <= 4, six of the chunk's states are read
        as a (2, 3) batch: M <= 3 sums the halves term by term, the batch
        innermost, and M = 4 keeps numpy's sums.
        """
        rng = np.random.default_rng(600 + m)
        batch = _stacked_batch(m, rng)
        chunk = signed_zero_batch(m, max(1, (1 << qstate.ROW_BITS) >> m), rng)
        cases = [(amps, amps) for amps in [*batch, batch, chunk[0], chunk]]
        cases.append((np.asfortranarray(batch), batch))
        if m <= 4:
            cases.append((chunk[:6].reshape(2, 3, -1),) * 2)
        for amps, reference in cases:
            for got, expected in zip(bilinears(amps), _whole_vector_bilinears(reference)):
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "m, row_bits", _SHORT_ROWS, ids=[f"{m}-{row_bits}" for m, row_bits in _SHORT_ROWS]
    )
    def test_short_rows_match_literal_sums(self, monkeypatch, row_bits, m):
        """Rows of 2, 4 and 8 amplitudes run every partner-row pattern, rows of 16 to 128 the runs.

        A row of k bits is copied transposed at its split hi = k // 2, lo =
        k - hi: rows of 4, 16 and 64 amplitudes split evenly, rows of 2, 8, 32
        and 128 do not, so the low qubits' runs in the copy and the row's
        own runs meet at both kinds of split.  Each state is read alone and
        in the batch.
        """
        monkeypatch.setattr(qstate, "ROW_BITS", row_bits)
        batch = _stacked_batch(m, np.random.default_rng(700 + 10 * row_bits + m))
        w_minus, w_3 = bilinears(batch)
        for i, amps in enumerate(batch):
            wm_i, w3_i = bilinears(amps)
            assert w_minus[i].tobytes() == wm_i.tobytes()
            assert w_3[i].tobytes() == w3_i.tobytes()
            for nu, (wm, _, w3) in enumerate(w_triples_literal(amps, m)):
                assert abs(w_minus[i, nu] - wm) <= 1e-15
                assert abs(w_3[i, nu] - w3) <= 1e-15

    @pytest.mark.parametrize("m", [4, 6, 9])
    def test_multi_row_batch_rows_equal_single_states(self, monkeypatch, m):
        monkeypatch.setattr(qstate, "ROW_BITS", 2)
        batch = _stacked_batch(m, np.random.default_rng(800 + m))
        w_minus, w_3 = bilinears(batch)
        for i, amps in enumerate(batch):
            wm_i, w3_i = bilinears(amps)
            assert w_minus[i].tobytes() == wm_i.tobytes()
            assert w_3[i].tobytes() == w3_i.tobytes()

    def test_working_memory_is_a_few_rows(self):
        """At M = 18 the whole-vector kernel held 4 MiB of temporaries, one state's worth."""
        amps = brs_state(18, 0.3).amplitudes
        tracemalloc.start()
        try:
            bilinears(amps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * (1 << qstate.ROW_BITS) * 16  # four rows of complex128

    @pytest.mark.parametrize("m", [15, 16, 17, 18])
    def test_many_rows_match_extended_precision(self, m):
        """At 15 to 18 qubits the kernel walks 2 to 16 rows of 2^14 amplitudes.

        Each bilinear is a sum whose terms add up to at most 1 in magnitude,
        so its rounding is at most (row_depth(m) + 3) u (see ``verify.bloch_tol``),
        and E's, a sum over m qubits of squares, at most 2 m of that.
        """
        rng = np.random.default_rng(900 + m)
        states = [brs_state(m, 0.3), ghzl_state(m, 0.7, 0.2), StateVector(m, random_state(m, rng))]
        for s in states:
            w_minus, w_3 = bilinears(s.amplitudes)
            ref_minus, ref_3 = bilinears_extended(s.amplitudes, m)
            bound = (row_depth(m) + 3) * U
            assert float(np.max(np.abs(w_minus - ref_minus))) <= bound
            assert float(np.max(np.abs(w_3 - ref_3))) <= bound
            ref_e = 0.25 * (m - np.sum(ref_3**2 + 4 * np.abs(ref_minus) ** 2))
            assert abs(entanglement_measure(s) - float(ref_e)) <= 2 * m * bound

    def test_degenerate_state_gets_z_and_the_closed_form(self):
        """GHZ (ghzl theta = pi/4) at 16 qubits: every Bloch vector vanishes across 4 rows."""
        spec = FamilySpec("ghzl", m=16, theta=np.pi / 4)
        em = entanglement_metric(family_state(spec))
        np.testing.assert_array_equal(em.directions, np.tile([0.0, 0.0, 1.0], (16, 1)))
        assert em.measure == closed_form_E(spec).value


@pytest.mark.parametrize("m", [3, 7, 9])
def test_measure_keeps_the_per_qubit_sum_in_qubit_order(m):
    """E equals Python's sum of the per-qubit w_3^2 + 4 |w_minus|^2, to the bit."""
    rng = np.random.default_rng(500 + m)
    for amps in _stacked_batch(m, rng):
        state = StateVector(m, amps)
        w_minus, w_3 = w_vectors(state)
        total = sum(w3**2 + 4.0 * abs(wm) ** 2 for wm, w3 in zip(w_minus.tolist(), w_3.tolist()))
        assert entanglement_measure(state) == max(0.0, 0.25 * (m - total))


def test_validation_is_row_wise():
    batch = np.array([brs_state(3, 0.4).amplitudes] * 3)
    validate_amplitudes(batch)
    batch[1] *= 1.001
    with pytest.raises(ValueError, match=r"not normalized: sum \|c_k\|\^2 = 1.002001"):
        validate_amplitudes(batch)
    batch[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        validate_amplitudes(batch)


def test_surface_equals_per_point_measure():
    gammas = np.linspace(0.1, 2.9, 7)
    taus = np.linspace(-0.4, 3.3, 7)
    header, rows = run_surface((0.1, 2.9), (-0.4, 3.3), 7)
    assert header == ["gamma", "tau", "E_over_3"]
    expected = [
        [float(g), float(t), entanglement_measure(family_state(
            FamilySpec("threeq", gamma=float(g), tau=float(t)))) / 3.0]
        for g in gammas
        for t in taus
    ]
    assert rows.tolist() == expected


@pytest.mark.parametrize(
    "gamma_range, tau_range, angle",
    [
        ((0.0, np.inf), (0.0, 1.0), "gamma"),
        ((0.0, 1.0), (0.0, np.inf), "tau"),
        ((0.0, np.inf), (0.0, np.inf), "gamma"),
        ((-1e308, 1e308), (0.0, 1.0), "gamma"),
        ((0.0, 1.0), (-np.inf, 0.0), "tau"),
        ((np.nan, 1.0), (0.0, 1.0), "gamma"),
    ],
)
def test_surface_rejects_non_finite_range(gamma_range, tau_range, angle):
    """The first range whose span is not finite, a NaN bound included, is refused by angle."""
    start, stop = gamma_range if angle == "gamma" else tau_range
    with pytest.raises(ValueError) as err:
        run_surface(gamma_range, tau_range, 4)
    assert str(err.value) == (
        f"angle '{angle}' range must be finite, got start = {start!r}, stop = {stop!r}"
    )


def test_import_does_not_load_scipy():
    out = python_child(["-c", "import sys, entdist; print('scipy' in sys.modules)"], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_verify_runs_without_scipy():
    """With scipy unimportable, ``entdist verify`` still runs its three oracles and passes."""
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from entdist.cli import main\n"
        "sys.exit(main(['verify', '--family', 'brs', '--m', '5', '--trials', '5']))\n"
    )
    out = python_child(["-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["passed"] is True
