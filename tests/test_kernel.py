"""The array-first bilinear kernel: batches, per-state wrappers, the surface."""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import entdist
from entdist import (
    FamilySpec,
    StateVector,
    brs_state,
    entanglement_measure,
    family_state,
    ghzl_state,
    w_vectors,
)
from entdist import qstate
from entdist.cli import run_surface
from entdist.metric import measure_from_bilinears
from entdist.qstate import bilinears, row_depth, validate_amplitudes

from oracles import bilinears_extended, random_state, w_triples_literal

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
    state is one row, M <= ROW_BITS.
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


class TestRowWalkedKernel:
    """``bilinears`` walks the state in rows of 2**min(M, ROW_BITS) amplitudes."""

    @pytest.mark.parametrize("m", range(1, 15))
    def test_one_row_is_bit_identical_to_whole_vector_einsum(self, m):
        rng = np.random.default_rng(600 + m)
        batch = _stacked_batch(m, rng)
        for amps in [*batch, batch]:
            for got, expected in zip(bilinears(amps), _whole_vector_bilinears(amps)):
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("row_bits", [1, 2, 3])
    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
    def test_short_rows_match_literal_sums(self, monkeypatch, row_bits, m):
        """Rows of 2, 4 and 8 amplitudes run every partner-row pattern."""
        monkeypatch.setattr(qstate, "ROW_BITS", row_bits)
        batch = _stacked_batch(m, np.random.default_rng(700 + 10 * row_bits + m))
        w_minus, w_3 = bilinears(batch)
        for i, amps in enumerate(batch):
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

    @pytest.mark.parametrize("m", [15, 16])
    def test_many_rows_match_extended_precision(self, m):
        """At 15 and 16 qubits the kernel walks 2 and 4 rows of 2^14 amplitudes.

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
    assert rows == expected


@pytest.mark.parametrize(
    "gamma_range, tau_range, angle",
    [
        ((0.0, np.inf), (0.0, 1.0), "gamma"),
        ((0.0, 1.0), (0.0, np.inf), "tau"),
        ((0.0, np.inf), (0.0, np.inf), "gamma"),
        ((-1e308, 1e308), (0.0, 1.0), "gamma"),
        ((0.0, 1.0), (-np.inf, 0.0), "tau"),
    ],
)
def test_surface_rejects_non_finite_range(gamma_range, tau_range, angle):
    """The first non-finite angle of the grid is refused as FamilySpec refuses it."""
    with pytest.raises(ValueError, match=f"^angle '{angle}' must be finite$"):
        run_surface(gamma_range, tau_range, 4)


def _run_python(code: str) -> subprocess.CompletedProcess:
    src = str(Path(entdist.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_import_does_not_load_scipy():
    out = _run_python("import sys, entdist; print('scipy' in sys.modules)")
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
    out = _run_python(code)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["passed"] is True
