"""The array-first bilinear kernel: batches, per-state wrappers, the surface."""
from __future__ import annotations

import os
import subprocess
import sys
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
from entdist.cli import run_surface
from entdist.metric import measure_from_bilinears
from entdist.qstate import bilinears, validate_amplitudes

from oracles import random_state, w_triples_literal


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


def test_qubit_subset_matches_full_kernel():
    amps = random_state(6, np.random.default_rng(5))
    w_minus, w_3 = bilinears(amps)
    sub_minus, sub_3 = bilinears(amps, (4, 1))
    np.testing.assert_array_equal(sub_minus, w_minus[[4, 1]])
    np.testing.assert_array_equal(sub_3, w_3[[4, 1]])


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # np.linspace on an infinite range
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


def test_import_does_not_load_scipy():
    code = "import sys, entdist; print('scipy' in sys.modules)"
    src = str(Path(entdist.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
