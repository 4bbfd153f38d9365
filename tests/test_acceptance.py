"""Acceptance suite: every release criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line; run with

    pytest tests/test_acceptance.py -v -s

to see the lines as they are produced.
"""
from __future__ import annotations

import functools
import time
import tracemalloc

import numpy as np

from entdist import (
    StateVector,
    bloch_vector_oracle,
    brs_state,
    distance_density,
    entanglement_measure,
    entanglement_metric,
    ghzl_state,
    invariance_check,
    metric_matrix,
    minimize_trace_numeric,
    spectrum,
    three_qubit_state,
    w_vectors,
)
from entdist.qstate import bloch_vectors

from oracles import random_state


def criterion(number: int, title: str):
    """Print one PASS/FAIL line per criterion, then let pytest record it."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"criterion {number:2d} FAIL  {title}")
                raise
            print(f"criterion {number:2d} PASS  {title}")

        return wrapper

    return decorate


def _mixed_test_states(count: int, max_qubits: int, seed: int) -> list[StateVector]:
    """Deterministic pool drawn from all families plus Haar-random states."""
    rng = np.random.default_rng(seed)
    states = []
    for m in range(2, max_qubits + 1):
        states.append(brs_state(m, 1.3))
        states.append(ghzl_state(m, 0.6, phase=0.9))
    states.append(three_qubit_state(0.5, 1.1))
    states.append(three_qubit_state(1.2, np.pi / 4))
    while len(states) < count:
        m = int(rng.integers(2, max_qubits + 1))
        states.append(StateVector(m, random_state(m, rng)))
    return states[:count]


@criterion(1, "chain-phase closed forms, M=2 and M=3, 401-point grid, 1e-12")
def test_criterion_1_brs_closed_forms():
    phis = np.linspace(0.0, 2.0 * np.pi, 401)
    worst2 = max(
        abs(entanglement_measure(brs_state(2, p)) - np.sin(p / 2.0) ** 2 / 2.0) for p in phis
    )
    worst3 = max(
        abs(
            entanglement_measure(brs_state(3, p))
            - np.sin(p / 2.0) ** 2 * (3.0 + np.cos(p / 2.0) ** 2) / 4.0
        )
        for p in phis
    )
    assert worst2 < 1e-12, f"M=2 worst gap {worst2:.3e}"
    assert worst3 < 1e-12, f"M=3 worst gap {worst3:.3e}"


@criterion(2, "chain-phase endpoints for M in {3,4,7,9}: E(0)=0, E(pi)/M=1/4, flat expectations")
def test_criterion_2_brs_endpoints():
    for m in (3, 4, 7, 9):
        assert entanglement_measure(brs_state(m, 0.0)) < 1e-12
        maximal = brs_state(m, np.pi)
        assert abs(entanglement_measure(maximal) / m - 0.25) < 1e-12
        em = entanglement_metric(maximal)
        bloch = bloch_vectors(*w_vectors(maximal))
        for b, v in zip(bloch, em.directions):
            assert abs(b @ v) < 1e-10


@criterion(3, "GHZ-like: E grid 1e-12, all-ones metric at theta=pi/4, rank-1 spectrum")
def test_criterion_3_ghzl():
    thetas = np.linspace(0.0, np.pi, 181)
    for m in (2, 3, 7):
        worst = max(
            abs(entanglement_measure(ghzl_state(m, t)) - m / 4.0 * np.sin(2.0 * t) ** 2)
            for t in thetas
        )
        assert worst < 1e-12, f"M={m} worst gap {worst:.3e}"
        em = entanglement_metric(ghzl_state(m, np.pi / 4.0))
        assert np.max(np.abs(em.matrix - 0.25 * np.ones((m, m)))) < 1e-12
        assert em.nonnull_count == 1
        assert abs(spectrum(em)[0] - m / 4.0) < 1e-10


@criterion(4, "three-qubit family: 101x101 grid 1e-12 plus classification points")
def test_criterion_4_three_qubit_family():
    grid = np.linspace(0.0, np.pi, 101)
    worst = 0.0
    for gamma in grid:
        s2g = np.sin(2.0 * gamma) ** 2
        for tau in grid:
            s2t = np.sin(2.0 * tau) ** 2
            closed = 0.25 * (2.0 * s2t + 3.0 * s2g * (1.0 - s2t))
            gap = abs(entanglement_measure(three_qubit_state(gamma, tau)) - closed)
            worst = max(worst, gap)
    assert worst < 1e-12, f"worst grid gap {worst:.3e}"
    for gamma in (0.0, np.pi / 2.0):
        for tau in (0.0, np.pi / 2.0):
            assert entanglement_measure(three_qubit_state(gamma, tau)) < 1e-12
    for gamma in (0.0, 0.4, np.pi / 4.0, 1.3):
        ratio = entanglement_measure(three_qubit_state(gamma, np.pi / 4.0)) / 3.0
        assert abs(ratio - 1.0 / 6.0) < 1e-12
        assert 0.0 < ratio < 0.25
    for tau in (0.0, np.pi / 2.0):
        ratio = entanglement_measure(three_qubit_state(np.pi / 4.0, tau)) / 3.0
        assert abs(ratio - 0.25) < 1e-12


@criterion(5, "chain-phase spectrum robustness: M=7, 50 interior angles, 7 eigenvalues > 1e-8")
def test_criterion_5_spectrum_robustness():
    for phi in np.linspace(0.0, 2.0 * np.pi, 52)[1:-1]:
        eigs = spectrum(entanglement_metric(brs_state(7, phi)))
        assert eigs.shape == (7,)
        assert np.all(eigs > 1e-8), f"phi={phi:.4f}: min eig {eigs[-1]:.3e}"


@criterion(6, "local-unitary invariance: 20 states x 100 Haar dressings, |dE| < 1e-9")
def test_criterion_6_local_unitary_invariance():
    for index, state in enumerate(_mixed_test_states(20, max_qubits=6, seed=60)):
        deviation = invariance_check(state, trials=100, seed=600 + index)
        assert deviation < 1e-9, f"state {index}: deviation {deviation:.3e}"


@criterion(7, "oracle equivalence: 50 random states, optimizer 1e-6 and Bloch 1e-12")
def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(70)
    for index in range(50):
        m = 2 + index % 4  # M in 2..5
        state = StateVector(m, random_state(m, rng))
        analytic = entanglement_measure(state)
        report = minimize_trace_numeric(state, seed=700 + index)
        assert abs(report.value - analytic) < 1e-6, (
            f"state {index}: optimizer gap {abs(report.value - analytic):.3e}"
        )
        for nu, b in enumerate(bloch_vectors(*w_vectors(state))):
            assert np.max(np.abs(b - bloch_vector_oracle(state, nu))) < 1e-12


@criterion(8, "distance bound: 20 states x 1000 direction fields, trace >= E - 1e-12")
def test_criterion_8_distance_bound():
    rng = np.random.default_rng(80)
    for state in _mixed_test_states(20, max_qubits=6, seed=80):
        e = entanglement_measure(state)
        m = state.num_qubits
        for _ in range(1000):
            raw = rng.normal(size=(m, 3))
            raw /= np.linalg.norm(raw, axis=1, keepdims=True)
            assert distance_density(state, raw) >= e - 1e-12


@criterion(9, "desk-scale performance: M=20 measure under 2 s and under 64 MiB")
def test_criterion_9_performance():
    state = brs_state(20, 1.234)
    tracemalloc.start()
    start = time.perf_counter()
    value = entanglement_measure(state)
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert np.isfinite(value)
    assert elapsed < 2.0, f"took {elapsed:.3f} s"
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@criterion(10, "observational: maximal M=4 metric forms are not entrywise close")
def test_criterion_10_m4_forms_differ():
    """The M=4 maximally entangled chain-phase metric stays far from the
    all-ones GHZ form, both at the canonical minimizing field and under the
    chain-end axis substitution that works at M=3.  This records that the
    two forms differ; it does not decide equivalence classes."""
    ones = 0.25 * np.ones((4, 4))
    maximal = brs_state(4, np.pi)
    canonical = entanglement_metric(maximal).matrix
    assert np.max(np.abs(canonical - ones)) > 1e-6
    substituted = metric_matrix(
        maximal,
        np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]]),
    )
    assert np.max(np.abs(substituted - ones)) > 1e-6
    # context: the same substitution pattern does reproduce the GHZ form at M=3
    three = metric_matrix(
        brs_state(3, np.pi),
        np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]]),
    )
    assert np.max(np.abs(three - 0.25 * np.ones((3, 3)))) < 1e-13
