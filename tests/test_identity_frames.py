"""Direction frames that are the identity: a pass whose frame unitaries are all exactly I is held.

``_frame_unitaries`` gives +z exactly U = I, so ``qstate._turns`` holds
such a pass, and ``metric._frame_moments`` squares its blocks straight
from the state and puts their sums into a turned block's index order.  It
must give the bytes of the same pass turned by identity factors, in the
moments e and c whole, and the metric must match the pairwise oracle.  At
their optimal directions GHZ-like, W, basis and Dicke states (the last
dense on +z) have every qubit on +z.  The two mixed states hold some
passes still and turn others: |0...0> on the high qubits with a Haar
state on the low ten turns every row pass and holds the column pass
still; a Haar qubit M - 1 with |0...0> below turns only the passes that
name it.  M = 15-19 runs in tier-1, M = 20-22 under ``slow``.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from entdist import StateVector, ghzl_state, make_basis_state, metric, metric_matrix, optimal_directions, w_vectors
from entdist.metric import _frame_passes, _frame_unitaries, entry_tol
from entdist.qstate import ROW_BITS, bloch_vectors, row_view

from oracles import pairwise_share, random_state
from test_metric import assert_pairs_match_pairwise_oracle
from test_support import SIZES, _blocks_with_amplitude, frame_moment_bytes, rotations, w_state  # noqa: F401 (a fixture)


def low_haar_state(m: int) -> StateVector:
    """|0...0> on qubits 10 to M - 1 and a Haar state on qubits 0-9."""
    amps = np.zeros(1 << m, dtype=np.complex128)
    amps[: 1 << 10] = random_state(10, np.random.default_rng(m))
    return StateVector(m, amps)


def top_haar_state(m: int) -> StateVector:
    """A Haar state of qubit M - 1 and |0...0> on the qubits below it."""
    amps = np.zeros(1 << m, dtype=np.complex128)
    amps[[0, 1 << (m - 1)]] = random_state(1, np.random.default_rng(m))
    return StateVector(m, amps)


def dicke_state(m: int, k: int = 3) -> StateVector:
    """Equal amplitudes on every basis index with k bits set."""
    amps = (np.bitwise_count(np.arange(1 << m)) == k).astype(np.complex128)
    return StateVector(m, amps / math.sqrt(math.comb(m, k)))


# each kind's state, and the passes (row bits, column bits) that its optimal directions hold still
STATES = {
    "ghzl": (lambda m: ghzl_state(m, 0.7, 0.2), lambda m, rows, cols: True),
    "w": (w_state, lambda m, rows, cols: True),
    "basis": (lambda m: make_basis_state(m, (1 << m) // 3), lambda m, rows, cols: True),
    "dicke-3": (dicke_state, lambda m, rows, cols: True),
    "low-haar": (low_haar_state, lambda m, rows, cols: not cols),
    "top-haar": (top_haar_state, lambda m, rows, cols: m - 1 not in rows and m - 1 not in cols),
}


class _Turned(np.ndarray):
    """A field of frame unitaries none of which compares equal to I, so ``qstate._turns`` turns every pass."""

    def __eq__(self, other):
        return np.zeros(self.shape, dtype=bool)


def _force_turns(monkeypatch) -> None:
    """Make ``metric._frame_unitaries`` give its unitaries as a ``_Turned`` view, for every caller."""
    frame_unitaries = metric._frame_unitaries
    monkeypatch.setattr(metric, "_frame_unitaries", lambda dirs: frame_unitaries(dirs).view(_Turned))


def _optimal(s: StateVector) -> np.ndarray:
    return optimal_directions(bloch_vectors(*w_vectors(s)))


@pytest.mark.parametrize("m", SIZES)
@pytest.mark.parametrize("kind", sorted(STATES))
def test_held_passes_have_the_bytes_of_a_forced_rotation(monkeypatch, rotations, kind, m):
    """The moments e and c at the optimal directions are those whose every pass is turned, to the byte.

    The turn is forced on the unitaries, where the rule reads, so it holds
    through ``metric_matrix`` too.
    """
    s = STATES[kind][0](m)
    rows, dirs = row_view(s.amplitudes)[1], _optimal(s)
    held = frame_moment_bytes(rows, dirs)
    g = metric_matrix(s, dirs)
    rotations.clear()
    _force_turns(monkeypatch)
    forced = frame_moment_bytes(rows, dirs)
    x_field = np.tile((1.0, 0.0, 0.0), (m, 1))  # a field that holds no pass still
    blocks = _blocks_with_amplitude(s.amplitudes, m, x_field)
    assert len(rotations) == blocks
    assert held == forced
    assert metric_matrix(s, dirs).tobytes() == g.tobytes()
    assert len(rotations) == 2 * blocks


@pytest.mark.parametrize("m", SIZES)
@pytest.mark.parametrize("kind", sorted(STATES))
def test_held_passes_match_the_pairwise_oracle(kind, m):
    s = STATES[kind][0](m)
    assert_pairs_match_pairwise_oracle(s.amplitudes, _optimal(s), entry_tol(m) + pairwise_share(m))


@pytest.mark.parametrize("m", SIZES)
@pytest.mark.parametrize("kind", sorted(STATES))
def test_rotate_runs_only_in_the_turned_passes(rotations, kind, m):
    """No ``_rotate`` call for a state on +z; for the mixed states, one per block with amplitude in a turned pass."""
    build, holds_still = STATES[kind]
    s = build(m)
    dirs = _optimal(s)
    plan = _frame_passes(m, ROW_BITS)
    u = _frame_unitaries(dirs)
    still = [bool((u[[*rows, *cols]] == np.eye(2)).all()) for rows, cols in plan]
    assert still == [holds_still(m, rows, cols) for rows, cols in plan]
    metric_matrix(s, dirs)
    assert len(rotations) == _blocks_with_amplitude(s.amplitudes, m, dirs)
    assert (len(rotations) == 0) == all(still)


@pytest.mark.parametrize("m", [16, 18, 19, pytest.param(22, marks=pytest.mark.slow)])
def test_a_direction_one_ulp_off_z_is_held(rotations, m):
    """v = (0, 0, 1 - 2^-53) is held, in every pass that names it, since its U rounds to I exactly.

    The rule is on the unitaries, not on the directions, so no block is
    turned and the bytes are those of the field on +z.
    """
    s = ghzl_state(m, 0.7, 0.2)
    on_z = _optimal(s)
    dirs = on_z.copy()
    dirs[m - 1, 2] = np.nextafter(1.0, 0.0)
    assert (_frame_unitaries(dirs)[m - 1] == np.eye(2)).all()
    g = metric_matrix(s, dirs)
    assert not rotations
    assert g.tobytes() == metric_matrix(s, on_z).tobytes()
