"""One count rule: every count or index argument passes ``qstate.validate_count``.

Each site takes an int or a numpy integer, not a bool, in its range, and
refuses anything else with a ValueError that names the argument; the CLI
exits 2.  A valid numpy integer is stored as a Python int, so the records
built from it serialise to JSON.
"""
from __future__ import annotations

import json

import numpy as np
import pytest

import entdist.verify
from entdist import EntanglementMetric, FamilySpec, brs_state, entanglement_metric
from entdist.cli import SweepSpec, main, run_surface
from entdist.qstate import StateVector, make_basis_state, read_state_file, validate_count
from entdist.verify import (
    invariance_check,
    minimize_trace_numeric,
    reduced_density_matrix,
    verify_state,
)

_BELL = StateVector(2, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))
_BRS3 = FamilySpec("brs", m=3)


def _state_file(tmp_path, m):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"m": m, "re": [1.0, 0.0], "im": [0.0, 0.0]}))
    return read_state_file(path)


# (site, call with the value, argument name in the message, out-of-range values)
_SITES = [
    ("StateVector", lambda v: StateVector(v, [1.0, 0.0]), "num_qubits", [0, 27]),
    ("make_basis_state-m", lambda v: make_basis_state(v, 0), "m", [0, 27]),
    ("make_basis_state-k", lambda v: make_basis_state(2, v), "basis index k", [-1, 4]),
    ("read_state_file", None, '"m"', [0, 27]),
    ("FamilySpec", lambda v: FamilySpec("brs", m=v), "m for family 'brs'", [1, 27]),
    ("SweepSpec", lambda v: SweepSpec(_BRS3, "phi", 0.0, 1.0, v), "angle 'phi' grid points", [1]),
    ("run_surface", lambda v: run_surface((0.0, 1.0), (0.0, 1.0), v), "angle 'gamma' grid points",
     [1]),
    ("minimize-seed", lambda v: minimize_trace_numeric(_BELL, seed=v), "seed", [-1]),
    ("invariance-trials", lambda v: invariance_check(_BELL, trials=v), "trials", [0]),
    ("invariance-seed", lambda v: invariance_check(_BELL, trials=1, seed=v), "seed", [-1]),
    ("reduced_density_matrix", lambda v: reduced_density_matrix(_BELL, v), "qubit index",
     [-1, 2]),
    ("verify_state-trials", lambda v: verify_state(_BELL, trials=v, seed=0), "trials", [0]),
    ("verify_state-seed", lambda v: verify_state(_BELL, trials=1, seed=v), "seed", [-1]),
    ("EntanglementMetric", lambda v: EntanglementMetric(v, np.zeros((1, 1)), [[0.0, 0.0, 1.0]], 0.0),
     "size", [0, 27]),
]


@pytest.mark.parametrize(
    "call, name, value",
    [
        pytest.param(call, name, value, id=f"{site}-{value!r}")
        for site, call, name, outside in _SITES
        for value in [True, 2.5, "3", *outside]
    ],
)
def test_library_sites_refuse_what_is_not_a_count_in_range(call, name, value, tmp_path):
    """A bool, a float, a string or a value just outside the range raises a ValueError naming it."""
    with pytest.raises(ValueError) as err:
        _state_file(tmp_path, value) if call is None else call(value)
    message = str(err.value)
    assert f"{name} must be an integer " in message
    assert message.endswith(f", got {value!r}")


@pytest.mark.parametrize(
    "args, message",
    [
        (["verify", "--family", "brs", "--m", "3", "--trials", "0"],
         "--trials must be an integer >= 1, got 0"),
        # the ascent takes one start per qubit: the count it once took is no flag
        (["verify", "--family", "brs", "--m", "3", "--restarts", "2"],
         "unrecognized arguments: --restarts 2"),
        (["verify", "--family", "brs", "--m", "3", "--seed", "-1"],
         "--seed must be an integer >= 0, got -1"),
        (["measure", "--family", "brs", "--m", "1"],
         "m for family 'brs' must be an integer in [2, 26], got 1"),
        (["measure", "--family", "brs", "--m", "27"],
         "m for family 'brs' must be an integer in [2, 26], got 27"),
        (["verify", "--family", "brs", "--m", "3", "--seed", "2.5"],
         "argument --seed: invalid int value: '2.5'"),
    ],
    ids=["trials", "restarts", "seed", "m-low", "m-high", "seed-not-int"],
)
def test_cli_count_errors_exit_2_naming_the_flag(args, message, capsys):
    """A count out of range exits 2 through the subcommand's usage, not 4 as an internal error.

    ``--restarts``, a count ``verify`` no longer takes, exits 2 through the top-level usage."""
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(f"error: {message}")


@pytest.mark.parametrize("m", [0, 27, True, 2.5, "3"])
def test_cli_state_file_m_exits_2_naming_the_file(m, tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"m": m, "re": [1.0, 0.0], "im": [0.0, 0.0]}))
    assert main(["measure", "--state-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f'error: state file {path}: "m" must be an integer in [1, 26], got ')


@pytest.mark.parametrize(
    "counts, name",
    [((0, 0), "trials"), ((1, -1), "seed")],
    ids=["trials", "seed"],
)
def test_verify_state_checks_its_counts_before_any_pass(counts, name, monkeypatch):
    """A bad count at M = 22 was once refused only after the bilinear pass and the dressings, 1.7 s."""

    def no_pass(state):
        raise AssertionError("verify_state read the state before checking its counts")

    monkeypatch.setattr(entdist.verify, "w_vectors", no_pass)
    trials, seed = counts
    with pytest.raises(ValueError, match=f"^{name} must be an integer "):
        verify_state(_BELL, trials=trials, seed=seed)


def test_numpy_integers_give_json_records():
    """A valid numpy integer is stored as a Python int: the records serialise."""
    state = StateVector(np.int64(2), _BELL.amplitudes)
    spec = FamilySpec("brs", m=np.int64(3))
    assert type(state.num_qubits) is int and type(spec.m) is int
    json.dumps(entanglement_metric(state).to_dict())
    json.dumps(verify_state(state, trials=np.int64(2), seed=np.int64(1)))


def test_entanglement_metric_size_is_stored_as_a_python_int():
    """np.int64(3) gives "m": 3 in the record; 3.0 and True were taken as sizes before the rule."""
    em = entanglement_metric(brs_state(3, 0.3))
    record = EntanglementMetric(np.int64(3), em.matrix, em.directions, em.measure)
    assert type(record.size) is int
    assert json.loads(json.dumps(record.to_dict()))["m"] == 3
    with pytest.raises(ValueError, match=r"^size must be an integer in \[1, 26\], got 3\.0$"):
        EntanglementMetric(3.0, em.matrix, em.directions, em.measure)
    with pytest.raises(ValueError, match=r"^size must be an integer in \[1, 26\], got True$"):
        EntanglementMetric(True, np.zeros((1, 1)), [[0.0, 0.0, 1.0]], 0.0)


@pytest.mark.parametrize(
    "value, lo, hi, expected",
    [(np.uint8(5), 0, 7, 5), (np.int64(-1), -1, None, -1), (10**30, 0, None, 10**30)],
)
def test_validate_count_returns_a_python_int(value, lo, hi, expected):
    out = validate_count("n", value, lo, hi)
    assert type(out) is int and out == expected


@pytest.mark.parametrize("value", [np.True_, np.float64(3.0), None, 3 + 0j])
def test_validate_count_refuses_non_integers(value):
    with pytest.raises(ValueError, match=r"^n must be an integer in \[0, 7\], got "):
        validate_count("n", value, 0, 7)


def test_a_huge_count_is_quoted_short():
    """``make_basis_state(10**400, 0)`` once raised a 438-character message; the quote is cut."""
    with pytest.raises(ValueError) as info:
        make_basis_state(10**400, 0)
    message = str(info.value)
    assert message.startswith("m must be an integer in [1, 26], got 1000")
    assert "..." in message
    assert len(message) <= 80  # the wording, the range and a 40-character quote
