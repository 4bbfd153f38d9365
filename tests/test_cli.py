"""Command-line interface: subcommands, formats, exit codes, determinism."""
from __future__ import annotations

import json
import reprlib
import shlex
from pathlib import Path

import numpy as np
import pytest

import entdist.cli
import entdist.families
import entdist.metric
from entdist import FamilySpec, brs_state, ghzl_state, write_state_file
from entdist.cli import SweepSpec, main, run_surface, run_sweep
from entdist.metric import eig_tol, spectrum_tol, trace_tol
from entdist.verify import bloch_tol, invariance_tol, optimizer_tol, verify_state

from child import python_child


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def run_cli_process(args, python_flags=()):
    """Run ``entdist`` as its own process, under Python's default warning filters and ``python_flags``."""
    return python_child([*python_flags, "-m", "entdist.cli", *args], capture_output=True, text=True)


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------


class TestMeasure:
    def test_ghzl_maximum(self, capsys):
        code, out = run_cli(
            ["measure", "--family", "ghzl", "--m", "7", "--theta", "0.7853981633974483"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["measure"] == pytest.approx(1.75, abs=1e-12)
        assert payload["measure_over_m"] == pytest.approx(0.25, abs=1e-13)
        assert len(payload["matrix"]) == 49
        assert len(payload["directions"]) == 7
        assert payload["eigenvalues"][0] == pytest.approx(1.75, abs=1e-12)

    def test_large_chain_phase_state_is_valid(self, capsys):
        """M = 20, phi = 0.3: |tr g - E| = 3.1e-12 is rounding, not an invalid state."""
        code, out = run_cli(["measure", "--family", "brs", "--m", "20", "--phi", "0.3"], capsys)
        assert code == 0
        payload = json.loads(out)
        trace = float(np.trace(np.reshape(payload["matrix"], (20, 20))))
        np.testing.assert_allclose(payload["measure"], trace, rtol=0, atol=trace_tol(20), equal_nan=False)

    def test_separable_chain_phase(self, capsys):
        code, out = run_cli(["measure", "--family", "brs", "--m", "2", "--phi", "0"], capsys)
        assert code == 0
        assert json.loads(out)["measure"] == pytest.approx(0.0, abs=1e-15)

    def test_state_file(self, tmp_path, capsys):
        path = tmp_path / "ghz3.json"
        write_state_file(path, ghzl_state(3, np.pi / 4))
        code, out = run_cli(["measure", "--state-file", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["measure"] == pytest.approx(0.75, abs=1e-12)

    def test_near_normalized_state_file(self, tmp_path, capsys):
        """A basis state with |c|^2 = 1 + delta, delta = 0.9e-12, is within NORM_TOL, so valid and separable.

        Its metric is -delta (J - I) / 4 to first order, so its smallest
        eigenvalue is -(M - 1) delta / 4, below -``eig_tol(M)`` at M = 3 and
        8: a positive-semidefiniteness check at ``eig_tol`` would refuse it.
        ``spectrum_tol(M)`` adds what an accepted norm moves, and holds it.
        """
        path = tmp_path / "near.json"
        for m in (3, 8):
            re = [0.0] * (1 << m)
            re[5] = float(np.sqrt(1.0 + 0.9e-12))
            path.write_text(json.dumps({"m": m, "re": re, "im": [0.0] * (1 << m)}))
            code, out = run_cli(["measure", "--state-file", str(path)], capsys)
            assert code == 0
            record = json.loads(out)
            assert record["measure"] == 0.0
            assert -spectrum_tol(m) <= min(record["eigenvalues"]) < -eig_tol(m)

    def test_angle_of_another_family_exits_2(self, capsys):
        """Whenever it is given, 0 and -0.0 included."""
        for value in ["0.5", "0", "-0.0", "1.0"]:
            with pytest.raises(SystemExit) as err:
                main(["measure", "--family", "brs", "--m", "3", "--theta", value])
            assert err.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines()[-1] == (
                "entdist measure: error: family 'brs' has no angle 'theta'"
            )

    def test_threeq_m_flag(self, capsys):
        """--m 3 is the threeq default and prints the same bytes; any other m exits 2."""
        flags = ["measure", "--family", "threeq", "--gamma", "0.8", "--tau", "0.3"]
        assert run_cli(flags + ["--m", "3"], capsys) == run_cli(flags, capsys)
        with pytest.raises(SystemExit) as err:
            main(flags + ["--m", "5"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith("m fixed at 3")

    def test_broken_invariant_exits_4(self, capsys, monkeypatch):
        """A ValueError after the state was validated is an internal error, not bad input."""
        monkeypatch.setattr(entdist.metric, "trace_tol", lambda m: -1.0)
        assert main(["measure", "--family", "brs", "--m", "3", "--phi", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal: measure must equal")

    def test_each_metric_is_diagonalised_once(self, capsys, monkeypatch):
        """Counts the matrices passed to eigvalsh: a sweep passes its points in batches."""
        matrices = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            matrices.append(np.reshape(a, (-1,) + a.shape[-2:]).shape[0])
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        code, _ = run_cli(["measure", "--family", "brs", "--m", "4", "--phi", "1"], capsys)
        assert code == 0
        assert sum(matrices) == 1
        run_sweep(SweepSpec(FamilySpec("brs", m=4), "phi", 0.0, 1.0, 10))
        assert sum(matrices) == 11

    def test_requires_state_source(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["measure"])
        assert err.value.code == 2

    def test_csv_not_supported(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["measure", "--family", "brs", "--m", "2", "--phi", "1", "--csv"])
        assert err.value.code == 2


# ---------------------------------------------------------------------------
# eigs
# ---------------------------------------------------------------------------


class TestEigs:
    def test_json(self, capsys):
        code, out = run_cli(
            ["eigs", "--family", "ghzl", "--m", "5", "--theta", "0.7853981633974483"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["eigenvalues"][0] == pytest.approx(1.25, abs=1e-12)
        assert payload["nonnull_count"] == 1
        assert payload["rank_tol"] == spectrum_tol(5)

    def test_csv(self, capsys):
        code, out = run_cli(
            ["eigs", "--family", "brs", "--m", "3", "--phi", "1.3", "--csv"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "eig_1,eig_2,eig_3"
        values = [float(x) for x in lines[1].split(",")]
        assert values == sorted(values, reverse=True)


@pytest.mark.parametrize(
    "args, usage",
    [
        (["eigs", "--family", "brs", "--m", "3", "--phi", "nan"], "usage: entdist eigs"),
        (["measure", "--family", "brs"], "usage: entdist measure"),
        (["sweep", "--family", "brs", "--m", "3", "--parameter", "phi",
          "--start", "1", "--stop", "0", "--points", "3"], "usage: entdist sweep"),
        (["surface", "--points", "1"], "usage: entdist surface"),
        (["verify", "--family", "brs", "--m", "3", "--trials", "0"], "usage: entdist verify"),
    ],
    ids=["eigs", "measure", "sweep", "surface", "verify"],
)
def test_argument_errors_show_the_subcommand_usage(args, usage, capsys):
    """An error found after parsing prints the usage of the subcommand that was run."""
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith(usage)


@pytest.mark.parametrize(
    "args, stage",
    [
        (["measure", "--family", "brs", "--m", "3"], "entanglement_metric"),
        (["sweep", "--family", "brs", "--m", "3", "--parameter", "phi",
          "--start", "0", "--stop", "1", "--points", "3"], "family_amplitudes"),
        (["surface", "--points", "3"], "three_qubit_amplitudes"),
        (["verify", "--family", "brs", "--m", "3"], "verify_state"),
    ],
    ids=["measure", "sweep", "surface", "verify"],
)
def test_out_of_memory_exits_2(args, stage, capsys, monkeypatch):
    """A failed allocation is a resource error (exit 2), not a verification failure (exit 1)."""

    def exhausted(*_args, **_kwargs):
        raise MemoryError("Unable to allocate 1.16 TiB for an array")

    monkeypatch.setattr(entdist.cli, stage, exhausted)
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory: Unable to allocate 1.16 TiB for an array\n"


@pytest.mark.parametrize("command", ["measure", "eigs", "verify"])
@pytest.mark.parametrize(
    "sources",
    [["--family", "brs", "--m", "3", "--state-file", "STATE"]],
    ids=["family-and-file"],
)
def test_two_state_sources_exit_2(command, sources, tmp_path, capsys):
    """Exactly one state source: a second one is refused, not silently ignored."""
    path = tmp_path / "state.json"
    write_state_file(path, ghzl_state(3, 0.4))
    with pytest.raises(SystemExit) as err:
        main([command, *(str(path) if a == "STATE" else a for a in sources)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err.splitlines()[-1]


def test_family_json_is_no_flag(capsys):
    """A family is named by --family and its flags alone: the JSON spelling it once had is no flag."""
    spec = '{"family": "brs", "m": 3}'
    with pytest.raises(SystemExit) as err:
        main(["measure", "--family", "brs", "--m", "3", "--family-json", spec])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(f"error: unrecognized arguments: --family-json {spec}")


@pytest.mark.parametrize("flag", [["--m", "5"], ["--phi", "0.3"], ["--tau", "1.0"]])
def test_family_flag_without_family_exits_2(flag, tmp_path, capsys):
    """--m and the angle flags describe a --family state; with --state-file they exit 2."""
    path = tmp_path / "state.json"
    write_state_file(path, ghzl_state(3, 0.4))
    with pytest.raises(SystemExit) as err:
        main(["measure", "--state-file", str(path), *flag])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"entdist measure: error: {flag[0]} applies only with --family"
    )


@pytest.mark.parametrize(
    "command, flag",
    [(c, "--json") for c in ["measure", "eigs", "sweep", "surface", "verify"]]
    + [(c, "--csv") for c in ["measure", "sweep", "surface", "verify"]],
)
def test_only_eigs_takes_a_format_flag(command, flag, capsys):
    """Output is JSON or CSV by subcommand; ``eigs --csv`` is the one format flag."""
    args = {
        "sweep": ["--family", "brs", "--m", "3", "--parameter", "phi",
                  "--start", "0", "--stop", "1", "--points", "3"],
        "surface": ["--points", "3"],
    }.get(command, ["--family", "brs", "--m", "3"])
    with pytest.raises(SystemExit) as err:
        main([command, *args, flag])
    assert err.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes: one table for every subcommand
# ---------------------------------------------------------------------------

_BRS_FLAGS = ["--family", "brs", "--m", "3", "--phi", "0.3"]
_SWEEP_ARGS = ["sweep", "--family", "brs", "--m", "3", "--parameter", "phi",
               "--start", "0", "--stop", "1"]
_UNNORMALIZED = '{"m": 2, "re": [1.0, 1.0, 0.0, 0.0], "im": [0.0, 0.0, 0.0, 0.0]}'


def _doubled_brs(monkeypatch):
    brs = entdist.families._brs_amplitudes
    monkeypatch.setattr(entdist.families, "_brs_amplitudes", lambda m, phis: 2.0 * brs(m, phis))


def _failing_validation(monkeypatch):
    def fail(amps):
        raise ValueError("planted")

    monkeypatch.setattr(entdist.cli, "validate_amplitudes", fail)


_PLANTED = "error: internal: planted\n"
_DOUBLED = "error: internal: state is not normalized: sum |c_k|^2 = 4.0\n"
_INVALID = "error: invalid state: state is not normalized: sum |c_k|^2 = 2.0\n"


@pytest.mark.parametrize(
    "args, plant, code, err",
    [
        # an argument refusal: exit 2, the usage, then the input rule's message
        (["measure", "--family", "brs", "--m", "3", "--theta", "0.5"], None, 2,
         "entdist measure: error: family 'brs' has no angle 'theta'\n"),
        (["eigs", "--family", "brs", "--m", "3", "--phi", "nan"], None, 2,
         "entdist eigs: error: angle 'phi' must be a finite real number, got nan\n"),
        ([*_SWEEP_ARGS, "--points", "1"], None, 2,
         "entdist sweep: error: angle 'phi' grid points must be an integer >= 2, got 1\n"),
        (["surface", "--points", "3", "--tau-start", "2", "--tau-stop", "1"], None, 2,
         "entdist surface: error: angle 'tau' range requires start < stop\n"),
        (["verify", *_BRS_FLAGS, "--trials", "0"], None, 2,
         "entdist verify: error: --trials must be an integer >= 1, got 0\n"),
        # a state file whose state fails validation: exit 3
        (["measure", "--state-file", "STATE"], None, 3, _INVALID),
        (["eigs", "--state-file", "STATE", "--csv"], None, 3, _INVALID),
        (["verify", "--state-file", "STATE"], None, 3, _INVALID),
        # a fault after the inputs were accepted: exit 4
        (["measure", *_BRS_FLAGS], _doubled_brs, 4, _DOUBLED),
        (["eigs", *_BRS_FLAGS], _doubled_brs, 4, _DOUBLED),
        (["eigs", *_BRS_FLAGS, "--csv"], _doubled_brs, 4, _DOUBLED),
        (["verify", *_BRS_FLAGS], _doubled_brs, 4, _DOUBLED),
        ([*_SWEEP_ARGS, "--points", "3"], _failing_validation, 4, _PLANTED),
        (["surface", "--points", "3"], _failing_validation, 4, _PLANTED),
    ],
    ids=[
        "measure-refused", "eigs-refused", "sweep-refused", "surface-refused", "verify-refused",
        "measure-file", "eigs-file", "verify-file",
        "measure-family", "eigs-family", "eigs-family-csv", "verify-family", "sweep", "surface",
    ],
)
def test_exit_code_table(args, plant, code, err, tmp_path, capsys, monkeypatch):
    """Exit 2 for a refused value, 3 only for a state file's state, 4 for any later fault.

    A family state that fails validation after its spec was accepted is a
    broken invariant, not bad input, whichever flag gave the spec.
    """
    path = tmp_path / "state.json"
    path.write_text(_UNNORMALIZED)
    args = [str(path) if a == "STATE" else a for a in args]
    if code == 2:  # argparse's usage lines, taken from the subcommand run without arguments
        with pytest.raises(SystemExit):
            main(args[:1])
        err = "".join(capsys.readouterr().err.splitlines(keepends=True)[:-1]) + err
    if plant is not None:
        plant(monkeypatch)
    try:
        exit_code = main(args)
    except SystemExit as exc:
        exit_code = exc.code
    captured = capsys.readouterr()
    assert (exit_code, captured.out, captured.err) == (code, "", err)


@pytest.mark.parametrize("python_flags", [(), ("-W", "error::RuntimeWarning")], ids=["default", "error"])
def test_overflowing_state_file_exits_3_with_one_line(python_flags, tmp_path):
    """A squared norm past the float range is refused as inf, with no numpy warning above the error.

    Under ``-W error::RuntimeWarning`` an overflow warning would escape
    ``main`` as a traceback, exit 1.
    """
    path = tmp_path / "huge.json"
    path.write_text('{"m": 1, "re": [1e308, 1e308], "im": [0.0, 0.0]}')
    proc = run_cli_process(["measure", "--state-file", str(path)], python_flags)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: invalid state: state is not normalized: sum |c_k|^2 = inf\n"


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


class TestSweep:
    def test_broken_check_exits_4_naming_the_point(self, capsys, monkeypatch):
        """A metric that fails a check mid-sweep is an internal error at its grid value."""
        kernel = entdist.cli.metric_matrices

        def broken(amps, dirs):
            g = kernel(amps, dirs)
            g[3, 0, 0] += 1e-6
            return g

        monkeypatch.setattr(entdist.cli, "metric_matrices", broken)
        args = ["sweep", "--family", "brs", "--m", "3", "--parameter", "phi",
                "--start", "0", "--stop", "1", "--points", "5"]
        assert main(args) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal: measure must equal the matrix trace")
        assert captured.err.endswith(" at phi = 0.75\n")

    def test_chain_phase_header_and_midpoint(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _ = run_cli(
            [
                "sweep", "--family", "brs", "--m", "7", "--parameter", "phi",
                "--start", "0", "--stop", "6.283185307179586",
                "--points", "41", "--out", str(out_path),
            ],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "x,E,E_over_M,eig_1,eig_2,eig_3,eig_4,eig_5,eig_6,eig_7"
        rows = [list(map(float, line.split(","))) for line in lines[1:]]
        assert len(rows) == 41
        mid = rows[20]  # x = 0.5 exactly (phi = pi)
        assert mid[0] == pytest.approx(0.5, abs=1e-15)
        assert mid[2] == pytest.approx(0.25, abs=1e-12)
        for row in rows[1:-1]:  # interior points: full-rank spectrum
            assert all(eig > 1e-8 for eig in row[3:])

    def test_ghzl_curve_is_sine_squared(self, capsys):
        code, out = run_cli(
            [
                "sweep", "--family", "ghzl", "--m", "3", "--parameter", "theta",
                "--start", "0", "--stop", "1.5707963267948966", "--points", "51",
            ],
            capsys,
        )
        assert code == 0
        rows = [list(map(float, line.split(","))) for line in out.strip().split("\n")[1:]]
        for row in rows:
            theta = row[0] * np.pi / 2  # x = 2 theta / pi
            assert row[1] == pytest.approx(0.75 * np.sin(2 * theta) ** 2, abs=1e-12)
        assert max(row[2] for row in rows) == pytest.approx(0.25, abs=1e-12)

    def test_deterministic_output(self, tmp_path, capsys):
        args = [
            "sweep", "--family", "ghzl", "--m", "2", "--parameter", "theta",
            "--start", "0", "--stop", "3.0", "--points", "17",
        ]
        _, first = run_cli(args, capsys)
        _, second = run_cli(args, capsys)
        assert first == second

    def test_bad_parameter_for_family(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "sweep", "--family", "ghzl", "--m", "2", "--parameter", "phi",
                    "--start", "0", "--stop", "1", "--points", "5",
                ]
            )
        assert err.value.code == 2

    def test_unwritable_path(self, tmp_path, capsys):
        code, _ = run_cli(
            [
                "sweep", "--family", "brs", "--m", "2", "--parameter", "phi",
                "--start", "0", "--stop", "1", "--points", "3",
                "--out", str(tmp_path / "missing" / "f.csv"),
            ],
            capsys,
        )
        assert code == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "bounds, named",
        [
            (["--start", "0", "--stop", "inf"], "start = 0.0, stop = inf"),
            (["--start=-inf", "--stop", "1"], "start = -inf, stop = 1.0"),
            (["--start", "nan", "--stop", "1"], "start = nan, stop = 1.0"),
            (["--start=-1e308", "--stop=1e308"], "start = -1e+308, stop = 1e+308"),
        ],
        ids=["stop-inf", "start-minus-inf", "start-nan", "span-overflows"],
    )
    def test_non_finite_range_is_bad_input(self, bounds, named, capsys):
        """A non-finite bound exits 2 naming both bounds, before any grid is computed."""
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--family", "ghzl", "--m", "3", "--parameter", "theta",
                  *bounds, "--points", "3"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        usage, message = captured.err.splitlines()[0], captured.err.splitlines()[-1]
        assert usage.startswith("usage: entdist sweep")
        assert message == f"entdist sweep: error: angle 'theta' range must be finite, got {named}"

    def test_swept_angle_flag_exits_2(self, capsys):
        """The swept angle takes its values from the grid, so its own flag is refused."""
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--family", "brs", "--m", "3", "--parameter", "phi",
                  "--start", "0", "--stop", "1", "--points", "3", "--phi", "5"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "entdist sweep: error: --phi is the swept angle; its range is --start to --stop"
        )

    @pytest.mark.parametrize("flag", [["--state-file", "/nonexistent.json"]])
    def test_state_source_flags_rejected(self, flag, capsys):
        """A sweep varies a family angle, so it takes family flags only."""
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "sweep", "--family", "brs", "--m", "3", "--parameter", "phi",
                    "--start", "0", "--stop", "1", "--points", "3", *flag,
                ]
            )
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["measure", "--family", "brs", "--m", "3"],
        ["eigs", "--family", "brs", "--m", "3"],
        ["sweep", "--family", "brs", "--m", "3", "--parameter", "phi",
         "--start", "0", "--stop", "1", "--points", "3"],
        ["surface", "--points", "3"],
    ],
    ids=["measure", "eigs", "sweep", "surface"],
)
def test_seed_only_on_verify(args, capsys):
    """Only verify draws random numbers; elsewhere --seed is not a flag."""
    with pytest.raises(SystemExit) as err:
        main([*args, "--seed", "1"])
    assert err.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# surface
# ---------------------------------------------------------------------------


class TestSurface:
    def test_grid_values(self, capsys):
        code, out = run_cli(
            [
                "surface", "--points", "5",
                "--gamma-start", "0", "--gamma-stop", "1.5707963267948966",
                "--tau-start", "0", "--tau-stop", "1.5707963267948966",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "gamma,tau,E_over_3"
        rows = {(round(r[0], 10), round(r[1], 10)): r[2] for r in
                (list(map(float, line.split(","))) for line in lines[1:])}
        assert len(rows) == 25
        quarter = round(np.pi / 4, 10)
        assert rows[(0.0, 0.0)] == pytest.approx(0.0, abs=1e-15)
        assert rows[(quarter, 0.0)] == pytest.approx(0.25, abs=1e-13)
        for gamma in [0.0, quarter]:
            assert rows[(gamma, quarter)] == pytest.approx(1 / 6, abs=1e-13)

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--gamma-stop", "inf"], "start = 0.0, stop = inf"),
            (["--gamma-start=-1e308", "--gamma-stop=1e308"], "start = -1e+308, stop = 1e+308"),
            (["--gamma-start", "nan"], "start = nan, stop = 3.141592653589793"),
        ],
        ids=["stop-inf", "span-overflows", "start-nan"],
    )
    def test_non_finite_range_prints_only_usage_and_error(self, flags, named):
        """The range is refused before numpy computes a grid, so no warning reaches stderr."""
        usage = run_cli_process(["surface", "--points", "1"]).stderr.splitlines()[:-1]
        out = run_cli_process(["surface", "--points", "3", *flags])
        assert out.returncode == 2
        assert out.stdout == ""
        assert usage[0].startswith("usage: entdist surface")
        assert out.stderr.splitlines() == [
            *usage, f"entdist surface: error: angle 'gamma' range must be finite, got {named}"
        ]


# ---------------------------------------------------------------------------
# the grid rule of sweep and surface
# ---------------------------------------------------------------------------

_BRS3 = FamilySpec("brs", m=3)
_POINTS = "grid points must be an integer >= 2, got"
_REAL = "must be a finite real number, got"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SweepSpec(_BRS3, "theta", 0.0, 1.0, 3), "family 'brs' has no sweep angle 'theta'"),
        (lambda: SweepSpec(_BRS3, "phi", 1.0, 1.0, 3), "angle 'phi' range requires start < stop"),
        (lambda: SweepSpec(_BRS3, "phi", 0.0, 1.0, 1), f"angle 'phi' {_POINTS} 1"),
        (lambda: SweepSpec(_BRS3, "phi", 0.0, 1.0, 2.5), f"angle 'phi' {_POINTS} 2.5"),
        (lambda: run_surface((0.0, 1.0), (2.0, 1.0), 3), "angle 'tau' range requires start < stop"),
        (lambda: run_surface((0.0, 1.0), (0.0, 1.0), 1), f"angle 'gamma' {_POINTS} 1"),
        (lambda: run_surface((0.0, 1.0), (0.0, 1.0), 2.5), f"angle 'gamma' {_POINTS} 2.5"),
        (lambda: SweepSpec(_BRS3, "phi", False, True, 3), f"angle 'phi' start {_REAL} False"),
        (lambda: SweepSpec(_BRS3, "phi", "0", "1", 3), f"angle 'phi' start {_REAL} '0'"),
        (lambda: SweepSpec(_BRS3, "phi", 0, "1", 3), f"angle 'phi' stop {_REAL} '1'"),
        (lambda: SweepSpec(_BRS3, "phi", 10**400, 10**401, 3), f"angle 'phi' start {_REAL} {reprlib.repr(10**400)}"),
        (lambda: run_surface((0.0, 1.0), (0.0, True), 3), f"angle 'tau' stop {_REAL} True"),
    ],
    ids=[
        "sweep-other-family", "sweep-order", "sweep-one-point", "sweep-fractional-points",
        "surface-order", "surface-one-point", "surface-fractional-points",
        "sweep-bool-ends", "sweep-string-ends", "sweep-string-stop", "sweep-int-beyond-float",
        "surface-bool-stop",
    ],
)
def test_grid_rule_names_the_angle(build, message):
    """SweepSpec and run_surface refuse a bad grid with the same rule, naming the angle."""
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_grid_ends_are_stored_as_python_floats():
    """An int or a numpy float end passes the real-number rule and is kept as a Python float."""
    spec = SweepSpec(_BRS3, "phi", 0, np.float64(1.5), 3)
    assert (type(spec.start), type(spec.stop)) == (float, float)
    assert (spec.start, spec.stop) == (0.0, 1.5)


_SWEEP_BRS3 = ["sweep", "--family", "brs", "--m", "3"]


@pytest.mark.parametrize(
    "args, message",
    [
        ([*_SWEEP_BRS3, "--parameter", "theta", "--start", "0", "--stop", "1", "--points", "3"],
         "entdist sweep: error: family 'brs' has no sweep angle 'theta'"),
        ([*_SWEEP_BRS3, "--parameter", "phi", "--start", "1", "--stop", "1", "--points", "3"],
         "entdist sweep: error: angle 'phi' range requires start < stop"),
        ([*_SWEEP_BRS3, "--parameter", "phi", "--start", "0", "--stop", "1", "--points", "1"],
         f"entdist sweep: error: angle 'phi' {_POINTS} 1"),
        (["surface", "--points", "3", "--tau-start", "2", "--tau-stop", "1"],
         "entdist surface: error: angle 'tau' range requires start < stop"),
        (["surface", "--points", "1"], f"entdist surface: error: angle 'gamma' {_POINTS} 1"),
    ],
    ids=[
        "sweep-other-family", "sweep-order", "sweep-one-point", "surface-order", "surface-one-point",
    ],
)
def test_bad_grid_exits_2_naming_the_angle(args, message, capsys):
    """The CLI prints the grid rule's message after the subcommand usage."""
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == message


# ---------------------------------------------------------------------------
# figure data: the drivers' arrays and the one CSV writer
# ---------------------------------------------------------------------------


def _assert_rows_array(rows, shape):
    assert type(rows) is np.ndarray
    assert rows.dtype == np.float64 and rows.shape == shape
    assert rows.flags.c_contiguous


@pytest.mark.parametrize(
    "m, points", [(9, 31), (9, 32), (9, 33), (9, 65), (15, 3)],
    ids=["m9-P-1", "m9-P", "m9-P+1", "m9-2P+1", "m15-one-point-chunks"],
)
def test_sweep_rows_are_one_float64_array(m, points):
    """(points, 3 + M) rows across chunk boundaries (P = 32 points at M = 9, one at M = 15).

    x is the grid over the angle's unit.
    """
    assert (entdist.cli._chunk_points(9), entdist.cli._chunk_points(15)) == (32, 1)
    header, rows = run_sweep(SweepSpec(FamilySpec("brs", m=m), "phi", 0.2, 2.9, points))
    assert header == ["x", "E", "E_over_M"] + [f"eig_{i}" for i in range(1, m + 1)]
    _assert_rows_array(rows, (points, 3 + m))
    unit = entdist.families.FAMILY_ANGLES["brs"]["phi"]
    assert rows[:, 0].tobytes() == (np.linspace(0.2, 2.9, points) / unit).tobytes()
    assert rows[:, 2].tobytes() == (rows[:, 1] / m).tobytes()


@pytest.mark.parametrize("points", [2, 7])
def test_surface_rows_are_one_float64_array(points):
    """(points^2, 3) rows, gamma outer and tau inner."""
    header, rows = run_surface((0.1, 2.9), (-0.4, 3.3), points)
    assert header == ["gamma", "tau", "E_over_3"]
    _assert_rows_array(rows, (points * points, 3))
    grid = rows[:, :2].reshape(points, points, 2)
    assert grid[:, 0, 0].tobytes() == np.linspace(0.1, 2.9, points).tobytes()
    assert grid[0, :, 1].tobytes() == np.linspace(-0.4, 3.3, points).tobytes()


@pytest.mark.parametrize(
    "drive",
    [
        # eigenvalues of rounding size (about 1e-17), negative ones among them
        lambda: run_sweep(SweepSpec(FamilySpec("ghzl", m=3), "theta", 0.0, np.pi / 2.0, 41)),
        lambda: run_sweep(SweepSpec(FamilySpec("brs", m=9), "phi", -1.0, 5.0, 40)),
        lambda: run_surface((0.0, np.pi), (0.0, np.pi), 9),
    ],
    ids=["ghzl-m3", "brs-m9", "surface"],
)
def test_csv_text_of_an_array_is_that_of_its_lists_and_reads_back(drive):
    """The writer turns the array into Python floats itself: the same text as from nested lists.

    Every value is written with 17 significant digits, so the text reads
    back to the array bit for bit.
    """
    header, rows = drive()
    text = entdist.cli._csv_text(header, rows)
    assert text == entdist.cli._csv_text(header, rows.tolist())
    lines = text.splitlines()
    assert lines[0] == ",".join(header)
    back = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert back.tobytes() == rows.tobytes()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class TestVerify:
    def test_ghz_passes(self, capsys):
        code, out = run_cli(
            [
                "verify", "--family", "ghzl", "--m", "4",
                "--theta", "0.7853981633974483", "--trials", "30", "--seed", "5",
            ],
            capsys,
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["passed"] is True
        assert payload["invariance_max_deviation"] < invariance_tol(4)
        assert payload["optimizer_gap"] < 1e-6
        assert payload["bloch_gap"] < 1e-12
        assert payload["thresholds"] == {"invariance": invariance_tol(4), "optimizer": optimizer_tol(4), "bloch": bloch_tol(4)}
        assert payload["failed_checks"] == []

    def test_chain_phase_passes(self, capsys):
        code, out = run_cli(
            ["verify", "--family", "brs", "--m", "5", "--phi", "2.1", "--trials", "20"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_record_is_verify_state(self, capsys):
        """The CLI prints ``verify_state``'s record for the state and flags it was given."""
        code, out = run_cli(
            ["verify", "--family", "brs", "--m", "5", "--phi", "2.1", "--trials", "20",
             "--seed", "7"],
            capsys,
        )
        assert code == 0
        assert json.loads(out) == verify_state(brs_state(5, 2.1), trials=20, seed=7)

    def test_tolerance_breach_exits_1(self, capsys, monkeypatch):
        """No valid state breaches the thresholds, so force one to check the
        exit-code wiring."""
        import entdist.verify as verify

        monkeypatch.setattr(verify, "invariance_tol", lambda m: -1.0)
        code, out = run_cli(
            ["verify", "--family", "ghzl", "--m", "2", "--theta", "0.3", "--trials", "5"],
            capsys,
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["passed"] is False
        assert payload["failed_checks"] == ["invariance"]
        assert payload["thresholds"]["invariance"] == -1.0

    @pytest.mark.usefixtures("conjugated_w_minus")
    def test_planted_bloch_defect_fails(self, capsys):
        """Conjugating qubit 0's w_minus flips its Bloch y component, 0.15 for
        this state, which the derived threshold must catch."""
        code, out = run_cli(
            ["verify", "--family", "brs", "--m", "5", "--phi", "0.3", "--trials", "1"], capsys
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["failed_checks"] == ["bloch"]
        assert payload["bloch_gap"] == pytest.approx(0.2955, abs=1e-4)

    def test_denormalized_state_file_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"m": 2, "re": [1.0, 1.0, 0.0, 0.0], "im": [0.0, 0.0, 0.0, 0.0]}')
        code, _ = run_cli(["verify", "--state-file", str(path)], capsys)
        assert code == 3

    def test_malformed_state_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        for text in ["{]", '{"m": true, "re": [1.0, 0.0], "im": [0.0, 0.0]}']:
            path.write_text(text)
            code, _ = run_cli(["measure", "--state-file", str(path)], capsys)
            assert code == 2

    def test_missing_state_file_exits_2(self, capsys):
        code, _ = run_cli(["measure", "--state-file", "/nonexistent/state.json"], capsys)
        assert code == 2


# ---------------------------------------------------------------------------
# the README's command lines
# ---------------------------------------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_command_lines(text: str) -> list[list[str]]:
    """The arguments of each ``entdist ...`` line of the README's "Command line" block."""
    block = text.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("entdist ")]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    """Each line exits 0 and writes its --out file, so a flag the docs name but the CLI lacks fails here."""
    monkeypatch.chdir(tmp_path)
    write_state_file(tmp_path / "ghz3.json", ghzl_state(3, np.pi / 4))
    commands = readme_command_lines(README.read_text(encoding="utf-8"))
    assert commands, "no entdist line in the README's Command line block"
    for args in commands:
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        assert code == 0, f"entdist {shlex.join(args)} exited {code}: {capsys.readouterr().err}"
        if "--out" in args:
            assert (tmp_path / args[args.index("--out") + 1]).is_file()
