"""Command-line interface: subcommands, formats, exit codes, determinism."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entdist.cli
import entdist.metric
from entdist import FamilySpec, brs_state, ghzl_state, write_state_file
from entdist.cli import SweepSpec, main, run_sweep
from entdist.metric import trace_tol
from entdist.verify import bloch_tol, verify_state


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def run_cli_process(args):
    """Run ``entdist`` as its own process, under Python's default warning filters."""
    src = str(Path(entdist.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "entdist.cli", *args], env=env, capture_output=True, text=True
    )


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
        assert abs(payload["measure"] - trace) <= trace_tol(20)

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

    def test_family_json(self, capsys):
        code, out = run_cli(
            ["measure", "--family-json", '{"family": "threeq", "gamma": 0.7853981633974483, "tau": 0.0}'],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["measure"] == pytest.approx(0.75, abs=1e-12)

    def test_near_normalized_state_file(self, tmp_path, capsys):
        """A basis state with |c|^2 = 1 + 0.9e-12 is within NORM_TOL, so valid and separable."""
        path = tmp_path / "near.json"
        re = [0.0] * 8
        re[5] = float(np.sqrt(1.0 + 0.9e-12))
        path.write_text(json.dumps({"m": 3, "re": re, "im": [0.0] * 8}))
        code, out = run_cli(["measure", "--state-file", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["measure"] == 0.0

    @pytest.mark.parametrize(
        "spec",
        [
            '{"family": "brs", "m": 3.0}',
            '{"family": "brs", "m": "3"}',
            '{"family": "brs", "m": true}',
            '{"family": "ghzl", "m": 3, "theta": null}',
            '{"family": "ghzl", "m": 3, "theta": "0.3"}',
            '{"family": ["brs"]}',
        ],
    )
    def test_family_json_wrong_types_exit_2(self, spec, capsys):
        assert main(["measure", "--family-json", spec]) == 2
        assert "invalid --family-json" in capsys.readouterr().err

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

    def test_csv(self, capsys):
        code, out = run_cli(
            ["eigs", "--family", "brs", "--m", "3", "--phi", "1.3", "--csv"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "eig_1,eig_2,eig_3"
        values = [float(x) for x in lines[1].split(",")]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("rank_tol", ["nan", "-1e-8"])
    def test_bad_rank_tol_exits_2(self, rank_tol, capsys):
        with pytest.raises(SystemExit) as err:
            main(["eigs", "--family", "brs", "--m", "3", f"--rank-tol={rank_tol}"])
        assert err.value.code == 2
        assert "--rank-tol must be finite and non-negative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, usage",
    [
        (["eigs", "--family", "brs", "--m", "3", "--rank-tol", "nan"], "usage: entdist eigs"),
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
        assert message == f"entdist sweep: error: sweep range must be finite, got {named}"

    @pytest.mark.parametrize(
        "flag", [["--state-file", "/nonexistent.json"], ["--family-json", '{"family": "threeq"}']]
    )
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
        "flags", [["--points", "1"], ["--points", "5", "--gamma-start", "nan"]]
    )
    def test_bad_arguments_exit_2(self, flags, capsys):
        with pytest.raises(SystemExit) as err:
            main(["surface", *flags])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [["--gamma-stop", "inf"], ["--gamma-start=-1e308", "--gamma-stop=1e308"]],
        ids=["stop-inf", "span-overflows"],
    )
    def test_non_finite_range_prints_only_usage_and_error(self, flags):
        """The range is refused before numpy computes a grid, so no warning reaches stderr."""
        usage = run_cli_process(["surface", "--points", "1"]).stderr.splitlines()[:-1]
        out = run_cli_process(["surface", "--points", "3", *flags])
        assert out.returncode == 2
        assert out.stdout == ""
        assert usage[0].startswith("usage: entdist surface")
        assert out.stderr.splitlines() == [
            *usage, "entdist surface: error: angle 'gamma' must be finite"
        ]


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
        assert payload["invariance_max_deviation"] < 1e-9
        assert payload["optimizer_gap"] < 1e-6
        assert payload["bloch_gap"] < 1e-12
        assert payload["thresholds"] == {"invariance": 1e-9, "optimizer": 1e-6, "bloch": bloch_tol(4)}
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
             "--restarts", "3", "--seed", "7"],
            capsys,
        )
        assert code == 0
        assert json.loads(out) == verify_state(brs_state(5, 2.1), trials=20, restarts=3, seed=7)

    def test_tolerance_breach_exits_1(self, capsys, monkeypatch):
        """No valid state breaches the thresholds, so force one to check the
        exit-code wiring."""
        import entdist.verify as verify

        monkeypatch.setattr(verify, "INVARIANCE_TOL", -1.0)
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

    @pytest.mark.parametrize("flag", ["--trials", "--restarts"])
    def test_zero_count_exits_2(self, flag, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--family", "brs", "--m", "3", flag, "0"])
        assert err.value.code == 2

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
