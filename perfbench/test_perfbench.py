"""Tests of the benchmark itself: its checks, its spans and its declared metrics.

Run from the repository root with ``python -m pytest perfbench``.
"""
from __future__ import annotations

import gzip
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import report  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, per_layer, self_times  # noqa: E402


@pytest.fixture
def bench(tmp_path):
    return workloads.Bench("single_state", 5, ROOT, tmp_path)


def _traced(bench, ops):
    bench.tracer = Tracer()
    bench.tracer.install()
    outcomes = []
    try:
        for op in ops:
            bench.execute(op, outcomes)
    finally:
        bench.tracer.uninstall()
    return outcomes, bench.tracer.spans


def test_corrupted_reference_row_is_a_failed_operation(bench):
    header, ref = workloads.read_reference("chain_phase_m3")
    corrupted = ref.copy()
    corrupted[57, 1] *= 1.0 + 1e-12
    spec = workloads.cli.SweepSpec(
        workloads.families.FamilySpec("brs", m=3), "phi", 0.0, 2.0 * np.pi, 201
    )
    outcomes = []
    for table in (ref, corrupted):
        op = workloads.Op(
            "sweep",
            "sweep-test",
            lambda: workloads.cli.run_sweep(spec),
            lambda out, table=table: workloads.check_reference(header, table, out),
        )
        bench.execute(op, outcomes)
    assert outcomes[0].wrong is None
    assert "row 58 column E" in outcomes[1].wrong


def test_perturbed_measure_is_a_failed_operation(bench):
    op = next(bench._stream("state8"))
    state, record, text = op.run()
    assert op.check((state, record, text)) is None
    record = dict(record, measure=record["measure"] + 1e-9)
    assert "differs from E" in op.check((state, record, json.dumps(record)))


def test_closed_form_check_catches_a_wrong_row():
    spec = workloads.cli.SweepSpec(
        workloads.families.FamilySpec("ghzl", m=5), "theta", 0.1, 1.0, 11
    )
    header, rows = workloads.cli.run_sweep(spec)
    assert workloads.check_closed_form(spec, (header, rows)) is None
    rows[4][1] += 1e-8
    assert "closed form" in workloads.check_closed_form(spec, (header, rows))


def test_refused_operation_counts_as_failed_not_wrong(bench):
    def refuse():
        raise ValueError("measure must equal the matrix trace")

    outcomes = []
    bench.execute(workloads.Op("state20", "state20-brs", refuse, lambda out: None), outcomes)
    assert outcomes[0].error.endswith("measure must equal the matrix trace")
    assert outcomes[0].wrong is None


def test_spans_are_well_formed(bench):
    ops = [next(bench._stream("state10")) for _ in range(3)]
    ops.append(next(bench._stream("sweep")))
    outcomes, spans = _traced(bench, ops)
    assert all(o.error is None and o.wrong is None for o in outcomes)
    by_id = {s["id"]: s for s in spans}
    assert len(by_id) == len(spans)
    roots = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["op.state10"] * 3 + ["op.sweep"]
    for span in spans:
        assert span["start"] <= span["end"]
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            assert span["op"] == parent["op"]
    self_times(spans)
    for span in spans:
        assert 0.0 <= span["self"] <= span["end"] - span["start"]
    total_self = sum(s["self"] for s in spans)
    assert total_self == pytest.approx(sum(r["end"] - r["start"] for r in roots))


def test_w_vectors_runs_twice_per_state(bench):
    ops = [next(bench._stream("state12")) for _ in range(3)]
    _, spans = _traced(bench, ops)
    self_times(spans)
    layers = per_layer(spans)
    assert layers["metric.w_vectors.calls"] == 6
    assert layers["metric.w_vectors.calls_per_state"] == 2.0


def test_tracing_leaves_cli_output_unchanged(tmp_path):
    args = ["measure", "--family", "ghzl", "--m", "3", "--theta", "0.3"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    plain = subprocess.run(
        [sys.executable, "-c", "import sys; from entdist.cli import main; sys.exit(main())", *args],
        env=env,
        capture_output=True,
        check=True,
    )
    spans_file = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(workloads.HERE / "traced_child.py"), str(spans_file), *args],
        env=env,
        capture_output=True,
        check=True,
    )
    spans = json.loads(spans_file.read_text())
    assert traced.stdout == plain.stdout
    assert [s["name"] for s in spans if s["parent"] is None] == ["cli.main"]


def test_import_time_parser():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       scipy._lib",
            "import time:       600 |      13000 |       scipy",
            "import time:       600 |     490000 |     scipy.optimize",
            "import time:      3000 |     497000 |   entdist.verify",
            "import time:       600 |     600000 | entdist",
        ]
    )
    assert workloads.parse_import_times(stderr) == pytest.approx((0.6, 0.49))


def test_embedded_references_match_the_demo_output():
    demo = ROOT / "demos" / "output"
    if not demo.is_dir():
        pytest.skip("demos/output is not in this checkout")
    for path in sorted(workloads.REFERENCE_DIR.glob("*.csv.gz")):
        with gzip.open(path, "rb") as fh:
            assert fh.read() == (demo / path.name[: -len(".gz")]).read_bytes(), path.name


def test_schedule_is_whole_rounds_fixed_by_run_length(tmp_path):
    for name in workloads.WORKLOADS:
        one = workloads.Bench(name, 1, ROOT, tmp_path)
        other = workloads.Bench(name, 2, ROOT, tmp_path)
        round_ = list(workloads.ROUND[name])
        rounds = round(36 / workloads.ROUND_SECONDS[name])
        assert one.schedule(36) == other.schedule(36) == round_ * rounds
        assert one.schedule(0.001) == round_
    assert workloads.ROUND["single_state"].count("state22") == 1


def test_typical_time_weighs_every_kind_once():
    outcomes = [
        workloads.Outcome("sweep", "a", seconds, 1, ref_s=0.5) for seconds in (1.0, 1.0, 9.0, 1.0)
    ] + [workloads.Outcome("sweep", "b", 3.0, 1, ref_s=0.5)]
    assert report.typical(outcomes) == 2.0
    assert report.typical(outcomes, relative=True) == 4.0


def test_every_operation_has_its_reference_time(tmp_path):
    bench = workloads.Bench("family_sweep", 3, ROOT, tmp_path)
    bench.host.REPEATS = 1
    run = workloads.Run()
    bench._prepare("sweep")
    bench.measure(0.001, run)
    assert [o.cls for o in run.outcomes] == list(workloads.ROUND["family_sweep"])
    assert all(o.ref_s is not None and o.ref_s > 0 for o in run.outcomes)


def test_benchmark_json_declares_every_emitted_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == report.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == report.PER_LAYER
