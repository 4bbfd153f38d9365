"""entdist benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload single_state --seed 1 --seconds 36 --trace 0

Workloads: ``single_state``, ``family_sweep`` (see
``workloads.py`` for what each one stresses and why).  The program is the
checkout's own ``src/entdist``; nothing is installed.  With ``--trace 0``
the last line of stdout is a JSON object with every end-to-end metric;
with ``--trace 1`` the run is repeated in part with spans on and the last
line carries the per-layer metrics instead.  The lines above it print the
metrics with units, tail percentiles, failed/attempted, the environment
and computed kernel costs; the full record, with spans in a traced run,
is written to ``.perfbench_out/`` in the checkout.

``failed`` counts operations the program refused (an error raised on a
valid input, or a nonzero exit) and operations whose output failed a
check; ``correct`` is false only for the latter, a wrong result returned.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def _args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _cap_threads() -> int:
    """Cap BLAS/OpenMP threads at the usable core count, before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def _import_program() -> None:
    """Import entdist from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "entdist" / "__init__.py").is_file():
        raise SystemExit(f"error: no entdist sources under {src}")
    sys.path.insert(0, str(src))
    import entdist

    if Path(entdist.__file__).resolve().parent != (src / "entdist").resolve():
        raise SystemExit(f"error: imported entdist from {entdist.__file__}, not {src}")


def main(argv: list[str] | None = None) -> int:
    args = _args(argv)
    nproc = _cap_threads()
    _import_program()
    import report
    import tracing
    import workloads

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    try:
        bench = workloads.Bench(args.workload, args.seed, ROOT, scratch)
        run = workloads.Run()
        bench.setup(run)
        bench.measure(args.seconds, run)
        if args.trace:
            bench.replay(run)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    every = run.outcomes + run.replayed
    failed = [o for o in every if o.error or o.wrong]
    wrong = [o for o in every if o.wrong]
    timed_failed = sum(1 for o in run.outcomes if o.error or o.wrong)
    values, named, notes = report.end_to_end(run, args.workload, workloads.ROUND[args.workload])
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": report.environment(
            args.seed, nproc, {var: os.environ[var] for var in THREAD_VARS}
        ),
        "end_to_end": values,
        "by_class": named,
        "failed_ratio": timed_failed / len(run.outcomes),
        "kernel_costs_computed": report.kernel_costs(workloads.STATE_SIZES),
        "outcomes": [vars(o) for o in every],
    }

    env = record["environment"]
    print(
        f"workload {args.workload}  seed {args.seed} (held-out seed {env['held_out_seed']})  "
        f"nproc {env['nproc']}  BLAS {env['blas']} threads {env['blas_threads']['OMP_NUM_THREADS']}  "
        f"python {env['python']} numpy {env['numpy']} scipy {env['scipy']}"
    )
    for name, unit in report.END_TO_END.items():
        print(f"  {name:22s} {values[name]:14.6g} {unit:4s}  {notes.get(name, '')}")
    for name, value in named.items():
        unit = "1/s" if name in report.NAMED_RATE or name == "ops_per_s" else "s"
        print(f"  {name:22s} {value:14.6g} {unit:4s}  {notes.get(name, '')}")
    refs: dict[str, list[float]] = {}
    for o in run.outcomes:
        refs.setdefault(workloads.KERNEL_OF[o.cls], []).append(o.ref_s)
    for kernel, times in refs.items():
        times.sort()
        print(
            f"  reference kernel {kernel}: median {times[len(times) // 2]:.6g} s, "
            f"range {times[0]:.6g} to {times[-1]:.6g} s around {len(times)} operations"
        )
    print(
        f"  {'failed_ratio':22s} {record['failed_ratio']:14.6g} {'1':4s}  "
        f"{timed_failed} of {len(run.outcomes)} operations"
    )
    for outcome in failed:
        print(f"  failed {outcome.key}: {outcome.error or outcome.wrong}")
    print(f"  caches {env['caches']}")
    for m, cost in record["kernel_costs_computed"].items():
        print(
            f"  computed M={m}: state {cost['state_bytes'] / 2**20:g} MiB, "
            f"w_vectors {cost['w_vectors']['bytes'] / 2**20:.0f} MiB moved "
            f"{cost['w_vectors']['flops'] / 1e6:.0f} Mflop, "
            f"metric_matrix {cost['metric_matrix']['bytes'] / 2**20:.0f} MiB moved "
            f"{cost['metric_matrix']['flops'] / 1e6:.0f} Mflop, "
            f"working set {cost['metric_matrix']['working_set_bytes'] / 2**20:g} MiB"
        )

    if args.trace:
        layers = report.layer_metrics(run)
        record["per_layer"] = layers
        record["peak_mib_by_span"] = tracing.peak_mib_by_name(run.spans)
        record["spans"] = run.spans
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in report.PER_LAYER.items()}
        for name, value in layers.items():
            print(f"  {name:44s} {value:14.6g} {report.PER_LAYER[name]}")
        peaks = ", ".join(f"{k} {v:.3g}" for k, v in record["peak_mib_by_span"].items())
        print(f"  tracemalloc peak MiB by span: {peaks}")
        print(
            f"  self times of {len(run.spans)} spans sum to "
            f"{sum(s['self'] for s in run.spans):.6g} s = untraced {run.untraced_s:.6g} s "
            f"+ tracing overhead {layers['trace.overhead_s']:.6g} s"
        )
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in report.END_TO_END.items()}

    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, default=str))
    print(f"  record written to {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {"correct": not wrong, "attempted": len(every), "failed": len(failed), "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
