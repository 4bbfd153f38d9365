"""Metrics, environment record and computed kernel costs for one run.

The gated end-to-end metrics are the same five on every workload, each
taken from that workload's own operations (``typical_seconds``: the
mean over kinds of operation of each kind's median time).  ``small_op_s``
is a 16-qubit state on single_state and a 201-point sweep on family_sweep;
``large_op_s`` is a 22-qubit state and a 101x101 surface; ``ops_per_s``
prices one round of the workload's mix (20-qubit states are a quarter of
it on single_state); ``setup_s`` includes a fresh interpreter's
``import entdist``.  The metrics named by class of operation are printed
and recorded for the workload that runs that class: ``m16/m20/m22_p50_s``
on single_state, ``sweep/surface_points_per_s`` on family_sweep.

Which of those each per-layer metric should move, and where:

* ``qstate.StateVector``: ``surface_points_per_s`` (family_sweep) and
  ``m22_p50_s`` (single_state).
* ``families.family_state``: ``surface_points_per_s``, and ``m22_p50_s``
  for brs states at large M.
* ``metric.w_vectors`` (``calls_per_state`` is a waste ratio, 2.0 while
  ``entanglement_metric`` computes the bilinears twice): ``m20_p50_s``,
  ``m22_p50_s``.
* ``metric.metric_matrix`` (self time, tracemalloc peak, computed bytes):
  ``m22_p50_s`` and ``peak_rss_mib`` on single_state, not family_sweep.
* ``metric.optimal_directions``, ``metric.EntanglementMetric``,
  ``metric.spectrum``: ``sweep_points_per_s``.
* ``metric.entanglement_measure``: ``surface_points_per_s``.
* ``cli.run_sweep``, ``cli.run_surface``: ``sweep_points_per_s``,
  ``surface_points_per_s``.
* ``cli.import_s``, ``cli.import_scipy_s``: ``setup_s`` everywhere.
* ``verify.*`` (self times, L-BFGS-B iterations),
  ``qstate.apply_local_unitary``, ``qstate.read_state_file`` and
  ``cli.main`` come from the CLI probes of the traced run; they move the
  time of an ``entdist verify`` or ``measure`` process, which no gated
  metric times.
"""
from __future__ import annotations

import os
import platform
import statistics
import sys
from pathlib import Path

import numpy as np

from tracing import SPAN_NAMES, metric_matrix_bytes, per_layer, self_times

# a seed kept out of development: a later gain claim must also hold on it
HELD_OUT_SEED = 7_919_041

# gated metrics: every workload reports each of them for its own operations
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "small_op_ref": "ref",
    "large_op_ref": "ref",
    "round_ref": "ref",
}
# the class of operation behind small_op_* and large_op_* on each workload
SMALL = {"single_state": "state16", "family_sweep": "sweep"}
LARGE = {"single_state": "state22", "family_sweep": "surface"}
PER_LAYER = {
    **{f"{name}.{stat}": unit for name in SPAN_NAMES for stat, unit in (("calls", "count"), ("self_s", "s"))},
    "metric.w_vectors.calls_per_state": "ratio",
    "metric.metric_matrix.peak_mib": "MiB",
    "metric.metric_matrix.bytes_computed": "B",
    "verify.minimize_trace_numeric.iterations": "count",
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
}
# metrics by operation class, printed and recorded for the classes a
# workload runs
NAMED_P50 = {
    "m16_p50_s": "state16",
    "m20_p50_s": "state20",
    "m22_p50_s": "state22",
}
NAMED_RATE = {"sweep_points_per_s": "sweep", "surface_points_per_s": "surface"}


def tail(values: list[float]) -> str:
    """The highest of p99.9/p99/p90 with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return f"p{p:g}={float(np.percentile(values, p)):.6g} (n={n})"
    return f"no percentile with 10 samples beyond it (n={n})"


def typical(outcomes: list, relative: bool = False) -> float:
    """Mean over the kinds of operation (keys) of each kind's median time.

    Kinds within a class differ in cost (a 9-qubit sweep against a 3-qubit
    one, a Haar state against a GHZ-like one), so every kind counts once
    however its samples fall; the median within a kind drops bursts of
    contention on a shared host.  ``relative`` divides each time by the
    operation's ``ref_s`` first.
    """
    by_key: dict[str, list[float]] = {}
    for o in outcomes:
        by_key.setdefault(o.key, []).append(o.seconds / o.ref_s if relative else o.seconds)
    return statistics.fmean(statistics.median(times) for times in by_key.values())


def end_to_end(run, workload: str, round_classes: tuple[str, ...]) -> tuple[dict, dict, dict]:
    """Gated metrics and informative ones of the untraced pass, with a note for each."""
    by_cls: dict[str, list] = {}
    for outcome in run.outcomes:
        by_cls.setdefault(outcome.cls, []).append(outcome)
    p50 = {cls: statistics.median(o.seconds for o in group) for cls, group in by_cls.items()}
    seconds = {cls: typical(group) for cls, group in by_cls.items()}
    ref = {cls: typical(group, relative=True) for cls, group in by_cls.items()}
    small, large = SMALL[workload], LARGE[workload]
    values = {
        "setup_s": statistics.median(run.setup_s),
        "peak_rss_mib": run.peak_rss_mib,
        "small_op_ref": ref[small],
        "large_op_ref": ref[large],
        # one round with each operation at its class's typical time
        "round_ref": sum(ref[cls] for cls in round_classes),
    }
    notes = {
        "setup_s": f"median of {len(run.setup_s)} set-ups",
        "peak_rss_mib": "this process",
        "small_op_ref": f"{small} over its reference kernel, mean over kinds of the median",
        "large_op_ref": f"{large} over its reference kernel, mean over kinds of the median",
        "round_ref": f"one round of {len(round_classes)} operations over their reference kernels",
        "small_op_s": f"{small}, mean over kinds of the median; p50 {p50[small]:.6g}, "
        + tail([o.seconds for o in by_cls[small]]),
        "large_op_s": f"{large}, mean over kinds of the median; p50 {p50[large]:.6g}, "
        + tail([o.seconds for o in by_cls[large]]),
        "ops_per_s": f"{len(round_classes)} operations of one round, each at its class's typical time",
    }
    named = {
        "small_op_s": seconds[small],
        "large_op_s": seconds[large],
        "ops_per_s": len(round_classes) / sum(seconds[cls] for cls in round_classes),
    }
    named_notes = {}
    for name, cls in NAMED_P50.items():
        if cls in by_cls:
            named[name] = p50[cls]
            named_notes[name] = tail([o.seconds for o in by_cls[cls]])
    # a rate adds one call of each kind at its median time, so one slow call
    # or a different number of calls per kind does not move it
    for name, cls in NAMED_RATE.items():
        if cls not in by_cls:
            continue
        by_key: dict[str, list] = {}
        for outcome in by_cls[cls]:
            by_key.setdefault(outcome.key, []).append(outcome)
        points = sum(group[0].points for group in by_key.values())
        seconds = sum(statistics.median(o.seconds for o in group) for group in by_key.values())
        named[name] = points / seconds
        named_notes[name] = (
            f"one call of each of {len(by_key)} kinds at its median time, {len(by_cls[cls])} calls"
        )
    return values, named, {**notes, **named_notes}


def layer_metrics(run) -> dict[str, float]:
    """Per-layer metrics of the traced pass, plus import times and tracing overhead."""
    self_times(run.spans)
    out = per_layer(run.spans)
    out["cli.import_s"] = statistics.median(run.import_s)
    out["cli.import_scipy_s"] = statistics.median(run.import_scipy_s)
    out["trace.untraced_s"] = run.untraced_s
    out["trace.traced_s"] = run.traced_s
    out["trace.overhead_s"] = run.traced_s - run.untraced_s
    return out


def caches() -> dict[str, str]:
    """Cache sizes as the kernel reports them for cpu0."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def kernel_costs(sizes: tuple[int, ...]) -> dict[int, dict]:
    """Computed (not measured) bytes moved and flops of the two metric kernels.

    ``w_vectors``: |c|^2 once (read 16N, write 8N twice, read 8N), then per
    qubit two conjugated halves (write and read 8N each), two contractions
    (read 16N each) and two probability half-sums (read 8N): 40N + 72MN
    bytes, 5N + 9MN flops.  ``metric_matrix``: see ``metric_matrix_bytes``;
    14 flops per output amplitude for each of M 2x2 applications and 8 per
    element for each of M + M(M-1)/2 inner products.  N = 2^M amplitudes.
    """
    out = {}
    for m in sizes:
        n = 1 << m
        out[m] = {
            "state_bytes": 16 * n,
            "w_vectors": {"bytes": 40 * n + 72 * m * n, "flops": 5 * n + 9 * m * n},
            "metric_matrix": {
                "bytes": metric_matrix_bytes(m),
                "flops": 14 * m * n + 8 * m * n + 4 * m * (m - 1) * n,
                "working_set_bytes": 16 * m * n,
            },
        }
    return out


def environment(seed: int, nproc: int, threads: dict[str, str]) -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "caches": caches(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }
