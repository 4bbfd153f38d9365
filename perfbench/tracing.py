"""Spans around calls into entdist's public functions, recorded from outside.

The tracer replaces public functions on the entdist module objects with
wrappers that record a span (name, start, end, parent, operation id) per
call; for the dataclasses it wraps ``__post_init__``, where the validation
runs.  Nothing under ``src/`` changes.  Spans are kept in memory and
written out when the run ends.  While tracemalloc is on, each span also
records its tracemalloc peak above the memory in use when it began.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import tracemalloc
import weakref
from collections import defaultdict

# (module, attribute); the span is named "<module tail>.<attribute>"
TARGETS = (
    ("entdist.qstate", "StateVector"),
    ("entdist.qstate", "apply_local_unitary"),
    ("entdist.qstate", "read_state_file"),
    ("entdist.families", "family_state"),
    ("entdist.metric", "w_vectors"),
    ("entdist.metric", "optimal_directions"),
    ("entdist.metric", "entanglement_measure"),
    ("entdist.metric", "metric_matrix"),
    ("entdist.metric", "EntanglementMetric"),
    ("entdist.metric", "entanglement_metric"),
    ("entdist.metric", "spectrum"),
    ("entdist.verify", "invariance_check"),
    ("entdist.verify", "minimize_trace_numeric"),
    ("entdist.verify", "bloch_vector_oracle"),
    ("entdist.cli", "run_sweep"),
    ("entdist.cli", "run_surface"),
    ("entdist.cli", "main"),
)

SPAN_NAMES = tuple(f"{module.rsplit('.', 1)[1]}.{attr}" for module, attr in TARGETS)

_STATE_ARG = {"metric.w_vectors", "metric.entanglement_metric", "metric.metric_matrix"}


def metric_matrix_bytes(m: int) -> int:
    """Computed bytes moved by one ``metric_matrix`` call on m qubits.

    M single-qubit applications each read and write one complex128 state
    (32 N bytes), M expectations each read two vectors (32 N) and the
    M(M-1)/2 pair products read two vectors each (32 N): 16 M N (M + 3).
    """
    n = 1 << m
    return 16 * m * n * (m + 3)


class _StateKeys:
    """Stable small integers for live StateVector objects, by identity."""

    def __init__(self) -> None:
        self._refs: dict[int, tuple[weakref.ref, int]] = {}
        self._next = 0

    def key(self, obj) -> int:
        ident = id(obj)
        entry = self._refs.get(ident)
        if entry is None or entry[0]() is not obj:
            self._next += 1
            ref = weakref.ref(obj, lambda _, ident=ident: self._refs.pop(ident, None))
            entry = self._refs[ident] = (ref, self._next)
        return entry[1]


class Tracer:
    """In-memory span recorder with wrappers for the entdist modules."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.active = False
        self.op: str | None = None
        self._pid = os.getpid()
        self._count = 0
        self._open: list[list] = []  # [span, memory at start, peak so far]
        self._keys = _StateKeys()
        self._undo: list[tuple[object, str, object]] = []

    # spans -----------------------------------------------------------

    def begin(self, name: str, **attrs) -> dict:
        self._count += 1
        span = {
            "id": f"{self._pid}:{self._count}",
            "name": name,
            "parent": self._open[-1][0]["id"] if self._open else None,
            "op": self.op,
            **attrs,
        }
        current = peak = 0
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            if self._open:
                self._open[-1][2] = max(self._open[-1][2], peak)
            tracemalloc.reset_peak()
        self._open.append([span, current, current])
        span["start"] = time.perf_counter()
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        entry = self._open.pop()
        if entry[0] is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")
        if tracemalloc.is_tracing():
            peak = max(entry[2], tracemalloc.get_traced_memory()[1])
            span["peak_bytes"] = peak - entry[1]
            if self._open:
                self._open[-1][2] = max(self._open[-1][2], peak)
        self.spans.append(span)

    def current(self) -> dict:
        """The innermost open span."""
        return self._open[-1][0]

    # wrapping --------------------------------------------------------

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            attrs = {}
            if name in _STATE_ARG:
                attrs["state"] = f"{self._pid}:{self._keys.key(args[0])}"
                attrs["m"] = int(args[0].num_qubits)
            span = self.begin(name, **attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if name == "verify.minimize_trace_numeric":
                span["iterations"] = int(result.iterations)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target on every entdist module that holds a reference."""
        for module_name, _ in TARGETS:
            importlib.import_module(module_name)
        modules = [m for n, m in sys.modules.items() if n == "entdist" or n.startswith("entdist.")]
        for (module_name, attr), name in zip(TARGETS, SPAN_NAMES):
            obj = getattr(sys.modules[module_name], attr)
            if isinstance(obj, type):
                original = obj.__dict__["__post_init__"]
                setattr(obj, "__post_init__", self._wrap(original, name))
                self._undo.append((obj, "__post_init__", original))
                continue
            wrapper = self._wrap(obj, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is obj:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, obj))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)


def adopt(spans: list[dict], parent: dict) -> list[dict]:
    """Attach spans recorded in a child process below ``parent``."""
    for span in spans:
        if span["parent"] is None:
            span["parent"] = parent["id"]
        span["op"] = parent["op"]
    return spans


def self_times(spans: list[dict]) -> None:
    """Set span["self"]: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    for span in spans:
        covered = 0.0
        reach = span["start"]
        for child in sorted(children[span["id"]], key=lambda c: c["start"]):
            lo = max(child["start"], reach)
            hi = min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        span["self"] = (span["end"] - span["start"]) - covered


def per_layer(spans: list[dict]) -> dict[str, float]:
    """Aggregate spans (self times already set) into the per-layer metrics."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for span in spans:
        calls[span["name"]] += 1
        self_s[span["name"]] += span["self"]
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    pipeline = {s["state"] for s in spans if s["name"] == "metric.entanglement_metric"}
    repeated = sum(
        1 for s in spans if s["name"] == "metric.w_vectors" and s["state"] in pipeline
    )
    out["metric.w_vectors.calls_per_state"] = repeated / len(pipeline) if pipeline else 0.0
    matrices = [s for s in spans if s["name"] == "metric.metric_matrix"]
    out["metric.metric_matrix.peak_mib"] = max(
        (s.get("peak_bytes", 0) for s in matrices), default=0
    ) / 2**20
    out["metric.metric_matrix.bytes_computed"] = sum(metric_matrix_bytes(s["m"]) for s in matrices)
    out["verify.minimize_trace_numeric.iterations"] = sum(
        s.get("iterations", 0) for s in spans if s["name"] == "verify.minimize_trace_numeric"
    )
    return out


def peak_mib_by_name(spans: list[dict]) -> dict[str, float]:
    """Largest tracemalloc peak of any span of each name, in MiB."""
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        out[span["name"]] = max(out[span["name"]], span.get("peak_bytes", 0) / 2**20)
    return dict(out)
