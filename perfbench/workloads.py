"""Inputs, operations, output checks and schedules of the benchmark workloads.

Every workload is a closed loop with one client: one operation runs at a
time and the next starts when it has finished.  An operation is timed
from outside the program; its output is checked after the clock stops.

* ``single_state``: one dense state at a time through the ``measure``
  pipeline (state -> entanglement_metric -> spectrum -> to_dict -> JSON)
  for M = 16, 20, 22.  A 16-qubit state (1 MiB) fits in L2; at 22 qubits
  the state is 64 MiB and ``metric_matrix`` holds M copies of it, several
  times the last-level cache, so the metric kernels run from memory.
* ``family_sweep``: the figure drivers ``run_sweep``/``run_surface`` that
  reproduce the committed ``demos/output`` curves and surface, plus seeded
  extra sweeps.  Almost all per-state Python overhead; the kernels do
  little work.

``entdist measure`` and ``entdist verify`` (on a seeded 16-qubit state
file) also run as whole child processes, but only as probes of the traced
run (see ``Bench.replay``), so that the ``verify`` and ``cli.main`` layers
show there; import time, the start-up cost of such a process, is timed by
``setup_s`` on every workload.

A run executes a fixed schedule: whole rounds of the workload's own
operations (``ROUND``), as many as fit in ``--seconds`` at the nominal
round time measured on the reference host (``ROUND_SECONDS``).  The
operations, and so what is attempted and what fails, depend only on the
seed and the run length, never on how fast the host happens to be.
Around every operation a fixed reference kernel (``HostSpeed``) times the
host itself, so that an operation's time can be read relative to it.
"""
from __future__ import annotations

import dataclasses
import gzip
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from entdist import cli, families, metric, qstate, verify

from tracing import Tracer, adopt

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

WORKLOADS = ("single_state", "family_sweep")
STATE_SIZES = (16, 20, 22)
KINDS = ("haar", "brs", "ghzl")

# one round of each workload: its own classes of operation, interleaved so
# that every class samples the whole run; single_state has ten 16-qubit,
# two 20-qubit states and one 22-qubit state, family_sweep the five
# committed sweeps, three seeded extra sweeps and one surface
ROUND = {
    "single_state": (("state16",) * 5 + ("state20",)) * 2 + ("state22",),
    "family_sweep": ("sweep",) * 8 + ("surface",),
}
# seconds of operation time per round on the reference host (2 vCPU x86-64,
# OpenBLAS, 2 threads), which turn --seconds into a whole number of rounds
ROUND_SECONDS = {"single_state": 7.2, "family_sweep": 1.6}
# classes of operation of each workload, in order of first appearance
FOCUS = {name: tuple(dict.fromkeys(classes)) for name, classes in ROUND.items()}
# classes that run only in the traced run, so that every layer shows there
PROBES = ("cli_measure", "cli_verify")
# (reference file, family spec, swept angle, stop) for the committed sweeps
REFERENCE_SWEEPS = (
    ("chain_phase_m3", families.FamilySpec("brs", m=3), "phi", 2.0 * np.pi),
    ("chain_phase_m4", families.FamilySpec("brs", m=4), "phi", 2.0 * np.pi),
    ("chain_phase_m7", families.FamilySpec("brs", m=7), "phi", 2.0 * np.pi),
    ("chain_phase_m9", families.FamilySpec("brs", m=9), "phi", 2.0 * np.pi),
    ("ghz_like_m3", families.FamilySpec("ghzl", m=3), "theta", np.pi / 2.0),
)
SURFACE_REFERENCE = "three_qubit_surface"
SWEEP_POINTS = 201
SURFACE_POINTS = 101
REFERENCE_RTOL = 1e-15
CLI_VERIFY_QUBITS = 16
CLI_VERIFY_TRIALS = 20


def value_tol(m: int) -> float:
    """Allowed gap between two evaluations of E for m qubits.

    Sums run over 2^m amplitudes for each of m qubits, so rounding grows
    with m times the summation depth log2(2^m) = m; the factor 1000 leaves
    room for the pairwise-summation constant.
    """
    return 1000.0 * m * m * np.finfo(float).eps


class OpFailed(Exception):
    """The program refused an operation (nonzero exit of a child process)."""


@dataclass
class Op:
    """One operation: a timed call and a check of what it returned."""

    cls: str
    key: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    points: int = 1


@dataclass
class Outcome:
    """Time and verdict of one executed operation."""

    cls: str
    key: str
    seconds: float
    points: int
    error: str | None = None
    wrong: str | None = None
    # mean time of the matched reference kernel just before and just after
    ref_s: float | None = None


@dataclass
class Run:
    """Everything one run measured."""

    outcomes: list[Outcome] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    import_s: list[float] = field(default_factory=list)
    import_scipy_s: list[float] = field(default_factory=list)
    peak_rss_mib: float = 0.0
    replayed: list[Outcome] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)
    untraced_s: float = 0.0
    traced_s: float = 0.0


# ---------------------------------------------------------------- inputs


def haar_amplitudes(seed: int, m: int) -> np.ndarray:
    """Haar-random dense state: normalized complex Gaussian amplitudes."""
    rng = np.random.default_rng([seed, m, 1])
    amps = rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m)
    amps /= np.linalg.norm(amps)
    return amps


def read_reference(name: str) -> tuple[list[str], np.ndarray]:
    with gzip.open(REFERENCE_DIR / f"{name}.csv.gz", "rt", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows)


def parse_import_times(stderr: str) -> tuple[float, float]:
    """(entdist, scipy) cumulative import seconds from ``-X importtime``.

    Children are listed before their parent; an entry's parent is the next
    entry at a lower nesting level.  scipy time is the sum over scipy
    modules whose parent is not itself a scipy module.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        level = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((level, name.strip(), int(cumulative) * 1e-6))
    total = scipy_s = 0.0
    for i, (level, name, cumulative) in enumerate(entries):
        if name == "entdist":
            total = cumulative
        if name.split(".")[0] != "scipy":
            continue
        parent = next((e[1] for e in entries[i + 1 :] if e[0] < level), "")
        if parent.split(".")[0] != "scipy":
            scipy_s += cumulative
    return total, scipy_s


# ---------------------------------------------------------------- host speed

# reference kernel of each class of operation, matched by its bottleneck:
# from 20 qubits on, metric_matrix's working set (M states) exceeds the
# last-level cache and the operation streams from memory
KERNEL_OF = {
    "state16": "compute",
    "state20": "memory",
    "state22": "memory",
    "sweep": "compute",
    "surface": "compute",
}


class HostSpeed:
    """Fixed reference kernels that time how fast the host runs right now.

    The benchmark's host is shared: the same code ran up to 1.6 times
    slower for minutes at a time.  An operation's time divided by the time
    of its matched kernel, taken just before and just after it, cancels
    most of that.  Neither kernel calls entdist.

    * ``compute``: 300 small symmetric eigenvalue problems and products
      through NumPy and LAPACK, interpreter-bound like the per-state work
      of a sweep.
    * ``memory``: one product and inner product over a 64 MiB complex
      vector, a fresh temporary each time, like the metric kernels on a
      state larger than the last-level cache.
    """

    REPEATS = 3

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        small = rng.standard_normal((3, 3))
        self._small = small + small.T
        self._big: np.ndarray | None = None

    def _compute(self) -> None:
        for _ in range(300):
            np.linalg.eigvalsh(self._small)
            np.dot(self._small, self._small).sum()

    def _memory(self) -> None:
        if self._big is None:
            self._big = np.random.default_rng(1).standard_normal(1 << 22) + 0j
        np.vdot(self._big, self._big * 1.0000001)

    def time(self, kernel: str) -> float:
        """Median of ``REPEATS`` timings of one kernel, in seconds."""
        run = self._compute if kernel == "compute" else self._memory
        times = []
        for _ in range(self.REPEATS):
            t0 = time.perf_counter()
            run()
            times.append(time.perf_counter() - t0)
        return sorted(times)[len(times) // 2]


# ---------------------------------------------------------------- checks


def check_state(m: int, kind: str, params: dict, out) -> str | None:
    """E in [0, M/4], sum of eigenvalues = E, ghzl closed form, partial-trace E."""
    state, record, text = out
    e = record["measure"]
    tol = value_tol(m)
    if json.loads(text)["measure"] != e:
        return "serialised measure differs from the record"
    if not 0.0 <= e <= m / 4.0:
        return f"E = {e!r} outside [0, {m / 4}]"
    gap = abs(math.fsum(record["eigenvalues"]) - e)
    if gap > tol:
        return f"sum of eigenvalues differs from E by {gap:.3e} > {tol:.3e}"
    if kind == "ghzl":
        closed = m / 4.0 * math.sin(2.0 * params["theta"]) ** 2
        if abs(closed - e) > tol:
            return f"ghzl closed form {closed!r} differs from E = {e!r}"
    bloch_sq = sum(float(np.sum(verify.bloch_vector_oracle(state, q) ** 2)) for q in range(m))
    oracle = 0.25 * (m - bloch_sq)
    if abs(oracle - e) > tol:
        return f"partial-trace E = {oracle!r} differs from E = {e!r} by more than {tol:.3e}"
    return None


def check_reference(header: list[str], ref: np.ndarray, out) -> str | None:
    """Rows equal the committed figure data to REFERENCE_RTOL relative."""
    got_header, rows = out
    if got_header != header:
        return f"header {got_header} differs from the reference {header}"
    got = np.array(rows)
    if got.shape != ref.shape:
        return f"shape {got.shape} differs from the reference {ref.shape}"
    gap = np.abs(got - ref)
    bad = gap > REFERENCE_RTOL * np.maximum(np.abs(got), np.abs(ref))
    if np.any(bad):
        row, col = np.argwhere(bad)[0]
        return f"row {row + 1} column {header[col]}: {got[row, col]!r} != {ref[row, col]!r}"
    return None


def check_closed_form(spec: cli.SweepSpec, out) -> str | None:
    """E column against the family's independent closed form, row by row."""
    _, rows = out
    m = spec.family.m
    tol = value_tol(m)
    for value, row in zip(np.linspace(spec.start, spec.stop, spec.points), rows):
        fam = dataclasses.replace(spec.family, **{spec.parameter: float(value)})
        closed = families.closed_form_E(fam).value
        e = row[1]
        if not 0.0 <= e <= m / 4.0 or abs(e - closed) > tol:
            return f"{fam}: E = {e!r}, closed form {closed!r}"
        if abs(math.fsum(row[3:]) - e) > tol:
            return f"{fam}: eigenvalues do not sum to E = {e!r}"
    return None


def check_cli(first: dict, name: str, expect: Callable[[dict], bool], out) -> str | None:
    """Identical bytes across invocations, and the expected JSON content."""
    stdout = out
    if name not in first:
        first[name] = stdout
    elif stdout != first[name]:
        return f"{name}: stdout differs from the first invocation"
    if not expect(json.loads(stdout)):
        return f"{name}: unexpected output {stdout[:200]!r}"
    return None


# ---------------------------------------------------------------- the bench


class Bench:
    """One run of one workload; inputs come only from the seed."""

    def __init__(self, workload: str, seed: int, root: Path, scratch: Path) -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
        self.workload = workload
        self.seed = seed % (1 << 64)  # numpy seed sequences take non-negative integers
        self.root = root
        self.scratch = scratch
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.tracer: Tracer | None = None
        self.host = HostSpeed()
        self._haar: dict[int, np.ndarray] = {}
        self._references: dict[str, tuple[list[str], np.ndarray]] = {}
        self._state_file: Path | None = None
        self._first_stdout: dict[str, bytes] = {}
        self._streams: dict[str, Iterator[Op]] = {}

    # inputs ---------------------------------------------------------

    def _prepare(self, cls: str) -> None:
        """Generate the inputs of one class of operation."""
        if cls.startswith("state"):
            m = int(cls[5:])
            if m not in self._haar:
                self._haar[m] = haar_amplitudes(self.seed, m)
        elif cls in ("sweep", "surface"):
            for name, *_ in REFERENCE_SWEEPS:
                if name not in self._references:
                    self._references[name] = read_reference(name)
            if SURFACE_REFERENCE not in self._references:
                self._references[SURFACE_REFERENCE] = read_reference(SURFACE_REFERENCE)
        elif cls == "cli_verify" and self._state_file is None:
            amps = haar_amplitudes(self.seed, CLI_VERIFY_QUBITS)
            path = self.scratch / "state16.json"
            qstate.write_state_file(path, qstate.StateVector(CLI_VERIFY_QUBITS, amps))
            self._state_file = path

    def setup(self, run: Run, repeats: int = 3) -> None:
        """Time fresh-interpreter import plus input generation, ``repeats`` times."""
        for _ in range(repeats):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import entdist"],
                env=self.env,
                cwd=self.root,
                capture_output=True,
                text=True,
                check=True,
            )
            self._haar.clear()
            self._references.clear()
            self._state_file = None
            for cls in FOCUS[self.workload]:
                self._prepare(cls)
            run.setup_s.append(time.perf_counter() - t0)
            import_s, scipy_s = parse_import_times(proc.stderr)
            run.import_s.append(import_s)
            run.import_scipy_s.append(scipy_s)

    # operation streams ---------------------------------------------

    def _stream(self, cls: str) -> Iterator[Op]:
        if cls not in self._streams:
            self._prepare(cls)
            if cls.startswith("state"):
                self._streams[cls] = self._state_ops(int(cls[5:]))
            elif cls == "sweep":
                self._streams[cls] = self._sweep_ops()
            elif cls == "surface":
                self._streams[cls] = self._surface_ops()
            else:
                self._streams[cls] = self._cli_ops(cls)
        return self._streams[cls]

    def _state_ops(self, m: int) -> Iterator[Op]:
        """Kinds cycle haar, brs, ghzl; angles are uniform from the seed."""
        rng = np.random.default_rng([self.seed, m, 2])
        for i in itertools.count():
            kind = KINDS[i % len(KINDS)]
            if kind == "haar":
                params: dict = {}
            elif kind == "brs":
                params = {"phi": float(rng.uniform(0.0, 2.0 * np.pi))}
            else:
                params = {
                    "theta": float(rng.uniform(0.0, np.pi)),
                    "phase": float(rng.uniform(0.0, 2.0 * np.pi)),
                }
            yield Op(
                cls=f"state{m}",
                key=f"state{m}-{kind}",
                run=self._state_run(m, kind, params),
                check=lambda out, m=m, kind=kind, params=params: check_state(m, kind, params, out),
            )

    def _state_run(self, m: int, kind: str, params: dict) -> Callable[[], Any]:
        amps = self._haar[m]

        def run():
            if kind == "haar":
                state = qstate.StateVector(m, amps)
            else:
                state = families.family_state(families.FamilySpec(kind, m=m, **params))
            em = metric.entanglement_metric(state)
            metric.spectrum(em)
            record = em.to_dict()
            return state, record, json.dumps(record)

        return run

    def _sweep_ops(self) -> Iterator[Op]:
        """The committed sweeps, then three seeded extras, over and over.

        Extras cycle through families with an independent closed form:
        brs at m = 2, 3, ghzl at m = 2..9 and the three-qubit family.
        """
        rng = np.random.default_rng([self.seed, 0, 3])
        for cycle in itertools.count():
            for name, fam, parameter, stop in REFERENCE_SWEEPS:
                spec = cli.SweepSpec(fam, parameter, 0.0, stop, SWEEP_POINTS)
                header, ref = self._references[name]
                yield Op(
                    cls="sweep",
                    key=f"sweep-{name}",
                    run=lambda spec=spec: cli.run_sweep(spec),
                    check=lambda out, h=header, r=ref: check_reference(h, r, out),
                    points=SWEEP_POINTS,
                )
            extras = (
                (families.FamilySpec("brs", m=2 + cycle % 2), "phi", 2.0 * np.pi),
                (
                    families.FamilySpec(
                        "ghzl", m=2 + cycle % 8, phase=float(rng.uniform(0, 2 * np.pi))
                    ),
                    "theta",
                    np.pi,
                ),
                (
                    families.FamilySpec("threeq", m=3, gamma=float(rng.uniform(0, np.pi))),
                    "tau",
                    np.pi,
                ),
            )
            for fam, parameter, period in extras:
                start = float(rng.uniform(0.0, period))
                stop = start + float(rng.uniform(0.1, 1.0)) * period
                spec = cli.SweepSpec(fam, parameter, start, stop, SWEEP_POINTS)
                yield Op(
                    cls="sweep",
                    key=f"sweep-extra-{fam.tag}",
                    run=lambda spec=spec: cli.run_sweep(spec),
                    check=lambda out, spec=spec: check_closed_form(spec, out),
                    points=SWEEP_POINTS,
                )

    def _surface_ops(self) -> Iterator[Op]:
        header, ref = self._references[SURFACE_REFERENCE]
        while True:
            yield Op(
                cls="surface",
                key="surface",
                run=lambda: cli.run_surface((0.0, np.pi), (0.0, np.pi), SURFACE_POINTS),
                check=lambda out: check_reference(header, ref, out),
                points=SURFACE_POINTS * SURFACE_POINTS,
            )

    def _cli_ops(self, cls: str) -> Iterator[Op]:
        if cls == "cli_measure":
            args = ["measure", "--family", "ghzl", "--m", "3"]
            expect = lambda payload: payload["measure"] == 0.0 and payload["m"] == 3  # noqa: E731
        else:
            args = [
                "verify",
                "--state-file",
                str(self._state_file),
                "--trials",
                str(CLI_VERIFY_TRIALS),
            ]
            expect = lambda payload: payload["passed"] is True  # noqa: E731
        while True:
            yield Op(
                cls=cls,
                key=cls,
                run=lambda: self._child(args),
                check=lambda out: check_cli(self._first_stdout, cls, expect, out),
            )

    def _child(self, args: list[str]) -> bytes:
        """Run ``entdist <args>`` as a whole process; its stdout is the output."""
        cmd = [sys.executable]
        if self.tracer is None:
            cmd += ["-c", "import sys; from entdist.cli import main; sys.exit(main())"]
        else:
            spans_file = self.scratch / f"spans-{self.tracer.op}.json"
            cmd += [str(HERE / "traced_child.py"), str(spans_file)]
        proc = subprocess.run(cmd + args, env=self.env, cwd=self.root, capture_output=True)
        if self.tracer is not None and spans_file.exists():
            spans = json.loads(spans_file.read_text())
            self.tracer.spans.extend(adopt(spans, self.tracer.current()))
            spans_file.unlink()
        if proc.returncode != 0:
            raise OpFailed(f"exit {proc.returncode}: {proc.stderr.decode()[-300:].strip()}")
        return proc.stdout

    # running --------------------------------------------------------

    def execute(self, op: Op, into: list[Outcome]) -> Outcome:
        """Time one operation, then check its output with the clock stopped."""
        tracer = self.tracer
        if tracer is not None:
            tracer.op = f"op{len(into)}"
            tracer.active = True
            span = tracer.begin(f"op.{op.cls}")
        t0 = time.perf_counter()
        try:
            out = op.run()
            error = None
        except (ValueError, OpFailed) as exc:
            out, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(span)
            tracer.active = False
        outcome = Outcome(op.cls, op.key, seconds, op.points, error=error)
        if error is None:
            outcome.wrong = op.check(out)
        into.append(outcome)
        return outcome

    def schedule(self, seconds: float) -> list[str]:
        """Classes of the operations one run executes, in order.

        Whole rounds, as many as take ``seconds`` at the nominal round
        time, and at least one.
        """
        rounds = max(1, round(seconds / ROUND_SECONDS[self.workload]))
        return list(ROUND[self.workload]) * rounds

    def warm_up(self) -> None:
        """Run one operation of each class, unrecorded, before the clock runs.

        Lazy initialisation (first calls into LAPACK, scipy's lazily loaded
        submodules, the file cache for child processes) finishes here.  The
        22-qubit state is left out: the 20-qubit one takes the same paths.
        """
        for cls in FOCUS[self.workload]:
            self.host.time(KERNEL_OF[cls])
            if cls != "state22":
                next(self._stream(cls)).run()
        self._streams.clear()

    def measure(self, seconds: float, run: Run) -> None:
        """Execute the schedule untraced, then read the peak resident set.

        The matched reference kernel runs before every operation and once
        at the end; an operation's ``ref_s`` is the mean of the kernel's
        times just before and just after it.
        """
        self.warm_up()
        waiting: dict[str, Outcome] = {}

        def reference(kernel: str) -> float:
            ref = self.host.time(kernel)
            if kernel in waiting:
                outcome = waiting.pop(kernel)
                outcome.ref_s = (outcome.ref_s + ref) / 2.0
            return ref

        for cls in self.schedule(seconds):
            op = next(self._stream(cls))
            ref = reference(KERNEL_OF[cls])
            outcome = self.execute(op, run.outcomes)
            outcome.ref_s = ref
            waiting[KERNEL_OF[cls]] = outcome
        for kernel in list(waiting):
            reference(kernel)
        run.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def replay(self, run: Run) -> None:
        """Traced pass: the first operation of each key again, with spans on.

        So that every layer shows in every traced run, one operation of each
        class the workload does not run (a probe: the other workload's
        classes and ``PROBES``) is added; probes run once untraced first.
        Untraced and traced times of the same operations give the overhead.  CLI output is compared with the untraced
        invocations, so tracing must leave stdout unchanged.
        """
        first: dict[str, Outcome] = {}
        for outcome in run.outcomes:
            first.setdefault(outcome.key, outcome)
        self._streams.clear()
        ops = [self._next_with_key(o.cls, o.key) for o in first.values()]
        probes = [
            next(self._stream(cls))
            for cls in dict.fromkeys([c for w in WORKLOADS for c in FOCUS[w]] + list(PROBES))
            if cls not in FOCUS[self.workload]
        ]
        untraced = [o.seconds for o in first.values()]
        untraced += [self.execute(op, run.replayed).seconds for op in probes]
        self.tracer = Tracer()
        self.tracer.install()
        tracemalloc.start()
        try:
            for op in ops + probes:
                self.execute(op, run.replayed)
        finally:
            tracemalloc.stop()
            self.tracer.uninstall()
        run.spans = self.tracer.spans
        run.untraced_s = sum(untraced)
        run.traced_s = sum(o.seconds for o in run.replayed[len(probes) :])

    def _next_with_key(self, cls: str, key: str) -> Op:
        stream = self._stream(cls)
        op = next(stream)
        while op.key != key:
            op = next(stream)
        return op
