"""Command-line front end: measure states, sweep families, emit figure data.

Subcommands: ``measure``, ``eigs``, ``sweep``, ``surface``, ``verify``.
``measure``, ``eigs`` and ``verify`` take one state source: a named family
(--family and its flags, parsed by the ``FamilySpec`` constructor) or an
amplitude file (--state-file).
Exit codes: 0 ok; 1 verification failure; 2 an argument, I/O or state
file parse error, or out of memory; 3 a --state-file state fails
validation; 4 any fault after the inputs are accepted, a family state that
fails validation included.  Every command-line value refused by an input
rule exits 2 through ``_accept``.  Identical invocations produce
byte-identical output with the same numpy, BLAS build and BLAS thread
count; CSV floats carry 17 significant digits and round-trip exactly.

The figure drivers ``run_sweep`` and ``run_surface`` return a header and
one float64 array of rows, which ``_csv_text`` alone turns into text.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import qstate
from .families import (
    FAMILY_ANGLES,
    FAMILY_TAGS,
    FamilySpec,
    family_amplitudes,
    family_state,
    three_qubit_amplitudes,
)
from .metric import (
    check_metrics,
    entanglement_metric,
    measure_from_bilinears,
    metric_matrices,
    optimal_directions,
)
from .qstate import (
    StateFileError,
    StateVector,
    bilinears,
    bloch_vectors,
    read_state_file,
    validate_amplitudes,
)
from .verify import verify_state

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_INVALID_STATE = 3
EXIT_INTERNAL = 4

class InvalidStateError(Exception):
    """A --state-file state failed validation (exit 3); a family state that fails is exit 4."""


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep of a family angle over a uniform grid."""

    family: FamilySpec
    parameter: str
    start: float
    stop: float
    points: int

    def __post_init__(self) -> None:
        if self.parameter not in FAMILY_ANGLES[self.family.tag]:
            raise ValueError(
                f"family {self.family.tag!r} has no sweep angle {self.parameter!r}"
            )
        start, stop = _check_grid(self.parameter, self.start, self.stop, self.points)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "stop", stop)


def _check_grid(angle: str, start: float, stop: float, points: int) -> tuple[float, float]:
    """One grid rule for sweep and surface: real ends, a finite span, start < stop, integer points >= 2.

    Each end passes ``qstate.validate_real``, as ``angle '<name>' start`` or
    ``stop``, and the ends are returned as Python floats; a float infinity
    or NaN is left to the span check, whose message names both ends.
    """
    start, stop = (
        float(x) if isinstance(x, float) and not math.isfinite(x)
        else qstate.validate_real(f"angle {angle!r} {end}", x)
        for end, x in (("start", start), ("stop", stop))
    )
    # the span is finite only if both ends are and their difference does not overflow
    if not math.isfinite(stop - start):
        raise ValueError(
            f"angle {angle!r} range must be finite, got start = {start!r}, stop = {stop!r}"
        )
    if not start < stop:
        raise ValueError(f"angle {angle!r} range requires start < stop")
    qstate.validate_count(f"angle {angle!r} grid points", points, 2)
    return start, stop


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _chunk_points(m: int) -> int:
    """Points per sweep batch, P = 2^(ROW_BITS - M) and at least 1: one row of ``qstate.row_view``.

    The P states of a batch hold 2**ROW_BITS amplitudes together, as one
    row of a larger state does, so ``metric_matrices`` holds a stack of M
    applied rows of that size for the batch (32 points at M = 9).  From M
    = ROW_BITS on a batch is one state.
    """
    return max(1, (1 << qstate.ROW_BITS) >> m)


def run_sweep(spec: SweepSpec) -> tuple[list[str], np.ndarray]:
    """The sweep's header and rows (x, E, E/M, eigenvalues descending), one row per point.

    The rows are one C-contiguous float64 array of shape (points, 3 + M).
    The grid runs through the array-first pipeline in chunks of P =
    ``_chunk_points(M)`` points.  A chunk is one (P, 2^M) family batch,
    validated row-wise, then one bilinear pass, one direction call, one
    ``metric_matrices`` call and one ``check_metrics`` call, whose batched
    eigvalsh gives the P spectra; its columns are written straight into
    the chunk's P rows.  Every row has the bits that
    ``entanglement_metric`` and ``spectrum`` give its point alone, and the
    working memory is that of one chunk, however many points there are.
    """
    m = spec.family.m
    header = ["x", "E", "E_over_M"] + [f"eig_{i}" for i in range(1, m + 1)]
    values = np.linspace(spec.start, spec.stop, spec.points)
    chunk = _chunk_points(m)
    unit = FAMILY_ANGLES[spec.family.tag][spec.parameter]
    rows = np.empty((spec.points, 3 + m))
    for lo in range(0, spec.points, chunk):
        grid = values[lo : lo + chunk]
        amps = family_amplitudes(spec.family, spec.parameter, grid)
        validate_amplitudes(amps)
        w_minus, w_3 = bilinears(amps)
        measure = measure_from_bilinears(w_minus, w_3)
        g = metric_matrices(amps, optimal_directions(bloch_vectors(w_minus, w_3)))
        eigs = check_metrics(g, measure, at=(spec.parameter, grid))
        out = rows[lo : lo + chunk]
        out[:, 0] = grid / unit
        out[:, 1] = measure
        out[:, 2] = measure / m
        out[:, 3:] = eigs
    return header, rows


def run_surface(
    gamma_range: tuple[float, float], tau_range: tuple[float, float], points: int
) -> tuple[list[str], np.ndarray]:
    """Row-major (gamma outer, tau inner) grid of E/3 for the three-qubit family.

    The rows (gamma, tau, E/3) are one C-contiguous float64 array of shape
    (points^2, 3).  The whole grid is one (points^2, 8) amplitude array,
    validated row-wise and measured in a single kernel call.  Each axis
    passes ``_check_grid``, gamma first, before any grid is computed.
    """
    gamma_range = _check_grid("gamma", *gamma_range, points)
    tau_range = _check_grid("tau", *tau_range, points)
    gammas = np.linspace(*gamma_range, points)
    taus = np.linspace(*tau_range, points)
    amps = three_qubit_amplitudes(gammas, taus)
    validate_amplitudes(amps)
    e = measure_from_bilinears(*bilinears(amps))
    grid = np.column_stack([np.repeat(gammas, points), np.tile(taus, points), e / 3.0])
    return ["gamma", "tau", "E_over_3"], grid


def _csv_text(header: list[str], rows: np.ndarray | list[list[float]]) -> str:
    """CSV text of a header line and one line per row, every value by ``_fmt``.

    ``rows`` is a 2-D float64 array, such as ``run_sweep``'s and
    ``run_surface``'s, or anything ``np.asarray`` reads as one.  This is the
    one place where figure numbers become Python floats: one ``.tolist()``
    of the whole array, so nested lists of the same values give the same
    text.
    """
    lines = [",".join(header)]
    lines.extend(",".join(map(_fmt, row)) for row in np.asarray(rows, dtype=np.float64).tolist())
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


_ANGLES = tuple(name for angles in FAMILY_ANGLES.values() for name in angles)
_FAMILY_FLAGS = ("m", *_ANGLES)


def _add_family_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=int, help="number of qubits (3 for threeq)")
    for tag, angles in FAMILY_ANGLES.items():
        for name in angles:
            parser.add_argument(f"--{name}", type=float, help=f"{tag} angle (default 0)")


def _add_state_source(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--family", choices=FAMILY_TAGS, help="generate a family state")
    source.add_argument("--state-file", help='JSON state file {"m", "re", "im"}')
    _add_family_flags(parser)


def _given_family_flags(args: argparse.Namespace) -> dict:
    return {name: getattr(args, name) for name in _FAMILY_FLAGS if getattr(args, name) is not None}


def _accept(parser: argparse.ArgumentParser, rule, /, *args, **kwargs):
    """``rule(*args, **kwargs)``, the one owner of an input rule, applied to command-line values.

    A refusal (ValueError) exits 2 through ``parser.error``, with the
    subcommand's usage and the rule's message.
    """
    try:
        return rule(*args, **kwargs)
    except ValueError as exc:
        parser.error(str(exc))


def _state_from_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> StateVector:
    """Build the input state.

    Argparse-level errors and refused family flags exit 2, and an
    unreadable or malformed --state-file raises StateFileError.  Only a
    --state-file state that fails validation raises InvalidStateError; a
    family state that fails it after its spec was accepted is a broken
    invariant, and its ValueError reaches ``main`` as an internal error.
    """
    given = _given_family_flags(args)
    if args.family is None and given:
        parser.error(f"--{next(iter(given))} applies only with --family")
    if args.state_file is None:
        return family_state(_family_from_flags(args, parser))
    try:
        return read_state_file(args.state_file)
    except StateFileError:
        raise
    except ValueError as exc:
        raise InvalidStateError(exc) from exc


def _family_from_flags(args: argparse.Namespace, parser: argparse.ArgumentParser) -> FamilySpec:
    return _accept(parser, FamilySpec, args.family, **_given_family_flags(args))


def _cmd_measure(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    record = entanglement_metric(_state_from_args(args, parser)).to_dict()
    _emit(json.dumps(record) + "\n", args.out)
    return EXIT_OK


def _cmd_eigs(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    state = _state_from_args(args, parser)
    em = entanglement_metric(state)
    if args.csv:
        header = [f"eig_{i}" for i in range(1, em.size + 1)]
        _emit(_csv_text(header, em.eigenvalues.reshape(1, -1)), args.out)
    else:
        payload = {
            "m": em.size,
            "rank_tol": em.rank_tol,
            "eigenvalues": em.eigenvalues.tolist(),
            "nonnull_count": em.nonnull_count,
        }
        _emit(json.dumps(payload) + "\n", args.out)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if getattr(args, args.parameter) is not None:
        parser.error(f"--{args.parameter} is the swept angle; its range is --start to --stop")
    spec = _accept(
        parser, SweepSpec, _family_from_flags(args, parser), args.parameter,
        start=args.start, stop=args.stop, points=args.points,
    )
    header, rows = run_sweep(spec)
    _emit(_csv_text(header, rows), args.out)
    return EXIT_OK


def _cmd_surface(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    gamma = _accept(parser, _check_grid, "gamma", args.gamma_start, args.gamma_stop, args.points)
    tau = _accept(parser, _check_grid, "tau", args.tau_start, args.tau_stop, args.points)
    header, rows = run_surface(gamma, tau, args.points)
    _emit(_csv_text(header, rows), args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    for name, lo in (("trials", 1), ("seed", 0)):
        _accept(parser, qstate.validate_count, f"--{name}", getattr(args, name), lo)
    state = _state_from_args(args, parser)
    payload = verify_state(state, args.trials, args.seed)
    _emit(json.dumps(payload) + "\n", args.out)
    return EXIT_OK if payload["passed"] else EXIT_VERIFY_FAILED


def _subcommand(sub, name: str, func, help: str) -> argparse.ArgumentParser:
    parser = sub.add_parser(name, help=help)
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.set_defaults(func=func, _parser=parser)
    return parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entdist",
        description="Entanglement distance, metric and spectrum for pure M-qubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_measure = _subcommand(sub, "measure", _cmd_measure, "E, directions, metric and eigenvalues")
    _add_state_source(p_measure)

    p_eigs = _subcommand(sub, "eigs", _cmd_eigs, "eigenvalue spectrum of the metric")
    _add_state_source(p_eigs)
    p_eigs.add_argument("--csv", action="store_true", help="CSV output (default: JSON)")

    p_sweep = _subcommand(sub, "sweep", _cmd_sweep, "sweep a family angle, emit figure CSV")
    p_sweep.add_argument("--family", required=True, choices=FAMILY_TAGS)
    _add_family_flags(p_sweep)
    p_sweep.add_argument("--parameter", required=True, choices=sorted(_ANGLES))
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--points", type=int, required=True)

    p_surface = _subcommand(sub, "surface", _cmd_surface, "E/3 grid for the three-qubit family")
    p_surface.add_argument("--gamma-start", type=float, default=0.0)
    p_surface.add_argument("--gamma-stop", type=float, default=float(np.pi))
    p_surface.add_argument("--tau-start", type=float, default=0.0)
    p_surface.add_argument("--tau-stop", type=float, default=float(np.pi))
    p_surface.add_argument("--points", type=int, required=True)

    p_verify = _subcommand(sub, "verify", _cmd_verify, "run the numeric oracle harness")
    _add_state_source(p_verify)
    p_verify.add_argument("--seed", type=int, default=0, help="seed for the dressings and the ascent's start")
    p_verify.add_argument("--trials", type=int, default=100)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, args._parser)
    except (StateFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidStateError as exc:
        print(f"error: invalid state: {exc}", file=sys.stderr)
        return EXIT_INVALID_STATE
    except ValueError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
