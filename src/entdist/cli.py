"""Command-line front end: measure states, sweep families, emit figure data.

Subcommands: ``measure``, ``eigs``, ``sweep``, ``surface``, ``verify``.
Exit codes: 0 ok, 1 verification failure, 2 I/O, parse or argument error,
3 invalid input state, 4 internal error (a broken invariant after the state
was validated).  Identical invocations produce byte-identical output; CSV
floats are written with 17 significant digits so values round-trip exactly.
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
    THREEQ,
    FamilySpec,
    family_amplitudes,
    family_state,
    three_qubit_amplitudes,
)
from .metric import (
    DEFAULT_RANK_TOL,
    check_metrics,
    entanglement_metric,
    measure_from_bilinears,
    metric_matrices,
    optimal_directions,
    spectrum,
)
from .qstate import (
    StateFileError,
    StateVector,
    bilinears,
    bloch_vectors,
    read_state_file,
    validate_amplitudes,
)
from .verify import (
    DEFAULT_RESTARTS,
    verify_state,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_INVALID_STATE = 3
EXIT_INTERNAL = 4

# figure abscissa per swept angle: x = angle / divisor
_ABSCISSA_DIVISOR = {
    "phi": 2.0 * np.pi,
    "theta": np.pi / 2.0,
    "phase": 2.0 * np.pi,
    "gamma": np.pi,
    "tau": np.pi,
}


class InvalidStateError(Exception):
    """The input state failed validation."""


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep of a family angle over a uniform grid."""

    family: FamilySpec
    parameter: str
    start: float
    stop: float
    points: int
    normalize: bool = False

    def __post_init__(self) -> None:
        if self.parameter not in FAMILY_ANGLES[self.family.tag]:
            raise ValueError(
                f"family {self.family.tag!r} has no sweep angle {self.parameter!r}"
            )
        # the span is finite only if both ends are and their difference does not overflow
        if not math.isfinite(float(self.stop) - float(self.start)):
            raise ValueError(
                f"sweep range must be finite, got start = {self.start!r}, stop = {self.stop!r}"
            )
        if not self.start < self.stop:
            raise ValueError("sweep requires start < stop")
        if self.points < 2:
            raise ValueError("sweep requires at least 2 points")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _chunk_points(m: int) -> int:
    """Points per sweep batch, P = 2^(ROW_BITS - M) and at least 1: one row of the row walk.

    The P states of a batch hold 2**ROW_BITS amplitudes together, as one
    row of a larger state does, so ``metric_matrices`` holds the same stack
    of M applied rows for the batch as for a state of more than ROW_BITS
    qubits.  From M = ROW_BITS on a batch is one state.
    """
    return max(1, (1 << qstate.ROW_BITS) >> m)


def run_sweep(spec: SweepSpec) -> tuple[list[str], list[list[float]]]:
    """Compute sweep rows (x, E, E/M, eigenvalues descending).

    The grid runs through the array-first pipeline in chunks of P =
    ``_chunk_points(M)`` points, 2**ROW_BITS amplitudes together (32 points
    at M = 9, one from M = ROW_BITS on).  A chunk is one (P, 2^M) family
    batch, validated row-wise, then one bilinear pass, one direction call,
    one ``metric_matrices`` call and one ``check_metrics`` call, whose
    batched eigvalsh gives the P spectra.  Every row has the bits that
    ``entanglement_metric`` and ``spectrum`` give its point alone, and the
    working memory is that of one chunk, however many points there are.
    """
    m = spec.family.m
    header = ["x", "E", "E_over_M"] + [f"eig_{i}" for i in range(1, m + 1)]
    values = np.linspace(spec.start, spec.stop, spec.points)
    chunk = _chunk_points(m)
    blocks = []
    for lo in range(0, spec.points, chunk):
        grid = values[lo : lo + chunk]
        amps = family_amplitudes(spec.family, spec.parameter, grid)
        validate_amplitudes(amps)
        w_minus, w_3 = bilinears(amps)
        measure = measure_from_bilinears(w_minus, w_3)
        g = metric_matrices(amps, optimal_directions(bloch_vectors(w_minus, w_3)))
        eigs = check_metrics(g, measure, at=(spec.parameter, grid))
        if spec.normalize:
            eigs = eigs / m
        x = grid / _ABSCISSA_DIVISOR[spec.parameter]
        blocks.append(np.column_stack([x, measure, measure / m, eigs]))
    return header, np.concatenate(blocks).tolist()


def run_surface(
    gamma_range: tuple[float, float], tau_range: tuple[float, float], points: int
) -> tuple[list[str], list[list[float]]]:
    """Row-major (gamma outer, tau inner) grid of E/3 for the three-qubit family.

    The whole grid is one (points^2, 8) amplitude array, validated row-wise
    and measured in a single kernel call.  A range whose span is not
    finite, overflowing ones included, is refused with FamilySpec's message
    for that angle before any grid is computed.
    """
    if points < 2:
        raise ValueError("surface requires at least 2 points per axis")
    if not (gamma_range[0] < gamma_range[1] and tau_range[0] < tau_range[1]):
        raise ValueError("surface ranges require start < stop")
    for name, (start, stop) in (("gamma", gamma_range), ("tau", tau_range)):
        if not math.isfinite(float(stop) - float(start)):
            raise ValueError(f"angle {name!r} must be finite")
    gammas = np.linspace(*gamma_range, points)
    taus = np.linspace(*tau_range, points)
    amps = three_qubit_amplitudes(gammas, taus)
    validate_amplitudes(amps)
    e = measure_from_bilinears(*bilinears(amps))
    grid = np.column_stack([np.repeat(gammas, points), np.tile(taus, points), e / 3.0])
    return ["gamma", "tau", "E_over_3"], grid.tolist()


def _csv_text(header: list[str], rows: list[list[float]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _add_family_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=FAMILY_TAGS, help="generate a family state")
    parser.add_argument("--m", type=int, help="number of qubits (brs/ghzl)")
    parser.add_argument("--phi", type=float, default=0.0, help="brs phase angle")
    parser.add_argument("--theta", type=float, default=0.0, help="ghzl mixing angle")
    parser.add_argument("--phase", type=float, default=0.0, help="ghzl relative phase")
    parser.add_argument("--gamma", type=float, default=0.0, help="threeq angle")
    parser.add_argument("--tau", type=float, default=0.0, help="threeq angle")


def _add_state_source(parser: argparse.ArgumentParser) -> None:
    _add_family_flags(parser)
    parser.add_argument("--family-json", help="family spec as a JSON object string")
    parser.add_argument("--state-file", help='JSON state file {"m", "re", "im"}')


def _add_common(parser: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    parser.add_argument("--out", help="output path (default: stdout)")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="JSON output")
    group.add_argument("--csv", action="store_true", help="CSV output")
    parser.set_defaults(_formats=formats, _parser=parser)


def _resolve_format(args: argparse.Namespace, parser: argparse.ArgumentParser) -> str:
    requested = "json" if args.json else "csv" if args.csv else args._formats[0]
    if requested not in args._formats:
        parser.error(f"{args.command} supports only {'/'.join(args._formats)} output")
    return requested


def _state_from_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> StateVector:
    """Build the input state.

    Argparse-level errors exit 2 and unreadable input raises StateFileError;
    a state that fails validation raises InvalidStateError.
    """
    try:
        if args.state_file is not None:
            return read_state_file(args.state_file)
        return family_state(_spec_from_args(args, parser))
    except StateFileError:
        raise
    except ValueError as exc:
        raise InvalidStateError(exc) from exc


def _spec_from_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> FamilySpec:
    if args.family_json is not None:
        try:
            return FamilySpec.from_dict(json.loads(args.family_json))
        except (json.JSONDecodeError, ValueError) as exc:
            raise StateFileError(f"invalid --family-json: {exc}") from exc
    if args.family is None:
        parser.error("provide one of --family, --family-json or --state-file")
    try:
        return _family_from_flags(args, parser)
    except ValueError as exc:
        parser.error(str(exc))


def _family_from_flags(args: argparse.Namespace, parser: argparse.ArgumentParser) -> FamilySpec:
    m = 3 if args.m is None and args.family == THREEQ else args.m
    if m is None:
        parser.error(f"--family {args.family} requires --m")
    angles = {name: getattr(args, name) for name in FAMILY_ANGLES[args.family]}
    return FamilySpec(args.family, m, **angles)


def _cmd_measure(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    _resolve_format(args, parser)
    record = entanglement_metric(_state_from_args(args, parser)).to_dict()
    _emit(json.dumps(record) + "\n", args.out)
    return EXIT_OK


def _cmd_eigs(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if not (np.isfinite(args.rank_tol) and args.rank_tol >= 0.0):
        parser.error(f"--rank-tol must be finite and non-negative, got {args.rank_tol!r}")
    state = _state_from_args(args, parser)
    fmt = _resolve_format(args, parser)
    spec = spectrum(entanglement_metric(state), rank_tol=args.rank_tol)
    eigs = [float(x) for x in spec.eigenvalues]
    if fmt == "json":
        payload = {
            "m": state.num_qubits,
            "rank_tol": spec.rank_tol,
            "eigenvalues": eigs,
            "nonnull_count": spec.nonnull_count,
        }
        _emit(json.dumps(payload) + "\n", args.out)
    else:
        header = [f"eig_{i}" for i in range(1, state.num_qubits + 1)]
        _emit(_csv_text(header, [eigs]), args.out)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    _resolve_format(args, parser)
    if args.family is None:
        parser.error("sweep requires --family")
    try:
        template = _family_from_flags(args, parser)
        spec = SweepSpec(
            family=template,
            parameter=args.parameter,
            start=args.start,
            stop=args.stop,
            points=args.points,
            normalize=args.normalize,
        )
    except ValueError as exc:
        parser.error(str(exc))
    header, rows = run_sweep(spec)
    _emit(_csv_text(header, rows), args.out)
    return EXIT_OK


def _cmd_surface(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    _resolve_format(args, parser)
    try:
        header, rows = run_surface(
            (args.gamma_start, args.gamma_stop), (args.tau_start, args.tau_stop), args.points
        )
    except ValueError as exc:
        parser.error(str(exc))
    _emit(_csv_text(header, rows), args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    _resolve_format(args, parser)
    for name in ("trials", "restarts"):
        if getattr(args, name) < 1:
            parser.error(f"--{name} must be at least 1")
    state = _state_from_args(args, parser)
    payload = verify_state(state, args.trials, args.restarts, args.seed)
    _emit(json.dumps(payload) + "\n", args.out)
    return EXIT_OK if payload["passed"] else EXIT_VERIFY_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entdist",
        description="Entanglement distance, metric and spectrum for pure M-qubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_measure = sub.add_parser("measure", help="E, directions, metric and eigenvalues")
    _add_state_source(p_measure)
    _add_common(p_measure, formats=("json",))
    p_measure.set_defaults(func=_cmd_measure)

    p_eigs = sub.add_parser("eigs", help="eigenvalue spectrum of the metric")
    _add_state_source(p_eigs)
    _add_common(p_eigs, formats=("json", "csv"))
    p_eigs.add_argument("--rank-tol", type=float, default=DEFAULT_RANK_TOL)
    p_eigs.set_defaults(func=_cmd_eigs)

    p_sweep = sub.add_parser("sweep", help="sweep a family angle, emit figure CSV")
    _add_family_flags(p_sweep)
    _add_common(p_sweep, formats=("csv",))
    p_sweep.add_argument("--parameter", required=True, choices=sorted(_ABSCISSA_DIVISOR))
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument(
        "--normalize", action="store_true", help="divide eigenvalue columns by M"
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_surface = sub.add_parser("surface", help="E/3 grid for the three-qubit family")
    _add_common(p_surface, formats=("csv",))
    p_surface.add_argument("--gamma-start", type=float, default=0.0)
    p_surface.add_argument("--gamma-stop", type=float, default=float(np.pi))
    p_surface.add_argument("--tau-start", type=float, default=0.0)
    p_surface.add_argument("--tau-stop", type=float, default=float(np.pi))
    p_surface.add_argument("--points", type=int, required=True)
    p_surface.set_defaults(func=_cmd_surface)

    p_verify = sub.add_parser("verify", help="run the numeric oracle harness")
    _add_state_source(p_verify)
    _add_common(p_verify, formats=("json",))
    p_verify.add_argument("--seed", type=int, default=0, help="seed for the random checks")
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, args._parser)
    except StateFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidStateError as exc:
        print(f"error: invalid state: {exc}", file=sys.stderr)
        return EXIT_INVALID_STATE
    except ValueError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
