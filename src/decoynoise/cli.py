"""Command-line front end emitting CSV sweep data, table checks and attacks.

The data stream (stdout or --out) carries only CSV; diagnostics go to stderr.
Exit codes: 0 on success, 1 on bad arguments or domain errors, 2 when
verify-table finds a deviation at or above the regression threshold.

Floating-point fields use the shortest round-trip decimal representation, so
identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import nullcontext

from . import analysis, eavesdrop
from .channels import FAMILIES, parameter_range
from .fidelity import TABLE_SCHEMES, verify_table
from .states import WState, parse_scheme, scheme_label

# A closed form drifting this far from simulation signals a regression.
REGRESSION_TOL = 1e-9

SWEEP_HEADER = ["scheme", "noise", "parameter", "fidelity_sim", "fidelity_closed", "abs_err"]

_PARAM_FLAGS = {"ad": "eta", "pd": "eta", "cd": "phi", "cr": "theta"}


class CliError(Exception):
    """Bad command-line usage."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _fmt(value: float) -> str:
    return repr(float(value))


def build_parser() -> _Parser:
    parser = _Parser(prog="decoynoise", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-table", help="check every closed form against simulation")
    p.add_argument("--grid", type=int, default=21, help="grid points per parameter range")
    p.add_argument("--out", help="write CSV here instead of stdout")

    p = sub.add_parser("sweep", help="sweep a noise family over a set of schemes")
    p.add_argument("--noise", required=True, choices=sorted(FAMILIES))
    p.add_argument(
        "--schemes",
        default="bb84,psi+,psi-,phi+,phi-,cluster",
        help="comma-separated scheme labels (bb84, psi+, psi-, phi+, phi-, cluster, w)",
    )
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--from", dest="start", type=float, default=None, help="sweep start")
    p.add_argument("--to", dest="end", type=float, default=None, help="sweep end")
    p.add_argument("--out", help="write CSV here instead of stdout")

    p = sub.add_parser("recommend", help="rank schemes under one noise setting")
    p.add_argument("--noise", required=True, choices=sorted(FAMILIES))
    p.add_argument("--eta", type=float, default=None, help="damping rate for ad/pd")
    p.add_argument("--phi", type=float, default=None, help="dephasing angle for cd (radians)")
    p.add_argument("--theta", type=float, default=None, help="rotation angle for cr (radians)")
    p.add_argument("--include-w", action="store_true", help="rank the W state as well")
    p.add_argument("--out", help="write CSV here instead of stdout")

    p = sub.add_parser("crossover", help="find where two schemes' fidelities cross")
    p.add_argument("--a", required=True, help="first scheme label")
    p.add_argument("--b", required=True, help="second scheme label")
    p.add_argument("--noise", required=True, choices=sorted(FAMILIES))
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--out", help="write CSV here instead of stdout")

    p = sub.add_parser("eve-sim", help="simulate an eavesdropping attack")
    p.add_argument("--attack", required=True, choices=["intercept", "wrong-pair"])
    p.add_argument("--bell", default="psi+", help="prepared Bell label (wrong-pair)")
    p.add_argument("--eve-pair", default="23", choices=["12", "23"], help="pair Eve measures")
    p.add_argument("--method", default="exact", choices=["exact", "mc"])
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=None, help="required for --method mc")
    p.add_argument("--out", help="write CSV here instead of stdout")

    return parser


def _parse_schemes(text: str):
    labels = [item.strip() for item in text.split(",") if item.strip()]
    if not labels:
        raise CliError("no schemes given")
    try:
        return tuple(parse_scheme(label) for label in labels)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _noise_value(args) -> float:
    wanted = _PARAM_FLAGS[args.noise]
    for flag in ("eta", "phi", "theta"):
        if flag != wanted and getattr(args, flag) is not None:
            raise CliError(f"--{flag} does not apply to noise {args.noise}")
    value = getattr(args, wanted)
    if value is None:
        raise CliError(f"--{wanted} is required for noise {args.noise}")
    return value


def _cmd_verify_table(args, writer) -> int:
    if args.grid < 2:
        raise CliError("grid must be >= 2")
    reports = verify_table(args.grid)
    writer.writerow(["scheme", "noise", "max_abs_deviation"])
    worst = 0.0
    for report in reports:
        writer.writerow([scheme_label(report.scheme), report.noise, _fmt(report.max_abs_deviation)])
        worst = max(worst, report.max_abs_deviation)
    print(f"{len(reports)} cells checked, worst deviation {worst:.3e}", file=sys.stderr)
    return 2 if worst >= REGRESSION_TOL else 0


def _cmd_sweep(args, writer) -> int:
    if args.grid < 2:
        raise CliError("grid must be >= 2")
    family = FAMILIES[args.noise]
    default_lo, default_hi = parameter_range(family)
    start = default_lo if args.start is None else args.start
    end = default_hi if args.end is None else args.end
    spec = analysis.SweepSpec(
        schemes=_parse_schemes(args.schemes),
        family=family,
        start=start,
        end=end,
        points=args.grid,
    )
    writer.writerow(SWEEP_HEADER)
    for report in analysis.sweep(spec):
        label = scheme_label(report.scheme)
        for i, param in enumerate(report.grid):
            closed = "" if report.closed_form is None else _fmt(report.closed_form[i])
            err = "" if report.closed_form is None else _fmt(abs(report.simulated[i] - report.closed_form[i]))
            writer.writerow([label, report.noise, _fmt(param), _fmt(report.simulated[i]), closed, err])
    return 0


def _cmd_recommend(args, writer) -> int:
    noise = FAMILIES[args.noise](_noise_value(args))
    schemes = TABLE_SCHEMES
    if args.include_w:
        schemes = schemes + (WState(),)
    ranking = analysis.recommend(noise, schemes)
    fid_by_scheme = dict(ranking.ordered)
    writer.writerow(["rank", "scheme", "fidelity"])
    rank = 1
    for group in ranking.ties:
        for scheme in group:
            writer.writerow([rank, scheme_label(scheme), _fmt(fid_by_scheme[scheme])])
        rank += len(group)
    return 0


def _cmd_crossover(args, writer) -> int:
    family = FAMILIES[args.noise]
    try:
        a = parse_scheme(args.a)
        b = parse_scheme(args.b)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    root = analysis.find_crossover(a, b, family, args.lo, args.hi)
    writer.writerow(["scheme_a", "scheme_b", "noise", "crossover"])
    writer.writerow([scheme_label(a), scheme_label(b), args.noise, _fmt(root)])
    return 0


def _cmd_eve_sim(args, writer) -> int:
    if args.method == "mc" and args.seed is None:
        raise CliError("--seed is required for --method mc")
    kwargs = {"method": args.method}
    if args.method == "mc":
        kwargs.update(trials=args.trials, seed=args.seed)
    if args.attack == "intercept":
        outcome = eavesdrop.intercept_resend_bb84(**kwargs)
    else:
        pair = (1, 2) if args.eve_pair == "12" else (2, 3)
        outcome = eavesdrop.wrong_pair_bell_attack(args.bell, pair, **kwargs)
    writer.writerow(["kind", "label", "value"])
    writer.writerow(["summary", "detection_probability", _fmt(outcome.detection_probability)])
    for label, prob in outcome.outcome_distribution.items():
        writer.writerow(["outcome", label, _fmt(prob)])
    return 0


_COMMANDS = {
    "verify-table": _cmd_verify_table,
    "sweep": _cmd_sweep,
    "recommend": _cmd_recommend,
    "crossover": _cmd_crossover,
    "eve-sim": _cmd_eve_sim,
}


def run(argv: list[str]) -> int:
    """Parse argv and execute one command; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        out_path = getattr(args, "out", None)
        sink = open(out_path, "w", newline="") if out_path else nullcontext(sys.stdout)
        with sink as stream:
            writer = csv.writer(stream, lineterminator="\n")
            return _COMMANDS[args.command](args, writer)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
