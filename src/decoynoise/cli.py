"""Command-line front end emitting CSV sweep data, table checks and attacks.

The data stream (stdout or --out) carries only CSV; diagnostics go to stderr.
Exit codes: 0 on success, 1 on bad arguments or domain errors, 2 when
verify-table finds a deviation at or above the regression threshold.

Floating-point fields use the shortest round-trip decimal representation, so
identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import re
import stat
import sys

from . import analysis, eavesdrop
from .channels import FAMILIES, parameter_range
from .fidelity import TABLE_SCHEMES, verify_table
from .states import BELL_LABELS, SCHEMES, check_scheme

# A closed form drifting this far from simulation signals a regression.
REGRESSION_TOL = 1e-9

# Largest accepted sizes, so that a command peaks at about 100 MB (Monte Carlo
# at about 130 MB) instead of failing with a MemoryError. A sweep keeps a few
# floats per value: one scheme under pd at --grid 10**6 peaks at 93 MB, seven
# schemes at 142857 at 70 MB, to stdout or --out alike. verify-table keeps 24
# fidelities per grid point, 90 MB at --grid 10**5. An intercept-resend Monte
# Carlo run holds 10 bytes per trial, 130 MB at 10**7 trials; a wrong-pair run
# counts its trials in fixed blocks and peaks at 35 MB.
MAX_TABLE_GRID = 10**5
MAX_SWEEP_VALUES = 10**6
MAX_TRIALS = 10**7
DEFAULT_TRIALS = 10**6

# Sweep rows formatted per block, so that only one block's Python floats and
# strings are held at a time. A block holds all its strings at once; at this
# size the largest sweeps peak at the sizes given above.
CSV_ROWS = 2**14

SWEEP_HEADER = ["scheme", "noise", "parameter", "fidelity_sim", "fidelity_closed", "abs_err"]


class CliError(Exception):
    """Bad command-line usage."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # "-1e-05" and "-.5" are values, not flags, as newer CPython releases read them
        self._negative_number_matcher = re.compile(r"-\.?\d")

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
    p.add_argument("--bell", choices=BELL_LABELS, help="prepared Bell label (wrong-pair; default psi+)")
    p.add_argument("--eve-pair", choices=["12", "23"], help="pair Eve measures (wrong-pair; default 23)")
    p.add_argument("--method", default="exact", choices=["exact", "mc"])
    p.add_argument("--trials", type=int, help=f"Monte Carlo trials (mc; default {DEFAULT_TRIALS})")
    p.add_argument("--seed", type=int, help="required for --method mc")
    p.add_argument("--out", help="write CSV here instead of stdout")

    return parser


def _parse_schemes(text: str):
    labels = [item.strip() for item in text.split(",") if item.strip()]
    if not labels:
        raise CliError("no schemes given")
    return tuple(check_scheme(label) for label in labels)


def _noise_value(args) -> float:
    wanted = FAMILIES[args.noise]
    for flag in dict.fromkeys(FAMILIES.values()):
        if flag != wanted and getattr(args, flag) is not None:
            raise CliError(f"--{flag} does not apply to noise {args.noise}")
    value = getattr(args, wanted)
    if value is None:
        raise CliError(f"--{wanted} is required for noise {args.noise}")
    return value


def _cmd_verify_table(args):
    if args.grid < 2:
        raise CliError("grid must be >= 2")
    if args.grid > MAX_TABLE_GRID:
        raise CliError(f"grid must be <= {MAX_TABLE_GRID}")
    reports = verify_table(args.grid)
    worst = max(reports, key=lambda report: report.max_abs_deviation)
    at = worst.grid[abs(worst.simulated - worst.closed_form).argmax()]
    print(
        f"{len(reports)} cells checked, worst deviation {worst.max_abs_deviation:.3e} at "
        f"{worst.scheme} {worst.noise} {FAMILIES[worst.noise]}={_fmt(at)}",
        file=sys.stderr,
    )
    rows = [["scheme", "noise", "max_abs_deviation"]]
    rows += ([r.scheme, r.noise, _fmt(r.max_abs_deviation)] for r in reports)
    return 2 if worst.max_abs_deviation >= REGRESSION_TOL else 0, rows


def _blocks(reports):
    """The reports as blocks: lists of (report, row slice) of at most CSV_ROWS rows.

    A block holds whole reports while they fit; a longer report is cut into
    pieces of CSV_ROWS rows. Rows keep their order.
    """
    block, size = [], 0
    for report in reports:
        for start in range(0, len(report.grid), CSV_ROWS):
            rows = min(CSV_ROWS, len(report.grid) - start)
            if size + rows > CSV_ROWS:
                yield block
                block, size = [], 0
            block.append((report, slice(start, start + rows)))
            size += rows
    if block:
        yield block


def _sweep_blocks(reports):
    """The sweep's CSV rows, formatted one block of at most CSV_ROWS rows at a time.

    Each distinct float of a block is repr-ed once: the schemes share one grid,
    many of their fidelities tie and abs_err takes few values. Floats are told
    apart by their bits, so 0.0 and -0.0 each keep their own repr.
    """
    import numpy as np
    yield [SWEEP_HEADER]
    for block in _blocks(reports):
        pieces = []
        for report, rows in block:
            columns = [report.grid[rows], report.simulated[rows]]
            if report.closed_form is not None:
                columns += [report.closed_form[rows], abs(columns[1] - report.closed_form[rows])]
            pieces.append(columns)
        values = np.concatenate([column for columns in pieces for column in columns])
        distinct, index = np.unique(values.view(np.int64), return_inverse=True)
        text = iter(np.array(list(map(repr, distinct.view(float).tolist())), dtype=object)[index].tolist())
        for (report, _), columns in zip(block, pieces):
            fields = [list(itertools.islice(text, len(column))) for column in columns]
            lead = [itertools.repeat(report.scheme), itertools.repeat(report.noise)]
            yield zip(*lead, *fields, *[itertools.repeat("")] * (4 - len(columns)))


def _cmd_sweep(args):
    if args.grid < 2:
        raise CliError("grid must be >= 2")
    schemes = _parse_schemes(args.schemes)
    if args.grid * len(schemes) > MAX_SWEEP_VALUES:
        raise CliError(f"grid times number of schemes must be <= {MAX_SWEEP_VALUES}")
    lo, hi = parameter_range(args.noise)
    start = lo if args.start is None else args.start
    end = hi if args.end is None else args.end
    reports = analysis.sweep(schemes, args.noise, start, end, args.grid)
    return 0, itertools.chain.from_iterable(_sweep_blocks(reports))


def _cmd_recommend(args):
    ranking = analysis.recommend(args.noise, _noise_value(args), SCHEMES if args.include_w else TABLE_SCHEMES)
    return 0, [["rank", "scheme", "fidelity"], *([str(rank), scheme, _fmt(fid)] for rank, scheme, fid in ranking)]


def _cmd_crossover(args):
    a, b = check_scheme(args.a), check_scheme(args.b)
    root = analysis.find_crossover(a, b, args.noise, args.lo, args.hi)
    return 0, [
        ["scheme_a", "scheme_b", "noise", "crossover"],
        [a, b, args.noise, _fmt(root)],
    ]


def _cmd_eve_sim(args):
    for flag, scope, applies in (
        ("bell", f"attack {args.attack}", args.attack == "wrong-pair"),
        ("eve-pair", f"attack {args.attack}", args.attack == "wrong-pair"),
        ("trials", f"method {args.method}", args.method == "mc"),
        ("seed", f"method {args.method}", args.method == "mc"),
    ):
        if not applies and getattr(args, flag.replace("-", "_")) is not None:
            raise CliError(f"--{flag} does not apply to {scope}")
    kwargs = {"method": args.method}
    if args.method == "mc":
        if args.seed is None:
            raise CliError("--seed is required for --method mc")
        trials = DEFAULT_TRIALS if args.trials is None else args.trials
        if trials > MAX_TRIALS:
            raise CliError(f"trials must be <= {MAX_TRIALS}")
        kwargs.update(trials=trials, seed=args.seed)
    if args.attack == "intercept":
        outcome = eavesdrop.intercept_resend_bb84(**kwargs)
    else:
        pair = (1, 2) if args.eve_pair == "12" else (2, 3)
        outcome = eavesdrop.wrong_pair_bell_attack(args.bell or "psi+", pair, **kwargs)
    rows = [["kind", "label", "value"]]
    rows.append(["summary", "detection_probability", _fmt(outcome.detection_probability)])
    rows += (["outcome", label, _fmt(prob)] for label, prob in outcome.outcome_distribution.items())
    return 0, rows


# Each command does all its work and every check that can fail, then returns
# its exit code (0 or 2) and its CSV rows, which only format computed values;
# run alone writes them.
_COMMANDS = {
    "verify-table": _cmd_verify_table,
    "sweep": _cmd_sweep,
    "recommend": _cmd_recommend,
    "crossover": _cmd_crossover,
    "eve-sim": _cmd_eve_sim,
}


@functools.cache
def _parser() -> _Parser:
    # Built on first use rather than at import, and reused: parse_args starts
    # every parse from a fresh Namespace, so no state passes between commands.
    return build_parser()


def _write_rows(stream, rows) -> None:
    """Write each row as one line of comma-joined fields.

    Every field is a str that needs no CSV quoting: a fixed header or kind
    name, a scheme label, a noise family tag (one of argparse's choices), a
    Bell or outcome label, a repr of a float, or empty. None holds a comma, a
    quote or a line break, and no row is one empty field, so a row's line is
    its fields joined by commas, the same bytes csv.writer would write for it.

    Rows are joined as the stream takes them, so a lazy sweep holds one block
    of rows at a time.
    """
    stream.writelines(",".join(row) + "\n" for row in rows)


def _write_out(path: str, rows) -> None:
    """Write the rows to the file at path, opened for writing like any file.

    A symlink, a device or a FIFO is written through. If the write fails, a
    regular file is emptied rather than left ending in a partial row.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        with open(fd, "w", newline="", closefd=False) as stream:
            _write_rows(stream, rows)
    except BaseException:
        # the text stream is closed here, so no buffered row can follow
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, 0)
        raise
    finally:
        os.close(fd)


def run(argv: list[str]) -> int:
    """Parse argv, execute one command and write its CSV; returns the exit code.

    Stdout or --out is opened only after the command has returned, so a failed
    command writes no CSV and leaves an --out path as it was.
    """
    try:
        args = _parser().parse_args(argv)
        code, rows = _COMMANDS[args.command](args)
        if args.out is None:
            _write_rows(sys.stdout, rows)
        else:
            _write_out(args.out, rows)
        return code
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
