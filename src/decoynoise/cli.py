"""Command-line front end emitting CSV sweep data, table checks and attacks.

DESCRIPTION, which --help prints, gives the streams, the exit codes and the
float format.

Each command's flags are one option table, and a command line takes one of
two routes. A line of exact flags, each given once as "--flag value", is read
from that table alone into what argparse would return for it, and imports no
argparse. Any other line goes to the whole argparse parser, built from the
same tables, which also writes all help and every usage error.

Importing this module imports only channels and states. Each command imports
the module it runs when it runs (fidelity for verify-table, analysis for
sweep, recommend and crossover, eavesdrop for eve-sim) as "import
decoynoise.<module> as <module>", which stays in C once the module is loaded
("from . import" calls a Python frame of importlib each time), and calls
through that module object. The other commands write their CSV lines as
f-strings, each float the repr of a Python float; sweep's come from sweep_csv.
"""

from __future__ import annotations

import os
import stat
import sys
from types import SimpleNamespace

from .channels import FAMILIES, parameter_range
from .states import BELL_LABELS, SCHEMES, check_scheme

# A closed form drifting this far from simulation signals a regression.
REGRESSION_TOL = 1e-9

# What --help says of the whole command, before the list of commands.
DESCRIPTION = (
    "Command-line front end emitting CSV sweep data, table checks and attacks. The data stream (stdout or --out) "
    "carries only CSV; diagnostics go to stderr. Exit codes: 0 on success, 1 on bad arguments or domain errors, 2 "
    "when verify-table finds a deviation at or above the regression threshold. Floating-point fields use the "
    "shortest round-trip decimal representation, so identical invocations produce byte-identical output."
)

# Largest accepted sizes, so that a command peaks at about 100 MB instead of
# failing with a MemoryError. A sweep keeps a few floats per value, and one
# simulated array per distinct polynomial: one scheme under pd at --grid 10**6
# peaks at 90 MB, seven schemes at 142857 at 49 MB under pd (3 distinct arrays)
# and 55 MB under ad (5), to stdout or --out alike. verify-table keeps one
# family's weight array, at most 4 distinct simulated arrays and 6 closed forms
# at a time, 44 MB at --grid 10**5. Monte Carlo reads its trials in blocks, so both
# attacks peak at about 35 MB at 10**7 trials; MAX_TRIALS bounds their run time.
MAX_TABLE_GRID = 10**5
MAX_SWEEP_VALUES = 10**6
MAX_TRIALS = 10**7
DEFAULT_TRIALS = 10**6


class CliError(Exception):
    """Bad command-line usage."""


# Each command's help line and its flags, in the order help lists them. A
# flag's entry is the keywords build_parser passes to argparse's add_argument,
# and _read reads a plain command line from the same entries: a type of int or
# float (a str when absent), choices, a default (None when absent), required,
# a dest (the flag's name, "-" read as "_", when absent), help, and action
# "store_true" for a flag that takes no value.
_OUT = {"help": "write CSV here instead of stdout"}
_NOISE = {"required": True, "choices": sorted(FAMILIES)}
_OPTIONS = {
    "verify-table": ("check every closed form against simulation", {
        "--grid": {"type": int, "default": 21, "help": "grid points per parameter range"},
        "--out": _OUT,
    }),
    "sweep": ("sweep a noise family over a set of schemes", {
        "--noise": _NOISE,
        "--schemes": {
            "default": "bb84,psi+,psi-,phi+,phi-,cluster",
            "help": "comma-separated scheme labels (bb84, psi+, psi-, phi+, phi-, cluster, w)",
        },
        "--grid": {"type": int, "default": 101},
        "--from": {"dest": "start", "type": float, "help": "sweep start"},
        "--to": {"dest": "end", "type": float, "help": "sweep end"},
        "--out": _OUT,
    }),
    "recommend": ("rank schemes under one noise setting", {
        "--noise": _NOISE,
        "--eta": {"type": float, "help": "damping rate for ad/pd"},
        "--phi": {"type": float, "help": "dephasing angle for cd (radians)"},
        "--theta": {"type": float, "help": "rotation angle for cr (radians)"},
        "--include-w": {"action": "store_true", "help": "rank the W state as well"},
        "--out": _OUT,
    }),
    "crossover": ("find where two schemes' fidelities cross", {
        "--a": {"required": True, "help": "first scheme label"},
        "--b": {"required": True, "help": "second scheme label"},
        "--noise": _NOISE,
        "--lo": {"type": float, "required": True},
        "--hi": {"type": float, "required": True},
        "--out": _OUT,
    }),
    "eve-sim": ("simulate an eavesdropping attack", {
        "--attack": {"required": True, "choices": ["intercept", "wrong-pair"]},
        "--bell": {"choices": BELL_LABELS, "help": "prepared Bell label (wrong-pair; default psi+)"},
        "--eve-pair": {"choices": ["12", "23"], "help": "pair Eve measures (wrong-pair; default 23)"},
        "--method": {"default": "exact", "choices": ["exact", "mc"]},
        "--trials": {"type": int, "help": f"Monte Carlo trials (mc; default {DEFAULT_TRIALS})"},
        "--seed": {"type": int, "help": "required for --method mc"},
        "--out": _OUT,
    }),
}


def build_parser():
    """argparse's parser of every command, built from _OPTIONS: _parse's route for each line _read declines.

    Its class raises usage errors as CliError. It reads "-1e-05" and "-.5" as
    values, not flags, as newer CPython releases do, and "--flag=--" as the
    value "--", as Python 3.13 does: for that it sets argparse's private
    _negative_number_matcher and overrides _get_values, which calls
    _get_value and _check_value.
    """
    import argparse
    import re

    class _Parser(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._negative_number_matcher = re.compile(r"-\.?\d")

        def error(self, message):
            raise CliError(message)

        def _get_values(self, action, arg_strings):
            # up to 3.12 argparse drops "--" as the separator and stores [] for the flag
            if action.option_strings and action.nargs is None and arg_strings == ["--"]:
                value = self._get_value(action, "--")
                self._check_value(action, value)
                return value
            return super()._get_values(action, arg_strings)

    parser = _Parser(prog="decoynoise", description=DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, options) in _OPTIONS.items():
        command = sub.add_parser(name, help=summary)
        for flag, option in options.items():
            command.add_argument(flag, **option)
    return parser


def _table(options):
    """_read's table: each flag's (dest, converter or None for store_true, choices), absent values, required flags."""
    flags, absent = {}, {}
    for flag, option in options.items():
        dest, store_true = option.get("dest", flag[2:].replace("-", "_")), option.get("action") == "store_true"
        flags[flag] = dest, None if store_true else option.get("type", str), option.get("choices")
        absent[dest] = False if store_true else option.get("default")
    return flags, absent, frozenset(flag for flag, option in options.items() if option.get("required"))


_TABLES = {command: _table(options) for command, (_, options) in _OPTIONS.items()}


def _read(command, args):
    """What argparse would store for args, by dest, from the command's _TABLES entry alone; None for argparse to parse.

    Each token must be an exact flag of the command, given at most once, and a
    flag that takes a value must be followed by one that does not start with
    "-" or is a negative number as the parser's "-\\.?\\d" matches it. Each
    value is converted by its type and must be one of its choices, and every
    required flag must be given; a flag that is not gets its default. Any
    other form, or a value that fails its type or choices, goes to argparse.
    """
    flags, absent, required = _TABLES[command]
    read, given = dict(absent), set()
    tokens = iter(args)
    for token in tokens:
        entry = flags.get(token)
        if entry is None or token in given:  # argparse keeps a repeated flag's last value
            return None
        given.add(token)
        dest, convert, choices = entry
        if convert is None:  # a flag with no value, such as --include-w
            read[dest] = True
            continue
        value = next(tokens, None)
        # isdecimal() is Unicode Nd, as \d is: "²".isdigit() is True, but \d does not match "²"
        if value is None or value.startswith("-") \
                and not (value[1:2].isdecimal() or value[1:2] == "." and value[2:3].isdecimal()):
            return None
        try:
            value = convert(value)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        read[dest] = value
    return read if required <= given else None


def _parse_schemes(text: str):
    labels = [item.strip() for item in text.split(",") if item.strip()]
    if not labels:
        raise CliError("no schemes given")
    return tuple(check_scheme(label) for label in labels)


_NOISE_FLAGS = tuple(dict.fromkeys(FAMILIES.values()))


def _noise_value(args) -> float:
    wanted = FAMILIES[args.noise]
    for flag in _NOISE_FLAGS:
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
    import decoynoise.fidelity as fidelity
    cells = fidelity.verify_table(args.grid)
    scheme, family, worst, at = max(cells, key=lambda cell: cell[2])
    print(
        f"{len(cells)} cells checked, worst deviation {worst:.3e} at {scheme} {family} {FAMILIES[family]}={at!r}",
        file=sys.stderr,
    )
    lines = ["scheme,noise,max_abs_deviation\n", *(f"{s},{f},{d!r}\n" for s, f, d, _ in cells)]
    return 2 if worst >= REGRESSION_TOL else 0, lines


def _cmd_sweep(args):
    if args.grid < 2:
        raise CliError("grid must be >= 2")
    schemes = _parse_schemes(args.schemes)
    if args.grid * len(schemes) > MAX_SWEEP_VALUES:
        raise CliError(f"grid times number of schemes must be <= {MAX_SWEEP_VALUES}")
    lo, hi = parameter_range(args.noise)
    start = lo if args.start is None else args.start
    end = hi if args.end is None else args.end
    import decoynoise.analysis as analysis
    grid, results = analysis.sweep(schemes, args.noise, start, end, args.grid)
    return 0, analysis.sweep_csv(grid, args.noise, results)


def _cmd_recommend(args):
    import decoynoise.analysis as analysis
    ranking = analysis.recommend(args.noise, _noise_value(args), SCHEMES if args.include_w else None)
    return 0, ["rank,scheme,fidelity\n", *(f"{r},{s},{f!r}\n" for r, s, f in ranking)]


def _cmd_crossover(args):
    a, b = check_scheme(args.a), check_scheme(args.b)
    import decoynoise.analysis as analysis
    root = analysis.find_crossover(a, b, args.noise, args.lo, args.hi)
    return 0, ["scheme_a,scheme_b,noise,crossover\n", f"{a},{b},{args.noise},{root!r}\n"]


def _cmd_eve_sim(args):
    for scope, applies, dests in (("attack", args.attack == "wrong-pair", ("bell", "eve_pair")),
                                  ("method", args.method == "mc", ("trials", "seed"))):
        for dest in () if applies else dests:
            if getattr(args, dest) is not None:
                raise CliError(f"--{dest.replace('_', '-')} does not apply to {scope} {getattr(args, scope)}")
    trials = args.trials
    if args.method == "mc":
        if args.seed is None:
            raise CliError("--seed is required for --method mc")
        trials = DEFAULT_TRIALS if trials is None else trials
        if trials > MAX_TRIALS:
            raise CliError(f"trials must be <= {MAX_TRIALS}")
    import decoynoise.eavesdrop as eavesdrop
    # keywords, which a caller wrapping the attacks can read by name
    if args.attack == "intercept":
        outcome = eavesdrop.intercept_resend_bb84(method=args.method, trials=trials, seed=args.seed)
    else:
        pair = (1, 2) if args.eve_pair == "12" else (2, 3)
        outcome = eavesdrop.wrong_pair_bell_attack(args.bell or "psi+", pair, method=args.method, trials=trials,
                                                   seed=args.seed)
    return 0, ["kind,label,value\n", f"summary,detection_probability,{outcome.detection_probability!r}\n",
               *(f"outcome,{label},{prob!r}\n" for label, prob in outcome.outcome_distribution.items())]


# Each command does all its work and every check that can fail, then returns
# its exit code (0 or 2) and its CSV as str chunks, each ending in a line
# break, which only format computed values; run alone writes them. Every field
# is a str that needs no CSV quoting: a fixed header or kind name, a scheme
# label, a noise family tag (one of --noise's choices), a Bell or outcome
# label, a repr of a float, or empty. None holds a comma, a quote or a line
# break, and no row is one empty field, so a row's line is its fields joined
# by commas, the same bytes csv.writer would write for it.
_COMMANDS = {
    "verify-table": _cmd_verify_table,
    "sweep": _cmd_sweep,
    "recommend": _cmd_recommend,
    "crossover": _cmd_crossover,
    "eve-sim": _cmd_eve_sim,
}


def _parse(argv: list[str]):
    """argv as build_parser() parses it, as a namespace, by one of two routes.

    _read reads a plain command line from its command's option table; a new
    whole parser parses any line that _read declines, with help and errors.
    """
    if argv and argv[0] in _OPTIONS:
        read = _read(argv[0], argv[1:])
        if read is not None:
            return SimpleNamespace(command=argv[0], **read)
    return build_parser().parse_args(argv)


def _write_rows(stream, chunks) -> None:
    """Write a command's CSV chunks as the stream takes them: a lazy sweep holds one block."""
    stream.writelines(chunks)


def _write_out(path: str, chunks) -> None:
    """Write the chunks to the file at path, opened for writing like any file.

    A symlink, a device or a FIFO is written through. If the write fails, a
    regular file is emptied rather than left ending in a partial row.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        with open(fd, "w", newline="", closefd=False) as stream:
            _write_rows(stream, chunks)
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
        args = _parse(argv)
        code, chunks = _COMMANDS[args.command](args)
        if args.out is None:
            _write_rows(sys.stdout, chunks)
        else:
            _write_out(args.out, chunks)
        return code
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
