#!/usr/bin/env python3
"""List the printed values that differ between two checkouts of decoynoise.

    git worktree add ../base <sha>
    python scripts/moved_values.py ../base . [COMMAND LINE ...]

Runs each command line through the command line interface of both checkouts
(`python -m decoynoise` with the checkout's `src` on PYTHONPATH), and compares
their stdout field by field. Without command lines it runs those pinned in
tests/data/stdout_digests.json. Prints two CSV tables, separated by a blank
line:

- every field that differs: its command line, row (1 is the first line after
  the header), column, the base and the head value, and their distance in
  units in the last place (ULPs) when both are floats;
- the differing fields grouped by (family, scheme, column), with their count,
  their largest and median distance in ULPs, and their largest relative
  distance |a - b| / max(|a|, |b|). A move that touches or crosses 0 counts
  every float between, so 0.0 -> 4.44e-16 reads 4.4e18 ULPs and swamps its
  group's max_ulps; median_ulps and max_rel (1.0 for that move) stay readable.

A differing stderr is listed with the column `stderr`, and a command whose
exit code, header or number of rows differs with the column `*`, its fields
left uncompared. Nothing but the command line interface is called, so any
two checkouts compare, however their modules differ.
"""

import collections
import csv
import io
import json
import math
import os
import statistics
import struct
import subprocess
import sys
from pathlib import Path

DIGESTS = Path(__file__).resolve().parents[1] / "tests" / "data" / "stdout_digests.json"


def run(checkout, line):
    env = {**os.environ, "PYTHONPATH": str(Path(checkout, "src").resolve())}
    proc = subprocess.run([sys.executable, "-m", "decoynoise", *line.split()], env=env, capture_output=True, text=True)
    return proc.returncode, proc.stderr, list(csv.reader(io.StringIO(proc.stdout)))


def _floats(a, b):
    """a and b as floats, or None unless both are finite floats."""
    try:
        a, b = float(a), float(b)
    except ValueError:
        return None
    return (a, b) if math.isfinite(a) and math.isfinite(b) else None


def ulps(a, b):
    """The number of floats from a to b, or None unless both are finite floats."""
    pair = _floats(a, b)
    if pair is None:
        return None
    # the bits of a float, as an integer that orders like the float, with -0.0 at 0.0
    ordered = [(n if n >= 0 else -(n & (2**63 - 1))) for n in struct.unpack("<2q", struct.pack("<2d", *pair))]
    return abs(ordered[0] - ordered[1])


def relative(a, b):
    """|a - b| / max(|a|, |b|), 0.0 for equal values, or None unless both are finite floats."""
    pair = _floats(a, b)
    if pair is None:
        return None
    a, b = pair
    largest = max(abs(a), abs(b))
    # each scaled to at most 1 in magnitude first, so that 1e308 against -1e308 reads 2.0, not inf
    return 0.0 if a == b else abs(a / largest - b / largest)


def summarize(distances):
    """A group's fields, max_ulps, median_ulps (the lower median) and max_rel, from its (ulps, relative) pairs.

    A pair is (None, None) for a field that is not two finite floats; the
    distances are "" when no field of the group is.
    """
    known = [(u, r) for u, r in distances if u is not None]
    if not known:
        return [len(distances), "", "", ""]
    steps = [u for u, _ in known]
    return [len(distances), max(steps), statistics.median_low(steps), max(r for _, r in known)]


def group(line, header, row):
    """(family, scheme, column) of a row, read from its fields, else from the command line's --noise."""
    fields = dict(zip(header, row))
    words = line.split()
    family = fields.get("noise") or (words[words.index("--noise") + 1] if "--noise" in words else "-")
    scheme = fields.get("scheme") or "|".join(fields[k] for k in ("scheme_a", "scheme_b") if k in fields)
    return family, scheme or fields.get("label", "-")


def main(argv):
    if len(argv) < 2:
        raise SystemExit(__doc__)
    base, head, lines = argv[0], argv[1], argv[2:] or [entry["line"] for entry in json.loads(DIGESTS.read_text())]
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(["command", "row", "column", "base", "head", "ulps"])
    groups = collections.defaultdict(list)
    for line in lines:
        (base_code, base_err, base_rows), (head_code, head_err, head_rows) = run(base, line), run(head, line)
        if (base_code, base_rows[:1], len(base_rows)) != (head_code, head_rows[:1], len(head_rows)):
            shapes = [f"exit {code}, {len(rows)} lines" for code, rows in ((base_code, base_rows), (head_code, head_rows))]
            out.writerow([line, "", "*", *shapes, ""])
            groups["-", "-", "*"].append((None, None))
            continue
        if base_err != head_err:
            out.writerow([line, "", "stderr", base_err.strip(), head_err.strip(), ""])
            groups["-", "-", "stderr"].append((None, None))
        header = head_rows[0] if head_rows else []
        for number, (before, after) in enumerate(zip(base_rows[1:], head_rows[1:]), 1):
            for column, a, b in zip(header, before, after):
                if a != b:
                    distance = ulps(a, b)
                    out.writerow([line, number, column, a, b, "" if distance is None else distance])
                    groups[(*group(line, header, after), column)].append((distance, relative(a, b)))
    print()
    out.writerow(["family", "scheme", "column", "fields", "max_ulps", "median_ulps", "max_rel"])
    for (family, scheme, column), distances in sorted(groups.items()):
        out.writerow([family, scheme, column, *summarize(distances)])


if __name__ == "__main__":
    main(sys.argv[1:])
