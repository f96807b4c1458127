"""Byte identity at scale: the sha256 of each pinned command line's stdout.

The goldens in tests/data pin a few points per command; this table pins
thousands, so a change that moves one printed bit anywhere in them fails
here. tests/data/stdout_digests.json holds, per command line, the sha256 of
its stdout and a short digest of each block of BLOCK lines, which names where
a moved output first differs. A change that moves printed values on purpose
lists them with `python scripts/moved_values.py <base checkout> .` in
CHANGES.md, then rewrites the table with `PYTHONPATH=src python tests/test_stdout_digests.py`.
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from decoynoise.cli import run

TABLE = pathlib.Path(__file__).parent / "data" / "stdout_digests.json"
BLOCK = 64


def _stdout(line):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert run(line.split()) == 0, line
    return buffer.getvalue()


def _digests(out):
    lines = out.splitlines(keepends=True)
    blocks = ["".join(lines[i:i + BLOCK]) for i in range(0, len(lines), BLOCK)]
    return hashlib.sha256(out.encode()).hexdigest(), [hashlib.sha256(b.encode()).hexdigest()[:16] for b in blocks]


_ENTRIES = json.loads(TABLE.read_text())


@pytest.mark.parametrize("entry", _ENTRIES, ids=[entry["line"] for entry in _ENTRIES])
def test_stdout_has_its_pinned_sha256(entry):
    out = _stdout(entry["line"])
    sha256, blocks = _digests(out)
    if sha256 != entry["sha256"]:
        lines = out.splitlines()
        pinned = entry["blocks"]
        first = next((i for i, (a, b) in enumerate(zip(blocks, pinned)) if a != b), min(len(blocks), len(pinned)))
        start, end = first * BLOCK + 1, min(first * BLOCK + BLOCK, len(lines))
        fail = f"`{entry['line']}` moved from its pinned stdout of {entry['lines']} lines: its first differing line"
        if start > end:
            pytest.fail(f"{fail} is past its {len(lines)} lines")
        pytest.fail(f"{fail} is among lines {start} to {end} of {len(lines)}, {lines[start - 1]!r} to {lines[end - 1]!r}")


def test_the_table_pins_every_family_and_command():
    lines = [entry["line"] for entry in _ENTRIES]
    assert len(set(lines)) == len(lines)
    for family in ("ad", "pd", "cd", "cr"):
        assert f"sweep --noise {family} --schemes bb84,psi+,psi-,phi+,phi-,cluster,w --grid 2001" in lines
    assert "verify-table --grid 101" in lines
    for attack in ("intercept", "wrong-pair"):
        assert len({line for line in lines if line.startswith(f"eve-sim --attack {attack} --method mc")}) == 2
    assert {line.split()[0] for line in lines} == {"sweep", "verify-table", "recommend", "crossover", "eve-sim"}


if __name__ == "__main__":
    # rewrite the digests of the table's command lines from this checkout's output
    entries = []
    for entry in _ENTRIES:
        out = _stdout(entry["line"])
        sha256, blocks = _digests(out)
        entries.append({"line": entry["line"], "sha256": sha256, "lines": out.count("\n"), "blocks": blocks})
    TABLE.write_text(json.dumps(entries, indent=1) + "\n")
