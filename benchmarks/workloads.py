"""Seeded command streams for the three benchmark workloads.

A workload is one pass: a fixed list of CLI commands drawn from the seed. The
benchmark sends the same pass again and again, so every pass must produce the
same output bytes. The seed moves ranges, parameters and order; it leaves the
amount of work in a pass alone, so that runs with different seeds compare.

table   verify-table plus a sweep of the six schemes with a closed form,
        bb84 included, for every family. About 97% of the time is in the
        256-string BB84 average, and the channel caches hit because each BB84
        point reuses one parameter 256 times.
sweep   figure data: sweeps of psi+, psi-, phi+, phi-, cluster and w, no bb84,
        written with --out. Each command has more distinct grid points than
        the 512-entry channel caches hold, so they miss; per-point evolution
        and CSV volume dominate.
query   a long-lived session of small commands: recommend, crossover and
        eve-sim. Noise parameters come from a pool of three per family, so at
        least 75% of recommend commands repeat a (family, parameter) pair
        seen earlier in the pass. Per-command overhead matters here.

Each pass holds a fixed amount of work whatever the seed: fixed grid sizes,
crossover brackets of one width, and one multiset of Monte Carlo trial counts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

WORKLOADS = ("table", "sweep", "query")

FIGURE_SCHEMES = ("psi+", "psi-", "phi+", "phi-", "cluster", "w")

TABLE_GRID = 11          # verify-table points per parameter range
TABLE_SWEEP_GRID = 16    # points per table sweep
SWEEP_GRID = 560         # above the 512 entries each channel cache holds
CROSSOVER_WIDTH = 0.25   # bracket width, so every crossover bisects the same number of times
# Halvings the CLI's bisection makes to shrink a bracket of that width below its tolerance.
CROSSOVER_STEPS = math.ceil(math.log2(CROSSOVER_WIDTH / oracle.CROSSOVER_TOL))
POOL_SIZE = 3            # noise parameters per family in the query workload
# cmd_tail_ms is read at a fixed percentile of each workload, so that a faster
# commit, which fits more passes into a run, is read at the same point of the
# same command kind. Each sits inside one kind, at least a fifth of the way in
# from its edges, where an order statistic would rest on the extremes of two
# kinds. Table: a fifth of the way up its verify-table commands (the slowest 1
# in 5), with 15 to 19 of a 40 s run's 95 to 120 commands beyond it. Query: a
# quarter of the way up its bb84 crossovers (the slowest 2 in 180, all of
# about one cost), with 17 to 19 of 2160 to 2340 beyond it. Sweep has too few
# commands (28 to 32 in a run) for ten beyond any high percentile; its value
# is the middle of the slowest sweeps (phase damping, 1 in 4), with 3 or 4
# beyond it.
TAIL_PERCENTILE = {"table": 84.0, "sweep": 87.5, "query": 99.17}
MC_TRIALS = (1_000, 10_000, 100_000, 1_000_000)
# Query pass mix. The cheap crossovers sit in the middle of the latency order,
# with as many faster commands (exact eve-sim, small Monte Carlo) below them
# as slower ones above, so the median latency falls inside one command kind.
QUERY_RECOMMENDS_PER_FAMILY = 12
QUERY_CHEAP_CROSSOVERS = 48
QUERY_EXACT_EVE = 50
QUERY_MC_EVE_PER_SIZE = 8

# Crossings of two closed-form curves, as (a, b, family, root); the damping
# roots are numerical, to well inside the margin a bracket leaves around them.
# The bb84 ones cost 256 simulations per evaluation; the others are cheap.
_CR_ROOT = math.acos(1.0 / math.sqrt(3.0))     # cos^8 t = cos^4 2t
_CD_ROOT = math.acos(-0.6)                     # (3 + cos p) / 4 = -cos p
_CR_ROOTS = (_CR_ROOT, math.pi - _CR_ROOT, math.pi + _CR_ROOT, 2.0 * math.pi - _CR_ROOT)
CHEAP_CROSSINGS = tuple(
    (a, b, "cr", r) for a, b in (("psi-", "cluster"), ("phi+", "cluster"), ("cluster", "psi-")) for r in _CR_ROOTS
)
BB84_DAMPING_CROSSINGS = (("bb84", "psi+", "ad", 0.5804), ("bb84", "psi-", "ad", 0.5804), ("bb84", "cluster", "ad", 0.773))
BB84_COLLECTIVE_CROSSINGS = (
    ("bb84", "psi+", "cd", _CD_ROOT),
    ("bb84", "cluster", "cd", 2.0 * math.pi - _CD_ROOT),
    ("bb84", "psi-", "cr", _CR_ROOT),
    ("bb84", "phi+", "cr", math.pi + _CR_ROOT),
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its oracle needs.

    evals counts the (scheme, noise parameter) cells the command evaluates,
    a BB84 average counting once, from the inputs alone. group names the
    command's kind more finely, for the time share the report gives each.
    """

    argv: tuple[str, ...]
    kind: str
    spec: dict = field(hash=False)
    evals: int
    out: Path | None = None
    group: str = ""


def _fmt(x: float) -> str:
    return repr(float(x))


def _sub_range(rng: random.Random, tag: str, min_share: float) -> tuple[float, float]:
    lo, hi = oracle.parameter_range(tag)
    width = (hi - lo) * rng.uniform(min_share, 1.0)
    start = lo + rng.uniform(0.0, hi - lo - width)
    return start, start + width


def _sweep(tag: str, labels, points: int, start: float, end: float, out: Path | None) -> Command:
    argv = ["sweep", "--noise", tag, "--schemes", ",".join(labels), "--grid", str(points),
            "--from", _fmt(start), "--to", _fmt(end)]
    if out is not None:
        argv += ["--out", str(out)]
    spec = {"family": tag, "schemes": tuple(labels), "points": points, "start": start, "end": end}
    return Command(tuple(argv), "sweep", spec, len(labels) * points, out, group=f"sweep {tag}")


def table_pass(rng: random.Random, scratch: Path) -> list[Command]:
    cmds = [Command(("verify-table", "--grid", str(TABLE_GRID)), "verify-table", {},
                    len(oracle.TABLE_LABELS) * len(oracle.FAMILY_TAGS) * TABLE_GRID)]
    for tag in oracle.FAMILY_TAGS:
        start, end = _sub_range(rng, tag, 0.4)
        cmds.append(_sweep(tag, oracle.TABLE_LABELS, TABLE_SWEEP_GRID, start, end, None))
    return cmds


def sweep_pass(rng: random.Random, scratch: Path) -> list[Command]:
    cmds = []
    for tag in oracle.FAMILY_TAGS:
        start, end = _sub_range(rng, tag, 0.5)
        cmds.append(_sweep(tag, FIGURE_SCHEMES, SWEEP_GRID, start, end, scratch / f"sweep-{tag}.csv"))
    return cmds


def _crossover(rng: random.Random, crossing) -> Command:
    a, b, tag, root = crossing
    lo = root - CROSSOVER_WIDTH * rng.uniform(0.15, 0.85)
    hi = lo + CROSSOVER_WIDTH
    scan = oracle.crossover_gap(a, b, tag, np.linspace(lo, hi, 257))
    if np.count_nonzero(np.diff(np.sign(scan))) != 1:
        raise RuntimeError(f"bracket [{lo}, {hi}] for {a}/{b} under {tag} does not hold one crossing")
    argv = ("crossover", "--a", a, "--b", b, "--noise", tag, "--lo", _fmt(lo), "--hi", _fmt(hi))
    spec = {"a": a, "b": b, "family": tag, "lo": lo, "hi": hi}
    group = "crossover bb84" if "bb84" in (a, b) else "crossover"
    return Command(argv, "crossover", spec, 2 * (2 + CROSSOVER_STEPS), group=group)


def _pool(rng: random.Random, tag: str) -> list[float]:
    """Parameters at which every pair of fidelities is either tied or clearly apart."""
    labels = oracle.TABLE_LABELS + ("w",)
    lo, hi = (0.05, 0.95) if tag in ("ad", "pd") else oracle.parameter_range(tag)
    pool = []
    while len(pool) < POOL_SIZE:
        value = rng.uniform(lo, hi)
        f = np.array([oracle.expected_fidelity(label, tag, [value])[0] for label in labels])
        gaps = np.abs(f[:, None] - f[None, :])
        if np.all((gaps < oracle.ABS_TOL) | (gaps > 1e-6)):
            pool.append(value)
    return pool


def query_pass(rng: random.Random, scratch: Path) -> list[Command]:
    cmds = []
    for tag in oracle.FAMILY_TAGS:
        pool = _pool(rng, tag)
        for include_w in (False, True):
            for _ in range(QUERY_RECOMMENDS_PER_FAMILY // 2):
                value = rng.choice(pool)
                argv = ["recommend", "--noise", tag, oracle.PARAM_FLAGS[tag], _fmt(value)]
                if include_w:
                    argv.append("--include-w")
                spec = {"family": tag, "param": value, "include_w": include_w}
                cmds.append(Command(tuple(argv), "recommend", spec, len(oracle.TABLE_LABELS) + include_w))
    for _ in range(QUERY_CHEAP_CROSSOVERS):
        cmds.append(_crossover(rng, rng.choice(CHEAP_CROSSINGS)))
    cmds.append(_crossover(rng, rng.choice(BB84_DAMPING_CROSSINGS)))
    cmds.append(_crossover(rng, rng.choice(BB84_COLLECTIVE_CROSSINGS)))
    trials = [None] * QUERY_EXACT_EVE + list(MC_TRIALS) * QUERY_MC_EVE_PER_SIZE
    for i, n in enumerate(trials):
        attack = "intercept" if i % 2 == 0 else "wrong-pair"
        argv = ["eve-sim", "--attack", attack]
        if attack == "wrong-pair":
            argv += ["--bell", rng.choice(("psi+", "psi-", "phi+", "phi-")), "--eve-pair", "23"]
        if n is not None:
            argv += ["--method", "mc", "--trials", str(n), "--seed", str(rng.randrange(2**31))]
        group = "eve-sim exact" if n is None else f"eve-sim mc {n}"
        cmds.append(Command(tuple(argv), "eve-sim", {"attack": attack, "trials": n}, 0, group=group))
    rng.shuffle(cmds)
    return cmds


_PASSES = {"table": table_pass, "sweep": sweep_pass, "query": query_pass}


def build(workload: str, seed: int, scratch: Path) -> list[Command]:
    """The pass of a workload for a seed; --out files go under scratch."""
    return _PASSES[workload](random.Random(f"{workload}:{seed}"), scratch)
