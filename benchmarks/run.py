"""Benchmark of the decoynoise command line, one workload per process.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload table --seed 1 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 40 --trace 1

One client sends the workload's seeded commands through
`decoynoise.cli.run(argv)` in a closed loop: the next command goes only after
the previous one has returned and its output has been checked against the
oracle in `oracle.py`. The first pass warms up and fixes the reference output;
every later pass must give the same bytes. Passes repeat until `--seconds` is
used up. Checks run outside the timed region.

Every command timing is scaled to a reference machine speed: around each
command the client runs the fixed kernel of `pace.py`, half before and half
after, for a tenth of the time the command took in the warm-up pass, and
divides the latencies of a pass by how much slower than the reference the
kernel ran in it. This takes out the drift of a shared host's speed, which
otherwise moves whole runs by up to 50%; the factors are kept in the `record`
line.

End-to-end metrics, with tracing off: setup_s, the median time a fresh
interpreter takes to import decoynoise.cli, sampled between timed passes;
wall_s, the median time of one pass; evals_per_s, the fidelity evaluations of
a pass (counted from its inputs) per wall_s; cmd_p50_ms, the median over
passes of each pass's median command latency; cmd_tail_ms, the latency at the
workload's fixed tail percentile (`workloads.TAIL_PERCENTILE`) of all timed
commands; peak_rss_mb, this process's peak resident memory. fail_rate,
failed over attempted commands, is printed in the report and carried by the
result line's `failed` and `attempted`. The report also gives the share of
the timed time each command group takes.

With `--trace 0` the last line of stdout carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of `tracing.py`, measured per pass
over traced passes that follow untraced ones, whose ratio is the tracing
overhead. The lines before it are a readable report and one `record` JSON
object with the run metadata and the output digest. `--workload all` runs
each workload in a fresh process, one after another.

No bytecode is written. --out files go to a temporary directory under
`.bench_build/` in the checkout, removed at the end of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import subprocess
import sys
import tempfile
import traceback
import warnings
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

# No __pycache__ next to the sources or the benchmark.
sys.dont_write_bytecode = True

import oracle  # noqa: E402
import pace  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "decoynoise"

# setup_s is the median of this many import times, spread evenly over the run.
SETUP_SAMPLES = 8
_IMPORT_CLI = "import time; t = time.perf_counter(); import decoynoise.cli; print(repr(time.perf_counter() - t))"


class SetupTimer:
    """Times a fresh interpreter importing decoynoise.cli, one process per sample.

    Samples are taken between timed passes, spread evenly over the run's
    budget, so that they do not all fall into one slow stretch of the machine.
    They are not scaled: a kernel run as short as one import reads the
    machine's speed less steadily than the median of the imports themselves.
    The first process warms the file cache and is left out.
    """

    def __init__(self, budget: float):
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
        self.budget = budget
        self.samples: list[float] = []
        self.sample()
        self.samples.clear()
        self.start = perf_counter()

    def sample(self) -> None:
        proc = subprocess.run([sys.executable, "-c", _IMPORT_CLI], env=self.env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        self.samples.append(float(proc.stdout))

    def between_passes(self) -> None:
        """Takes a sample once the run has used the next 1/SETUP_SAMPLES of its budget."""
        if len(self.samples) * self.budget <= SETUP_SAMPLES * (perf_counter() - self.start):
            self.sample()

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_SAMPLES:
            self.sample()
        return self.samples


class Client:
    """Sends commands, checks each output and keeps the counts of a run."""

    def __init__(self):
        self.reference: list[str] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.pass_bytes = 0
        self.pace = pace.Pace()
        self.kernel_steps: list[int] | None = None   # per command, fixed by the warm-up pass

    def send(self, call, cmd: workloads.Command, index: int, digests: list[str]) -> float:
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            start = perf_counter()
            try:
                code = call(list(cmd.argv))
            except Exception:  # a crash fails this command; the session goes on
                code = None
                err.write(traceback.format_exc())
            latency = perf_counter() - start
        errors = err.getvalue() + "".join(
            warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)
        data = out.getvalue().encode()
        file_data = b""
        if cmd.out is not None and cmd.out.exists():
            file_data = cmd.out.read_bytes()
            cmd.out.unlink()
        self.pass_bytes += len(data) + len(file_data)
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if "Traceback" in errors or "Warning" in errors:
            problems.append("stderr: " + errors.strip().splitlines()[-1])
        if code == 0:
            text = (file_data if cmd.out is not None else data).decode()
            try:
                problems += oracle.CHECKS[cmd.kind](cmd.spec, text)
            except (ValueError, IndexError, KeyError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        digest = hashlib.sha256(data + b"\0" + file_data).hexdigest()
        if self.reference is not None and digest != self.reference[index]:
            problems.append("output differs from the first pass")
        digests.append(digest)
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{' '.join(cmd.argv)}: {'; '.join(problems)}")
        return latency

    def run_pass(self, call, stream) -> tuple[list[float], float]:
        """One pass; returns its command latencies scaled to the reference speed, and the slowdown factor."""
        digests: list[str] = []
        self.pass_bytes = 0
        steps = self.kernel_steps or [2] * len(stream)
        latencies = []
        for i, cmd in enumerate(stream):
            self.pace.run(steps[i] // 2)
            latencies.append(self.send(call, cmd, i, digests))
            self.pace.run(steps[i] - steps[i] // 2)
        if self.reference is None:
            self.reference = digests
            self.kernel_steps = [pace.steps_for(latency) for latency in latencies]
        factor = self.pace.take()
        return [latency / factor for latency in latencies], factor

    def run_for(self, call, stream, budget: float, on_pass=None) -> tuple[list[list[float]], list[float]]:
        """Passes until the next one would end after budget seconds; at least one.

        Returns each pass's scaled latencies and each pass's slowdown factor.
        """
        passes, factors = [], []
        start = perf_counter()
        while True:
            if on_pass:
                on_pass()
            began = perf_counter()
            latencies, factor = self.run_pass(call, stream)
            passes.append(latencies)
            factors.append(factor)
            now = perf_counter()
            if now - start + (now - began) > budget:
                return passes, factors


def at_percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank value at pct, and how many values lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def group_shares(stream, latencies: list[float]) -> dict[str, float]:
    """Share of the timed command time each command group takes."""
    totals: dict[str, float] = {}
    for i, latency in enumerate(latencies):
        cmd = stream[i % len(stream)]
        group = cmd.group or cmd.kind
        totals[group] = totals.get(group, 0.0) + latency
    whole = sum(totals.values())
    return {group: total / whole for group, total in sorted(totals.items(), key=lambda kv: -kv[1])}


def end_to_end(workload, stream, setup, passes, factors) -> tuple[dict, list[str]]:
    """End-to-end metrics of the timed passes, with notes on how each was taken."""
    evals = sum(cmd.evals for cmd in stream)
    pct = workloads.TAIL_PERCENTILE[workload]
    latencies = [latency for lat in passes for latency in lat]
    tail_s, beyond = at_percentile(latencies, pct)
    wall = median(sum(lat) for lat in passes)
    # The median of each pass's median: a pass of few command kinds (sweep has
    # four) puts the median of all commands between two kinds, where it would
    # rest on the slowest of one and the fastest of the other.
    metrics = {
        "setup_s": (median(setup), "s"),
        "wall_s": (wall, "s"),
        "evals_per_s": (evals / wall, "1/s"),
        "cmd_p50_ms": (1e3 * median(median(lat) for lat in passes), "ms"),
        "cmd_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"timings scaled to the reference speed; the kernel ran {median(factors):.3f} times slower "
        f"(median over passes, {min(factors):.3f} to {max(factors):.3f})",
        f"setup_s: median of {len(setup)} fresh processes spread over the run",
        f"wall_s, evals_per_s: median of {len(passes)} timed passes of {len(stream)} commands, {evals} evaluations each",
        f"cmd_tail_ms: p{pct:g} of {len(latencies)} commands, {beyond} beyond it",
        "time share: " + ", ".join(f"{g} {share:.1%}" for g, share in group_shares(stream, latencies).items()),
    ]
    return metrics, notes


def per_layer(tr: tracing.Tracer, traced, plain, cli_bytes, caches) -> dict:
    """Per-layer metrics, each per traced pass.

    traced and plain are (scaled pass walls, slowdown factors) of the traced
    and untraced passes. Span times are not scaled, so trace.wall_s is the
    traced pass time as measured; the overhead ratio compares scaled times,
    so that a drift between the two phases does not read as overhead.
    """
    traced_walls, traced_factors = traced
    passes = len(traced_walls)

    def per(span, field):
        return tr.stat(span, field) / passes

    def hit_ratio(key):
        hits, misses = caches.get(key, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0

    calls, busy, self_s = tracing.CALLS, tracing.BUSY, tracing.SELF
    apply_spans = [f"channels.apply.{tag}" for tag in oracle.FAMILY_TAGS]
    evals = tr.counts["evals"]
    return {
        # cli's own work includes its argument parsing and CSV rows
        "cli.self_s": (per("cli", self_s) + per("cli.parse", busy) + per("cli.write", busy), "s"),
        "cli.parse.busy_s": (per("cli.parse", busy), "s"),
        "cli.write.busy_s": (per("cli.write", busy), "s"),
        "cli.bytes_out": (cli_bytes, "B"),
        "analysis.sweep.busy_s": (per("analysis.sweep", busy), "s"),
        "analysis.recommend.busy_s": (per("analysis.recommend", busy), "s"),
        "analysis.crossover.busy_s": (per("analysis.crossover", busy), "s"),
        "analysis.crossover.evals": (tr.counts["analysis.crossover.evals"] / passes, "count"),
        "fidelity.bb84_avg.calls": (per("fidelity.bb84_avg", calls), "count"),
        "fidelity.bb84_avg.busy_s": (per("fidelity.bb84_avg", busy), "s"),
        "fidelity.simulate.calls": (per("fidelity.simulate", calls), "count"),
        "fidelity.simulate.self_s": (per("fidelity.simulate", self_s), "s"),
        "fidelity.overlap.calls": (per("fidelity.overlap", calls), "count"),
        "fidelity.overlap.self_s": (per("fidelity.overlap", self_s), "s"),
        "fidelity.closed_form.self_s": (per("fidelity.closed_form", self_s), "s"),
        "fidelity.grid_report.self_s": (per("fidelity.grid_report", self_s), "s"),
        "channels.apply.calls": (sum(per(s, calls) for s in apply_spans), "count"),
        "channels.apply.self_s": (sum(per(s, self_s) for s in apply_spans), "s"),
        **{f"{s}.self_s": (per(s, self_s), "s") for s in apply_spans},
        "channels.kraus_cache_hit_ratio": (hit_ratio("channels.kraus"), "ratio"),
        "states.build.calls": (per("states.build", calls), "count"),
        "states.build.self_s": (per("states.build", self_s), "s"),
        "states.cache_hit_ratio": (hit_ratio("states"), "ratio"),
        "linalg.density.calls": (per("linalg.density", calls), "count"),
        "linalg.density.self_s": (per("linalg.density", self_s), "s"),
        "linalg.validate.calls": (per("linalg.validate", calls), "count"),
        "eavesdrop.intercept.busy_s": (per("eavesdrop.intercept", busy), "s"),
        "eavesdrop.wrong_pair.busy_s": (per("eavesdrop.wrong_pair", busy), "s"),
        "eavesdrop.mc_trials": (tr.counts["eavesdrop.mc_trials"] / passes, "count"),
        "inputs.repeat_share": (tr.counts["evals.repeated"] / evals if evals else 0.0, "ratio"),
        "trace.wall_s": (median(w * f for w, f in zip(traced_walls, traced_factors)), "s"),
        "trace.overhead_ratio": (median(traced_walls) / median(plain[0]), "ratio"),
        # inside a command, the time that neither a layer nor parsing nor CSV rows cover
        "trace.unattributed_s": (per("cli", self_s), "s"),
        "trace.errors": (sum(per(s, tracing.ERRORS) for s in tr.spans), "count"),
    }


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata(args, pkg) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "decoynoise").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest(),
        "decoynoise": getattr(pkg, "__version__", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_workload(args) -> dict:
    setup = None if args.trace else SetupTimer(args.seconds)
    sys.path.insert(0, str(ROOT / "src"))
    import decoynoise as pkg
    import decoynoise.cli  # noqa: F401  (binds pkg.cli)

    BUILD.mkdir(parents=True, exist_ok=True)
    client = Client()
    with tempfile.TemporaryDirectory(dir=BUILD, prefix="run-") as scratch:
        stream = workloads.build(args.workload, args.seed, Path(scratch))
        started = perf_counter()
        client.run_pass(pkg.cli.run, stream)
        cli_bytes = client.pass_bytes
        left = args.seconds - (perf_counter() - started)
        if not args.trace:
            passes, factors = client.run_for(pkg.cli.run, stream, left, on_pass=setup.between_passes)
            setup_samples = setup.finish()
            metrics, notes = end_to_end(args.workload, stream, setup_samples, passes, factors)
            samples = {"setup_s": setup_samples, "pass_wall_s": [sum(lat) for lat in passes], "slowdown": factors}
        else:
            plain, plain_factors = client.run_for(pkg.cli.run, stream, left / 3.0)
            plain_walls = [sum(lat) for lat in plain]
            tracer = tracing.Tracer()
            before = tracing.cache_counts(pkg)
            left = args.seconds - (perf_counter() - started)
            with tracing.traced(pkg, tracer):
                call = tracer.wrap(pkg.cli.run, "cli")
                traced, factors = client.run_for(call, stream, left, on_pass=tracer.seen_noise.clear)
            traced_walls = [sum(lat) for lat in traced]
            after = tracing.cache_counts(pkg)
            caches = {k: (after[k][0] - before[k][0], after[k][1] - before[k][1]) for k in after}
            samples = {"pass_wall_s": plain_walls, "slowdown": plain_factors,
                       "traced_pass_wall_s": traced_walls, "traced_slowdown": factors}
            metrics = per_layer(tracer, (traced_walls, factors), (plain_walls, plain_factors), cli_bytes, caches)
            passes = len(traced_walls)
            top = sorted(tracer.spans, key=lambda span: -tracer.stat(span, tracing.SELF))[:6]
            notes = [f"per traced pass, {passes} traced after {len(plain_walls)} untraced passes",
                     "largest self time: " + ", ".join(f"{k} {tracer.stat(k, tracing.SELF) / passes:.4g} s" for k in top)]
            notes += [f"{span}.errors: {tracer.stat(span, tracing.ERRORS) / passes:g} per pass"
                      for span in sorted(tracer.spans) if tracer.stat(span, tracing.ERRORS)]
    record = metadata(args, pkg)
    record.update(output_sha256=hashlib.sha256("".join(client.reference).encode()).hexdigest(),
                  commands_per_pass=len(stream), attempted=client.attempted, failed=client.failed,
                  problems=client.problems, samples=samples)
    caches = tracing.cache_counts(pkg)
    record["cache_hit_ratio"] = {k: h / (h + m) if h + m else 0.0 for k, (h, m) in caches.items()}

    print(f"decoynoise benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    # fail_rate is reported here; the result line carries it as failed / attempted
    rows = {**metrics, "fail_rate": (client.failed / client.attempted, "ratio")}
    for name, (value, unit) in rows.items():
        print(f"  {name:<32} {value:>16.6g} {unit}")
    for note in notes:
        print(f"  # {note}")
    for problem in client.problems:
        print(f"  ! {problem}")
    print(json.dumps({"record": record}, sort_keys=True))
    return {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> dict:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "decoynoise" / "cli.py").is_file():
        print(f"error: no decoynoise sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
