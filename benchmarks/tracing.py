"""Per-layer spans around decoynoise, recorded from outside the package.

The package binds names with `from .x import y`, so a call goes through the
name in the caller's module. Each span therefore wraps the name where its
callers look it up (for example `fidelity.apply_noise`, not
`channels.apply_noise`). A name a later version no longer has is skipped: its
span reads zero calls.

busy time includes child spans; self time is busy time minus the child spans.
cli's argument parsing (`cli.parse`) and CSV rows (`cli.write`) are spans of
their own, so the self time left to the `cli` span is time that no span covers.
Exceptions that escape a wrapped call are counted as `<span>.errors`.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# noise class name -> (family tag, parameter attribute)
_NOISE = {
    "AmplitudeDamping": ("ad", "eta"),
    "PhaseDamping": ("pd", "eta"),
    "CollectiveDephasing": ("cd", "phi"),
    "CollectiveRotation": ("cr", "theta"),
}


def _noise_key(noise) -> tuple[str, float | None]:
    tag, attr = _NOISE.get(type(noise).__name__, ("other", None))
    return tag, (getattr(noise, attr, None) if attr else None)


# fields of a span's totals
CALLS, BUSY, SELF, ERRORS = range(4)


class Tracer:
    """Aggregated spans and counts; nothing per call is kept but the totals."""

    def __init__(self):
        self.spans: dict[str, list] = {}   # name -> totals, indexed by CALLS, BUSY, SELF, ERRORS
        self.counts = Counter()
        self.seen_noise: set[tuple[str, float]] = set()
        self._stack: list[list] = []       # open spans: [name, start, child time]

    def stat(self, name: str, field: int) -> float:
        return self.spans.get(name, (0, 0.0, 0.0, 0))[field]

    def wrap(self, fn, name: str, on_call=None):
        """fn inside a span; on_call(args, kwargs) may record counts and return a span name."""
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            span = (on_call(args, kwargs) if on_call else None) or name
            frame = [span, perf_counter(), 0.0]
            stack.append(frame)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                elapsed = perf_counter() - frame[1]
                stack.pop()
                stats = spans.get(span)
                if stats is None:
                    stats = spans[span] = [0, 0.0, 0.0, 0]
                stats[CALLS] += 1
                stats[BUSY] += elapsed
                stats[SELF] += elapsed - frame[2]
                stats[ERRORS] += failed
                if stack:
                    stack[-1][2] += elapsed

        return traced

    def record_eval(self, args, kwargs):
        """A fidelity evaluation: note whether its (family, parameter) pair repeats."""
        noise = args[1] if len(args) > 1 else kwargs.get("noise")
        key = _noise_key(noise)
        self.counts["evals"] += 1
        if key in self.seen_noise:
            self.counts["evals.repeated"] += 1
        self.seen_noise.add(key)
        if any(frame[0] == "analysis.crossover" for frame in self._stack):
            self.counts["analysis.crossover.evals"] += 1

    def apply_span(self, args, kwargs):
        noise = args[1] if len(args) > 1 else kwargs.get("noise")
        return "channels.apply." + _noise_key(noise)[0]

    def mc_trials(self, args, kwargs):
        if kwargs.get("method") == "mc":
            self.counts["eavesdrop.mc_trials"] += kwargs.get("trials") or 0


class _TracedWriter:
    """A csv writer whose rows are written inside the `cli.write` span."""

    def __init__(self, writer, tracer: Tracer):
        self._writer = writer
        self.writerow = tracer.wrap(writer.writerow, "cli.write")
        self.writerows = tracer.wrap(writer.writerows, "cli.write")

    def __getattr__(self, name):
        return getattr(self._writer, name)


class _TracedCsv:
    """Stands in for the csv module where cli looks it up."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self._tracer = tracer

    def writer(self, *args, **kwargs):
        return _TracedWriter(self._module.writer(*args, **kwargs), self._tracer)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _targets(pkg, tracer: Tracer):
    """(owner, attribute, span name, on_call) for every name the spans replace."""
    cli, analysis, fidelity = pkg.cli, pkg.analysis, pkg.fidelity
    eavesdrop, linalg = pkg.eavesdrop, pkg.linalg
    return [
        # argument parsing and CSV rows are cli's own work, timed apart so that
        # what is left of cli's self time is the time no span covers
        (cli, "build_parser", "cli.parse", None),
        (getattr(cli, "_Parser", None), "parse_args", "cli.parse", None),
        (cli, "verify_table", "fidelity.verify_table", None),
        # cli calls analysis.* and eavesdrop.* through the module objects
        (analysis, "sweep", "analysis.sweep", None),
        (analysis, "recommend", "analysis.recommend", None),
        (analysis, "find_crossover", "analysis.crossover", None),
        (analysis, "scheme_fidelity", "analysis.eval", tracer.record_eval),
        (analysis, "grid_report", "fidelity.grid_report", None),
        (eavesdrop, "intercept_resend_bb84", "eavesdrop.intercept", tracer.mc_trials),
        (eavesdrop, "wrong_pair_bell_attack", "eavesdrop.wrong_pair", tracer.mc_trials),
        (fidelity, "grid_report", "fidelity.grid_report", None),
        (fidelity, "scheme_fidelity", "fidelity.eval", tracer.record_eval),
        (fidelity, "bb84_average_fidelity", "fidelity.bb84_avg", None),
        (fidelity, "simulate_fidelity", "fidelity.simulate", None),
        (fidelity, "closed_form", "fidelity.closed_form", None),
        (fidelity, "apply_noise", "channels.apply", tracer.apply_span),
        (fidelity, "make_decoy_state", "states.build", None),
        (fidelity, "fidelity", "fidelity.overlap", None),
        # methods are looked up on the class at call time
        (linalg.PureState, "density", "linalg.density", None),
        (linalg.DensityMatrix, "__post_init__", "linalg.validate", None),
    ]


@contextmanager
def traced(pkg, tracer: Tracer):
    """Install the spans on the imported package for the duration of the block."""
    replacements = [(owner, attr, tracer.wrap(getattr(owner, attr), name, on_call))
                    for owner, attr, name, on_call in _targets(pkg, tracer)
                    if owner is not None and callable(getattr(owner, attr, None))]
    if hasattr(pkg.cli, "csv"):
        replacements.append((pkg.cli, "csv", _TracedCsv(pkg.cli.csv, tracer)))
    saved = []
    try:
        for owner, attr, replacement in replacements:
            # a method inherited from a base class is not in the owner's __dict__
            saved.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def cache_counts(pkg) -> dict[str, tuple[int, int]]:
    """(hits, misses) of the lru caches the package has, by metric prefix."""
    out = {}
    for key, owner, attr in (("states", pkg.states, "make_decoy_state"), ("channels.kraus", pkg.channels, "_kraus_for")):
        info = getattr(getattr(owner, attr, None), "cache_info", None)
        if info is not None:
            stats = info()
            out[key] = (stats.hits, stats.misses)
    return out
