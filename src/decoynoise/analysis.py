"""Parameter sweeps, crossover finding and per-channel scheme ranking.

All evaluations here go through the simulated fidelity (not the closed
forms), so schemes without a closed-form expression, like the W state, can
participate on equal footing. A scheme is its label and a noise family its
tag; a noise setting is a (family, value) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import parameter_grid
from .fidelity import TABLE_SCHEMES, FidelityReport, compile_fidelity, grid_report, scheme_fidelity

# Fidelities closer than this are reported as a tie; well above simulation
# noise (~1e-15) and well below any genuine fidelity gap between schemes.
TIE_TOL = 1e-9

# Halvings find_crossover evaluates per round, as one grid of
# 2**BISECT_DEPTH - 1 midpoints. 4 to 6 measured fastest, within 7% of each
# other: below, the two evaluations per round cost more than their points,
# and from 8 on the tree of 2**BISECT_DEPTH brackets built per round does.
BISECT_DEPTH = 4


@dataclass(frozen=True)
class SweepSpec:
    """A uniform parameter sweep of one noise family over a set of schemes."""

    schemes: tuple[str, ...]
    family: str
    start: float
    end: float
    points: int

    def __post_init__(self):
        object.__setattr__(self, "schemes", tuple(self.schemes))
        if self.points < 2:
            raise ValueError(f"sweep needs at least 2 points, got {self.points}")
        # end - start must be finite too, or linspace overflows into NaN
        if not (self.start < self.end and math.isfinite(self.end - self.start)):
            raise ValueError(f"sweep needs finite start < end, got [{self.start}, {self.end}]")


def sweep(spec: SweepSpec) -> list[FidelityReport]:
    """Evaluate every scheme on the same endpoint-inclusive uniform grid."""
    grid = np.linspace(spec.start, spec.end, spec.points)
    return [grid_report(scheme, spec.family, grid) for scheme in spec.schemes]


def find_crossover(
    a: str,
    b: str,
    family: str,
    lo: float,
    hi: float,
    tol: float = 1e-9,
) -> float:
    """Bisect for the parameter where the fidelities of a and b cross.

    Requires a sign change of F_a - F_b over [lo, hi]; both fidelity curves
    are smooth, so plain bisection to absolute tolerance tol is robust. It
    also stops when the bracket holds no float between its ends, so tol=0
    bisects down to neighbouring floats.

    Both fidelities are compiled once, before the first round. Each round
    evaluates them at the midpoints of the next BISECT_DEPTH halvings
    whichever way they go (a binary tree in heap order), then walks the tree.
    The midpoints and the polynomials' values are those of one-point-at-a-time
    bisection, so the root is the same float.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    # so that no midpoint of the batch overflows, visited by the walk or not
    if not max(abs(lo), abs(hi)) < 2.0**1023:
        raise ValueError(f"need |lo|, |hi| < 2**1023, got [{lo}, {hi}]")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")

    fidelity_a, fidelity_b = compile_fidelity(a, family), compile_fidelity(b, family)

    def gap(points: list[float]) -> np.ndarray:
        return fidelity_a(points) - fidelity_b(points)

    gap_lo, gap_hi = gap([lo, hi])
    if not (gap_lo < 0.0 < gap_hi or gap_hi < 0.0 < gap_lo):
        raise ValueError(f"no crossover in interval [{lo}, {hi}]")
    while hi - lo > tol:
        brackets, mids = [(lo, hi)], []
        for node in range(2**BISECT_DEPTH - 1):
            left, right = brackets[node]
            mids.append(0.5 * (left + right))
            brackets += [(left, mids[node]), (mids[node], right)]
        gaps = gap(mids)
        node = 0
        for _ in range(BISECT_DEPTH):
            mid, gap_mid = mids[node], gaps[node]
            if gap_mid == 0.0 or mid in (lo, hi):
                return mid
            if (gap_mid < 0.0) == (gap_lo < 0.0):
                lo, gap_lo, node = mid, gap_mid, 2 * node + 2
            else:
                hi, node = mid, 2 * node + 1
            if not hi - lo > tol:
                break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class Ranking:
    """Schemes ordered by fidelity under one noise setting, best first.

    ties partitions the ordered schemes into groups whose fidelities agree
    to within TIE_TOL, each ordered by scheme label; a group of one is simply
    untied.
    """

    family: str
    value: float
    ordered: tuple[tuple[str, float], ...]
    ties: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        values = [f for _, f in self.ordered]
        if any(x < y for x, y in zip(values, values[1:])):
            raise ValueError("ranking is not non-increasing in fidelity")


def recommend(family: str, value: float, schemes: tuple[str, ...] | None = None) -> Ranking:
    """Rank schemes by simulated fidelity under one noise family at one parameter value.

    The ordering is canonical (fidelity descending, then scheme label), so it
    does not depend on the order schemes are passed in.
    """
    value = float(parameter_grid(family, [value])[0])
    if schemes is None:
        schemes = TABLE_SCHEMES
    scored = [(scheme, scheme_fidelity(scheme, family, value)) for scheme in schemes]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    groups: list[list[str]] = []
    last_fid = None
    for scheme, fid in scored:
        if last_fid is None or abs(fid - last_fid) >= TIE_TOL:
            groups.append([])
        groups[-1].append(scheme)
        last_fid = fid
    return Ranking(
        family=family,
        value=value,
        ordered=tuple(scored),
        ties=tuple(tuple(sorted(group)) for group in groups),
    )
