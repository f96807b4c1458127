"""Parameter sweeps, crossover finding and per-channel scheme ranking.

All evaluations here go through the simulated fidelity (not the closed
forms), so schemes without a closed-form expression, like the W state, can
participate on equal footing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import NoiseModel, parameter_range
from .fidelity import TABLE_SCHEMES, FidelityReport, grid_fidelity, grid_report, scheme_fidelity
from .states import DecoyScheme, scheme_label

# Fidelities closer than this are reported as a tie; well above simulation
# noise (~1e-15) and well below any genuine fidelity gap between schemes.
TIE_TOL = 1e-9


@dataclass(frozen=True)
class SweepSpec:
    """A uniform parameter sweep of one noise family over a set of schemes."""

    schemes: tuple[DecoyScheme, ...]
    family: type
    start: float
    end: float
    points: int

    def __post_init__(self):
        object.__setattr__(self, "schemes", tuple(self.schemes))
        if self.points < 2:
            raise ValueError(f"sweep needs at least 2 points, got {self.points}")
        if not -math.inf < self.start < self.end < math.inf:
            raise ValueError(f"sweep needs finite start < end, got [{self.start}, {self.end}]")


def sweep(spec: SweepSpec) -> list[FidelityReport]:
    """Evaluate every scheme on the same endpoint-inclusive uniform grid."""
    grid = np.linspace(spec.start, spec.end, spec.points)
    return [grid_report(scheme, spec.family, grid) for scheme in spec.schemes]


def find_crossover(
    a: DecoyScheme,
    b: DecoyScheme,
    family: type,
    lo: float,
    hi: float,
    tol: float = 1e-9,
) -> float:
    """Bisect for the parameter where the fidelities of a and b cross.

    Requires a sign change of F_a - F_b over [lo, hi]; both fidelity curves
    are smooth, so plain bisection to absolute tolerance tol is robust.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")

    def gap(p: float) -> float:
        return scheme_fidelity(a, family(p)) - scheme_fidelity(b, family(p))

    gap_lo, gap_hi = gap(lo), gap(hi)
    if not (gap_lo < 0.0 < gap_hi or gap_hi < 0.0 < gap_lo):
        raise ValueError(f"no crossover in interval [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        gap_mid = gap(mid)
        if gap_mid == 0.0:
            return mid
        if (gap_mid < 0.0) == (gap_lo < 0.0):
            lo, gap_lo = mid, gap_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def is_decoherence_free(
    scheme: DecoyScheme,
    family: type,
    samples: int = 32,
    tol: float = 1e-9,
) -> bool:
    """True if the scheme keeps fidelity 1 at every sampled noise parameter.

    Samples uniformly over the family's natural range ([0, 1] for damping
    rates, [0, 2 pi] for collective angles).
    """
    if samples < 8:
        raise ValueError(f"need at least 8 samples, got {samples}")
    lo, hi = parameter_range(family)
    grid = np.linspace(lo, hi, samples)
    return bool(np.all(np.abs(grid_fidelity(scheme, family, grid) - 1.0) < tol))


@dataclass(frozen=True)
class Ranking:
    """Schemes ordered by fidelity under one noise model, best first.

    ties partitions the ordered schemes into groups whose fidelities agree
    to within TIE_TOL; a group of one is simply untied.
    """

    noise: NoiseModel
    ordered: tuple[tuple[DecoyScheme, float], ...]
    ties: tuple[tuple[DecoyScheme, ...], ...]

    def __post_init__(self):
        values = [f for _, f in self.ordered]
        if any(x < y for x, y in zip(values, values[1:])):
            raise ValueError("ranking is not non-increasing in fidelity")


def recommend(noise: NoiseModel, schemes: tuple[DecoyScheme, ...] | None = None) -> Ranking:
    """Rank schemes by simulated fidelity under the given noise model.

    The ordering is canonical (fidelity descending, then scheme label), so it
    does not depend on the order schemes are passed in.
    """
    if schemes is None:
        schemes = TABLE_SCHEMES
    scored = [(scheme, scheme_fidelity(scheme, noise)) for scheme in schemes]
    scored.sort(key=lambda pair: (-pair[1], scheme_label(pair[0])))
    groups: list[list[DecoyScheme]] = []
    last_fid = None
    for scheme, fid in scored:
        if last_fid is None or abs(fid - last_fid) >= TIE_TOL:
            groups.append([])
        groups[-1].append(scheme)
        last_fid = fid
    return Ranking(
        noise=noise,
        ordered=tuple(scored),
        ties=tuple(tuple(group) for group in groups),
    )
