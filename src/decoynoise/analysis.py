"""Parameter sweeps, crossover finding and per-channel scheme ranking.

Crossovers and rankings go through the simulated fidelity alone, so schemes
without a closed-form expression, like the W state, take part on equal
footing; a sweep returns each scheme's closed forms beside its simulation,
None for the W state. A scheme is its label and a noise family its tag; a
noise setting is a (family, value) pair. A ranking is the list of (rank,
scheme, fidelity) rows that the CLI prints.
"""

from __future__ import annotations

import math

from .channels import parameter_value, point_weight, weight
from .fidelity import TABLE_SCHEMES, compile_fidelity, grid_report

# Fidelities closer than this are reported as a tie; well above simulation
# noise (~1e-15) and well below any genuine fidelity gap between schemes.
TIE_TOL = 1e-9


def sweep(schemes: tuple[str, ...], family: str, start: float, end: float, points: int) -> tuple:
    """Evaluate every scheme on one uniform grid of `points` values from start to end, both included.

    Returns (grid, [(scheme, simulated, closed_form), ...]), the arrays of
    one fidelity.grid_report over all schemes, in their order. Schemes with
    equal fidelity polynomials share one read-only simulated array.
    """
    if points < 2:
        raise ValueError(f"sweep needs at least 2 points, got {points}")
    start, end = parameter_value(family, start), parameter_value(family, end)
    if not start < end:
        raise ValueError(f"sweep needs start < end, got [{start}, {end}]")
    import numpy as np
    grid = np.linspace(start, end, points)
    return grid, [(scheme, *cell) for scheme, cell in zip(schemes, grid_report(schemes, family, grid))]


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

    Both fidelities are compiled once, and lo and hi checked and weighed once
    by point_weight, before the first step; a midpoint of two valid
    parameters is valid, so each step only takes the transfer weight of its
    midpoint and evaluates both polynomials at it as floats, which have the
    bits of scheme_fidelity at that point and of the same point of a grid.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")

    evaluate_a, evaluate_b = compile_fidelity(a, family).evaluate, compile_fidelity(b, family).evaluate
    w_lo, w_hi = point_weight(family, lo), point_weight(family, hi)
    gap_lo = evaluate_a(w_lo, 0.0) - evaluate_b(w_lo, 0.0)
    gap_hi = evaluate_a(w_hi, 0.0) - evaluate_b(w_hi, 0.0)
    if not (gap_lo < 0.0 < gap_hi or gap_hi < 0.0 < gap_lo):
        # at a tied end (every scheme is 1.0 at zero noise) the message says so
        tie = next((f": {a} and {b} are equal at {p}" for p, g in ((lo, gap_lo), (hi, gap_hi)) if g == 0.0), "")
        raise ValueError(f"no crossover in interval [{lo}, {hi}]{tie}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        w = weight(family, mid, math)
        gap_mid = evaluate_a(w, 0.0) - evaluate_b(w, 0.0)
        if gap_mid == 0.0:
            return mid
        if (gap_mid < 0.0) == (gap_lo < 0.0):
            lo, gap_lo = mid, gap_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def recommend(family: str, value: float, schemes: tuple[str, ...] | None = None) -> list[tuple[int, str, float]]:
    """Rank schemes by simulated fidelity under one noise family at one parameter value.

    Returns (rank, scheme, fidelity) rows, best first. A scheme less than
    TIE_TOL below the next better one is tied with it: a group of tied
    schemes shares the rank of its first row and is ordered by label, so the
    rows do not depend on the order schemes are passed in. The value is
    checked and its transfer weight taken once for all schemes, by
    point_weight; each fidelity has the bits of scheme_fidelity at that value.
    """
    w = point_weight(family, value)
    if schemes is None:
        schemes = TABLE_SCHEMES
    scored = sorted(((scheme, compile_fidelity(scheme, family).evaluate(w, 0.0)) for scheme in schemes),
                    key=lambda pair: (-pair[1], pair[0]))
    rows: list[tuple[int, str, float]] = []
    for scheme, fid in scored:
        tied = rows and abs(fid - rows[-1][2]) < TIE_TOL
        rows.append((rows[-1][0] if tied else len(rows) + 1, scheme, fid))
    # by rank, and a tied group by label
    return sorted(rows)
