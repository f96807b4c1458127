"""Parameter sweeps and their CSV, crossover finding and per-channel scheme ranking.

Crossovers and rankings go through the simulated fidelity alone, so schemes
without a closed-form expression, like the W state, take part on equal
footing; a sweep returns each scheme's closed forms beside its simulation,
None for the W state, and sweep_csv formats them. A scheme is its label and a
noise family its tag; a noise setting is a (family, value) pair. A ranking is
the list of (rank, scheme, fidelity) rows that the CLI prints.
"""

from __future__ import annotations

import itertools
import math

from .channels import parameter_value, point_weight, weight
from .fidelity import TABLE_SCHEMES, compile_fidelity, grid_report

# Fidelities closer than this are reported as a tie; well above simulation
# noise (~1e-15) and well below any genuine fidelity gap between schemes.
TIE_TOL = 1e-9

# Sweep rows formatted per block, so that only one block's Python floats and
# strings are held at a time; at this size the largest sweeps peak at the sizes
# that cli's size-cap comment gives.
CSV_ROWS = 2**14

SWEEP_HEADER = ["scheme", "noise", "parameter", "fidelity_sim", "fidelity_closed", "abs_err"]


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


def _blocks(grid, results):
    """A sweep's results as blocks: lists of (result, row slice) of at most CSV_ROWS rows.

    A block holds whole results while they fit; a result longer than that is
    cut into pieces of CSV_ROWS rows. Rows keep their order.
    """
    block, size = [], 0
    for result in results:
        for start in range(0, len(grid), CSV_ROWS):
            rows = min(CSV_ROWS, len(grid) - start)
            if size + rows > CSV_ROWS:
                yield block
                block, size = [], 0
            block.append((result, slice(start, start + rows)))
            size += rows
    if block:
        yield block


def sweep_csv(grid, family, results):
    """A sweep's CSV as str chunks, one per (scheme, row slice) piece of a block of at most CSV_ROWS rows.

    Pieces of equal simulated array, rows and closed-form bits (psi+ and psi-
    under ad, not W) share one row body, formatted once, in which each
    distinct float, told apart by its bits (0.0 from -0.0), is repr-ed once.
    """
    import numpy as np
    yield ",".join(SWEEP_HEADER) + "\n"
    for block in _blocks(grid, results):
        keys, pieces = [], {}
        for (_, simulated, closed_form), rows in block:
            # results holds every array while its block is formatted, so an id names one
            key = (id(simulated), rows.start, None if closed_form is None else closed_form[rows].tobytes())
            if key not in pieces:
                pieces[key] = [grid[rows], simulated[rows]]
                if closed_form is not None:
                    pieces[key] += [closed_form[rows], abs(simulated[rows] - closed_form[rows])]
            keys.append(key)
        values = np.concatenate([column for columns in pieces.values() for column in columns])
        distinct, index = np.unique(values.view(np.int64), return_inverse=True)
        text = iter(np.array(list(map(repr, distinct.view(float).tolist())), dtype=object)[index].tolist())
        bodies = {}
        for key, columns in pieces.items():
            fields = [list(itertools.islice(text, len(column))) for column in columns]
            bodies[key] = list(map(",".join, zip(*fields, *[itertools.repeat("")] * (4 - len(columns)))))
        # while a chunk is written, the block holds no strings but the bodies still to be written
        del text, values, distinct, index, fields
        last = {key: n for n, key in enumerate(keys)}
        for n, (key, ((scheme, _, _), _)) in enumerate(zip(keys, block)):
            lead = f"{scheme},{family},"
            yield lead + ("\n" + lead).join(bodies.pop(key) if last[key] == n else bodies[key]) + "\n"


def find_crossover(a: str, b: str, family: str, lo: float, hi: float, tol: float = 1e-9) -> float:
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
