"""Fidelity of noisy decoy states and the closed-form expressions they obey.

The comparison metric throughout is F = <psi| rho_k |psi>, the overlap of the
prepared pure state with the channel output. For a pure reference this is the
square of the conventional fidelity F_c(sigma, rho) = Tr sqrt(sqrt(sigma) rho
sqrt(sigma)). A scheme is its label in states.SCHEMES, and a noise family its
tag in channels.FAMILIES.

Simulation compiles each (scheme, channel family) pair into a polynomial.
Every channel acts on every qubit with one Pauli transfer matrix R(p) = A0 +
w1(p) A1 + w2(p) A2 with integer A0, A1, A2 (see `channels`), so a decoy
state of n qubits with Pauli vector r_P = <psi|P|psi> has F = 2^-n r^T
R^(x n) r, a polynomial in w1 and w2 of degree at most n. The compile is
exact integer arithmetic on the state's integer vector (states.INT_*) of
squared norm N: N r_P is an integer, and so is each coefficient times 2^n N^2.
These integers are reduced by the weights' exact relation, w2 = 1 - w1^2 (ad)
or w2^2 = 1 - w1^2 (cd, cr): every odd power of w2 cancels (else ValueError),
so F is a polynomial in one weight w = w1, and one that is 1 at every
parameter is the constant 1. Each coefficient is rounded once to the nearest
float by one int / int, and dropped if exactly 0. The BB84 average over all
256 product strings is exactly (the mean of the four single-qubit polynomials
over 0, 1, +, -)^4.

A Polynomial is evaluated by straight-line code built from its terms: powers
of w as repeated products (never **), one addition per term in order,
each coefficient as its repr, which reads back as the same float, and no
factor w^0 = 1.0, which changes no bit; then the sum to its power by repeated
products. Floats from math (scheme_fidelity, and analysis's ranking and
bisection) and arrays from numpy (grid_report) take that one function, so a
one-point value has the bits of the same point of a sweep.

compile_fidelity is memoised: the polynomial depends on the (scheme, family)
pair alone, and there are 7 x 4 of them. Nothing is evicted or invalidated.
The scheme and the family are checked before the memo, so an unknown one,
unhashable or not, raises ValueError, which is not memoised.

closed_form evaluates the known closed forms over a checked grid, its powers
as repeated products like evaluate's, never **: numpy may run an array's **
through a SIMD pow whose last bit depends on the CPU (AVX-512 or not), but a
product rounds alike at every SIMD width, so every CPU gets the same bits.
grid_report checks a family's grid and takes its weight once, then returns
each scheme's simulated and closed-form arrays from them; no evaluation writes
to them.
Schemes with equal polynomials (equal terms and power, so equal straight-line
code and equal bits) share one simulated array: it is evaluated and range
checked once per grid, and made read-only, so one scheme's array cannot be
changed under another. Closed forms stay one per scheme.
verify_table reduces each (scheme, channel family) combination that has a
closed form to one row: its largest deviation from simulation and where it
lies. The closed forms, keyed by the Bell labeling documented in `states`:

    scheme      AD                              PD                  CD                  CR
    bb84 avg    (3+sqrt(1-e)-e)^4/256           (e-4)^4/256         (3+cos p)^4/256     cos^8 t
    psi+-       (2-2e+e^2)^2/4                  (2-2e+e^2)^2/4      cos^4 p             1 (psi+), cos^4 2t (psi-)
    phi+-       (1-e)^2                         (2-2e+e^2)^2/4      1                   cos^4 2t (phi+), 1 (phi-)
    cluster     (4-8e+6e^2-2e^3+e^4)/4          (2-2e+e^2)^2/4      cos^4 p             cos^8 t
    w           1-e                             (1+2(1-e)^2)/3      1                   (1+cos 2t)(3cos 2t-1)^2/8

The W row is derived from the compiled polynomials and checked against them in
the tests, but closed_form has no W cell: the W state is simulated only,
and its sweep rows leave the closed-form fields empty.
Simulation never uses these expressions, so verify_table compares two derivations.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math

from .channels import FAMILIES, TRANSFER_BASIS, check_family, parameter_grid, parameter_range, point_weight, weight
from .states import ATOL, INT_SINGLES, INT_STATES, SCHEMES, check_scheme

TYPE_CHECKING = False
if TYPE_CHECKING:  # numpy is imported where a grid needs it
    import numpy as np

# Schemes that have a closed-form fidelity for every channel family, all but
# w; also the default set that analysis.recommend ranks.
TABLE_SCHEMES = SCHEMES[:-1]


Polynomial = collections.namedtuple("Polynomial", ["terms", "power", "evaluate"])
Polynomial.__doc__ = """A compiled fidelity, (sum of c w^j over its terms (j, c))^power in the transfer weight w.

evaluate(w, total) is F, for floats or arrays; total is a zero of the result's type.
"""


def _straight_line(terms, power: int):
    """Polynomial.evaluate, from source text of ints and float reprs alone; see the module docstring."""
    body = [f"w_{n} = w_{n - 1} * w_1" for n in range(2, max(j for j, _ in terms) + 1)]
    for j, c in terms:
        body.append(" * ".join([f"total = total + {c!r}", *[f"w_{j}"] * (j > 0)]))
    body.append("return " + " * ".join(["total"] * power))
    namespace = {}
    exec(compile("def evaluate(w_1, total):\n    " + "\n    ".join(body), "<fidelity>", "exec"), namespace)
    return namespace["evaluate"]


def compile_fidelity(scheme: str, family: str) -> Polynomial:
    """The fidelity of one scheme under one noise family, as a Polynomial in its parameter.

    Memoised once both are checked; see the module docstring.
    """
    return _compile(check_scheme(scheme), check_family(family))


def _pauli_vector(vec: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """N <psi|P|psi> for each Pauli string P (0 to 3 for I, X, Y, Z on each qubit) where it is not 0.

    With f the qubits where P has X or Y, z those where it has Y or Z and m
    its number of Y, <a|P|b> = i^m (-1)^(b.z) for a = b ^ f. For a real
    vector the sum is 0 for odd m, and an integer for even m.
    """
    n, support = len(vec).bit_length() - 1, [(b, x) for b, x in enumerate(vec) if x]
    r = {}
    # <a|P|b> is not 0 only for a = b ^ f, so only f = a ^ b of two nonzero amplitudes can give one
    for f, z in itertools.product(sorted({a ^ b for a, _ in support for b, _ in support}), range(2**n)):
        total = sum(-x * vec[b ^ f] if (b & z).bit_count() % 2 else x * vec[b ^ f] for b, x in support)
        if total:
            paulis = tuple((0, 3, 1, 2)[2 * (f >> q & 1) + (z >> q & 1)] for q in reversed(range(n)))
            r[paulis] = -total if (f & z).bit_count() % 4 else total
    return r


@functools.cache
def _compile(scheme: str, family: str) -> Polynomial:
    """compile_fidelity for a checked scheme and family; see the module docstring."""
    vectors, power = (list(INT_SINGLES.values()), 4) if scheme == "bb84" else ([INT_STATES[scheme]], 1)
    basis = TRANSFER_BASIS[family]
    # each row of R as (column, basis matrix 0, 1 or 2 for A0, A1, A2, its integer entry) where not 0
    rows = [[(b, m, basis[m][a][b]) for b in range(4) for m in range(len(basis)) if basis[m][a][b]] for a in range(4)]
    norms = [len(vectors) * len(vec) * sum(x * x for x in vec) ** 2 for vec in vectors]
    den, exact = math.lcm(*norms), collections.Counter()  # of w1^j w2^(k mod 2), as integers over den
    for vec, norm in zip(vectors, norms):
        r, scaled = _pauli_vector(vec), {}
        for left, r_left in r.items():
            # each way to pick an entry of R in every qubit's row adds to the coefficient of w1^#A1 w2^#A2
            for picks in itertools.product(*(rows[a] for a in left)):
                r_right = r.get(tuple(b for b, _, _ in picks))
                if r_right:
                    matrices = [m for _, m, _ in picks]
                    key = (matrices.count(1), matrices.count(2))
                    scaled[key] = scaled.get(key, 0) + r_left * r_right * math.prod(entry for _, _, entry in picks)
        for (j, k), c in scaled.items():
            odd, half = (0, k) if family == "ad" else (k % 2, k // 2)  # w2^k = w2^odd (1 - w1^2)^half
            for i in range(half + 1):
                exact[j + 2 * i, odd] += (-1) ** i * math.comb(half, i) * c * (den // norm)
    if any(c for (_, odd), c in exact.items() if odd):
        raise ValueError(f"the fidelity of {scheme} under {family} keeps an odd power of its second weight")
    terms = tuple((j, c / den) for (j, _), c in sorted(exact.items()) if c)
    return Polynomial(terms, power, _straight_line(terms, power))


def scheme_fidelity(scheme: str, family: str, value: float) -> float:
    """Simulated fidelity of a scheme under one noise family at one parameter value."""
    return compile_fidelity(scheme, family).evaluate(point_weight(family, value), 0.0)


def closed_form(scheme: str, family: str, x: np.ndarray) -> np.ndarray | None:
    """The known closed-form fidelity of a scheme at a family's parameters x, checked by parameter_grid; None for W."""
    import numpy as np
    match check_scheme(scheme), check_family(family):
        case "bb84", "ad":
            return np.square(np.square(3.0 + np.sqrt(1.0 - x) - x)) / 256.0
        case "bb84", "pd":
            return np.square(np.square(x - 4.0)) / 256.0
        case "bb84", "cd":
            return np.square(np.square(3.0 + np.cos(x))) / 256.0
        case "bb84" | "cluster", "cr":
            return np.square(np.square(np.square(np.cos(x))))
        case ("psi+" | "psi-", "ad") | ("psi+" | "psi-" | "phi+" | "phi-" | "cluster", "pd"):
            return np.square(2.0 - 2.0 * x + x * x) / 4.0
        case "phi+" | "phi-", "ad":
            return np.square(1.0 - x)
        case "psi+" | "psi-" | "cluster", "cd":
            return np.square(np.square(np.cos(x)))
        case ("phi+" | "phi-", "cd") | ("psi+" | "phi-", "cr"):
            return np.ones_like(x)
        case "psi-" | "phi+", "cr":
            return np.square(np.square(np.cos(2.0 * x)))
        case "cluster", "ad":
            x2 = x * x
            return (4.0 - 8.0 * x + 6.0 * x2 - 2.0 * (x2 * x) + x2 * x2) / 4.0
    # the W state, the one scheme left
    return None


def grid_report(schemes: tuple[str, ...], family: str, grid) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Each scheme across one grid, as a list of (simulated, closed_form) arrays; see the module docstring.

    closed_form is None for the W state. Schemes with equal polynomials share
    one read-only simulated array, evaluated and checked once. A simulated
    fidelity outside [0, 1] by more than ATOL, or NaN, is a fault and raises
    ValueError naming the first such value.
    """
    import numpy as np
    x = parameter_grid(family, grid)
    w = weight(family, x, np)
    total, evaluated, cells = np.zeros_like(w), {}, []
    for scheme in schemes:
        polynomial = compile_fidelity(scheme, family)
        key = polynomial.terms, polynomial.power
        if key not in evaluated:
            simulated = polynomial.evaluate(w, total)
            # NaN fails both comparisons; min() of an empty grid would raise
            if simulated.size and not (-ATOL <= simulated.min() and simulated.max() <= 1.0 + ATOL):
                outside = ~((-ATOL <= simulated) & (simulated <= 1.0 + ATOL))
                raise ValueError(f"simulated fidelity {simulated[outside][0]} outside [0, 1]")
            simulated.flags.writeable = False
            evaluated[key] = simulated
        cells.append((evaluated[key], closed_form(scheme, family, x)))
    return cells


def verify_table(grid_size: int) -> list[tuple[str, str, float, float]]:
    """Check every closed form against simulation on a uniform grid.

    One (scheme, family, max_abs_deviation, parameter) row per (scheme,
    channel family) combination, where parameter is the grid value of the
    largest deviation; eta runs over [0, 1] and the collective angles over
    [0, 2 pi], endpoints included. One family's arrays are held at a time,
    from its grid_report until its rows are reduced.
    """
    import numpy as np
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    rows = []
    for family in FAMILIES:
        grid = np.linspace(*parameter_range(family), grid_size)
        for scheme, (simulated, closed) in zip(TABLE_SCHEMES, grid_report(TABLE_SCHEMES, family, grid)):
            deviation = np.abs(simulated - closed)
            worst = deviation.argmax()
            rows.append((scheme, family, float(deviation[worst]), float(grid[worst])))
    return rows
