"""Fidelity of noisy decoy states and the closed-form expressions they obey.

The comparison metric throughout is F = <psi| rho_k |psi>, the overlap of the
prepared pure state with the channel output. For a pure reference this is the
square of the conventional fidelity F_c(sigma, rho) = Tr sqrt(sqrt(sigma) rho
sqrt(sigma)). A scheme is its label in states.SCHEMES, and a noise family its
tag in channels.FAMILIES.

Simulation compiles each (scheme, channel family) pair into a polynomial.
Every channel acts on every qubit with one Pauli transfer matrix R(p) = A0 +
w1(p) A1 + w2(p) A2 (see `channels`), so a decoy state of n qubits with Pauli
vector r_P = <psi|P|psi> has F = 2^-n r^T R^(x n) r, a polynomial in w1 and
w2 of degree at most n, evaluated over a whole grid in arrays of its length.
The BB84 average over all 256 product strings is exactly (the mean of the four
single-qubit polynomials over 0, 1, +, -)^4.

compile_fidelity is memoised, so each (scheme, family) pair is compiled once
per process and a one-point evaluation (recommend, each bisection round) pays
only for the evaluation. The polynomial depends on that pair alone, and the
key set is finite: 7 schemes x 4 families. Nothing is evicted or
invalidated; the compiled function holds only its coefficients. The scheme
and the family are checked before the memo, so an unknown one, unhashable
or not, raises ValueError, which is not memoised.

closed_form_grid evaluates the known closed forms over a whole grid, and
verify_table checks each (scheme, channel family) combination that has one
against simulation. The closed forms, keyed by the Bell labeling documented
in `states`:

    scheme      AD                              PD                  CD                  CR
    bb84 avg    (3+sqrt(1-e)-e)^4/256           (e-4)^4/256         (3+cos p)^4/256     cos^8 t
    psi+-       (2-2e+e^2)^2/4                  (2-2e+e^2)^2/4      cos^4 p             1 (psi+), cos^4 2t (psi-)
    phi+-       (1-e)^2                         (2-2e+e^2)^2/4      1                   cos^4 2t (phi+), 1 (phi-)
    cluster     (4-8e+6e^2-2e^3+e^4)/4          (2-2e+e^2)^2/4      cos^4 p             cos^8 t
    w           1-e                             (1+2(1-e)^2)/3      1                   (1+cos 2t)(3cos 2t-1)^2/8

The W row is derived from the compiled polynomials and checked against them in
the tests, but closed_form_grid has no W cell: the W state is simulated only,
and its sweep rows leave the closed-form fields empty.
Simulation never uses these expressions, so verify_table compares two derivations.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .channels import FAMILIES, TRANSFER_BASIS, check_family, parameter_grid, parameter_range, transfer_weights
from .linalg import ATOL, MAX_QUBITS, DensityMatrix, PureState
from .states import AMPLITUDES, SCHEMES, SINGLES, check_scheme

# Schemes that have a closed-form fidelity for every channel family, all but
# w; also the default set that analysis.recommend ranks.
TABLE_SCHEMES = SCHEMES[:-1]

# A compiled fidelity keeps its coefficient c_jk at index j * _DEGREES + k.
_DEGREES = MAX_QUBITS + 1


def _kron_power(stack: np.ndarray, count: int) -> np.ndarray:
    """Every product of count matrices of a stack of square matrices, first factor major."""
    products = np.ones((1, 1, 1))
    for _ in range(count):
        outer = np.multiply.outer(products, stack).transpose(0, 3, 1, 4, 2, 5)
        products = outer.reshape(len(products) * len(stack), len(products[0]) * len(stack[0]), -1)
    return products


def _transfer_powers(basis: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Products of 0, 1 and 2 basis matrices, each with the index j * _DEGREES + k of its j A1 and k A2."""
    steps = np.array([0, _DEGREES, 1][: len(basis)])
    monomials = (np.zeros(1, dtype=np.intp), steps, np.add.outer(steps, steps).ravel())
    return [(_kron_power(basis, count), monomials[count]) for count in range(3)]


# Products over 0, 1 and 2 qubits, enough for either half of up to four: the
# Pauli strings, from I, X, Y, Z in that order, and each family's transfer basis.
_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PAULI_STRINGS = [_kron_power(_PAULIS, count) for count in range(3)]
_TRANSFER_POWERS = {family: _transfer_powers(basis) for family, basis in TRANSFER_BASIS.items()}


def _bilinear(x: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum over i, j of conj(x_ij) (L x R^T)_ij for each matrix x of a stack and every L and R of two stacks.

    That is the sum over i, j of (L x)_ij (conj(x) R)_ij, so two matrix
    products give L x for every L and conj(x) R for every R.
    """
    count, rows, columns = x.shape
    left_x = (left.reshape(-1, rows) @ x).reshape(count, len(left), -1)
    x_right = (x.conj() @ right.transpose(1, 0, 2).reshape(columns, -1)).reshape(count, rows, len(right), columns)
    return left_x @ x_right.transpose(0, 1, 3, 2).reshape(count, -1, len(right))


def fidelity(psi: PureState, rho: DensityMatrix) -> float:
    """Overlap <psi| rho |psi> of a pure reference with a density matrix.

    The imaginary part must be below 1e-12; anything larger fails loudly
    instead of being silently discarded.
    """
    if psi.n_qubits != rho.n_qubits:
        raise ValueError(f"qubit count mismatch: state has {psi.n_qubits}, density matrix {rho.n_qubits}")
    value = complex(psi.amplitudes.conj() @ rho.matrix @ psi.amplitudes)
    if abs(value.imag) >= ATOL:
        raise ArithmeticError(f"fidelity has non-negligible imaginary part {value.imag}")
    return float(value.real)


def compile_fidelity(scheme: str, family: str) -> Callable[..., np.ndarray]:
    """The fidelity of one scheme under one noise family, as a function of the parameter grid.

    Memoised once both are checked; see the module docstring.
    """
    return _compile(check_scheme(scheme), check_family(family))


@functools.cache
def _compile(scheme: str, family: str) -> Callable[..., np.ndarray]:
    """compile_fidelity for a checked scheme and family.

    The Pauli vector r_P = <psi|P|psi>, and then the coefficients of F =
    2^-n r^T R^(x n) r, come from one identity: with the n qubits split into
    h = ceil(n/2) and n - h and a vector v on them written as a matrix V,
    v^dag (L x R) v is the sum of the entries of conj(V) * (L V R^T). Each
    product of basis matrices in R^(x n) adds to the coefficient of the
    monomial w1^j w2^k that its factors A1 and A2 set.
    """
    if scheme == "bb84":
        states, power = list(SINGLES.values()), 4
    else:
        states, power = [AMPLITUDES[scheme]], 1
    count, n = len(states), len(states[0]).bit_length() - 1
    half = (n + 1) // 2
    psi = np.array(states, dtype=complex).reshape(count, 2**half, -1)
    r = _bilinear(psi, _PAULI_STRINGS[half], _PAULI_STRINGS[n - half]).real
    (left, left_monomials), (right, right_monomials) = (_TRANSFER_POWERS[family][c] for c in (half, n - half))
    products = _bilinear(r, left, right).sum(axis=0) / (count * 2**n)
    coefficients = np.bincount(np.add.outer(left_monomials, right_monomials).ravel(), products.ravel())
    terms = tuple((*divmod(index, _DEGREES), c) for index, c in enumerate(coefficients.tolist()) if c)

    def fidelity_over(grid) -> np.ndarray:
        """The fidelity at every point of a parameter grid."""
        w1, w2 = transfer_weights(family, grid)
        terms_over = (c * (w1**j if j else 1.0) * (w2**k if k else 1.0) for j, k, c in terms)
        return sum(terms_over, start=np.zeros_like(w1)) ** power

    return fidelity_over


def scheme_fidelity(scheme: str, family: str, value: float) -> float:
    """Simulated fidelity of a scheme under one noise family at one parameter value."""
    return float(compile_fidelity(scheme, family)([value])[0])


def closed_form_grid(scheme: str, family: str, grid) -> np.ndarray | None:
    """The known closed-form fidelity of a scheme at every point of a grid.

    None for the W state, which is covered by simulation only.
    """
    x = parameter_grid(family, grid)
    match check_scheme(scheme), family:
        case "bb84", "ad":
            return (3.0 + np.sqrt(1.0 - x) - x) ** 4 / 256.0
        case "bb84", "pd":
            return (x - 4.0) ** 4 / 256.0
        case "bb84", "cd":
            return (3.0 + np.cos(x)) ** 4 / 256.0
        case "bb84" | "cluster", "cr":
            return np.cos(x) ** 8
        case ("psi+" | "psi-", "ad") | ("psi+" | "psi-" | "phi+" | "phi-" | "cluster", "pd"):
            return (2.0 - 2.0 * x + x * x) ** 2 / 4.0
        case "phi+" | "phi-", "ad":
            return (1.0 - x) ** 2
        case "psi+" | "psi-" | "cluster", "cd":
            return np.cos(x) ** 4
        case ("phi+" | "phi-", "cd") | ("psi+" | "phi-", "cr"):
            return np.ones_like(x)
        case "psi-" | "phi+", "cr":
            return np.cos(2.0 * x) ** 4
        case "cluster", "ad":
            return (4.0 - 8.0 * x + 6.0 * x**2 - 2.0 * x**3 + x**4) / 4.0
    # the W state, the one scheme left
    return None


@dataclass(frozen=True, eq=False)
class FidelityReport:
    """Simulated-vs-closed-form fidelities for one scheme over a parameter grid.

    grid, simulated and closed_form are stored as read-only float arrays, and
    max_abs_deviation is derived from the last two. closed_form and
    max_abs_deviation are None for schemes without a known expression (the W
    state).
    """

    scheme: str
    noise: str
    grid: np.ndarray
    simulated: np.ndarray
    closed_form: np.ndarray | None
    max_abs_deviation: float | None = field(init=False)

    def __post_init__(self):
        for name in ("grid", "simulated", "closed_form"):
            if getattr(self, name) is not None:
                values = np.array(getattr(self, name), dtype=float)
                values.setflags(write=False)
                object.__setattr__(self, name, values)
        outside = ~((-ATOL <= self.simulated) & (self.simulated <= 1.0 + ATOL))
        if outside.any():
            raise ValueError(f"simulated fidelity {self.simulated[outside][0]} outside [0, 1]")
        if len({a.shape for a in (self.grid, self.simulated, self.closed_form) if a is not None}) != 1:
            raise ValueError("grid, simulated and closed_form differ in length")
        deviation = None if self.closed_form is None else float(np.max(np.abs(self.simulated - self.closed_form)))
        object.__setattr__(self, "max_abs_deviation", deviation)


def grid_report(scheme: str, family: str, grid) -> FidelityReport:
    """Simulate one scheme across a parameter grid, with closed forms when known."""
    return FidelityReport(
        scheme=scheme,
        noise=family,
        grid=grid,
        simulated=compile_fidelity(scheme, family)(grid),
        closed_form=closed_form_grid(scheme, family, grid),
    )


def verify_table(grid_size: int) -> list[FidelityReport]:
    """Check every closed form against simulation on a uniform grid.

    One report per (scheme, channel family) combination; eta runs over [0, 1]
    and the collective angles over [0, 2 pi], endpoints included.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    reports = []
    for family in FAMILIES:
        lo, hi = parameter_range(family)
        grid = np.linspace(lo, hi, grid_size)
        for scheme in TABLE_SCHEMES:
            reports.append(grid_report(scheme, family, grid))
    return reports
