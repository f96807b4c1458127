"""Fidelity of noisy decoy states and the closed-form expressions they obey.

The comparison metric throughout is F = <psi| rho_k |psi>, the overlap of the
prepared pure state with the channel output. For a pure reference this is the
square of the conventional fidelity F_c(sigma, rho) = Tr sqrt(sqrt(sigma) rho
sqrt(sigma)); both are provided.

Simulation is one kernel, pure_state_fidelity. Every channel acts qubit by
qubit with operators E_a (Kraus operators, or one collective unitary), so a
pure decoy state has F = sum over (a1..an) of |<psi| E_a1 x ... x E_an |psi>|^2,
evaluated at every point of a parameter grid at once. The BB84 average over
all 256 product strings is exactly (mean single-qubit fidelity over 0, 1, +, -)^4.

Every (scheme, channel family) combination with a known closed form is
cross-checked against simulation via verify_table. The closed forms, keyed by
the Bell labeling documented in `states`:

    scheme      AD                              PD                  CD                  CR
    bb84 avg    (3+sqrt(1-e)-e)^4/256           (e-4)^4/256         (3+cos p)^4/256     cos^8 t
    psi+-       (2-2e+e^2)^2/4                  (2-2e+e^2)^2/4      cos^4 p             1 (psi+), cos^4 2t (psi-)
    phi+-       (1-e)^2                         (2-2e+e^2)^2/4      1                   cos^4 2t (phi+), 1 (phi-)
    cluster     (4-8e+6e^2-2e^3+e^4)/4          (2-2e+e^2)^2/4      cos^4 p             cos^8 t

The W state has no closed form here and is supported by simulation only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    AmplitudeDamping,
    CollectiveDephasing,
    CollectiveRotation,
    FAMILIES,
    NoiseModel,
    PhaseDamping,
    family_tag,
    operator_stack,
    parameter_of,
    parameter_range,
)
from .linalg import ATOL, DensityMatrix, PureState
from .states import (
    BB84Average,
    BB84Product,
    BellPair,
    Cluster,
    DecoyScheme,
    SINGLE_LABELS,
    WState,
    make_decoy_state,
    make_single,
)

# Schemes that have a closed-form fidelity for every channel family; also the
# default set that analysis.recommend ranks.
TABLE_SCHEMES: tuple[DecoyScheme, ...] = (
    BB84Average(),
    BellPair("psi+"),
    BellPair("psi-"),
    BellPair("phi+"),
    BellPair("phi-"),
    Cluster(),
)

# Grid points the kernel evaluates at once. Phase damping on four qubits ends
# with 3^4 branch vectors of 16 amplitudes per point, about 60 KB with the
# copies of the last step, so a block needs about 16 MB whatever the grid length.
KERNEL_BLOCK = 256


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


def conventional_fidelity(psi: PureState, rho: DensityMatrix) -> float:
    """Conventional fidelity against a pure reference: sqrt(<psi| rho |psi>)."""
    return math.sqrt(max(fidelity(psi, rho), 0.0))


def pure_state_fidelity(psi: PureState, ops: np.ndarray) -> np.ndarray:
    """F = sum_a |<psi| E_a1 x ... x E_an |psi>|^2 at each of G grid points.

    ops has shape (G, m, 2, 2), from channels.operator_stack. Each step applies
    all m operators to the leading qubit of every branch vector with one matmul
    and rotates that qubit to the back, so n steps restore the qubit order.
    """
    n, amps = psi.n_qubits, psi.amplitudes
    half = amps.size // 2
    out = np.empty(len(ops))
    for start in range(0, len(ops), KERNEL_BLOCK):
        block = ops[start : start + KERNEL_BLOCK]
        g, m = block.shape[:2]
        stacked = block.reshape(g, 2 * m, 2)
        # (grid point, leading qubit, other qubits and branches)
        state = amps.reshape(1, 2, half)
        for _ in range(n):
            applied = (stacked @ state).reshape(g, m, 2, half, -1)
            state = applied.transpose(0, 3, 2, 4, 1).reshape(g, 2, -1)
        overlaps = amps.conj() @ state.reshape(g, amps.size, -1)
        out[start : start + g] = (np.abs(overlaps) ** 2).sum(axis=-1)
    return out


def grid_fidelity(scheme: DecoyScheme, family: type, grid) -> np.ndarray:
    """Simulated fidelity of one scheme at every point of a parameter grid."""
    ops = operator_stack(family, grid)
    if isinstance(scheme, BB84Average):
        return (sum(pure_state_fidelity(make_single(label), ops) for label in SINGLE_LABELS) / 4.0) ** 4
    return pure_state_fidelity(make_decoy_state(scheme), ops)


def scheme_fidelity(scheme: DecoyScheme, noise: NoiseModel) -> float:
    """Simulated fidelity for any scheme, including the BB84 average."""
    return float(grid_fidelity(scheme, type(noise), [parameter_of(noise)])[0])


def simulate_fidelity(scheme: DecoyScheme, noise: NoiseModel) -> float:
    """Simulated fidelity of the decoy state of one scheme."""
    if isinstance(scheme, BB84Average):
        raise ValueError("BB84Average has no single state; use bb84_average_fidelity")
    return scheme_fidelity(scheme, noise)


def bb84_average_fidelity(noise: NoiseModel) -> float:
    """Mean fidelity over all 4^4 = 256 four-qubit product decoy strings.

    Exact: every string is a product state and every channel acts qubit by
    qubit, so the average factorises into single-qubit fidelities.
    """
    return scheme_fidelity(BB84Average(), noise)


def closed_form(scheme: DecoyScheme, noise: NoiseModel) -> float:
    """Evaluate the known closed-form fidelity for a (scheme, noise) pair.

    Individual BB84 product strings and the W state have no closed form and
    are rejected; they are covered by simulation only.
    """
    match scheme, noise:
        case BB84Average(), AmplitudeDamping(eta=e):
            return (3.0 + math.sqrt(1.0 - e) - e) ** 4 / 256.0
        case BB84Average(), PhaseDamping(eta=e):
            return (e - 4.0) ** 4 / 256.0
        case BB84Average(), CollectiveDephasing(phi=p):
            return (3.0 + math.cos(p)) ** 4 / 256.0
        case BB84Average(), CollectiveRotation(theta=t):
            return math.cos(t) ** 8

        case BellPair(label=("psi+" | "psi-")), AmplitudeDamping(eta=e):
            return (2.0 - 2.0 * e + e * e) ** 2 / 4.0
        case BellPair(label=("phi+" | "phi-")), AmplitudeDamping(eta=e):
            return (1.0 - e) ** 2
        case BellPair(), PhaseDamping(eta=e):
            return (2.0 - 2.0 * e + e * e) ** 2 / 4.0
        case BellPair(label=("psi+" | "psi-")), CollectiveDephasing(phi=p):
            return math.cos(p) ** 4
        case BellPair(label=("phi+" | "phi-")), CollectiveDephasing():
            return 1.0
        case BellPair(label=("psi+" | "phi-")), CollectiveRotation():
            return 1.0
        case BellPair(label=("psi-" | "phi+")), CollectiveRotation(theta=t):
            return math.cos(2.0 * t) ** 4

        case Cluster(), AmplitudeDamping(eta=e):
            return (4.0 - 8.0 * e + 6.0 * e**2 - 2.0 * e**3 + e**4) / 4.0
        case Cluster(), PhaseDamping(eta=e):
            return (2.0 - 2.0 * e + e * e) ** 2 / 4.0
        case Cluster(), CollectiveDephasing(phi=p):
            return math.cos(p) ** 4
        case Cluster(), CollectiveRotation(theta=t):
            return math.cos(t) ** 8

        case WState(), _:
            raise ValueError("the W state has no closed-form fidelity expression")
        case BB84Product(), _:
            raise ValueError("individual BB84 product strings have no closed form; only the average does")
    raise ValueError(f"no closed form for scheme {scheme!r} under noise {noise!r}")


@dataclass(frozen=True)
class FidelityReport:
    """Simulated-vs-closed-form fidelities for one scheme over a parameter grid.

    closed_form and max_abs_deviation are None for schemes without a known
    expression (the W state).
    """

    scheme: DecoyScheme
    noise: str
    grid: tuple[float, ...]
    simulated: tuple[float, ...]
    closed_form: tuple[float, ...] | None
    max_abs_deviation: float | None

    def __post_init__(self):
        for f in self.simulated:
            if not -ATOL <= f <= 1.0 + ATOL:
                raise ValueError(f"simulated fidelity {f} outside [0, 1]")
        if self.closed_form is not None:
            dev = max(abs(s - c) for s, c in zip(self.simulated, self.closed_form, strict=True))
            if self.max_abs_deviation != dev:
                raise ValueError("max_abs_deviation does not match the stored grids")


def grid_report(scheme: DecoyScheme, family: type, grid) -> FidelityReport:
    """Simulate one scheme across a parameter grid, with closed forms when known."""
    simulated = tuple(grid_fidelity(scheme, family, grid).tolist())
    try:
        closed = tuple(closed_form(scheme, family(p)) for p in grid)
    except ValueError:
        closed = None
    deviation = None
    if closed is not None:
        deviation = max(abs(s - c) for s, c in zip(simulated, closed))
    return FidelityReport(
        scheme=scheme,
        noise=family_tag(family),
        grid=tuple(float(p) for p in grid),
        simulated=simulated,
        closed_form=closed,
        max_abs_deviation=deviation,
    )


def verify_table(grid_size: int) -> list[FidelityReport]:
    """Check every closed form against simulation on a uniform grid.

    One report per (scheme, channel family) combination; eta runs over [0, 1]
    and the collective angles over [0, 2 pi], endpoints included.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    reports = []
    for family in FAMILIES.values():
        lo, hi = parameter_range(family)
        grid = np.linspace(lo, hi, grid_size)
        for scheme in TABLE_SCHEMES:
            reports.append(grid_report(scheme, family, grid))
    return reports
