"""The four noise channels, as per-qubit operator stacks and as density-matrix maps.

Every channel acts qubit by qubit. Kraus channels (amplitude damping, phase
damping) apply the same set of single-qubit Kraus operators independently to
every travel qubit; collective channels (dephasing, rotation) apply one and
the same single-qubit unitary to all qubits traveling simultaneously.

Amplitude damping models energy loss into a zero-temperature bath:

    E0 = [[1, 0], [0, sqrt(1-eta)]],   E1 = [[0, sqrt(eta)], [0, 0]]

Phase damping destroys coherences without energy loss:

    E0 = sqrt(1-eta) I,   E1 = sqrt(eta) |0><0|,   E2 = sqrt(eta) |1><1|

Collective dephasing is the phase gate diag(1, exp(i phi)); collective
rotation is the real rotation [[cos t, -sin t], [sin t, cos t]]. The angle
parameters may be any finite real (they drift with time); eta is a
decoherence probability and must lie in [0, 1].

operator_stack writes these operators down once, for a whole parameter grid;
the single-point constructors and the density-matrix maps (apply_noise and the
two below it, the tests' oracle for the kernel in `fidelity`) are built on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    ATOL,
    DensityMatrix,
    conjugate_apply,
    dagger,
    is_unitary,
    tensor_power,
    tensor_product,
)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A set of single-qubit Kraus operators with the completeness invariant.

    Completeness (sum of E^dag E = I) is checked at construction.
    """

    operators: tuple[np.ndarray, ...]
    name: str

    def __post_init__(self):
        ops = tuple(np.asarray(op, dtype=complex).copy() for op in self.operators)
        if not ops or any(op.shape != (2, 2) for op in ops):
            raise ValueError("Kraus operators must be a non-empty set of 2x2 matrices")
        total = sum(dagger(op) @ op for op in ops)
        if float(np.max(np.abs(total - np.eye(2)))) > ATOL:
            raise ValueError(f"Kraus set {self.name!r} is not complete: sum E^dag E != I")
        for op in ops:
            op.setflags(write=False)
        object.__setattr__(self, "operators", ops)


def _check_rate(eta: float) -> float:
    eta = float(eta)
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"decoherence rate must lie in [0, 1], got {eta}")
    return eta


def _check_angle(angle: float) -> float:
    angle = float(angle)
    if not math.isfinite(angle):
        raise ValueError(f"noise angle must be finite, got {angle}")
    return angle


@dataclass(frozen=True)
class AmplitudeDamping:
    eta: float

    def __post_init__(self):
        object.__setattr__(self, "eta", _check_rate(self.eta))


@dataclass(frozen=True)
class PhaseDamping:
    eta: float

    def __post_init__(self):
        object.__setattr__(self, "eta", _check_rate(self.eta))


@dataclass(frozen=True)
class CollectiveDephasing:
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "phi", _check_angle(self.phi))


@dataclass(frozen=True)
class CollectiveRotation:
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", _check_angle(self.theta))


NoiseModel = AmplitudeDamping | PhaseDamping | CollectiveDephasing | CollectiveRotation

# Family tag <-> class, as used by the CLI and in reports.
FAMILIES: dict[str, type] = {
    "ad": AmplitudeDamping,
    "pd": PhaseDamping,
    "cd": CollectiveDephasing,
    "cr": CollectiveRotation,
}

_TAGS = {cls: tag for tag, cls in FAMILIES.items()}

# Per-qubit operators of each family: Kraus operators, or one unitary.
_OPERATOR_COUNTS = {AmplitudeDamping: 2, PhaseDamping: 3, CollectiveDephasing: 1, CollectiveRotation: 1}


def family_tag(noise) -> str:
    """Short tag ('ad', 'pd', 'cd', 'cr') for a noise model or family class."""
    cls = noise if isinstance(noise, type) else type(noise)
    try:
        return _TAGS[cls]
    except KeyError:
        raise ValueError(f"unknown noise family {noise!r}") from None


def parameter_of(noise: NoiseModel) -> float:
    """The single scalar parameter of a noise model."""
    match noise:
        case AmplitudeDamping(eta=eta) | PhaseDamping(eta=eta):
            return eta
        case CollectiveDephasing(phi=phi):
            return phi
        case CollectiveRotation(theta=theta):
            return theta
    raise ValueError(f"unknown noise model {noise!r}")


def parameter_range(family: type) -> tuple[float, float]:
    """Natural sweep range: [0, 1] for damping rates, [0, 2 pi] for angles."""
    if family in (AmplitudeDamping, PhaseDamping):
        return 0.0, 1.0
    if family in (CollectiveDephasing, CollectiveRotation):
        return 0.0, 2.0 * math.pi
    raise ValueError(f"unknown noise family {family!r}")


def operator_stack(family: type, grid) -> np.ndarray:
    """The per-qubit operators of a noise family at every grid point.

    Returns a complex array of shape (G, m, 2, 2): the m Kraus operators of a
    damping channel, or the collective unitary as m = 1, for each of the G
    parameter values. Rates outside [0, 1] and non-finite angles are rejected.
    """
    if family not in _TAGS:
        raise ValueError(f"unknown noise family {family!r}")
    p = np.asarray(grid, dtype=float).reshape(-1)
    if family in (AmplitudeDamping, PhaseDamping):
        # written so that NaN, which fails every comparison, is rejected too
        valid = (0.0 <= p) & (p <= 1.0)
        problem = "decoherence rate must lie in [0, 1]"
    else:
        valid = np.isfinite(p)
        problem = "noise angle must be finite"
    if not valid.all():
        raise ValueError(f"{problem}, got {p[~valid][0]}")
    ops = np.zeros((p.size, _OPERATOR_COUNTS[family], 2, 2), dtype=complex)
    if family is AmplitudeDamping:
        ops[:, 0, 0, 0] = 1.0
        ops[:, 0, 1, 1] = np.sqrt(1.0 - p)
        ops[:, 1, 0, 1] = np.sqrt(p)
    elif family is PhaseDamping:
        ops[:, 0, 0, 0] = ops[:, 0, 1, 1] = np.sqrt(1.0 - p)
        ops[:, 1, 0, 0] = ops[:, 2, 1, 1] = np.sqrt(p)
    elif family is CollectiveDephasing:
        ops[:, 0, 0, 0] = 1.0
        ops[:, 0, 1, 1] = np.exp(1j * p)
    else:
        sin = np.sin(p)
        ops[:, 0, 0, 0] = ops[:, 0, 1, 1] = np.cos(p)
        ops[:, 0, 0, 1], ops[:, 0, 1, 0] = -sin, sin
    return ops


def kraus_ad(eta: float) -> KrausChannel:
    """Amplitude damping channel with decoherence rate eta in [0, 1]."""
    return KrausChannel(tuple(operator_stack(AmplitudeDamping, [eta])[0]), "amplitude_damping")


def kraus_pd(eta: float) -> KrausChannel:
    """Phase damping channel with decoherence rate eta in [0, 1]."""
    return KrausChannel(tuple(operator_stack(PhaseDamping, [eta])[0]), "phase_damping")


def unitary_cd(phi: float) -> np.ndarray:
    """Collective dephasing phase gate diag(1, exp(i phi))."""
    return operator_stack(CollectiveDephasing, [phi])[0, 0]


def unitary_cr(theta: float) -> np.ndarray:
    """Collective rotation by angle theta in the real plane."""
    return operator_stack(CollectiveRotation, [theta])[0, 0]


def apply_kraus_channel(rho: DensityMatrix, ch: KrausChannel) -> DensityMatrix:
    """Apply the channel independently to each qubit of rho.

    Plain density-matrix evolution, one qubit at a time: on qubit q each Kraus
    operator E is embedded as I x E x I and the terms E rho E^dag are summed.
    The result is validated as a density matrix.
    """
    n = rho.n_qubits
    state = rho.matrix
    for q in range(n):
        embedded = [
            tensor_product(tensor_product(np.eye(2**q), op), np.eye(2 ** (n - q - 1)))
            for op in ch.operators
        ]
        state = sum(e @ state @ dagger(e) for e in embedded)
    return DensityMatrix(state)


def apply_collective(rho: DensityMatrix, u: np.ndarray) -> DensityMatrix:
    """Apply the same single-qubit unitary u to every qubit of rho."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"collective noise needs a 2x2 unitary, got shape {u.shape}")
    if not is_unitary(u):
        raise ValueError("collective noise operator is not unitary within tolerance")
    return conjugate_apply(tensor_power(u, rho.n_qubits), rho)


def apply_noise(rho: DensityMatrix, noise: NoiseModel) -> DensityMatrix:
    """Send rho through the given noise model."""
    match noise:
        case AmplitudeDamping(eta=eta):
            return apply_kraus_channel(rho, kraus_ad(eta))
        case PhaseDamping(eta=eta):
            return apply_kraus_channel(rho, kraus_pd(eta))
        case CollectiveDephasing(phi=phi):
            return apply_collective(rho, unitary_cd(phi))
        case CollectiveRotation(theta=theta):
            return apply_collective(rho, unitary_cr(theta))
    raise ValueError(f"unknown noise model {noise!r}")
