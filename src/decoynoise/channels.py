"""The four noise channels, as Pauli transfer matrices and as density-matrix maps.

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

A noise family is its tag, one of FAMILIES ('ad', 'pd', 'cd', 'cr'), and a
noise setting is a (family, value) pair; FAMILIES maps each tag to the name
of its parameter (eta, phi or theta).

The fidelity kernel in `fidelity` sees a channel only through its Pauli
transfer matrix R(p) = A0 + w1(p) A1 + w2(p) A2: integer TRANSFER_BASIS
matrices, and weights from numpy over a grid (transfer_weights) or from math
at one value (point_weights). The Kraus operators and unitaries, written out
apart from it, and the density-matrix maps (apply_noise and the two below it)
are the tests' oracle for that kernel; like every grid, they import numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .states import ATOL

TYPE_CHECKING = False
if TYPE_CHECKING:  # numpy is imported where a grid or the oracle needs it
    import numpy as np
    from .linalg import DensityMatrix


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A set of single-qubit Kraus operators with the completeness invariant.

    Completeness (sum of E^dag E = I) is checked at construction.
    """

    operators: tuple[np.ndarray, ...]
    name: str

    def __post_init__(self):
        import numpy as np
        from .linalg import dagger
        ops = tuple(np.asarray(op, dtype=complex).copy() for op in self.operators)
        if not ops or any(op.shape != (2, 2) for op in ops):
            raise ValueError("Kraus operators must be a non-empty set of 2x2 matrices")
        total = sum(dagger(op) @ op for op in ops)
        if float(np.max(np.abs(total - np.eye(2)))) > ATOL:
            raise ValueError(f"Kraus set {self.name!r} is not complete: sum E^dag E != I")
        for op in ops:
            op.setflags(write=False)
        object.__setattr__(self, "operators", ops)


# Each noise family's tag, as the CLI and every report write it, and the name
# of its one parameter, which is also its CLI flag.
FAMILIES = {"ad": "eta", "pd": "eta", "cd": "phi", "cr": "theta"}


def check_family(family: str) -> str:
    """The tag itself, if it names a noise family; ValueError otherwise."""
    # a str first, so that an unhashable value fails the check, not the lookup
    if not (isinstance(family, str) and family in FAMILIES):
        raise ValueError(f"unknown noise family {family!r}")
    return family


def parameter_range(family: str) -> tuple[float, float]:
    """Natural sweep range: [0, 1] for damping rates, [0, 2 pi] for angles."""
    return (0.0, 1.0) if FAMILIES[check_family(family)] == "eta" else (0.0, 2.0 * math.pi)


def parameter_value(family: str, value: float) -> float:
    """One parameter of a noise family as a float; a rate outside [0, 1] or a non-finite angle is rejected."""
    value = float(value)
    if FAMILIES[check_family(family)] == "eta":
        # written so that NaN, which fails every comparison, is rejected too
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"decoherence rate must lie in [0, 1], got {value}")
    elif not math.isfinite(value):
        raise ValueError(f"noise angle must be finite, got {value}")
    return value


def parameter_grid(family: str, grid) -> np.ndarray:
    """A noise family's parameters as a flat float array, each checked as by parameter_value."""
    import numpy as np
    p = np.asarray(grid, dtype=float).reshape(-1)
    valid = (0.0 <= p) & (p <= 1.0) if FAMILIES[check_family(family)] == "eta" else np.isfinite(p)
    if not valid.all():
        parameter_value(family, p[~valid][0])  # raises for the first value outside
    return p


# A0, A1 and A2 of each family's R_ij = Tr(P_i E(P_j)) / 2, P in the order I, X, Y, Z
_IZ = ((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1))
_XY = ((0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0))
_IY = ((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0))
_XZ = ((0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1))
TRANSFER_BASIS: dict[str, tuple[tuple[tuple[int, ...], ...], ...]] = {
    # I -> I + eta Z, X -> sqrt(1-eta) X, Y -> sqrt(1-eta) Y, Z -> (1-eta) Z
    "ad": (_IZ, _XY, ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, -1))),
    # X -> (1-eta) X, Y -> (1-eta) Y
    "pd": (_IZ, _XY),
    # X -> cos phi X + sin phi Y, Y -> cos phi Y - sin phi X
    "cd": (_IZ, _XY, ((0, 0, 0, 0), (0, 0, -1, 0), (0, 1, 0, 0), (0, 0, 0, 0))),
    # X -> cos 2t X - sin 2t Z, Z -> cos 2t Z + sin 2t X
    "cr": (_IY, _XZ, ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0), (0, -1, 0, 0))),
}


def _weights(family: str, p, xp):
    """(w1, w2) at a checked parameter p: a float with xp = math, an array with xp = numpy."""
    if family == "ad":
        return xp.sqrt(1.0 - p), p
    if family == "pd":
        return 1.0 - p, None
    if family == "cd":
        return xp.cos(p), xp.sin(p)
    # cos 2t and sin 2t from t, which stay finite where 2t would overflow
    cos, sin = xp.cos(p), xp.sin(p)
    return (cos - sin) * (cos + sin), 2.0 * sin * cos


def transfer_weights(family: str, grid) -> tuple[np.ndarray, np.ndarray | None]:
    """The weights (w1, w2) of a family's TRANSFER_BASIS at every point of a parameter grid.

    They are sqrt(1-eta), eta (ad); 1-eta, None (pd, no A2); cos phi, sin phi
    (cd); cos 2t, sin 2t (cr). parameter_grid checks the grid.
    """
    import numpy as np
    return _weights(family, parameter_grid(family, grid), np)


def point_weights(family: str, value: float) -> tuple[float, float | None]:
    """transfer_weights at one parameter value, as floats from math; parameter_value checks it."""
    return _weights(family, parameter_value(family, value), math)


def kraus_ad(eta: float) -> KrausChannel:
    """Amplitude damping channel with decoherence rate eta in [0, 1]."""
    eta = parameter_value("ad", eta)
    return KrausChannel(([[1, 0], [0, math.sqrt(1 - eta)]], [[0, math.sqrt(eta)], [0, 0]]), "amplitude_damping")


def kraus_pd(eta: float) -> KrausChannel:
    """Phase damping channel with decoherence rate eta in [0, 1]."""
    eta = parameter_value("pd", eta)
    keep, lose = math.sqrt(1 - eta), math.sqrt(eta)
    return KrausChannel(([[keep, 0], [0, keep]], [[lose, 0], [0, 0]], [[0, 0], [0, lose]]), "phase_damping")


def unitary_cd(phi: float) -> np.ndarray:
    """Collective dephasing phase gate diag(1, exp(i phi))."""
    import numpy as np
    return np.diag([1.0, np.exp(1j * parameter_value("cd", phi))])


def unitary_cr(theta: float) -> np.ndarray:
    """Collective rotation by angle theta in the real plane."""
    import numpy as np
    theta = parameter_value("cr", theta)
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]], dtype=complex)


def apply_kraus_channel(rho: DensityMatrix, ch: KrausChannel) -> DensityMatrix:
    """Apply the channel independently to each qubit of rho.

    Plain density-matrix evolution, one qubit at a time: on qubit q each Kraus
    operator E is embedded as I x E x I and the terms E rho E^dag are summed.
    The result is validated as a density matrix.
    """
    import numpy as np
    from .linalg import DensityMatrix, dagger, tensor_product
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
    import numpy as np
    from .linalg import conjugate_apply, is_unitary, tensor_power
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"collective noise needs a 2x2 unitary, got shape {u.shape}")
    if not is_unitary(u):
        raise ValueError("collective noise operator is not unitary within tolerance")
    return conjugate_apply(tensor_power(u, rho.n_qubits), rho)


def apply_noise(rho: DensityMatrix, family: str, value: float) -> DensityMatrix:
    """Send rho through one noise family at one parameter value."""
    match family:
        case "ad":
            return apply_kraus_channel(rho, kraus_ad(value))
        case "pd":
            return apply_kraus_channel(rho, kraus_pd(value))
        case "cd":
            return apply_collective(rho, unitary_cd(value))
        case "cr":
            return apply_collective(rho, unitary_cr(value))
    raise ValueError(f"unknown noise family {family!r}")
