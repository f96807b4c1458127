"""The four noise channels, as Pauli transfer matrices.

Every channel acts qubit by qubit: amplitude damping and phase damping apply
one set of Kraus operators to each travel qubit independently, collective
dephasing and collective rotation one and the same unitary to all qubits
traveling simultaneously. The angle parameters may be any real below
ANGLE_BOUND = 2**1023 in magnitude (they drift with time), so that twice an
angle is a float; eta is a decoherence probability and must lie in [0, 1].

A noise family is its tag, one of FAMILIES ('ad', 'pd', 'cd', 'cr'), and a
noise setting is a (family, value) pair; FAMILIES maps each tag to the name
of its parameter (eta, phi or theta).

The fidelity kernel in `fidelity` sees a channel only through its Pauli
transfer matrix R(p) = A0 + w1(p) A1 + w2(p) A2: integer TRANSFER_BASIS
matrices and one `weight` w1 at a checked parameter, as w2 = 1 - w1^2 (ad) or
w2^2 = 1 - w1^2 (cd, cr) and pd has no A2: over a grid from numpy (after
parameter_grid checks it) or at one value from math (point_weight). The tests
check it against density-matrix evolution under the Kraus operators and
unitaries written out apart from it.
"""

from __future__ import annotations

import math

TYPE_CHECKING = False
if TYPE_CHECKING:  # numpy is imported where a grid needs it
    import numpy as np

# Each noise family's tag, as the CLI and every report write it, and the name
# of its one parameter, which is also its CLI flag.
FAMILIES = {"ad": "eta", "pd": "eta", "cd": "phi", "cr": "theta"}

# Every angle lies below this in magnitude, so twice it does not overflow.
ANGLE_BOUND = math.ldexp(1.0, 1023)


def check_family(family: str) -> str:
    """The tag itself, if it names a noise family; ValueError otherwise."""
    # a str first, so that an unhashable value fails the check, not the lookup
    if not (isinstance(family, str) and family in FAMILIES):
        raise ValueError(f"unknown noise family {family!r}")
    return family


def parameter_range(family: str) -> tuple[float, float]:
    """Natural sweep range: [0, 1] for damping rates, [0, 2 pi] for angles."""
    return (0.0, 1.0) if FAMILIES[check_family(family)] == "eta" else (0.0, 2.0 * math.pi)


def _valid(rate: bool, p):
    """Whether p, a float or an array, lies in [0, 1] (a rate) or below ANGLE_BOUND in magnitude (an angle); NaN does neither."""
    return (0.0 <= p) & (p <= 1.0) if rate else abs(p) < ANGLE_BOUND


def parameter_value(family: str, value: float) -> float:
    """One parameter of a noise family as a float; a rate outside [0, 1] or an angle outside (-2**1023, 2**1023) is rejected."""
    value, rate = float(value), FAMILIES[check_family(family)] == "eta"
    if not _valid(rate, value):
        raise ValueError(f"decoherence rate must lie in [0, 1], got {value}" if rate
                         else f"noise angle must be finite and below 2**1023 in magnitude, got {value}")
    return value


def parameter_grid(family: str, grid) -> np.ndarray:
    """A noise family's parameters as a flat float array, each checked as by parameter_value."""
    import numpy as np
    p = np.asarray(grid, dtype=float).reshape(-1)
    valid = _valid(FAMILIES[check_family(family)] == "eta", p)
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


def weight(family: str, p, xp):
    """w1 of a family's TRANSFER_BASIS at a checked parameter p: a float with xp = math, an array with xp = numpy.

    It is sqrt(1-eta) (ad), 1-eta (pd), cos phi (cd) or cos 2t (cr), the
    cosine of the float 2t, which the angle domain keeps finite.
    """
    if family == "ad":
        return xp.sqrt(1.0 - p)
    if family == "pd":
        return 1.0 - p
    if family == "cd":
        return xp.cos(p)
    return xp.cos(2.0 * p)


def point_weight(family: str, value: float) -> float:
    """weight at one parameter value, as a float from math; parameter_value checks it."""
    return weight(family, parameter_value(family, value), math)
