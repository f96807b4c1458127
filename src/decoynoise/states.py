"""Constructors for every decoy state used by the verification schemes.

Bell labeling convention (careful, this is swapped relative to the common
textbook Phi/Psi usage):

    psi+- = (|00> +- |11>) / sqrt(2)    parallel spins
    phi+- = (|01> +- |10>) / sqrt(2)    anti-parallel spins

All closed-form fidelity expressions in `fidelity` are keyed to these labels,
so do not "fix" the convention. In particular phi- is the singlet here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import PureState, tensor_product

SINGLE_LABELS = ("0", "1", "+", "-")
BELL_LABELS = ("psi+", "psi-", "phi+", "phi-")

_SQRT2 = math.sqrt(2.0)

_SINGLES = {
    "0": np.array([1.0, 0.0]),
    "1": np.array([0.0, 1.0]),
    "+": np.array([1.0, 1.0]) / _SQRT2,
    "-": np.array([1.0, -1.0]) / _SQRT2,
}

_BELLS = {
    "psi+": np.array([1.0, 0.0, 0.0, 1.0]) / _SQRT2,
    "psi-": np.array([1.0, 0.0, 0.0, -1.0]) / _SQRT2,
    "phi+": np.array([0.0, 1.0, 1.0, 0.0]) / _SQRT2,
    "phi-": np.array([0.0, 1.0, -1.0, 0.0]) / _SQRT2,
}


def make_single(label: str) -> PureState:
    """Single qubit prepared in the computational or diagonal basis."""
    if label not in _SINGLES:
        raise ValueError(f"unknown single-qubit label {label!r}, expected one of {SINGLE_LABELS}")
    return PureState(_SINGLES[label])


def make_bell(label: str) -> PureState:
    """One of the four Bell states, in the parallel/anti-parallel labeling above."""
    if label not in _BELLS:
        raise ValueError(f"unknown Bell label {label!r}, expected one of {BELL_LABELS}")
    return PureState(_BELLS[label])


def make_cluster() -> PureState:
    """Four-qubit cluster state (|0000> + |0011> + |1100> - |1111>) / 2."""
    amps = np.zeros(16)
    amps[[0, 3, 12]] = 0.5
    amps[15] = -0.5
    return PureState(amps)


def make_w(n: int = 3) -> PureState:
    """Three-qubit W state (|001> + |010> + |100>) / sqrt(3).

    Only n = 3 is supported; it is the smallest W state and the one the
    fidelity analysis is carried out for.
    """
    if n != 3:
        raise ValueError(f"W state is only supported for n=3, got n={n}")
    amps = np.zeros(8)
    amps[[1, 2, 4]] = 1.0 / math.sqrt(3.0)
    return PureState(amps)


@dataclass(frozen=True)
class BB84Product:
    """Four single qubits, each drawn from {|0>, |1>, |+>, |->}."""

    labels: tuple[str, str, str, str]

    def __post_init__(self):
        labels = tuple(self.labels)
        if len(labels) != 4 or any(lab not in SINGLE_LABELS for lab in labels):
            raise ValueError(f"BB84Product needs exactly 4 labels from {SINGLE_LABELS}, got {labels!r}")
        object.__setattr__(self, "labels", labels)


@dataclass(frozen=True)
class BB84Average:
    """Marker for the exhaustive average over all 256 four-qubit products.

    There is no single underlying state; use fidelity.bb84_average_fidelity.
    """


@dataclass(frozen=True)
class BellPair:
    """Two copies of one Bell state, giving a four-qubit verification block."""

    label: str
    copies: int = 2

    def __post_init__(self):
        if self.label not in BELL_LABELS:
            raise ValueError(f"unknown Bell label {self.label!r}, expected one of {BELL_LABELS}")
        if self.copies != 2:
            raise ValueError("verification blocks are compared at equal qubit count; copies must be 2")


@dataclass(frozen=True)
class Cluster:
    """The four-qubit cluster state."""


@dataclass(frozen=True)
class WState:
    """The n-qubit W state (n fixed to 3)."""

    n: int = 3

    def __post_init__(self):
        if self.n != 3:
            raise ValueError(f"W state is only supported for n=3, got n={self.n}")


DecoyScheme = BB84Product | BB84Average | BellPair | Cluster | WState


def make_decoy_state(scheme: DecoyScheme) -> PureState:
    """Build the decoy state a scheme sends through the channel.

    BB84Average has no single state and is rejected; average its 256 product
    states with fidelity.bb84_average_fidelity instead.
    """
    match scheme:
        case BB84Product(labels=labels):
            amps = _SINGLES[labels[0]]
            for lab in labels[1:]:
                amps = tensor_product(amps, _SINGLES[lab])
            return PureState(amps)
        case BellPair(label=label):
            bell = _BELLS[label]
            return PureState(tensor_product(bell, bell))
        case Cluster():
            return make_cluster()
        case WState(n=n):
            return make_w(n)
        case BB84Average():
            raise ValueError("BB84Average has no single state; use bb84_average_fidelity")
    raise TypeError(f"unknown decoy scheme {scheme!r}")


def scheme_label(scheme: DecoyScheme) -> str:
    """Short stable label used in CSV output and rankings."""
    match scheme:
        case BB84Product(labels=labels):
            return "bb84:" + "".join(labels)
        case BB84Average():
            return "bb84"
        case BellPair(label=label):
            return label
        case Cluster():
            return "cluster"
        case WState():
            return "w"
    raise TypeError(f"unknown decoy scheme {scheme!r}")


def parse_scheme(text: str) -> DecoyScheme:
    """Inverse of scheme_label for the CLI selectors."""
    if text == "bb84":
        return BB84Average()
    if text in BELL_LABELS:
        return BellPair(text)
    if text == "cluster":
        return Cluster()
    if text == "w":
        return WState()
    raise ValueError(f"unknown scheme {text!r}; expected bb84, psi+, psi-, phi+, phi-, cluster or w")
