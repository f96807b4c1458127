"""The decoy states, keyed by the scheme labels that the CLI and every CSV row use.

A scheme is its label, one of SCHEMES:

    bb84           four single qubits, each in one of |0>, |1>, |+>, |->,
                   averaged over all 256 product strings
    psi+- phi+-    two copies of one Bell state, on qubits (1,2) and (3,4)
    cluster        (|0000> + |0011> + |1100> - |1111>) / 2
    w              (|001> + |010> + |100>) / sqrt(3)

Bell labeling convention (careful, this is swapped relative to the common
textbook Phi/Psi usage):

    psi+- = (|00> +- |11>) / sqrt(2)    parallel spins
    phi+- = (|01> +- |10>) / sqrt(2)    anti-parallel spins

All closed-form fidelity expressions in `fidelity` are keyed to these labels,
so do not "fix" the convention. In particular phi- is the singlet here.
"""

from __future__ import annotations

import math

import numpy as np

SINGLE_LABELS = ("0", "1", "+", "-")
BELL_LABELS = ("psi+", "psi-", "phi+", "phi-")
SCHEMES = ("bb84", *BELL_LABELS, "cluster", "w")

# Each single-qubit and Bell state as an integer vector; its amplitudes are the
# vector divided by the square root of its squared norm. eavesdrop reads these
# integers directly, so its Born probabilities are exact rationals.
INT_SINGLES = {"0": (1, 0), "1": (0, 1), "+": (1, 1), "-": (1, -1)}
INT_BELLS = {"psi+": (1, 0, 0, 1), "psi-": (1, 0, 0, -1), "phi+": (0, 1, 1, 0), "phi-": (0, 1, -1, 0)}


def _normalised(vec: tuple[int, ...]) -> np.ndarray:
    return np.array(vec, dtype=float) / math.sqrt(sum(x * x for x in vec))


# The amplitudes of the four single-qubit states, and of the state each scheme
# but bb84 sends, read-only. A Bell pair is the outer product of the
# normalised Bell vector with itself, so its entries are 0.4999999999999999.
SINGLES = {label: _normalised(vec) for label, vec in INT_SINGLES.items()}
_BELLS = {label: _normalised(vec) for label, vec in INT_BELLS.items()}
AMPLITUDES = {
    **{label: np.outer(bell, bell).ravel() for label, bell in _BELLS.items()},
    "cluster": np.array([0.5, 0, 0, 0.5, 0, 0, 0, 0, 0, 0, 0, 0, 0.5, 0, 0, -0.5]),
    "w": np.array([0, 1, 1, 0, 1, 0, 0, 0]) / math.sqrt(3.0),
}
for _amps in (*SINGLES.values(), *AMPLITUDES.values()):
    _amps.setflags(write=False)


def check_scheme(label: str) -> str:
    """The label itself, if it names a scheme; ValueError otherwise."""
    if label not in SCHEMES:
        raise ValueError(f"unknown scheme {label!r}; expected bb84, psi+, psi-, phi+, phi-, cluster or w")
    return label
