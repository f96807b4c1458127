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

Each state is an integer vector (INT_*); the density-matrix oracle
normalises them to float amplitudes.
"""

from __future__ import annotations

SINGLE_LABELS = ("0", "1", "+", "-")
BELL_LABELS = ("psi+", "psi-", "phi+", "phi-")
SCHEMES = ("bb84", *BELL_LABELS, "cluster", "w")

# Absolute entrywise tolerance for all structural checks (norm, Hermiticity,
# unitarity, trace) and for a fidelity outside [0, 1]; double precision leaves
# ample headroom at dimension 16. Defined here, in the module every other
# imports, so that no check imports numpy.
ATOL = 1e-12

# Each state as an integer vector; its amplitudes are the vector divided by
# the square root of its squared norm. The fidelity compile and eavesdrop read
# these integers directly, so their coefficients and Born probabilities are
# exact rationals.
INT_SINGLES = {"0": (1, 0), "1": (0, 1), "+": (1, 1), "-": (1, -1)}
INT_BELLS = {"psi+": (1, 0, 0, 1), "psi-": (1, 0, 0, -1), "phi+": (0, 1, 1, 0), "phi-": (0, 1, -1, 0)}
INT_CLUSTER = (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, -1)
INT_W = (0, 1, 1, 0, 1, 0, 0, 0)
# The vector each scheme but bb84 sends; a Bell pair's is its Bell vector's
# outer product with itself, qubits (1, 2) then (3, 4).
INT_STATES = {label: tuple(x * y for x in bell for y in bell) for label, bell in INT_BELLS.items()}
INT_STATES.update(cluster=INT_CLUSTER, w=INT_W)


def check_scheme(label: str) -> str:
    """The label itself, if it names a scheme; ValueError otherwise."""
    if label not in SCHEMES:
        raise ValueError(f"unknown scheme {label!r}; expected bb84, psi+, psi-, phi+, phi-, cluster or w")
    return label
