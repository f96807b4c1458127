"""Noise-channel simulation and ranking for decoy-qubit verification schemes.

Simulates amplitude damping, phase damping, collective dephasing and
collective rotation acting on the decoy states used for eavesdropping checks
(single qubits in two mutually unbiased bases, Bell-pair copies, the four
qubit cluster state and the W state), verifies the closed-form fidelity
expressions against a pure-state simulation kernel, and ranks the schemes per
channel. A scheme is its label, one of SCHEMES, and a noise family its tag,
one of FAMILIES ('ad', 'pd', 'cd', 'cr'); a noise setting is a (family,
value) pair, as in scheme_fidelity("psi-", "cr", 0.7). Importing the package
imports no numpy. The density-matrix oracle that the tests check the compile
against is one submodule, decoynoise.linalg, the only one that imports numpy
at the top; it and the command line, decoynoise.cli, are imported on first
use, and none of their names is re-exported here.
"""

import importlib

from .analysis import find_crossover, recommend, sweep
from .channels import FAMILIES
from .eavesdrop import AttackOutcome, intercept_resend_bb84, wrong_pair_bell_attack
from .fidelity import scheme_fidelity, verify_table
from .states import SCHEMES

__all__ = ["AttackOutcome", "FAMILIES", "SCHEMES", "find_crossover", "intercept_resend_bb84", "recommend",
           "scheme_fidelity", "sweep", "verify_table", "wrong_pair_bell_attack"]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in ("cli", "linalg"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module(f"{__name__}.{name}")
