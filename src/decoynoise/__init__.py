"""Noise-channel simulation and ranking for decoy-qubit verification schemes.

Simulates amplitude damping, phase damping, collective dephasing and
collective rotation acting on the decoy states used for eavesdropping checks
(single qubits in two mutually unbiased bases, Bell-pair copies, the four
qubit cluster state and the W state), verifies the closed-form fidelity
expressions against a pure-state simulation kernel, and ranks the schemes per
channel. A scheme is its label, one of SCHEMES, and a noise family its tag,
one of FAMILIES ('ad', 'pd', 'cd', 'cr'); a noise setting is a (family,
value) pair, as in scheme_fidelity("psi-", "cr", 0.7).

Importing the package imports none of its submodules. Each name in __all__
is read from its home module, and each submodule name (decoynoise.analysis,
.channels, .cli, .eavesdrop, .fidelity, .linalg, .states) is imported, on
first use, so a program pays only for the modules it touches. The
density-matrix oracle that the tests check the compile against,
decoynoise.linalg, is the only submodule that imports numpy at the top, and
none of its names is re-exported here.
"""

import importlib

# each public name -> the submodule that defines it
_HOME = {
    "AttackOutcome": "eavesdrop",
    "FAMILIES": "channels",
    "SCHEMES": "states",
    "find_crossover": "analysis",
    "intercept_resend_bb84": "eavesdrop",
    "recommend": "analysis",
    "scheme_fidelity": "fidelity",
    "sweep": "analysis",
    "verify_table": "fidelity",
    "wrong_pair_bell_attack": "eavesdrop",
}
_SUBMODULES = ("analysis", "channels", "cli", "eavesdrop", "fidelity", "linalg", "states")

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    # called only for a name the package does not hold yet; an imported
    # submodule is bound here by the import itself
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
