"""Noise-channel simulation and ranking for decoy-qubit verification schemes.

Simulates amplitude damping, phase damping, collective dephasing and
collective rotation acting on the decoy states used for eavesdropping checks
(single qubits in two mutually unbiased bases, Bell-pair copies, the four
qubit cluster state and the W state), verifies the closed-form fidelity
expressions against a pure-state simulation kernel, and ranks the schemes per
channel. A scheme is its label, one of SCHEMES, and a noise family its tag,
one of FAMILIES ('ad', 'pd', 'cd', 'cr'); a noise setting is a (family,
value) pair, as in scheme_fidelity("psi-", "cr", 0.7). The submodules and
the names below are imported on first use, so importing the package imports
no numpy. The density-matrix oracle that the tests check the compile against
is one submodule, decoynoise.linalg, the only one that imports numpy at the
top; none of its names is re-exported here.
"""

import importlib

# Each submodule and the names re-exported from it. The overlap metric is not
# re-exported: its bare name, fidelity, would shadow the fidelity submodule.
_EXPORTS = {
    "analysis": ("find_crossover", "recommend", "sweep"),
    "channels": ("FAMILIES",),
    "cli": (),
    "eavesdrop": ("AttackOutcome", "intercept_resend_bb84", "wrong_pair_bell_attack"),
    "fidelity": ("scheme_fidelity", "verify_table"),
    "linalg": (),
    "states": ("SCHEMES",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return globals()[name]
