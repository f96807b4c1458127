"""Noise-channel simulation and ranking for decoy-qubit verification schemes.

Simulates amplitude damping, phase damping, collective dephasing and
collective rotation acting on the decoy states used for eavesdropping checks
(single qubits in two mutually unbiased bases, Bell-pair copies, the four
qubit cluster state and the W state), verifies the closed-form fidelity
expressions against a pure-state simulation kernel, and ranks the schemes per
channel. A scheme is its label, one of SCHEMES, and a noise family its tag,
one of FAMILIES ('ad', 'pd', 'cd', 'cr'); a noise setting is a (family,
value) pair, as in scheme_fidelity("psi-", "cr", 0.7).
"""

from .analysis import Ranking, SweepSpec, find_crossover, recommend, sweep
from .channels import (
    FAMILIES,
    KrausChannel,
    apply_collective,
    apply_kraus_channel,
    apply_noise,
    kraus_ad,
    kraus_pd,
    unitary_cd,
    unitary_cr,
)
from .eavesdrop import AttackOutcome, intercept_resend_bb84, wrong_pair_bell_attack

# the overlap metric itself lives at decoynoise.fidelity.fidelity; re-exporting
# the bare name here would shadow the submodule
from .fidelity import FidelityReport, scheme_fidelity, verify_table
from .linalg import DensityMatrix, PureState, conjugate_apply, tensor_product
from .states import SCHEMES

__version__ = "0.1.0"
