"""Noise-channel simulation and ranking for decoy-qubit verification schemes.

Simulates amplitude damping, phase damping, collective dephasing and
collective rotation acting on the decoy states used for eavesdropping checks
(single qubits in two mutually unbiased bases, Bell-pair copies, the four
qubit cluster state and the W state), verifies the closed-form fidelity
expressions against a pure-state simulation kernel, and ranks the schemes per
channel.
"""

from .analysis import (
    Ranking,
    SweepSpec,
    find_crossover,
    is_decoherence_free,
    recommend,
    sweep,
)
from .channels import (
    AmplitudeDamping,
    CollectiveDephasing,
    CollectiveRotation,
    KrausChannel,
    NoiseModel,
    PhaseDamping,
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
from .fidelity import (
    FidelityReport,
    bb84_average_fidelity,
    closed_form,
    conventional_fidelity,
    scheme_fidelity,
    simulate_fidelity,
    verify_table,
)
from .linalg import DensityMatrix, PureState, conjugate_apply, tensor_product
from .states import (
    BB84Average,
    BB84Product,
    BellPair,
    Cluster,
    DecoyScheme,
    WState,
    make_bell,
    make_cluster,
    make_decoy_state,
    make_single,
    make_w,
)

__version__ = "0.1.0"
