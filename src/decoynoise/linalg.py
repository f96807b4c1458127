"""The density-matrix oracle: validated states and channel maps for up to four qubits.

The CLI never imports this module; the tests check the exact compile in
`fidelity` against it. Everything is numpy-backed, row-major, dimension <= 16.
Qubit 0 is the leftmost tensor factor, i.e. the most significant bit of a
basis-state index: |q0 q1 q2 q3> maps to index q0*8 + q1*4 + q2*2 + q3.

Every channel acts qubit by qubit. Kraus channels (amplitude damping, phase
damping) apply the same set of single-qubit Kraus operators independently to
every travel qubit; collective channels (dephasing, rotation) apply one and
the same single-qubit unitary to all qubits traveling simultaneously.

Amplitude damping models energy loss into a zero-temperature bath:

    E0 = [[1, 0], [0, sqrt(1-eta)]],   E1 = [[0, sqrt(eta)], [0, 0]]

Phase damping destroys coherences without energy loss:

    E0 = sqrt(1-eta) I,   E1 = sqrt(eta) |0><0|,   E2 = sqrt(eta) |1><1|

Collective dephasing is the phase gate diag(1, exp(i phi)); collective
rotation is the real rotation [[cos t, -sin t], [sin t, cos t]]. These are
written out apart from the Pauli transfer matrices in `channels`, which the
compile uses, so that the two derivations check each other.

Every validation is written so that NaN, which fails every comparison, fails
it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import parameter_value
from .states import ATOL, BELL_LABELS, INT_BELLS, INT_CLUSTER, INT_SINGLES, INT_W, SINGLE_LABELS

# Eigenvalues of a density matrix may dip slightly below zero from rounding.
EIG_FLOOR = -1e-10

MAX_QUBITS = 4


# The integer state vectors of `states`, normalised: SINGLES holds the four
# single-qubit states bb84 averages over, AMPLITUDES the state each other
# scheme sends. A Bell pair is the outer product of the normalised Bell vector
# with itself, so its entries are 0.4999999999999999.
_NORMALISED = {label: np.array(vec, dtype=float) / math.sqrt(sum(x * x for x in vec))
               for label, vec in {**INT_SINGLES, **INT_BELLS, "cluster": INT_CLUSTER, "w": INT_W}.items()}
SINGLES = {label: _NORMALISED[label] for label in SINGLE_LABELS}
AMPLITUDES = {**{label: np.outer(_NORMALISED[label], _NORMALISED[label]).ravel() for label in BELL_LABELS},
              "cluster": _NORMALISED["cluster"], "w": _NORMALISED["w"]}
for _amps in (*SINGLES.values(), *AMPLITUDES.values()):
    _amps.setflags(write=False)


def _as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def _qubit_count(dim: int) -> int:
    """Number of qubits for a dimension that must be a power of two."""
    n = dim.bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count {n} outside supported range 1..{MAX_QUBITS}")
    return n


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return _as_complex(m).conj().T


def is_unitary(u, atol: float = ATOL) -> bool:
    """True if u is square and satisfies U^dag U = I entrywise within atol."""
    u = _as_complex(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    eye = np.eye(u.shape[0])
    return float(np.max(np.abs(dagger(u) @ u - eye))) <= atol


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with a's indices major (qubit 0 leftmost)."""
    return np.kron(_as_complex(a), _as_complex(b))


def tensor_power(m, n: int) -> np.ndarray:
    """n-fold Kronecker power of a matrix or vector."""
    if n < 1:
        raise ValueError("tensor_power needs n >= 1")
    out = _as_complex(m)
    for _ in range(n - 1):
        out = np.kron(out, m)
    return out


@dataclass(frozen=True)
class PureState:
    """Normalized n-qubit amplitude vector, 1 <= n <= 4.

    Amplitudes are stored read-only, so instances are safe to share across
    concurrent workers.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _as_complex(self.amplitudes).reshape(-1).copy()
        _qubit_count(amps.size)
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= ATOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {ATOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1

    def density(self) -> "DensityMatrix":
        """Projector |psi><psi| as a validated density matrix."""
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """2^n x 2^n Hermitian, trace-1, positive-semidefinite operator.

    Construction validates all three invariants, so any path that produces a
    non-physical matrix fails loudly instead of propagating drift.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_complex(self.matrix).copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        _qubit_count(m.shape[0])
        if not float(np.max(np.abs(m - dagger(m)))) <= ATOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        trace = complex(np.trace(m))
        if not abs(trace - 1.0) <= ATOL:
            raise ValueError(f"density matrix trace {trace} deviates from 1")
        smallest = float(np.linalg.eigvalsh(m)[0])
        if not smallest >= EIG_FLOOR:
            raise ValueError(f"density matrix has negative eigenvalue {smallest}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n_qubits(self) -> int:
        return self.matrix.shape[0].bit_length() - 1


def conjugate_apply(u, rho: DensityMatrix) -> DensityMatrix:
    """Return u rho u^dag as a density matrix.

    For unitary u the trace is preserved exactly (to tolerance); any u that
    breaks the density-matrix invariants triggers a validation error.
    """
    u = _as_complex(u)
    dim = rho.matrix.shape[0]
    if u.ndim != 2 or u.shape != (dim, dim):
        raise ValueError(f"operator shape {u.shape} does not match dimension {dim}")
    return DensityMatrix(u @ rho.matrix @ dagger(u))


def fidelity(psi: PureState, rho: DensityMatrix) -> float:
    """Overlap <psi| rho |psi> of a pure reference with a density matrix.

    The imaginary part must be below 1e-12; anything larger fails loudly
    instead of being silently discarded.
    """
    if psi.n_qubits != rho.n_qubits:
        raise ValueError(f"qubit count mismatch: state has {psi.n_qubits}, density matrix {rho.n_qubits}")
    value = complex(psi.amplitudes.conj() @ rho.matrix @ psi.amplitudes)
    if not abs(value.imag) < ATOL:
        raise ArithmeticError(f"fidelity has non-negligible imaginary part {value.imag}")
    return float(value.real)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A set of single-qubit Kraus operators with the completeness invariant.

    Completeness (sum of E^dag E = I) is checked at construction.
    """

    operators: tuple[np.ndarray, ...]
    name: str

    def __post_init__(self):
        ops = tuple(np.asarray(op, dtype=complex).copy() for op in self.operators)
        if not ops or any(op.shape != (2, 2) for op in ops):
            raise ValueError("Kraus operators must be a non-empty set of 2x2 matrices")
        total = sum(dagger(op) @ op for op in ops)
        if not float(np.max(np.abs(total - np.eye(2)))) <= ATOL:
            raise ValueError(f"Kraus set {self.name!r} is not complete: sum E^dag E != I")
        for op in ops:
            op.setflags(write=False)
        object.__setattr__(self, "operators", ops)


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
    return np.diag([1.0, np.exp(1j * parameter_value("cd", phi))])


def unitary_cr(theta: float) -> np.ndarray:
    """Collective rotation by angle theta in the real plane."""
    theta = parameter_value("cr", theta)
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]], dtype=complex)


def apply_kraus_channel(rho: DensityMatrix, ch: KrausChannel) -> DensityMatrix:
    """Apply the channel independently to each qubit of rho.

    Plain density-matrix evolution, one qubit at a time: on qubit q each Kraus
    operator E is embedded as I x E x I and the terms E rho E^dag are summed.
    The result is validated as a density matrix.
    """
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
