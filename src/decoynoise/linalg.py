"""Dense complex linear algebra kernel for systems of up to four qubits.

Everything is numpy-backed, row-major, dimension <= 16. Qubit 0 is the
leftmost tensor factor, i.e. the most significant bit of a basis-state
index: |q0 q1 q2 q3> maps to index q0*8 + q1*4 + q2*2 + q3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import ATOL

# Eigenvalues of a density matrix may dip slightly below zero from rounding.
EIG_FLOOR = -1e-10

MAX_QUBITS = 4


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
        if abs(norm - 1.0) > ATOL:
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
        if float(np.max(np.abs(m - dagger(m)))) > ATOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        trace = complex(np.trace(m))
        if abs(trace - 1.0) > ATOL:
            raise ValueError(f"density matrix trace {trace} deviates from 1")
        smallest = float(np.linalg.eigvalsh(m)[0])
        if smallest < EIG_FLOOR:
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
