"""Kernel tests: tensor products, conjugation, state and density validation."""

import math
from types import ModuleType, SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decoynoise
import decoynoise.linalg
from decoynoise.linalg import (
    ATOL,
    SINGLES,
    DensityMatrix,
    KrausChannel,
    PureState,
    conjugate_apply,
    fidelity,
    is_unitary,
    tensor_product,
    unitary_cd,
)

from conftest import bell_state, random_density, random_unitary

X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_tensor_identity():
    np.testing.assert_array_equal(tensor_product(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_column_vectors():
    zero = SINGLES["0"]
    plus = SINGLES["+"]
    expected = np.array([1, 1, 0, 0]) / np.sqrt(2)
    np.testing.assert_allclose(tensor_product(zero, plus), expected, atol=ATOL)


def test_tensor_two_bell_pairs():
    psi = bell_state("psi+").amplitudes
    out = tensor_product(psi, psi)
    expected = np.zeros(16)
    expected[[0, 3, 12, 15]] = 0.5
    np.testing.assert_allclose(out, expected, atol=ATOL)


small_int_matrices = st.integers(1, 3).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(np.array)
)


@given(small_int_matrices, small_int_matrices, small_int_matrices)
def test_tensor_associative_exactly_on_integer_matrices(a, b, c):
    left = tensor_product(tensor_product(a, b), c)
    right = tensor_product(a, tensor_product(b, c))
    np.testing.assert_array_equal(left, right)


def test_conjugate_apply_identity():
    rho = random_density(np.random.default_rng(0), 2)
    out = conjugate_apply(np.eye(4), rho)
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=ATOL)


def test_conjugate_apply_bit_flip():
    amps00 = tensor_product(SINGLES["0"], SINGLES["0"])
    rho00 = PureState(amps00).density()
    out = conjugate_apply(tensor_product(X, X), rho00)
    expected = np.zeros((4, 4), dtype=complex)
    expected[3, 3] = 1.0
    np.testing.assert_allclose(out.matrix, expected, atol=ATOL)


def test_conjugate_apply_double_phase_gate_fixes_parallel_bell():
    # phase gate at phi=pi on both qubits multiplies |11> by exp(2 i pi) = 1
    u = tensor_product(unitary_cd(np.pi), unitary_cd(np.pi))
    bell = bell_state("psi+")
    out = conjugate_apply(u, bell.density())
    np.testing.assert_allclose(out.matrix, bell.density().matrix, atol=ATOL)


def test_conjugate_apply_dimension_mismatch():
    rho = bell_state("psi+").density()
    with pytest.raises(ValueError, match="dimension"):
        conjugate_apply(np.eye(8), rho)


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_conjugate_apply_unitary_preserves_trace_and_hermiticity(seed, n):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, n)
    u = random_unitary(rng, 2**n)
    out = conjugate_apply(u, rho)
    assert abs(np.trace(out.matrix) - 1.0) <= ATOL
    assert np.max(np.abs(out.matrix - out.matrix.conj().T)) <= ATOL


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_conjugate_apply_round_trip(seed, n):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, n)
    u = random_unitary(rng, 2**n)
    back = conjugate_apply(u, conjugate_apply(u.conj().T, rho))
    np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-12)


def test_is_unitary():
    assert is_unitary(np.eye(4))
    assert is_unitary(unitary_cd(1.3))
    assert not is_unitary(np.ones((2, 2)))
    assert not is_unitary(np.eye(3)[:2])


def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValueError, match="norm"):
        PureState(np.array([1.0, 1.0]))


def test_pure_state_rejects_too_many_qubits():
    with pytest.raises(ValueError):
        PureState(np.ones(32) / np.sqrt(32))


def test_pure_state_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        PureState(np.ones(3) / np.sqrt(3))


def test_pure_state_is_read_only():
    psi = bell_state("psi+")
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.3


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2))


def test_density_matrix_rejects_non_hermitian():
    m = np.array([[0.5, 0.5], [0.0, 0.5]])
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(m)


def test_density_matrix_rejects_negative_eigenvalue():
    m = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix(m)


def test_n_qubits_properties():
    assert PureState(SINGLES["0"]).n_qubits == 1
    assert bell_state("phi-").density().n_qubits == 2


# The overlap gets a stand-in for rho, since a DensityMatrix with NaN entries cannot be built.
@pytest.mark.parametrize(
    "build",
    [
        lambda: PureState([math.nan, 0]),
        lambda: DensityMatrix([[math.nan, 0], [0, 1]]),
        lambda: DensityMatrix(np.full((2, 2), math.nan)),
        lambda: KrausChannel(([[1, 0], [0, math.nan]],), "x"),
        lambda: fidelity(PureState(SINGLES["0"]), SimpleNamespace(n_qubits=1, matrix=np.diag([math.nan, 1.0]))),
    ],
    ids=["pure_state", "density_one_nan", "density_all_nan", "kraus", "overlap"],
)
def test_validators_reject_nan(build):
    with pytest.raises((ValueError, ArithmeticError)):
        build()


def test_package_exports_resolve():
    for name in decoynoise.__all__:
        getattr(decoynoise, name)
    # no name comes from the oracle, which is still reached as a submodule
    for name in ("DensityMatrix", "KrausChannel", "PureState", "apply_collective", "apply_kraus_channel", "apply_noise",
                 "conjugate_apply", "kraus_ad", "kraus_pd", "tensor_product", "unitary_cd", "unitary_cr"):
        assert name not in decoynoise.__all__
        assert hasattr(decoynoise.linalg, name)
    assert all(getattr(getattr(decoynoise, name), "__module__", None) != "decoynoise.linalg"
               for name in decoynoise.__all__)
    assert isinstance(decoynoise.linalg, ModuleType)
    with pytest.raises(AttributeError, match="has no attribute 'PureState'"):
        decoynoise.PureState
