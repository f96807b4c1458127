"""Noise channel constructors, completeness, and channel application."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoynoise.channels import (
    ANGLE_BOUND,
    FAMILIES,
    TRANSFER_BASIS,
    check_family,
    parameter_grid,
    parameter_range,
    weight,
)
from decoynoise.linalg import (
    ATOL,
    SINGLES,
    DensityMatrix,
    KrausChannel,
    PureState,
    apply_collective,
    apply_kraus_channel,
    apply_noise,
    is_unitary,
    kraus_ad,
    kraus_pd,
    unitary_cd,
    unitary_cr,
)

from conftest import bell_state, random_density


def completeness_defect(ch):
    total = sum(op.conj().T @ op for op in ch.operators)
    return np.max(np.abs(total - np.eye(2)))


def test_kraus_ad_endpoints():
    ch0 = kraus_ad(0.0)
    np.testing.assert_allclose(ch0.operators[0], np.eye(2), atol=ATOL)
    np.testing.assert_allclose(ch0.operators[1], np.zeros((2, 2)), atol=ATOL)
    ch1 = kraus_ad(1.0)
    np.testing.assert_allclose(ch1.operators[0], np.diag([1.0, 0.0]), atol=ATOL)
    np.testing.assert_allclose(ch1.operators[1], [[0, 1], [0, 0]], atol=ATOL)


def test_kraus_ad_half():
    ch = kraus_ad(0.5)
    assert ch.operators[0][1, 1] == pytest.approx(np.sqrt(0.5), abs=ATOL)
    assert ch.operators[1][0, 1] == pytest.approx(np.sqrt(0.5), abs=ATOL)


def test_kraus_pd_endpoints():
    ch0 = kraus_pd(0.0)
    np.testing.assert_allclose(ch0.operators[0], np.eye(2), atol=ATOL)
    np.testing.assert_allclose(ch0.operators[1], np.zeros((2, 2)), atol=ATOL)
    np.testing.assert_allclose(ch0.operators[2], np.zeros((2, 2)), atol=ATOL)
    ch1 = kraus_pd(1.0)
    np.testing.assert_allclose(ch1.operators[0], np.zeros((2, 2)), atol=ATOL)
    np.testing.assert_allclose(ch1.operators[1], np.diag([1.0, 0.0]), atol=ATOL)
    np.testing.assert_allclose(ch1.operators[2], np.diag([0.0, 1.0]), atol=ATOL)


@pytest.mark.parametrize("make", [kraus_ad, kraus_pd])
def test_kraus_completeness_on_rate_grid(make):
    for eta in np.linspace(0.0, 1.0, 11):
        assert completeness_defect(make(eta)) <= ATOL


@pytest.mark.parametrize("make", [kraus_ad, kraus_pd])
@pytest.mark.parametrize("eta", [-0.1, 1.1, 2.0])
def test_kraus_rejects_out_of_range_rate(make, eta):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        make(eta)


def test_incomplete_kraus_set_rejected():
    half = np.eye(2, dtype=complex) * 0.5
    with pytest.raises(ValueError, match="complete"):
        KrausChannel((half,), "broken")


def test_unitary_cd():
    np.testing.assert_allclose(unitary_cd(0.0), np.eye(2), atol=ATOL)
    np.testing.assert_allclose(unitary_cd(np.pi), np.diag([1.0, -1.0]), atol=ATOL)
    assert is_unitary(unitary_cd(1.3))


def test_unitary_cr():
    np.testing.assert_allclose(unitary_cr(0.0), np.eye(2), atol=ATOL)
    np.testing.assert_allclose(unitary_cr(np.pi / 2), [[0, -1], [1, 0]], atol=ATOL)
    np.testing.assert_allclose(unitary_cr(0.7) @ unitary_cr(-0.7), np.eye(2), atol=ATOL)


def test_ad_on_excited_state():
    # hand Kraus sum: |1><1| goes to (1-eta)|1><1| + eta|0><0|
    eta = 0.3
    rho = PureState(SINGLES["1"]).density()
    out = apply_kraus_channel(rho, kraus_ad(eta))
    np.testing.assert_allclose(out.matrix, np.diag([eta, 1 - eta]), atol=ATOL)


def test_pd_damps_coherences_only():
    # hand Kraus sum: diagonal stays 1/2, off-diagonal scales by (1-eta)
    eta = 0.4
    rho = PureState(SINGLES["+"]).density()
    out = apply_kraus_channel(rho, kraus_pd(eta))
    expected = np.array([[0.5, (1 - eta) / 2], [(1 - eta) / 2, 0.5]])
    np.testing.assert_allclose(out.matrix, expected, atol=ATOL)


@pytest.mark.parametrize("family", ["ad", "pd"])
def test_zero_rate_channels_are_identity(family):
    rng = np.random.default_rng(5)
    for n in range(1, 5):
        rho = random_density(rng, n)
        out = apply_noise(rho, family, 0.0)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)


def test_maximally_mixed_fixed_by_ad0():
    rho = DensityMatrix(np.eye(4) / 4)
    out = apply_kraus_channel(rho, kraus_ad(0.0))
    np.testing.assert_allclose(out.matrix, np.eye(4) / 4, atol=ATOL)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.sampled_from(["ad", "pd", "cd", "cr"]),
    st.floats(0.0, 1.0),
)
def test_channel_outputs_are_valid_densities(seed, n, family, frac):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, n)
    value = frac if family in ("ad", "pd") else 2 * np.pi * frac
    out = apply_noise(rho, family, value).matrix
    assert abs(np.trace(out).real - 1.0) <= ATOL
    assert abs(np.trace(out).imag) <= ATOL
    assert np.max(np.abs(out - out.conj().T)) <= ATOL
    assert np.linalg.eigvalsh(out)[0] >= -1e-10


def test_collective_dephasing_composes_additively():
    rho = bell_state("psi+").density()
    one = apply_collective(apply_collective(rho, unitary_cd(0.7)), unitary_cd(0.9))
    both = apply_collective(rho, unitary_cd(1.6))
    np.testing.assert_allclose(one.matrix, both.matrix, atol=1e-12)


def test_apply_collective_identity():
    rho = bell_state("phi+").density()
    out = apply_collective(rho, np.eye(2))
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=ATOL)


def test_apply_collective_rejects_non_unitary():
    rho = bell_state("phi+").density()
    with pytest.raises(ValueError, match="unitary"):
        apply_collective(rho, np.array([[1.0, 0.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="2x2"):
        apply_collective(rho, np.eye(4))


def test_parallel_bell_invariant_under_rotation():
    rho = bell_state("psi+").density()
    for theta in np.linspace(0, 2 * np.pi, 9):
        out = apply_collective(rho, unitary_cr(theta))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)


def test_antiparallel_rotation_overlap_is_cos_sq_2theta():
    # hand expansion: U x U |psi-> = cos 2t |psi-> + sin 2t (|01>+|10>)/sqrt(2)
    psi = bell_state("psi-")
    for theta in np.linspace(0, np.pi, 7):
        out = apply_collective(psi.density(), unitary_cr(theta))
        overlap = (psi.amplitudes.conj() @ out.matrix @ psi.amplitudes).real
        assert overlap == pytest.approx(np.cos(2 * theta) ** 2, abs=1e-12)


def test_parameter_validation_and_ranges():
    with pytest.raises(ValueError, match=r"^decoherence rate must lie in \[0, 1\], got 1.5$"):
        parameter_grid("ad", [0.3, 1.5])
    with pytest.raises(ValueError, match=r"^decoherence rate must lie in \[0, 1\], got -0.2$"):
        parameter_grid("pd", -0.2)
    assert parameter_grid("ad", 0.3).tolist() == [0.3]
    assert parameter_grid("cr", [[1.1], [-40]]).tolist() == [1.1, -40.0]
    # every angle lies below 2**1023 in magnitude, so that twice it is a float
    largest = math.nextafter(2.0**1023, 0.0)
    assert ANGLE_BOUND == 2.0**1023 and 2.0 * largest == np.finfo(float).max
    assert parameter_grid("cd", [-largest, largest]).tolist() == [-largest, largest]
    angle = r"^noise angle must be finite and below 2\*\*1023 in magnitude, got "
    with pytest.raises(ValueError, match=angle + r"8.98846567431158e\+307$"):
        parameter_grid("cr", [1.0, 2.0**1023, -np.inf])  # the first value outside, in grid order
    with pytest.raises(ValueError, match=angle + r"-1e\+308$"):
        parameter_grid("cd", [largest, -1e308])
    assert parameter_range("pd") == (0.0, 1.0)
    lo, hi = parameter_range("cd")
    assert lo == 0.0 and hi == pytest.approx(2 * np.pi)
    assert [check_family(tag) for tag in FAMILIES] == ["ad", "pd", "cd", "cr"]


# each family's density-matrix oracle, which checks its parameter as parameter_grid does
_ORACLE = {"ad": kraus_ad, "pd": kraus_pd, "cd": unitary_cd, "cr": unitary_cr}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 2.0**1023, -1e308])
def test_non_finite_parameters_are_rejected(bad):
    for family in FAMILIES:
        problem = r"\[0, 1\]" if family in ("ad", "pd") else r"finite and below 2\*\*1023"
        with pytest.raises(ValueError, match=problem):
            _ORACLE[family](bad)
        with pytest.raises(ValueError, match=problem):
            parameter_grid(family, [0.0, 0.5, bad])


def test_transfer_basis_shape_and_family():
    for family, count in (("ad", 3), ("pd", 2), ("cd", 3), ("cr", 3)):
        basis = TRANSFER_BASIS[family]
        # integer matrices, as nested tuples, so that no one can change them
        assert np.array(basis).shape == (count, 4, 4) and np.array(basis).dtype.kind == "i"
        assert isinstance(basis, tuple) and all(isinstance(row, tuple) for matrix in basis for row in matrix)
        w = weight(family, parameter_grid(family, [0.0, 0.3, 1.0]), np)
        assert w.dtype == np.float64 and w.shape == (3,)
    assert list(TRANSFER_BASIS) == list(FAMILIES)
    with pytest.raises(ValueError, match="unknown noise family"):
        parameter_grid(KrausChannel, [0.5])


# pi to 70 significant digits, for the reference cosines below
_PI = Decimal("3.141592653589793238462643383279502884197169399375105820974944592307816")


def _exact_weight(family, p):
    """The transfer weight at the float p in 70-digit decimals: sqrt(1-p), 1-p, cos p or cos 2p."""
    with localcontext() as ctx:
        ctx.prec = 70
        p = Decimal(p)  # exactly the float
        if family == "ad":
            return (1 - p).sqrt()
        if family == "pd":
            return 1 - p
        x = p if family == "cd" else 2 * p
        x -= 2 * _PI * (x / (2 * _PI)).to_integral_value()  # now |x| <= pi
        total, term, n = Decimal(0), Decimal(1), 0
        while abs(term) > Decimal("1e-75"):
            total += term
            n += 2
            term *= -x * x / (n * (n - 1))
        return total


def _weight_draws(family):
    """Rates in [0, 1], or angles in [-20, 20] and within 1e-3 of pi/4 and 3 pi/4, where cos 2t is near 0."""
    rng = np.random.default_rng(33)
    if FAMILIES[family] == "eta":
        return np.concatenate([rng.uniform(0.0, 1.0, 300), [0.0, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0]])
    near = [c + rng.uniform(-1e-3, 1e-3, 300) for c in (np.pi / 4, 3 * np.pi / 4)]
    return np.concatenate([rng.uniform(-20.0, 20.0, 300), *near])


@pytest.mark.parametrize("family", list(FAMILIES))
def test_every_transfer_weight_is_within_one_ulp_of_its_exact_value(family):
    params = _weight_draws(family)
    arrays = weight(family, params, np).tolist()
    off = []
    for p, from_numpy in zip(params.tolist(), arrays):
        exact = _exact_weight(family, p)
        ulp = Decimal(math.ulp(float(exact)))
        off += [(p, w, float(exact)) for w in (weight(family, p, math), from_numpy) if abs(Decimal(w) - exact) > ulp]
    assert not off, f"{len(off)} weights more than 1 ulp from exact, the first (p, weight, exact): {off[0]}"


def _channel_written_here(family, p):
    """Kraus operators or the collective unitary of a family, independent of the package."""
    if family == "ad":
        return [np.array([[1, 0], [0, np.sqrt(1 - p)]]), np.array([[0, np.sqrt(p)], [0, 0]])]
    if family == "pd":
        return [np.sqrt(1 - p) * np.eye(2), np.sqrt(p) * np.diag([1, 0]), np.sqrt(p) * np.diag([0, 1])]
    if family == "cd":
        return [np.diag([1, np.exp(1j * p)])]
    return [np.array([[np.cos(p), -np.sin(p)], [np.sin(p), np.cos(p)]])]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), st.floats(0.0, 1.0))
def test_transfer_basis_reproduces_the_transfer_matrix(family, frac):
    p = frac if family in ("ad", "pd") else 40.0 * (frac - 0.5)
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    ops = _channel_written_here(family, p)
    # R_ij = Tr(P_i E(P_j)) / 2
    expected = np.array([[np.trace(pi @ sum(e @ pj @ e.conj().T for e in ops)) / 2 for pj in paulis] for pi in paulis])
    assert np.abs(expected.imag).max() <= 1e-15
    # the second weight, written here: eta (ad), sin phi (cd) or sin 2t (cr), in the relation the compile reduces by
    w1 = weight(family, parameter_grid(family, [p]), np)[0]
    w2 = {"ad": p, "cd": np.sin(p), "cr": np.sin(2 * p)}.get(family)
    if w2 is not None:
        assert abs((w2 if family == "ad" else w2 * w2) - (1.0 - w1 * w1)) <= 1e-15
    basis = np.array(TRANSFER_BASIS[family])
    transfer = basis[0] + w1 * basis[1] + (0.0 if w2 is None else w2 * basis[2])
    assert np.abs(transfer - expected.real).max() <= 1e-15


def test_kraus_channel_after_dephasing_handles_complex_density():
    # complex off-diagonal entries go through the Kraus sum intact
    rho = apply_collective(bell_state("psi+").density(), unitary_cd(0.6))
    assert np.any(rho.matrix.imag != 0)
    out = apply_kraus_channel(rho, kraus_ad(0.25))
    assert abs(np.trace(out.matrix) - 1.0) <= ATOL
    assert np.max(np.abs(out.matrix - out.matrix.conj().T)) <= ATOL


def test_contraction_matches_naive_multi_index_loop():
    # oracle: the textbook per-term loop over every operator multi-index
    from functools import reduce
    from itertools import product

    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        real_rho = random_density(rng, n)
        complex_rho = apply_collective(real_rho, unitary_cd(0.9))
        for rho in (real_rho, complex_rho):
            for ch in (kraus_ad(0.3), kraus_pd(0.6)):
                expected = np.zeros_like(rho.matrix)
                for ops in product(ch.operators, repeat=n):
                    big = reduce(np.kron, ops)
                    expected = expected + big @ rho.matrix @ big.conj().T
                out = apply_kraus_channel(rho, ch)
                np.testing.assert_allclose(out.matrix, expected, atol=1e-13)
