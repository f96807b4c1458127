"""Fidelity metric, closed forms, BB84 averaging and the table verifier."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoynoise.channels import FAMILIES, apply_noise, parameter_range
from decoynoise.fidelity import (
    TABLE_SCHEMES,
    FidelityReport,
    _compile,
    closed_form_grid,
    compile_fidelity,
    fidelity,
    grid_report,
    scheme_fidelity,
    verify_table,
)
from decoynoise.linalg import ATOL, PureState, tensor_product
from decoynoise.states import AMPLITUDES, SCHEMES, SINGLE_LABELS, SINGLES

from conftest import bell_state

# The 256 four-qubit BB84 product strings, built qubit by qubit.
BB84_STRINGS = [
    PureState(tensor_product(tensor_product(SINGLES[a], SINGLES[b]), tensor_product(SINGLES[c], SINGLES[d])))
    for a, b, c, d in product(SINGLE_LABELS, repeat=4)
]


def density_matrix_fidelity(scheme, family, value):
    """The oracle: each state the scheme sends through density-matrix evolution, mean for bb84."""
    states = BB84_STRINGS if scheme == "bb84" else [PureState(AMPLITUDES[scheme])]
    return math.fsum(fidelity(psi, apply_noise(psi.density(), family, value)) for psi in states) / len(states)


def test_self_fidelity_is_one():
    psi = bell_state("psi+")
    assert fidelity(psi, psi.density()) == pytest.approx(1.0, abs=ATOL)


def test_orthogonal_fidelity_is_zero():
    assert fidelity(PureState(SINGLES["0"]), PureState(SINGLES["1"]).density()) == pytest.approx(0.0, abs=ATOL)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        fidelity(PureState(SINGLES["0"]), bell_state("psi+").density())


def test_two_bell_pairs_fully_damped():
    psi = PureState(AMPLITUDES["psi+"])
    rho = apply_noise(psi.density(), "ad", 1.0)
    assert fidelity(psi, rho) == pytest.approx(0.25, abs=1e-12)


def test_scheme_fidelity_matches_spot_values():
    for theta in np.linspace(0, 2 * np.pi, 9):
        assert scheme_fidelity("phi-", "cr", theta) == pytest.approx(1.0, abs=1e-12)
    assert scheme_fidelity("cluster", "cd", np.pi / 2) == pytest.approx(0.0, abs=1e-12)
    assert scheme_fidelity("phi+", "ad", 0.5) == pytest.approx(0.25, abs=1e-12)


def test_bb84_average_endpoints():
    assert scheme_fidelity("bb84", "ad", 0.0) == pytest.approx(1.0, abs=1e-12)
    assert scheme_fidelity("bb84", "ad", 1.0) == pytest.approx(0.0625, abs=1e-12)
    assert scheme_fidelity("bb84", "pd", 1.0) == pytest.approx(81 / 256, abs=1e-12)


def test_bb84_average_is_mean_of_products():
    # oracle: all 256 strings enumerated, each through density-matrix evolution
    assert len({psi.amplitudes.tobytes() for psi in BB84_STRINGS}) == 256
    for noise in (("ad", 0.61), ("pd", 0.37), ("cd", 2.3), ("cr", 0.4)):
        assert scheme_fidelity("bb84", *noise) == pytest.approx(density_matrix_fidelity("bb84", *noise), abs=1e-15)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SCHEMES), st.sampled_from(sorted(FAMILIES)), st.floats(0.0, 1.0))
def test_kernel_matches_density_matrix_evolution(scheme, family, frac):
    # damping rates over [0, 1], angles over [-20, 20]
    value = frac if family in ("ad", "pd") else 40.0 * (frac - 0.5)
    assert abs(scheme_fidelity(scheme, family, value) - density_matrix_fidelity(scheme, family, value)) <= 1e-12


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("scheme", ["bb84", "cluster", "w"])
def test_grid_longer_than_a_block_matches_single_points(scheme, family):
    grid = np.linspace(0.0, 1.0, 519)
    fidelity_over = compile_fidelity(scheme, family)
    together = fidelity_over(grid)
    alone = [fidelity_over([p])[0] for p in grid]
    np.testing.assert_allclose(together, alone, rtol=0.0, atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
    st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=30),
)
def test_w_state_follows_its_derived_forms(rates, angles):
    eta, phi = np.array(rates), np.array(angles)
    assert np.abs(compile_fidelity("w", "ad")(eta) - (1.0 - eta)).max() <= 1e-14
    assert np.abs(compile_fidelity("w", "pd")(eta) - (1.0 + 2.0 * (1.0 - eta) ** 2) / 3.0).max() <= 1e-14
    assert np.abs(compile_fidelity("w", "cd")(phi) - 1.0).max() <= 1e-14
    c = np.cos(2.0 * phi)
    assert np.abs(compile_fidelity("w", "cr")(phi) - (1.0 + c) * (3.0 * c - 1.0) ** 2 / 8.0).max() <= 1e-14


def scalar_closed_form(scheme, family, x):
    """The closed-form table one point at a time, as Python floats: the reference for closed_form_grid."""
    match scheme, family:
        case "bb84", "ad":
            return (3.0 + math.sqrt(1.0 - x) - x) ** 4 / 256.0
        case "bb84", "pd":
            return (x - 4.0) ** 4 / 256.0
        case "bb84", "cd":
            return (3.0 + math.cos(x)) ** 4 / 256.0
        case "bb84", "cr":
            return math.cos(x) ** 8

        case "psi+" | "psi-", "ad":
            return (2.0 - 2.0 * x + x * x) ** 2 / 4.0
        case "phi+" | "phi-", "ad":
            return (1.0 - x) ** 2
        case "psi+" | "psi-" | "phi+" | "phi-", "pd":
            return (2.0 - 2.0 * x + x * x) ** 2 / 4.0
        case "psi+" | "psi-", "cd":
            return math.cos(x) ** 4
        case "phi+" | "phi-", "cd":
            return 1.0
        case "psi+" | "phi-", "cr":
            return 1.0
        case "psi-" | "phi+", "cr":
            return math.cos(2.0 * x) ** 4

        case "cluster", "ad":
            return (4.0 - 8.0 * x + 6.0 * x**2 - 2.0 * x**3 + x**4) / 4.0
        case "cluster", "pd":
            return (2.0 - 2.0 * x + x * x) ** 2 / 4.0
        case "cluster", "cd":
            return math.cos(x) ** 4
        case "cluster", "cr":
            return math.cos(x) ** 8
    raise AssertionError(f"no reference for {scheme!r} under {family!r}")


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
    st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=30),
)
def test_closed_form_grid_matches_scalar_reference(rates, angles):
    for family in FAMILIES:
        grid = rates if family in ("ad", "pd") else angles
        for scheme in TABLE_SCHEMES:
            reference = np.array([scalar_closed_form(scheme, family, p) for p in grid])
            closed = closed_form_grid(scheme, family, grid)
            # the cluster polynomial under ad cancels terms of size up to 4
            # down to about 0.2, so its rounding is counted in ulps of 1
            scale = 1.0 if (scheme, family) == ("cluster", "ad") else np.abs(reference)
            assert np.all(np.abs(closed - reference) <= 4 * np.spacing(scale)), (scheme, family)
        assert closed_form_grid("w", family, grid) is None


def test_closed_form_grid_rejects_parameters_outside_the_family_range():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        closed_form_grid("cluster", "ad", [0.5, 1.5])
    with pytest.raises(ValueError, match="finite"):
        closed_form_grid("cluster", "cr", [0.5, np.nan])


def test_fidelity_report_arrays_are_read_only_copies():
    grid = np.linspace(0.0, 1.0, 5)
    report = grid_report("cluster", "ad", grid)
    for values in (report.grid, report.simulated, report.closed_form):
        assert values.dtype == np.float64 and values.shape == (5,)
        assert not values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.5
    assert grid.flags.writeable
    assert grid_report("w", "ad", grid).closed_form is None


def test_fidelity_report_checks_its_arrays():
    fields = dict(scheme="cluster", noise="ad", grid=[0.0, 1.0], closed_form=[1.0, 0.25])
    with pytest.raises(ValueError, match="outside"):
        FidelityReport(simulated=[1.0, 1.5], **fields)
    with pytest.raises(ValueError, match="length"):
        FidelityReport(simulated=[1.0, 0.25, 0.5], **fields)
    # the deviation is derived from the arrays, not passed in
    with pytest.raises(TypeError):
        FidelityReport(simulated=[1.0, 0.5], max_abs_deviation=0.25, **fields)
    assert FidelityReport(simulated=[1.0, 0.5], **fields).max_abs_deviation == 0.25
    assert FidelityReport("w", "ad", [0.0, 1.0], [1.0, 0.5], None).max_abs_deviation is None


def test_closed_form_spot_values():
    phis = [0.3, 1.0, 2.2]
    np.testing.assert_allclose(closed_form_grid("psi+", "cd", phis), np.cos(phis) ** 4, rtol=0, atol=ATOL)
    assert closed_form_grid("cluster", "ad", [1.0])[0] == pytest.approx(0.25, abs=ATOL)
    assert closed_form_grid("bb84", "cr", [np.pi / 4])[0] == pytest.approx(0.0625, abs=ATOL)


def test_all_schemes_give_unit_fidelity_without_noise():
    for scheme in SCHEMES:
        for family in FAMILIES:
            assert scheme_fidelity(scheme, family, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_pd_fidelity_identical_for_all_entangled_schemes():
    entangled = ["psi+", "psi-", "phi+", "phi-", "cluster"]
    for eta in np.linspace(0.0, 1.0, 11):
        values = [scheme_fidelity(s, "pd", eta) for s in entangled]
        assert max(values) - min(values) <= 1e-12


def test_ad_fidelity_equal_for_same_parity_bells():
    for eta in np.linspace(0.0, 1.0, 11):
        same = scheme_fidelity("psi+", "ad", eta)
        assert scheme_fidelity("psi-", "ad", eta) == pytest.approx(same, abs=1e-12)
        anti = scheme_fidelity("phi+", "ad", eta)
        assert scheme_fidelity("phi-", "ad", eta) == pytest.approx(anti, abs=1e-12)


def test_cr_bb84_average_equals_cluster():
    for theta in np.linspace(0.0, 2 * np.pi, 11):
        avg = scheme_fidelity("bb84", "cr", theta)
        clus = scheme_fidelity("cluster", "cr", theta)
        assert avg == pytest.approx(clus, abs=1e-12)


def test_simulated_fidelities_stay_in_unit_interval():
    rng = np.random.default_rng(33)
    for _ in range(50):
        scheme = TABLE_SCHEMES[rng.integers(1, len(TABLE_SCHEMES))]
        family = list(FAMILIES)[rng.integers(0, 4)]
        lo, hi = 0.0, 1.0
        value = scheme_fidelity(scheme, family, float(rng.uniform(lo, hi)))
        assert -ATOL <= value <= 1.0 + ATOL


def test_verify_table_oracle_equivalence():
    reports = verify_table(11)
    assert len(reports) == 24
    for report in reports:
        assert report.max_abs_deviation < 1e-12


def test_verify_table_endpoint_grid():
    reports = verify_table(2)
    ad_reports = [r for r in reports if r.noise == "ad"]
    assert len(ad_reports) == 6
    for report in ad_reports:
        assert report.grid[0] == 0.0 and report.grid[-1] == 1.0
        assert report.simulated[0] == pytest.approx(1.0, abs=1e-12)


def test_verify_table_rejects_degenerate_grid():
    with pytest.raises(ValueError, match=">= 2"):
        verify_table(1)


def _assert_memo_matches_a_fresh_compile(scheme, family, fractions):
    lo, hi = parameter_range(family)
    grid = lo + (hi - lo) * np.array(fractions)
    memoised = compile_fidelity(scheme, family)
    assert compile_fidelity(scheme, family) is memoised
    assert memoised(grid).tobytes() == _compile.__wrapped__(scheme, family)(grid).tobytes()


_FRACTIONS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40)


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("scheme", SCHEMES)
@settings(max_examples=10, deadline=None)
@given(fractions=_FRACTIONS)
def test_memoised_compile_gives_the_bits_of_a_fresh_compile(scheme, family, fractions):
    _assert_memo_matches_a_fresh_compile(scheme, family, fractions)

