"""Fidelity metric, closed forms, BB84 averaging and the table verifier."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoynoise.channels import (
    AmplitudeDamping,
    CollectiveDephasing,
    CollectiveRotation,
    FAMILIES,
    PhaseDamping,
    apply_noise,
    parameter_range,
)
from decoynoise.fidelity import (
    TABLE_SCHEMES,
    FidelityReport,
    bb84_average_fidelity,
    closed_form,
    closed_form_grid,
    compile_fidelity,
    conventional_fidelity,
    fidelity,
    grid_fidelity,
    grid_report,
    scheme_fidelity,
    simulate_fidelity,
    verify_table,
)
from decoynoise.linalg import ATOL
from decoynoise.states import (
    BB84Average,
    BB84Product,
    BellPair,
    Cluster,
    SINGLE_LABELS,
    WState,
    make_bell,
    make_decoy_state,
    make_single,
)

from conftest import random_density, random_pure_state


def test_self_fidelity_is_one():
    psi = make_bell("psi+")
    assert fidelity(psi, psi.density()) == pytest.approx(1.0, abs=ATOL)
    assert conventional_fidelity(psi, psi.density()) == pytest.approx(1.0, abs=ATOL)


def test_orthogonal_fidelity_is_zero():
    assert fidelity(make_single("0"), make_single("1").density()) == pytest.approx(0.0, abs=ATOL)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        fidelity(make_single("0"), make_bell("psi+").density())
    with pytest.raises(ValueError, match="mismatch"):
        conventional_fidelity(make_single("0"), make_bell("psi+").density())


def test_two_bell_pairs_fully_damped():
    psi = make_decoy_state(BellPair("psi+"))
    rho = apply_noise(psi.density(), AmplitudeDamping(1.0))
    assert fidelity(psi, rho) == pytest.approx(0.25, abs=1e-12)
    assert conventional_fidelity(psi, rho) == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_conventional_fidelity_squares_to_overlap(seed, n):
    rng = np.random.default_rng(seed)
    psi = random_pure_state(rng, n)
    rho = random_density(rng, n)
    assert conventional_fidelity(psi, rho) ** 2 == pytest.approx(fidelity(psi, rho), abs=1e-12)


def test_simulate_fidelity_matches_spot_values():
    for theta in np.linspace(0, 2 * np.pi, 9):
        assert simulate_fidelity(BellPair("phi-"), CollectiveRotation(theta)) == pytest.approx(1.0, abs=1e-12)
    assert simulate_fidelity(Cluster(), CollectiveDephasing(np.pi / 2)) == pytest.approx(0.0, abs=1e-12)
    assert simulate_fidelity(BellPair("phi+"), AmplitudeDamping(0.5)) == pytest.approx(0.25, abs=1e-12)


def test_simulate_fidelity_rejects_average_marker():
    with pytest.raises(ValueError, match="bb84_average_fidelity"):
        simulate_fidelity(BB84Average(), AmplitudeDamping(0.2))


def test_bb84_average_endpoints():
    assert bb84_average_fidelity(AmplitudeDamping(0.0)) == pytest.approx(1.0, abs=1e-12)
    assert bb84_average_fidelity(AmplitudeDamping(1.0)) == pytest.approx(0.0625, abs=1e-12)
    assert bb84_average_fidelity(PhaseDamping(1.0)) == pytest.approx(81 / 256, abs=1e-12)


def test_bb84_average_is_mean_of_products():
    # oracle: all 256 strings enumerated, each through density-matrix evolution
    for noise in (AmplitudeDamping(0.61), PhaseDamping(0.37), CollectiveDephasing(2.3), CollectiveRotation(0.4)):
        values = []
        for labels in product(SINGLE_LABELS, repeat=4):
            psi = make_decoy_state(BB84Product(labels))
            values.append(fidelity(psi, apply_noise(psi.density(), noise)))
        assert len(values) == 256
        assert bb84_average_fidelity(noise) == pytest.approx(math.fsum(values) / 256, abs=1e-15)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.sampled_from([BellPair(lab) for lab in ("psi+", "psi-", "phi+", "phi-")] + [Cluster(), WState()]),
        st.builds(BB84Product, st.tuples(*[st.sampled_from(SINGLE_LABELS)] * 4)),
    ),
    st.sampled_from(sorted(FAMILIES)),
    st.floats(0.0, 1.0),
)
def test_kernel_matches_density_matrix_evolution(scheme, family, frac):
    # damping rates over [0, 1], angles over [-20, 20]
    noise = FAMILIES[family](frac if family in ("ad", "pd") else 40.0 * (frac - 0.5))
    psi = make_decoy_state(scheme)
    expected = fidelity(psi, apply_noise(psi.density(), noise))
    assert abs(simulate_fidelity(scheme, noise) - expected) <= 1e-12


@pytest.mark.parametrize("family", list(FAMILIES.values()))
@pytest.mark.parametrize("scheme", [BB84Average(), Cluster(), WState()])
def test_grid_longer_than_a_block_matches_single_points(scheme, family):
    grid = np.linspace(0.0, 1.0, 519)
    together = grid_fidelity(scheme, family, grid)
    alone = [grid_fidelity(scheme, family, [p])[0] for p in grid]
    np.testing.assert_allclose(together, alone, rtol=0.0, atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
    st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=30),
)
def test_w_state_follows_its_derived_forms(rates, angles):
    eta, phi = np.array(rates), np.array(angles)
    assert np.abs(grid_fidelity(WState(), AmplitudeDamping, eta) - (1.0 - eta)).max() <= 1e-14
    assert np.abs(grid_fidelity(WState(), PhaseDamping, eta) - (1.0 + 2.0 * (1.0 - eta) ** 2) / 3.0).max() <= 1e-14
    assert np.abs(grid_fidelity(WState(), CollectiveDephasing, phi) - 1.0).max() <= 1e-14
    c = np.cos(2.0 * phi)
    assert np.abs(grid_fidelity(WState(), CollectiveRotation, phi) - (1.0 + c) * (3.0 * c - 1.0) ** 2 / 8.0).max() <= 1e-14


def scalar_closed_form(scheme, noise):
    """The closed-form table one point at a time, as Python floats: the reference for closed_form_grid."""
    match scheme, noise:
        case BB84Average(), AmplitudeDamping(eta=e):
            return (3.0 + math.sqrt(1.0 - e) - e) ** 4 / 256.0
        case BB84Average(), PhaseDamping(eta=e):
            return (e - 4.0) ** 4 / 256.0
        case BB84Average(), CollectiveDephasing(phi=p):
            return (3.0 + math.cos(p)) ** 4 / 256.0
        case BB84Average(), CollectiveRotation(theta=t):
            return math.cos(t) ** 8

        case BellPair(label=("psi+" | "psi-")), AmplitudeDamping(eta=e):
            return (2.0 - 2.0 * e + e * e) ** 2 / 4.0
        case BellPair(label=("phi+" | "phi-")), AmplitudeDamping(eta=e):
            return (1.0 - e) ** 2
        case BellPair(), PhaseDamping(eta=e):
            return (2.0 - 2.0 * e + e * e) ** 2 / 4.0
        case BellPair(label=("psi+" | "psi-")), CollectiveDephasing(phi=p):
            return math.cos(p) ** 4
        case BellPair(label=("phi+" | "phi-")), CollectiveDephasing():
            return 1.0
        case BellPair(label=("psi+" | "phi-")), CollectiveRotation():
            return 1.0
        case BellPair(label=("psi-" | "phi+")), CollectiveRotation(theta=t):
            return math.cos(2.0 * t) ** 4

        case Cluster(), AmplitudeDamping(eta=e):
            return (4.0 - 8.0 * e + 6.0 * e**2 - 2.0 * e**3 + e**4) / 4.0
        case Cluster(), PhaseDamping(eta=e):
            return (2.0 - 2.0 * e + e * e) ** 2 / 4.0
        case Cluster(), CollectiveDephasing(phi=p):
            return math.cos(p) ** 4
        case Cluster(), CollectiveRotation(theta=t):
            return math.cos(t) ** 8
    raise AssertionError(f"no reference for {scheme!r} under {noise!r}")


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
    st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=30),
    st.tuples(*[st.sampled_from(SINGLE_LABELS)] * 4),
)
def test_closed_form_grid_matches_scalar_reference(rates, angles, product_labels):
    for tag, family in FAMILIES.items():
        grid = rates if tag in ("ad", "pd") else angles
        for scheme in TABLE_SCHEMES:
            reference = np.array([scalar_closed_form(scheme, family(p)) for p in grid])
            closed = closed_form_grid(scheme, family, grid)
            # the cluster polynomial under ad cancels terms of size up to 4
            # down to about 0.2, so its rounding is counted in ulps of 1
            scale = 1.0 if (isinstance(scheme, Cluster) and tag == "ad") else np.abs(reference)
            assert np.all(np.abs(closed - reference) <= 4 * np.spacing(scale)), (scheme, tag)
        assert closed_form_grid(WState(), family, grid) is None
        assert closed_form_grid(BB84Product(product_labels), family, grid) is None


def test_closed_form_grid_rejects_parameters_outside_the_family_range():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        closed_form_grid(Cluster(), AmplitudeDamping, [0.5, 1.5])
    with pytest.raises(ValueError, match="finite"):
        closed_form_grid(Cluster(), CollectiveRotation, [0.5, np.nan])


def test_fidelity_report_arrays_are_read_only_copies():
    grid = np.linspace(0.0, 1.0, 5)
    report = grid_report(Cluster(), AmplitudeDamping, grid)
    for values in (report.grid, report.simulated, report.closed_form):
        assert values.dtype == np.float64 and values.shape == (5,)
        assert not values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.5
    assert grid.flags.writeable
    assert grid_report(WState(), AmplitudeDamping, grid).closed_form is None


def test_fidelity_report_checks_its_arrays():
    fields = dict(scheme=Cluster(), noise="ad", grid=[0.0, 1.0], closed_form=[1.0, 0.25])
    with pytest.raises(ValueError, match="outside"):
        FidelityReport(simulated=[1.0, 1.5], max_abs_deviation=1.25, **fields)
    with pytest.raises(ValueError, match="does not match"):
        FidelityReport(simulated=[1.0, 0.5], max_abs_deviation=0.2, **fields)
    with pytest.raises(ValueError, match="length"):
        FidelityReport(simulated=[1.0, 0.25, 0.5], max_abs_deviation=0.0, **fields)
    assert FidelityReport(simulated=[1.0, 0.5], max_abs_deviation=0.25, **fields).max_abs_deviation == 0.25


def test_closed_form_spot_values():
    for phi in (0.3, 1.0, 2.2):
        assert closed_form(BellPair("psi+"), CollectiveDephasing(phi)) == pytest.approx(
            math.cos(phi) ** 4, abs=ATOL
        )
    assert closed_form(Cluster(), AmplitudeDamping(1.0)) == pytest.approx(0.25, abs=ATOL)
    assert closed_form(BB84Average(), CollectiveRotation(np.pi / 4)) == pytest.approx(0.0625, abs=ATOL)


def test_closed_form_has_no_w_state_cell():
    with pytest.raises(ValueError, match="W state"):
        closed_form(WState(), CollectiveDephasing(0.5))


def test_closed_form_has_no_individual_product_cell():
    with pytest.raises(ValueError, match="average"):
        closed_form(BB84Product(("0", "0", "0", "0")), AmplitudeDamping(0.5))


def test_all_schemes_give_unit_fidelity_without_noise():
    zero_noise = [
        AmplitudeDamping(0.0),
        PhaseDamping(0.0),
        CollectiveDephasing(0.0),
        CollectiveRotation(0.0),
    ]
    schemes = TABLE_SCHEMES + (WState(),)
    for scheme in schemes:
        for noise in zero_noise:
            assert scheme_fidelity(scheme, noise) == pytest.approx(1.0, abs=1e-12)


def test_pd_fidelity_identical_for_all_entangled_schemes():
    entangled = [BellPair(lab) for lab in ("psi+", "psi-", "phi+", "phi-")] + [Cluster()]
    for eta in np.linspace(0.0, 1.0, 11):
        values = [simulate_fidelity(s, PhaseDamping(eta)) for s in entangled]
        assert max(values) - min(values) <= 1e-12


def test_ad_fidelity_equal_for_same_parity_bells():
    for eta in np.linspace(0.0, 1.0, 11):
        same = simulate_fidelity(BellPair("psi+"), AmplitudeDamping(eta))
        assert simulate_fidelity(BellPair("psi-"), AmplitudeDamping(eta)) == pytest.approx(same, abs=1e-12)
        anti = simulate_fidelity(BellPair("phi+"), AmplitudeDamping(eta))
        assert simulate_fidelity(BellPair("phi-"), AmplitudeDamping(eta)) == pytest.approx(anti, abs=1e-12)


def test_cr_bb84_average_equals_cluster():
    for theta in np.linspace(0.0, 2 * np.pi, 11):
        avg = bb84_average_fidelity(CollectiveRotation(theta))
        clus = simulate_fidelity(Cluster(), CollectiveRotation(theta))
        assert avg == pytest.approx(clus, abs=1e-12)


def test_simulated_fidelities_stay_in_unit_interval():
    rng = np.random.default_rng(33)
    for _ in range(50):
        scheme = TABLE_SCHEMES[rng.integers(1, len(TABLE_SCHEMES))]
        family = list(FAMILIES.values())[rng.integers(0, 4)]
        lo, hi = 0.0, 1.0
        value = simulate_fidelity(scheme, family(float(rng.uniform(lo, hi))))
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
    assert memoised(grid).tobytes() == compile_fidelity.__wrapped__(scheme, family)(grid).tobytes()


_FRACTIONS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40)


@pytest.mark.parametrize("family", list(FAMILIES.values()))
@pytest.mark.parametrize("scheme", TABLE_SCHEMES + (WState(),))
@settings(max_examples=10, deadline=None)
@given(fractions=_FRACTIONS)
def test_memoised_compile_gives_the_bits_of_a_fresh_compile(scheme, family, fractions):
    _assert_memo_matches_a_fresh_compile(scheme, family, fractions)


@settings(max_examples=50, deadline=None)
@given(
    labels=st.tuples(*[st.sampled_from(SINGLE_LABELS)] * 4),
    family=st.sampled_from(list(FAMILIES.values())),
    fractions=_FRACTIONS,
)
def test_memoised_product_compile_gives_the_bits_of_a_fresh_compile(labels, family, fractions):
    _assert_memo_matches_a_fresh_compile(BB84Product(labels), family, fractions)
