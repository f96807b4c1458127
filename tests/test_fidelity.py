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
)
from decoynoise.fidelity import (
    KERNEL_BLOCK,
    TABLE_SCHEMES,
    bb84_average_fidelity,
    closed_form,
    conventional_fidelity,
    fidelity,
    grid_fidelity,
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
    grid = np.linspace(0.0, 1.0, 2 * KERNEL_BLOCK + 7)
    together = grid_fidelity(scheme, family, grid)
    alone = [grid_fidelity(scheme, family, [p])[0] for p in grid]
    np.testing.assert_allclose(together, alone, rtol=0.0, atol=1e-15)


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
