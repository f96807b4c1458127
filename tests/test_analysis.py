"""Sweeps, crossover root finding, decoherence-free detection and ranking."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoynoise.analysis import (
    SweepSpec,
    find_crossover,
    is_decoherence_free,
    recommend,
    sweep,
)
from decoynoise.channels import (
    AmplitudeDamping,
    CollectiveDephasing,
    CollectiveRotation,
    PhaseDamping,
)
from decoynoise.fidelity import TABLE_SCHEMES, closed_form, scheme_fidelity
from decoynoise.states import BB84Average, BellPair, Cluster, WState, scheme_label


def test_sweep_ad_ordering_between_entangled_schemes():
    spec = SweepSpec(
        schemes=(BB84Average(), BellPair("psi+"), BellPair("phi+"), Cluster()),
        family=AmplitudeDamping,
        start=0.0,
        end=1.0,
        points=101,
    )
    by_label = {scheme_label(r.scheme): r for r in sweep(spec)}
    psi, phi, cluster = by_label["psi+"], by_label["phi+"], by_label["cluster"]
    for i, eta in enumerate(psi.grid):
        if 0.0 < eta < 1.0:
            assert psi.simulated[i] > cluster.simulated[i] > phi.simulated[i]


def test_sweep_reports_closed_forms_and_grid():
    spec = SweepSpec((BellPair("psi+"), WState()), CollectiveDephasing, 0.0, np.pi, 5)
    reports = sweep(spec)
    assert reports[0].grid == (0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi)
    assert reports[0].closed_form is not None
    assert reports[0].simulated[2] == pytest.approx(0.0, abs=1e-12)  # cos^4 at pi/2
    assert reports[1].closed_form is None and reports[1].max_abs_deviation is None


def test_sweep_spec_validation():
    with pytest.raises(ValueError, match="points"):
        SweepSpec((Cluster(),), AmplitudeDamping, 0.0, 1.0, 1)
    with pytest.raises(ValueError, match="start"):
        SweepSpec((Cluster(),), AmplitudeDamping, 1.0, 0.0, 5)


def test_ad_crossover_between_bb84_and_parallel_bell():
    root = find_crossover(BB84Average(), BellPair("psi+"), AmplitudeDamping, 0.3, 0.9)
    assert 0.5 <= root <= 0.65
    gap = scheme_fidelity(BB84Average(), AmplitudeDamping(root)) - scheme_fidelity(
        BellPair("psi+"), AmplitudeDamping(root)
    )
    assert abs(gap) < 1e-8
    # independent oracle: scan the closed forms at 1e-4 steps for the sign change
    grid = np.arange(0.3, 0.9, 1e-4)
    diffs = [
        closed_form(BB84Average(), AmplitudeDamping(e)) - closed_form(BellPair("psi+"), AmplitudeDamping(e))
        for e in grid
    ]
    signs = np.sign(diffs)
    flip = int(np.nonzero(signs[1:] != signs[:-1])[0][0])
    assert abs(root - grid[flip]) < 1e-3


def test_cr_crossover_between_antiparallel_bell_and_bb84():
    lo, hi = 0.1, np.pi / 2 - 0.1
    root = find_crossover(BellPair("psi-"), BB84Average(), CollectiveRotation, lo, hi)
    assert lo < root < hi
    # cos^4(2t) equals cos^8(t) at cos^2(t) = 1/3
    assert root == pytest.approx(math.acos(1 / math.sqrt(3)), abs=1e-8)


def test_crossover_requires_sign_change():
    with pytest.raises(ValueError, match="no crossover"):
        find_crossover(BellPair("phi-"), BellPair("phi-"), CollectiveRotation, 0.0, np.pi)


def test_crossover_rejects_empty_interval():
    with pytest.raises(ValueError, match="lo < hi"):
        find_crossover(BB84Average(), Cluster(), AmplitudeDamping, 0.9, 0.3)


@pytest.mark.parametrize(
    "scheme,family",
    [
        (BellPair("phi+"), CollectiveDephasing),
        (BellPair("phi-"), CollectiveDephasing),
        (BellPair("psi+"), CollectiveRotation),
        (BellPair("phi-"), CollectiveRotation),
        (WState(), CollectiveDephasing),
    ],
)
def test_decoherence_free_states(scheme, family):
    assert is_decoherence_free(scheme, family)


@pytest.mark.parametrize(
    "scheme,family",
    [
        (BellPair("psi+"), CollectiveDephasing),
        (BellPair("psi-"), CollectiveRotation),
        (WState(), CollectiveRotation),
        (Cluster(), AmplitudeDamping),
        (BB84Average(), PhaseDamping),
    ],
)
def test_not_decoherence_free(scheme, family):
    assert not is_decoherence_free(scheme, family)


def test_decoherence_free_needs_enough_samples():
    with pytest.raises(ValueError, match="8"):
        is_decoherence_free(BellPair("phi-"), CollectiveDephasing, samples=4)


def test_decoherence_free_consistent_with_sweep():
    spec = SweepSpec((BellPair("phi-"),), CollectiveDephasing, 0.0, 2 * np.pi, 33)
    (report,) = sweep(spec)
    assert is_decoherence_free(BellPair("phi-"), CollectiveDephasing, samples=33)
    assert max(abs(f - 1.0) for f in report.simulated) < 1e-9


def test_recommend_cr_top_tie_group():
    ranking = recommend(CollectiveRotation(0.7))
    top = {scheme_label(s) for s in ranking.ties[0]}
    assert top == {"psi+", "phi-"}
    for scheme, fid in ranking.ordered[:2]:
        assert fid == pytest.approx(1.0, abs=1e-12)


def test_recommend_pd_prefers_bb84():
    ranking = recommend(PhaseDamping(0.5))
    assert scheme_label(ranking.ordered[0][0]) == "bb84"
    assert ranking.ordered[0][1] == pytest.approx(0.586181640625, abs=1e-12)
    entangled_group = ranking.ties[1]
    assert len(entangled_group) == 5
    for scheme in entangled_group:
        assert scheme_fidelity(scheme, PhaseDamping(0.5)) == pytest.approx(0.390625, abs=1e-12)


def test_recommend_high_ad_prefers_parallel_bells():
    ranking = recommend(AmplitudeDamping(0.9))
    top = {scheme_label(s) for s in ranking.ties[0]}
    assert top == {"psi+", "psi-"}
    assert ranking.ordered[0][1] == pytest.approx(0.255025, abs=1e-12)
    labels_in_order = [scheme_label(s) for s, _ in ranking.ordered]
    assert labels_in_order.index("bb84") > labels_in_order.index("cluster")


def test_recommend_can_include_w_state():
    ranking = recommend(CollectiveDephasing(1.1), TABLE_SCHEMES + (WState(),))
    top = {scheme_label(s) for s in ranking.ties[0]}
    assert top == {"phi+", "phi-", "w"}


@settings(max_examples=25, deadline=None)
@given(st.permutations(list(TABLE_SCHEMES)))
def test_recommend_invariant_under_scheme_permutation(schemes):
    base = recommend(AmplitudeDamping(0.35))
    permuted = recommend(AmplitudeDamping(0.35), tuple(schemes))
    assert permuted.ordered == base.ordered
    assert permuted.ties == base.ties


@pytest.mark.parametrize(
    "scheme,family,upper",
    [
        (BB84Average(), AmplitudeDamping, 1.0),
        (BB84Average(), PhaseDamping, 1.0),
        (BellPair("phi+"), AmplitudeDamping, 1.0),
        (BellPair("phi-"), AmplitudeDamping, 1.0),
        # the cluster AD polynomial has a stationary minimum near 0.819 and
        # rises again toward 0.25, so it is only monotone up to that point
        (Cluster(), AmplitudeDamping, 0.8),
    ],
)
def test_fidelity_monotone_where_closed_form_is_monotone(scheme, family, upper):
    grid = np.linspace(0.0, upper, 21)
    values = [scheme_fidelity(scheme, family(p)) for p in grid]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_cluster_ad_rises_again_after_its_minimum():
    # 2 eta^3 - 3 eta^2 + 6 eta - 4 = 0 near 0.819 marks the turning point
    low = scheme_fidelity(Cluster(), AmplitudeDamping(0.819))
    assert scheme_fidelity(Cluster(), AmplitudeDamping(1.0)) == pytest.approx(0.25, abs=1e-12)
    assert low < 0.25 - 1e-3
