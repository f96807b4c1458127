"""Sweeps, crossover root finding, decoherence-free schemes and ranking."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decoynoise.analysis
import decoynoise.fidelity
from decoynoise.analysis import TIE_TOL, find_crossover, recommend, sweep
from decoynoise.channels import FAMILIES, parameter_range, transfer_weights
from decoynoise.fidelity import (
    TABLE_SCHEMES,
    closed_form_grid,
    compile_fidelity,
    grid_report,
    scheme_fidelity,
    verify_table,
)
from decoynoise.linalg import DensityMatrix, apply_noise
from decoynoise.states import SCHEMES


def test_sweep_ad_ordering_between_entangled_schemes():
    by_label = {r.scheme: r for r in sweep(("bb84", "psi+", "phi+", "cluster"), "ad", 0.0, 1.0, 101)}
    psi, phi, cluster = by_label["psi+"], by_label["phi+"], by_label["cluster"]
    for i, eta in enumerate(psi.grid):
        if 0.0 < eta < 1.0:
            assert psi.simulated[i] > cluster.simulated[i] > phi.simulated[i]


def test_sweep_reports_closed_forms_and_grid():
    reports = sweep(("psi+", "w"), "cd", 0.0, np.pi, 5)
    assert reports[0].grid.tolist() == [0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi]
    assert reports[0].closed_form is not None
    assert reports[0].simulated[2] == pytest.approx(0.0, abs=1e-12)  # cos^4 at pi/2
    assert reports[1].closed_form is None and reports[1].max_abs_deviation is None


def test_sweep_validation():
    with pytest.raises(ValueError, match="points"):
        sweep(("cluster",), "ad", 0.0, 1.0, 1)
    with pytest.raises(ValueError, match="start"):
        sweep(("cluster",), "ad", 1.0, 0.0, 5)


def test_ad_crossover_between_bb84_and_parallel_bell():
    root = find_crossover("bb84", "psi+", "ad", 0.3, 0.9)
    assert 0.5 <= root <= 0.65
    gap = scheme_fidelity("bb84", "ad", root) - scheme_fidelity("psi+", "ad", root)
    assert abs(gap) < 1e-8
    # independent oracle: scan the closed forms at 1e-4 steps for the sign change
    grid = np.arange(0.3, 0.9, 1e-4)
    signs = np.sign(closed_form_grid("bb84", "ad", grid) - closed_form_grid("psi+", "ad", grid))
    flip = int(np.nonzero(signs[1:] != signs[:-1])[0][0])
    assert abs(root - grid[flip]) < 1e-3


def test_cr_crossover_between_antiparallel_bell_and_bb84():
    lo, hi = 0.1, np.pi / 2 - 0.1
    root = find_crossover("psi-", "bb84", "cr", lo, hi)
    assert lo < root < hi
    # cos^4(2t) equals cos^8(t) at cos^2(t) = 1/3
    assert root == pytest.approx(math.acos(1 / math.sqrt(3)), abs=1e-8)


def test_crossover_requires_sign_change():
    with pytest.raises(ValueError, match="no crossover"):
        find_crossover("phi-", "phi-", "cr", 0.0, np.pi)


def test_crossover_rejects_empty_interval():
    with pytest.raises(ValueError, match="lo < hi"):
        find_crossover("bb84", "cluster", "ad", 0.9, 0.3)


def scalar_crossover(a, b, family, lo, hi, tol=1e-9):
    """Reference: bisection one point at a time, each evaluated as a one-point grid.

    Hangs when tol is below the float spacing of the bracket, so callers keep
    tol well above it.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    fidelity_a, fidelity_b = compile_fidelity(a, family), compile_fidelity(b, family)

    def gap(p: float) -> float:
        return float(fidelity_a(np.array([p]))[0] - fidelity_b(np.array([p]))[0])

    gap_lo, gap_hi = gap(lo), gap(hi)
    if not (gap_lo < 0.0 < gap_hi or gap_hi < 0.0 < gap_lo):
        raise ValueError(f"no crossover in interval [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        gap_mid = gap(mid)
        if gap_mid == 0.0:
            return mid
        if (gap_mid < 0.0) == (gap_lo < 0.0):
            lo, gap_lo = mid, gap_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _crossing_cells():
    """{(family, kind): [(a, b, left, right)]}: cells of a 401-point scan where F_a - F_b changes sign.

    kind is "bb84" when either scheme is the BB84 average, else "cheap". Some
    cells are sign changes of rounding noise where two curves touch (at 0 and
    pi for the collective angles); both bisections must agree on those too.
    """
    cells = {}
    for family in FAMILIES:
        grid = np.linspace(*parameter_range(family), 401)
        fids = {s: compile_fidelity(s, family)(grid) for s in SCHEMES}
        for a, b in itertools.combinations(fids, 2):
            gap = fids[a] - fids[b]
            if np.abs(gap).max() < 1e-9:
                continue  # the pair is tied: every sign change is rounding noise
            kind = "bb84" if "bb84" in (a, b) else "cheap"
            for i in np.nonzero(gap[:-1] * gap[1:] < 0.0)[0]:
                cells.setdefault((family, kind), []).append((a, b, grid[i], grid[i + 1]))
    return cells


CROSSING_CELLS = _crossing_cells()


def _outcome(finder, *args):
    try:
        return float(finder(*args)).hex()
    except ValueError as exc:
        return str(exc)


def test_scan_finds_crossings_on_every_family():
    assert all((family, "bb84") in CROSSING_CELLS for family in FAMILIES)
    assert all((family, "cheap") in CROSSING_CELLS for family in ("ad", "cr"))


@pytest.mark.parametrize("family,kind", sorted(CROSSING_CELLS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bisection_returns_the_grid_paths_root(family, kind, data):
    a, b, left, right = data.draw(st.sampled_from(CROSSING_CELLS[family, kind]))
    if data.draw(st.booleans()):
        a, b = b, a
    range_lo, range_hi = parameter_range(family)
    width = (right - left) * data.draw(st.floats(1.0, 40.0))
    lo = max(range_lo, left - (width - (right - left)) * data.draw(st.floats(0.0, 1.0)))
    hi = min(range_hi, lo + width)
    # from 0.3 x the bracket down to 1e-10 x, always far above its float spacing
    tol = (hi - lo) * 10.0 ** -data.draw(st.floats(0.5, 10.0))
    expected = _outcome(scalar_crossover, a, b, family, lo, hi, tol)
    assert _outcome(find_crossover, a, b, family, lo, hi, tol) == expected


# Crossings that the benchmark's query workload brackets: the cr roots where
# cos^8 t = cos^4 2t, and a bb84 crossing under ad.
_CR_ROOT = math.acos(1.0 / math.sqrt(3.0))
QUERY_CROSSINGS = [
    *((a, b, "cr", root) for a, b in (("psi-", "cluster"), ("phi+", "cluster"), ("cluster", "psi-"))
      for root in (_CR_ROOT, math.pi - _CR_ROOT, math.pi + _CR_ROOT, 2.0 * math.pi - _CR_ROOT)),
    ("bb84", "psi+", "ad", 0.5804),
]


@settings(max_examples=60, deadline=None)
@given(crossing=st.sampled_from(QUERY_CROSSINGS), share=st.floats(0.15, 0.85))
def test_bisection_of_a_query_bracket_returns_the_grid_paths_root(crossing, share):
    # the bracket the query workload draws: width 0.25, the root a share of the way in
    a, b, family, root = crossing
    lo = root - 0.25 * share
    hi = lo + 0.25
    expected = scalar_crossover(a, b, family, lo, hi)
    assert find_crossover(a, b, family, lo, hi).hex() == expected.hex()


def _count_compiles(monkeypatch):
    """The schemes compile_fidelity is called for, wherever analysis and fidelity look it up."""
    original, compiled = decoynoise.fidelity.compile_fidelity, []

    def counting(scheme, family):
        compiled.append(scheme)
        return original(scheme, family)

    monkeypatch.setattr(decoynoise.analysis, "compile_fidelity", counting)
    monkeypatch.setattr(decoynoise.fidelity, "compile_fidelity", counting)
    return compiled


@pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9, 0.01, 10.0])
@pytest.mark.parametrize(
    "a,b,family,lo,hi",
    [
        ("bb84", "psi+", "ad", 0.3, 0.9),
        ("psi-", "cluster", "cr", 0.5, 1.2),
        ("psi+", "bb84", "cd", 2.0, 2.4),
    ],
)
def test_crossover_compiles_each_scheme_once(monkeypatch, a, b, family, lo, hi, tol):
    compiled = _count_compiles(monkeypatch)
    find_crossover(a, b, family, lo, hi, tol)
    assert compiled == [a, b]


def test_reports_and_rankings_compile_each_scheme_once(monkeypatch):
    compiled = _count_compiles(monkeypatch)
    schemes = SCHEMES
    assert [report.scheme for report in sweep(schemes, "pd", 0.0, 1.0, 600)] == list(schemes)
    assert compiled == list(schemes)
    compiled.clear()
    assert [report.scheme for report in verify_table(5)] == compiled
    compiled.clear()
    recommend("ad", 0.4, schemes)
    assert compiled == list(schemes)


def test_crossover_with_zero_tol_stops_at_neighbouring_floats():
    lo, hi = 0.8, 1.1
    root = find_crossover("psi-", "cluster", "cr", lo, hi, tol=0.0)
    assert lo < root < hi
    assert root == pytest.approx(math.acos(1 / math.sqrt(3)), abs=1e-15)
    # a tolerance below the float spacing stops the same way
    tiny = find_crossover("psi-", "cluster", "cr", lo, hi, tol=1e-300)
    assert tiny == root


def test_crossover_rejects_brackets_whose_midpoints_could_overflow():
    # 0.5 and 1.02e308 bracket a crossing, but halving [7.7e307, 1.02e308]
    # would overflow to inf
    with pytest.raises(ValueError, match=r"2\*\*1023"):
        find_crossover("psi-", "cluster", "cr", 0.5, 1.02e308)
    with pytest.raises(ValueError, match=r"2\*\*1023"):
        find_crossover("psi-", "cluster", "cr", 0.5, math.inf)


@pytest.mark.parametrize("tol", [math.nan, -1e-9, math.inf])
def test_crossover_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tol"):
        find_crossover("psi-", "cluster", "cr", 0.8, 1.1, tol=tol)


def _decoherence_free(scheme, family):
    """The fidelity stays 1 at 32 points over the family's natural range."""
    grid = np.linspace(*parameter_range(family), 32)
    return bool(np.all(np.abs(compile_fidelity(scheme, family)(grid) - 1.0) < 1e-9))


@pytest.mark.parametrize(
    "scheme,family",
    [
        ("phi+", "cd"),
        ("phi-", "cd"),
        ("psi+", "cr"),
        ("phi-", "cr"),
        ("w", "cd"),
    ],
)
def test_decoherence_free_states(scheme, family):
    assert _decoherence_free(scheme, family)


@pytest.mark.parametrize(
    "scheme,family",
    [
        ("psi+", "cd"),
        ("psi-", "cr"),
        ("w", "cr"),
        ("cluster", "ad"),
        ("bb84", "pd"),
    ],
)
def test_not_decoherence_free(scheme, family):
    assert not _decoherence_free(scheme, family)


def test_decoherence_free_consistent_with_sweep():
    (report,) = sweep(("phi-",), "cd", 0.0, 2 * np.pi, 33)
    assert max(abs(f - 1.0) for f in report.simulated) < 1e-9


def test_recommend_cr_top_tie_group():
    ranking = recommend("cr", 0.7)
    assert [(rank, scheme) for rank, scheme, _ in ranking[:3]] == [(1, "phi-"), (1, "psi+"), (3, "bb84")]
    for _, _, fid in ranking[:2]:
        assert fid == pytest.approx(1.0, abs=1e-12)


def test_recommend_pd_prefers_bb84():
    ranking = recommend("pd", 0.5)
    assert ranking[0][:2] == (1, "bb84")
    assert ranking[0][2] == pytest.approx(0.586181640625, abs=1e-12)
    entangled_group = ranking[1:]
    assert [rank for rank, _, _ in entangled_group] == [2] * 5
    for _, scheme, fid in entangled_group:
        assert fid == scheme_fidelity(scheme, "pd", 0.5) == pytest.approx(0.390625, abs=1e-12)


def test_recommend_high_ad_prefers_parallel_bells():
    ranking = recommend("ad", 0.9)
    top = {scheme for rank, scheme, _ in ranking if rank == 1}
    assert top == {"psi+", "psi-"}
    assert ranking[0][2] == pytest.approx(0.255025, abs=1e-12)
    labels_in_order = [scheme for _, scheme, _ in ranking]
    assert labels_in_order.index("bb84") > labels_in_order.index("cluster")


def test_recommend_can_include_w_state():
    ranking = recommend("cd", 1.1, SCHEMES)
    top = {scheme for rank, scheme, _ in ranking if rank == 1}
    assert top == {"phi+", "phi-", "w"}


def test_recommend_ranks_apart_fidelities_just_past_a_crossing():
    # 1e-5 past the bb84/psi+ crossing under ad they differ by about 3e-6,
    # well above TIE_TOL, so a looser tie tolerance would merge their ranks
    eta = find_crossover("bb84", "psi+", "ad", 0.5, 0.65) + 1e-5
    rows = {scheme: (rank, fid) for rank, scheme, fid in recommend("ad", eta)}
    assert 0 < rows["psi+"][1] - rows["bb84"][1] < 1e-5
    assert rows["psi+"][0] == 1
    assert rows["bb84"][0] == 3


@settings(max_examples=25, deadline=None)
@given(st.permutations(list(TABLE_SCHEMES)))
def test_recommend_invariant_under_scheme_permutation(schemes):
    base = recommend("ad", 0.35)
    rows = recommend("ad", 0.35, tuple(schemes))
    assert rows == base
    assert sorted(scheme for _, scheme, _ in rows) == sorted(TABLE_SCHEMES)
    groups = [list(group) for _, group in itertools.groupby(rows, key=lambda row: row[0])]
    before = 0
    for group in groups:
        # each rank is 1 plus the number of rows before its group, and each group is sorted by label
        assert [rank for rank, _, _ in group] == [before + 1] * len(group)
        assert [scheme for _, scheme, _ in group] == sorted(scheme for _, scheme, _ in group)
        # a group is tied: from its best fidelity down, each is within TIE_TOL of the one before
        fids = sorted((fid for _, _, fid in group), reverse=True)
        assert all(x - y < TIE_TOL for x, y in itertools.pairwise(fids))
        before += len(group)
    for better, worse in itertools.pairwise(groups):
        # fidelities do not increase from one group to the next, and no two groups tie
        assert min(fid for _, _, fid in better) - max(fid for _, _, fid in worse) >= TIE_TOL


@pytest.mark.parametrize(
    "scheme,family,upper",
    [
        ("bb84", "ad", 1.0),
        ("bb84", "pd", 1.0),
        ("phi+", "ad", 1.0),
        ("phi-", "ad", 1.0),
        # the cluster AD polynomial has a stationary minimum near 0.819 and
        # rises again toward 0.25, so it is only monotone up to that point
        ("cluster", "ad", 0.8),
    ],
)
def test_fidelity_monotone_where_closed_form_is_monotone(scheme, family, upper):
    grid = np.linspace(0.0, upper, 21)
    values = [scheme_fidelity(scheme, family, p) for p in grid]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_cluster_ad_rises_again_after_its_minimum():
    # 2 eta^3 - 3 eta^2 + 6 eta - 4 = 0 near 0.819 marks the turning point
    low = scheme_fidelity("cluster", "ad", 0.819)
    assert scheme_fidelity("cluster", "ad", 1.0) == pytest.approx(0.25, abs=1e-12)
    assert low < 0.25 - 1e-3


@pytest.mark.parametrize("bad", [int, ["ad"]], ids=["class", "unhashable"])
@pytest.mark.parametrize(
    "call",
    [
        lambda bad: decoynoise.fidelity.compile_fidelity("psi+", bad),
        lambda bad: scheme_fidelity("psi+", bad, 0.5),
        lambda bad: grid_report("cluster", bad, [0.5]),
        lambda bad: sweep(("psi+",), bad, 0.0, 1.0, 5),
        lambda bad: find_crossover("bb84", "psi+", bad, 0.3, 0.9),
        lambda bad: recommend(bad, 0.5),
        lambda bad: closed_form_grid("w", bad, [0.5]),
        lambda bad: parameter_range(bad),
        lambda bad: transfer_weights(bad, [0.5]),
        lambda bad: apply_noise(DensityMatrix(np.eye(2) / 2), bad, 0.5),
    ],
    ids=[
        "compile_fidelity",
        "scheme_fidelity",
        "grid_report",
        "sweep",
        "find_crossover",
        "recommend",
        "closed_form_grid",
        "parameter_range",
        "transfer_weights",
        "apply_noise",
    ],
)
def test_unknown_noise_family_is_a_value_error_every_time(call, bad):
    # twice, since a memoised function does not remember a raised exception
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^unknown noise family {re.escape(repr(bad))}$"):
            call(bad)


@pytest.mark.parametrize("bad", ["ghz", ["ghz"]], ids=["label", "unhashable"])
@pytest.mark.parametrize(
    "call",
    [
        lambda bad: decoynoise.fidelity.compile_fidelity(bad, "ad"),
        lambda bad: scheme_fidelity(bad, "ad", 0.5),
        lambda bad: sweep(("psi+", bad), "ad", 0.0, 1.0, 5),
        lambda bad: find_crossover("bb84", bad, "ad", 0.3, 0.9),
        lambda bad: recommend("ad", 0.5, ("psi+", bad)),
        lambda bad: grid_report(bad, "ad", [0.5]),
        # an unknown label must not fall through to the W state's None
        lambda bad: closed_form_grid(bad, "ad", [0.5]),
    ],
    ids=["compile_fidelity", "scheme_fidelity", "sweep", "find_crossover", "recommend", "grid_report", "closed_form_grid"],
)
def test_unknown_scheme_is_a_value_error_every_time(call, bad):
    expected = f"unknown scheme {bad!r}; expected bb84, psi+, psi-, phi+, phi-, cluster or w"
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            call(bad)
