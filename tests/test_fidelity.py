"""Fidelity metric, closed forms, BB84 averaging and the table verifier."""

import ast
import functools
import importlib
import inspect
import math
import re
import struct
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoynoise.channels import FAMILIES, parameter_grid, parameter_range, point_weight, weight
from decoynoise.cli import run
from decoynoise.fidelity import (
    TABLE_SCHEMES,
    Polynomial,
    _compile,
    closed_form,
    compile_fidelity,
    grid_report,
    scheme_fidelity,
    verify_table,
)
from decoynoise.linalg import AMPLITUDES, ATOL, SINGLES, PureState, apply_noise, fidelity, tensor_product
from decoynoise.states import SCHEMES, SINGLE_LABELS

from conftest import bell_state

fidelity_mod = importlib.import_module("decoynoise.fidelity")

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
    together = grid_report((scheme,), family, grid)[0][0]
    alone = [grid_report((scheme,), family, [p])[0][0][0] for p in grid]
    np.testing.assert_allclose(together, alone, rtol=0.0, atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
    st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=30),
)
def test_w_state_follows_its_derived_forms(rates, angles):
    eta, phi = np.array(rates), np.array(angles)
    assert np.abs(grid_report(("w",), "ad", eta)[0][0] - (1.0 - eta)).max() <= 1e-14
    assert np.abs(grid_report(("w",), "pd", eta)[0][0] - (1.0 + 2.0 * (1.0 - eta) ** 2) / 3.0).max() <= 1e-14
    assert np.abs(grid_report(("w",), "cd", phi)[0][0] - 1.0).max() <= 1e-14
    c = np.cos(2.0 * phi)
    assert np.abs(grid_report(("w",), "cr", phi)[0][0] - (1.0 + c) * (3.0 * c - 1.0) ** 2 / 8.0).max() <= 1e-14


def scalar_closed_form(scheme, family, x):
    """The closed-form table one point at a time, as Python floats: the reference for closed_form."""
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
def test_closed_form_matches_scalar_reference(rates, angles):
    for family in FAMILIES:
        grid = rates if family in ("ad", "pd") else angles
        for scheme in TABLE_SCHEMES:
            reference = np.array([scalar_closed_form(scheme, family, p) for p in grid])
            closed = closed_form(scheme, family, parameter_grid(family, grid))
            # the cluster polynomial under ad cancels terms of size up to 4
            # down to about 0.2, so its rounding is counted in ulps of 1
            scale = 1.0 if (scheme, family) == ("cluster", "ad") else np.abs(reference)
            assert np.all(np.abs(closed - reference) <= 4 * np.spacing(scale)), (scheme, family)
        assert closed_form("w", family, parameter_grid(family, grid)) is None


def test_closed_form_parameters_outside_the_family_range_are_rejected():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        closed_form("cluster", "ad", parameter_grid("ad", [0.5, 1.5]))
    with pytest.raises(ValueError, match="finite"):
        closed_form("cluster", "cr", parameter_grid("cr", [0.5, np.nan]))


def test_grid_report_is_the_simulated_and_closed_form_arrays():
    grid = np.linspace(0.0, 1.0, 5)
    [(simulated, closed), (w_simulated, w_closed)] = grid_report(("cluster", "w"), "ad", grid)
    assert simulated.tolist() == grid_report(("cluster",), "ad", grid)[0][0].tolist()
    assert closed.tolist() == closed_form("cluster", "ad", parameter_grid("ad", grid)).tolist()
    for values in (simulated, closed):
        assert values.dtype == np.float64 and values.shape == (5,)
    assert grid.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert w_simulated.shape == (5,) and w_closed is None


@settings(max_examples=40, deadline=None)
@given(fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_shared_weights_give_the_bits_of_each_scheme_alone(fractions):
    for family in FAMILIES:
        lo, hi = parameter_range(family)
        grid = lo + (hi - lo) * np.array(fractions)
        shared = []

        def recording(scheme, family):
            compiled = compile_fidelity(scheme, family)

            def evaluate(w, total):
                shared.append((w, total))
                return compiled.evaluate(w, total)

            return compiled._replace(evaluate=evaluate)

        with mock.patch.object(fidelity_mod, "compile_fidelity", recording):
            cells = grid_report(SCHEMES, family, grid)
        for scheme, (simulated, closed) in zip(SCHEMES, cells, strict=True):
            assert simulated.tobytes() == grid_report((scheme,), family, grid)[0][0].tobytes()
            expected = closed_form(scheme, family, parameter_grid(family, grid))
            assert closed is None if expected is None else closed.tobytes() == expected.tobytes()
        # one evaluation per distinct polynomial, all on one weight and zero array, as they were before the first
        distinct = {(compile_fidelity(s, family).terms, compile_fidelity(s, family).power) for s in SCHEMES}
        assert len(shared) == len(distinct) and len({tuple(map(id, arrays)) for arrays in shared}) == 1
        (w, total), fresh = shared[0], weight(family, parameter_grid(family, grid), np)
        assert w.tobytes() == fresh.tobytes() and total.tobytes() == np.zeros_like(fresh).tobytes()


def _evaluating(values):
    """A stand-in for compile_fidelity whose polynomials evaluate to `values` at any weights."""
    return lambda scheme, family: Polynomial((), 1, lambda w, total: values)


@pytest.mark.parametrize("bad", [1.5, -0.5, math.nan, 1.0 + 2 * ATOL, -2 * ATOL, math.inf, -math.inf])
def test_grid_report_rejects_a_simulated_fidelity_outside_the_unit_interval(monkeypatch, bad):
    monkeypatch.setattr(fidelity_mod, "compile_fidelity", _evaluating(np.array([1.0, bad])))
    with pytest.raises(ValueError, match=f"^simulated fidelity {re.escape(str(bad))} outside \\[0, 1\\]$"):
        grid_report(("cluster",), "ad", [0.0, 1.0])


@pytest.mark.parametrize("values, first", [
    ([0.5, 1.5, -0.5, 2.0], 1.5),  # neither the minimum nor the maximum
    ([math.nan, 0.5, 1.0, 0.0], math.nan),
    ([0.5, 1.0, math.nan, 0.0], math.nan),
    ([0.5, 1.0, 0.0, math.nan], math.nan),
    ([0.5, math.nan, 2.0, -1.0], math.nan),
    ([0.5, -math.inf, math.nan, math.inf], -math.inf),
])
def test_grid_report_names_the_first_outside_value_in_grid_order(monkeypatch, values, first):
    monkeypatch.setattr(fidelity_mod, "compile_fidelity", _evaluating(np.array(values)))
    with pytest.raises(ValueError, match=f"^simulated fidelity {re.escape(str(first))} outside \\[0, 1\\]$"):
        grid_report(("cluster",), "ad", [0.0, 0.25, 0.5, 1.0])


def test_grid_report_of_an_empty_grid_is_empty_arrays():
    for family in FAMILIES:
        cells = grid_report(SCHEMES, family, [])
        assert len(cells) == len(SCHEMES)
        for scheme, (simulated, closed) in zip(SCHEMES, cells):
            assert simulated.shape == (0,) and simulated.dtype == np.float64
            assert closed is None if scheme == "w" else closed.shape == (0,)


def test_each_distinct_polynomial_is_evaluated_once_per_grid(capsys):
    calls = []

    def counting(scheme, family):
        compiled = compile_fidelity(scheme, family)

        def evaluate(w, total):
            calls.append(family)
            return compiled.evaluate(w, total)

        return compiled._replace(evaluate=evaluate)

    with mock.patch.object(fidelity_mod, "compile_fidelity", counting):
        verify_table(11)
    assert len(calls) == 13 and calls.count("pd") == 2
    # psi+ and psi- tie under amplitude damping: one array, which no scheme can write into
    (psi_plus, _), (psi_minus, _) = grid_report(("psi+", "psi-"), "ad", np.linspace(0.0, 1.0, 5))
    assert psi_plus is psi_minus
    with pytest.raises(ValueError, match="read-only"):
        psi_plus[0] = 0.5
    # a scheme given twice shares its array with itself and prints its rows twice
    assert run(["sweep", "--noise", "ad", "--schemes", "psi+", "--grid", "5"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert run(["sweep", "--noise", "ad", "--schemes", "psi+,psi+", "--grid", "5"]) == 0
    assert capsys.readouterr().out.splitlines() == [header, *rows, *rows]


def test_grid_report_allows_rounding_within_atol_of_the_unit_interval(monkeypatch):
    edges = np.array([-ATOL, 0.0, 1.0, 1.0 + ATOL])
    monkeypatch.setattr(fidelity_mod, "compile_fidelity", _evaluating(edges))
    [(simulated, _)] = grid_report(("cluster",), "ad", [0.0, 0.25, 0.5, 1.0])
    assert simulated is edges


def test_closed_form_takes_every_power_as_repeated_products():
    # numpy's ** on an array may run a SIMD pow whose last bit differs between
    # CPUs; an IEEE product rounds the same at every SIMD width
    tree = ast.parse(inspect.getsource(closed_form))
    powers = [node for node in ast.walk(tree) if isinstance(node, ast.Pow)]
    assert not powers, f"closed_form takes {len(powers)} power(s) with **"


def test_closed_form_spot_values():
    phis = [0.3, 1.0, 2.2]
    closed = closed_form("psi+", "cd", parameter_grid("cd", phis))
    np.testing.assert_allclose(closed, np.cos(phis) ** 4, rtol=0, atol=ATOL)
    assert closed_form("cluster", "ad", parameter_grid("ad", [1.0]))[0] == pytest.approx(0.25, abs=ATOL)
    assert closed_form("bb84", "cr", parameter_grid("cr", [np.pi / 4]))[0] == pytest.approx(0.0625, abs=ATOL)


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
    rows = verify_table(11)
    assert len(rows) == 24
    for _, _, deviation, _ in rows:
        assert deviation < 1e-12


@pytest.mark.parametrize("grid_size", [2, 7, 101])
def test_verify_table_rows_are_each_cell_reduced(grid_size):
    rows = verify_table(grid_size)
    assert [row[:2] for row in rows] == [(scheme, family) for family in FAMILIES for scheme in TABLE_SCHEMES]
    for scheme, family, deviation, parameter in rows:
        grid = np.linspace(*parameter_range(family), grid_size)
        [(simulated, closed)] = grid_report((scheme,), family, grid)
        gap = np.abs(simulated - closed)
        assert type(deviation) is float and type(parameter) is float
        assert deviation == np.max(gap)
        assert parameter == grid[np.argmax(gap)]


def test_verify_table_endpoint_grid():
    ad_rows = [row for row in verify_table(2) if row[1] == "ad"]
    assert len(ad_rows) == 6
    for scheme, _, _, parameter in ad_rows:
        assert parameter in (0.0, 1.0)
        [(simulated, _)] = grid_report((scheme,), "ad", np.linspace(0.0, 1.0, 2))
        assert simulated[0] == pytest.approx(1.0, abs=1e-12)


def test_verify_table_rejects_degenerate_grid():
    with pytest.raises(ValueError, match=">= 2"):
        verify_table(1)


def _assert_memo_matches_a_fresh_compile(scheme, family, fractions):
    lo, hi = parameter_range(family)
    grid = lo + (hi - lo) * np.array(fractions)
    memoised = compile_fidelity(scheme, family)
    assert compile_fidelity(scheme, family) is memoised
    w = weight(family, parameter_grid(family, grid), np)
    fresh = _compile.__wrapped__(scheme, family)
    assert memoised.evaluate(w, np.zeros_like(w)).tobytes() == fresh.evaluate(w, np.zeros_like(w)).tobytes()


_FRACTIONS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40)


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("scheme", SCHEMES)
@settings(max_examples=10, deadline=None)
@given(fractions=_FRACTIONS)
def test_memoised_compile_gives_the_bits_of_a_fresh_compile(scheme, family, fractions):
    _assert_memo_matches_a_fresh_compile(scheme, family, fractions)



# The exact oracle for the compiled coefficients: stdlib fractions only, and
# nothing from the package but the compiled result. A polynomial is a dict
# {(j, k, m): Fraction} for the monomial w1^j w2^k i^m, i the imaginary unit.
_ORACLE_BELLS = {"psi+": (1, 0, 0, 1), "psi-": (1, 0, 0, -1), "phi+": (0, 1, 1, 0), "phi-": (0, 1, -1, 0)}
_ORACLE_STATES = {
    # two copies of the Bell state, on qubits (1, 2) and (3, 4)
    **{label: tuple(x * y for x in bell for y in bell) for label, bell in _ORACLE_BELLS.items()},
    "cluster": (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, -1),
    "w": (0, 1, 1, 0, 1, 0, 0, 0),
}
_ORACLE_SINGLES = ((1, 0), (0, 1), (1, 1), (1, -1))
_ONE, _W1, _W2, _I = ((0, 0, 0), 1), ((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1)

# Each family's Kraus operators, or its one unitary, with symbolic entries;
# and the product of an entry with the conjugate of another, written in the
# weights w1 and w2 of the channels docstring by an exact identity: for ad,
# r = sqrt(1-eta) = w1 and s = sqrt(eta), so r r = 1 - w2 and s s = w2; for
# pd, k = sqrt(1-eta), so k k = w1 and s s = 1 - w1; for cd, e = exp(i phi)
# = w1 + i w2 and e conj(e) = 1; for cr, cos^2 t = (1 + w1)/2,
# sin^2 t = (1 - w1)/2 and cos t sin t = w2/2.
_ORACLE_CHANNELS = {
    "ad": ([["1", "0"], ["0", "r"]], [["0", "s"], ["0", "0"]]),
    "pd": ([["k", "0"], ["0", "k"]], [["s", "0"], ["0", "0"]], [["0", "0"], ["0", "s"]]),
    "cd": ([["1", "0"], ["0", "e"]],),
    "cr": ([["c", "-s"], ["s", "c"]],),
}
_HALF = Fraction(1, 2)
_ORACLE_PRODUCTS = {
    "ad": {("1", "1"): [_ONE], ("1", "r"): [_W1], ("r", "1"): [_W1], ("r", "r"): [_ONE, (_W2[0], -1)], ("s", "s"): [_W2]},
    "pd": {("k", "k"): [_W1], ("s", "s"): [_ONE, (_W1[0], -1)]},
    "cd": {("1", "1"): [_ONE], ("e", "e"): [_ONE], ("e", "1"): [_W1, ((0, 1, 1), 1)], ("1", "e"): [_W1, ((0, 1, 1), -1)]},
    "cr": {
        ("c", "c"): [(_ONE[0], _HALF), (_W1[0], _HALF)],
        ("s", "s"): [(_ONE[0], _HALF), (_W1[0], -_HALF)],
        ("c", "s"): [(_W2[0], _HALF)],
        ("s", "c"): [(_W2[0], _HALF)],
    },
}


def _oracle_product(p, q):
    out = {}
    for (j1, k1, m1), a in p.items():
        for (j2, k2, m2), b in q.items():
            key, sign = (j1 + j2, k1 + k2, (m1 + m2) % 2), -1 if m1 + m2 == 2 else 1
            out[key] = out.get(key, 0) + sign * a * b
    return out


def _entry_product(family, x, y):
    """x conj(y) for two symbolic entries, as a polynomial."""
    if "0" in (x, y):
        return {}
    sign = (-1 if x.startswith("-") else 1) * (-1 if y.startswith("-") else 1)
    return {monomial: sign * Fraction(c) for monomial, c in _ORACLE_PRODUCTS[family][x.lstrip("-"), y.lstrip("-")]}


def _oracle_polynomial(vec, family):
    """<psi| E^(x n)(|psi><psi|) |psi> for the integer vector psi, exactly, as {(j, k): Fraction}."""
    n = len(vec).bit_length() - 1
    bit = lambda index, q: index >> (n - 1 - q) & 1  # noqa: E731
    # S[(i, j), (k, l)] = sum over branches E of E_ik conj(E_jl), one qubit's map rho'_ij = S rho_kl
    transfer = {}
    for i, j, k, l in product(range(2), repeat=4):
        total = {}
        for op in _ORACLE_CHANNELS[family]:
            for monomial, c in _entry_product(family, op[i][k], op[j][l]).items():
                total[monomial] = total.get(monomial, 0) + c
        transfer[i, j, k, l] = total
    support = [index for index, x in enumerate(vec) if x]
    result = {}
    for i, j, k, l in product(support, repeat=4):
        term = {(0, 0, 0): Fraction(vec[i] * vec[j] * vec[k] * vec[l])}
        for q in range(n):
            term = _oracle_product(term, transfer[bit(i, q), bit(j, q), bit(k, q), bit(l, q)])
        for monomial, c in term.items():
            result[monomial] = result.get(monomial, 0) + c
    norm = sum(x * x for x in vec)
    assert not any(c for (_, _, m), c in result.items() if m), "imaginary part left over"
    return {(j, k): c / norm**2 for (j, k, m), c in result.items() if not m}


def _exact_coefficients(scheme, family):
    """The exact coefficients of the polynomial that is raised to the compiled power: bb84's is the mean single one."""
    vectors = _ORACLE_SINGLES if scheme == "bb84" else [_ORACLE_STATES[scheme]]
    exact = {}
    for vec in vectors:
        for monomial, c in _oracle_polynomial(vec, family).items():
            exact[monomial] = exact.get(monomial, 0) + c / len(vectors)
    return exact


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_compiled_coefficients_are_the_exact_rationals_rounded_once(scheme, family):
    # the oracle in w1 and w2, reduced as the compile reduces it: no power of w2 is left
    exact = _reduced(_Poly(_exact_coefficients(scheme, family)), family)
    assert all(k == 0 for _, k in exact)
    compiled = compile_fidelity(scheme, family)
    assert compiled.power == (4 if scheme == "bb84" else 1)
    # every nonzero rational, correctly rounded, and no coefficient that is exactly 0
    assert list(compiled.terms) == sorted((j, float(c)) for (j, _), c in exact.items() if c)
    assert all(c != 0.0 for _, c in compiled.terms)


def test_a_surviving_odd_power_of_the_second_weight_raises(monkeypatch):
    # a rotation that takes Z to X but not X to Z leaves F odd in sin 2t for a state in the X-Z plane
    one_sided = ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0, 0))
    monkeypatch.setattr(fidelity_mod, "TRANSFER_BASIS", {"cr": (*fidelity_mod.TRANSFER_BASIS["cr"][:2], one_sided)})
    monkeypatch.setattr(fidelity_mod, "INT_STATES", {"w": (2, 1)})
    with pytest.raises(ValueError, match="^the fidelity of w under cr keeps an odd power of its second weight$"):
        _compile.__wrapped__("w", "cr")


def test_exact_oracle_matches_the_closed_forms():
    # the oracle's own check, against two closed forms of the table
    exact = _exact_coefficients("cluster", "pd")
    w1 = Fraction(1, 2)  # 1 - eta at eta = 1/2
    assert sum(c * w1**j for (j, _), c in exact.items()) == Fraction(25, 64)  # (2 - 1 + 1/4)^2 / 4
    # (1 - eta)^2 at eta = 1/4, where w1 = sqrt(3/4) enters in even powers only
    exact = _exact_coefficients("phi+", "ad")
    assert all(j % 2 == 0 for j, _ in exact)
    assert sum(c * Fraction(3, 4) ** (j // 2) * Fraction(1, 4) ** k for (j, k), c in exact.items()) == Fraction(9, 16)


class _Poly(dict):
    """An exact polynomial {(j, k): Fraction} in w1 and w2 with no zero coefficient, and its arithmetic."""

    @staticmethod
    def of(x):
        return x if isinstance(x, _Poly) else _Poly({(0, 0): Fraction(x)} if x else {})

    def __add__(self, other):
        out = dict(self)
        for monomial, c in _Poly.of(other).items():
            out[monomial] = out.get(monomial, 0) + c
        return _Poly({monomial: c for monomial, c in out.items() if c})

    def __mul__(self, other):
        out = _Poly()
        for (j1, k1), a in self.items():
            for (j2, k2), b in _Poly.of(other).items():
                out += _Poly({(j1 + j2, k1 + k2): a * b})
        return out

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -_Poly.of(other)

    def __rsub__(self, other):
        return -self + other

    def __truediv__(self, d):
        return self * Fraction(1, d)

    def __pow__(self, n):
        return math.prod([self] * n, start=_Poly.of(1))

    __radd__, __rmul__ = __add__, __mul__


_PW1, _PW2 = _Poly({(1, 0): Fraction(1)}), _Poly({(0, 1): Fraction(1)})

# The closed forms of fidelity's docstring table, one per (family, scheme),
# written out apart from closed_form in each family's variables, which
# _CLOSED_FORM_VARIABLES gives in the transfer weights: e = eta and
# r = sqrt(1 - e) (ad), e (pd), c = cos phi (cd), c = cos 2t and cos^2 t (cr).
_CLOSED_FORM_TABLE = {
    "ad": {
        "bb84": lambda e, r: (3 + r - e) ** 4 / 256,
        "psi+": lambda e, r: (2 - 2 * e + e**2) ** 2 / 4,
        "psi-": lambda e, r: (2 - 2 * e + e**2) ** 2 / 4,
        "phi+": lambda e, r: (1 - e) ** 2,
        "phi-": lambda e, r: (1 - e) ** 2,
        "cluster": lambda e, r: (4 - 8 * e + 6 * e**2 - 2 * e**3 + e**4) / 4,
        "w": lambda e, r: 1 - e,
    },
    "pd": {
        "bb84": lambda e: (e - 4) ** 4 / 256,
        "psi+": lambda e: (2 - 2 * e + e**2) ** 2 / 4,
        "psi-": lambda e: (2 - 2 * e + e**2) ** 2 / 4,
        "phi+": lambda e: (2 - 2 * e + e**2) ** 2 / 4,
        "phi-": lambda e: (2 - 2 * e + e**2) ** 2 / 4,
        "cluster": lambda e: (2 - 2 * e + e**2) ** 2 / 4,
        "w": lambda e: (1 + 2 * (1 - e) ** 2) / 3,
    },
    "cd": {
        "bb84": lambda c: (3 + c) ** 4 / 256,
        "psi+": lambda c: c**4,
        "psi-": lambda c: c**4,
        "phi+": lambda c: 1,
        "phi-": lambda c: 1,
        "cluster": lambda c: c**4,
        "w": lambda c: 1,
    },
    "cr": {
        "bb84": lambda c, cos_sq: cos_sq**4,
        "psi+": lambda c, cos_sq: 1,
        "psi-": lambda c, cos_sq: c**4,
        "phi+": lambda c, cos_sq: c**4,
        "phi-": lambda c, cos_sq: 1,
        "cluster": lambda c, cos_sq: cos_sq**4,
        "w": lambda c, cos_sq: (1 + c) * (3 * c - 1) ** 2 / 8,
    },
}
_CLOSED_FORM_VARIABLES = {"ad": (_PW2, _PW1), "pd": (1 - _PW1,), "cd": (_PW1,), "cr": (_PW1, (1 + _PW1) / 2)}

# Each family's one relation between its weights, w2^e = 1 - w1^2, in the
# direction the compile uses it, as e: w2 = 1 - w1^2 (ad), w2^2 = 1 - w1^2 (cd,
# cr); pd has w1 alone. Using it until w2 has degree below e gives a polynomial
# function its one form.
_RELATIONS = {"ad": 1, "cd": 2, "cr": 2}
_CELLS = [(scheme, family) for family in FAMILIES for scheme in SCHEMES]


def _reduced(poly, family):
    if family not in _RELATIONS:
        return poly
    e, out = _RELATIONS[family], _Poly()
    for (j, k), c in poly.items():
        out += _Poly({(j, k % e): c}) * (1 - _PW1 * _PW1) ** (k // e)
    return out


@functools.cache
def _reduced_oracle(scheme, family):
    return _reduced(_Poly(_exact_coefficients(scheme, family)) ** (4 if scheme == "bb84" else 1), family)


def _reduced_closed_form(table, scheme, family):
    return _reduced(_Poly.of(table[family][scheme](*_CLOSED_FORM_VARIABLES[family])), family)


def _failing_cells(table):
    """The cells whose closed form in table is not the exact oracle's polynomial."""
    return [cell for cell in _CELLS if _reduced_closed_form(table, *cell) != _reduced_oracle(*cell)]


@pytest.mark.parametrize("scheme, family", _CELLS)
def test_closed_form_is_an_exact_polynomial_identity(scheme, family):
    assert _reduced_closed_form(_CLOSED_FORM_TABLE, scheme, family) == _reduced_oracle(scheme, family)


@pytest.mark.parametrize("scheme, family", _CELLS)
def test_a_wrong_coefficient_fails_exactly_its_own_cell(scheme, family):
    right = _CLOSED_FORM_TABLE[family][scheme]

    def planted(*variables):
        form = _Poly.of(right(*variables))
        top = max(form)  # the coefficient of its highest monomial, off by one part in 2^20
        return form + _Poly({top: form[top] / 2**20})

    table = {f: dict(forms) for f, forms in _CLOSED_FORM_TABLE.items()}
    table[family][scheme] = planted
    assert _failing_cells(table) == [(scheme, family)]


def _bits(values):
    return [struct.pack("<d", value) for value in values]


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("scheme", SCHEMES)
@settings(max_examples=25, deadline=None)
@given(points=st.lists(st.floats(0.0, 1.0), max_size=20), angles=st.lists(st.floats(-20.0, 20.0), max_size=20))
def test_a_float_has_the_bits_of_the_same_point_of_a_grid(scheme, family, points, angles):
    grid = [0.0, 1.0, *points] if FAMILIES[family] == "eta" else [0.0, *angles]
    compiled = compile_fidelity(scheme, family)
    at_each = [scheme_fidelity(scheme, family, value) for value in grid]
    assert all(type(value) is float for value in at_each)
    assert _bits(at_each) == _bits(grid_report((scheme,), family, grid)[0][0].tolist())
    assert _bits(at_each) == _bits(compiled.evaluate(point_weight(family, value), 0.0) for value in grid)


def _loop_evaluate(compiled, w, total):
    """The reference evaluator: one generic loop over a Polynomial's terms, for floats and arrays alike."""
    powers = [1.0, w]
    for j, c in compiled.terms:
        while len(powers) <= j:
            powers.append(powers[-1] * w)
        total = total + c * powers[j]
    result = total
    for _ in range(compiled.power - 1):
        result = result * total
    return result


# each family's parameters: both signed zeros, the rate endpoints, and the drawn ones
_EDGES = {"eta": [0.0, -0.0, 1.0], "phi": [0.0, -0.0], "theta": [0.0, -0.0]}
_VALUES = {"eta": st.floats(0.0, 1.0), "phi": st.floats(-20.0, 20.0), "theta": st.floats(-20.0, 20.0)}


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("scheme", SCHEMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_straight_line_code_has_the_bits_of_the_loop_over_the_terms(scheme, family, data):
    edges, values = _EDGES[FAMILIES[family]], _VALUES[FAMILIES[family]]
    value = data.draw(st.one_of(st.sampled_from(edges), values), label="value")
    grid = edges + data.draw(st.lists(values, max_size=20), label="grid")
    compiled = compile_fidelity(scheme, family)
    loop_value = _loop_evaluate(compiled, point_weight(family, value), 0.0)
    assert _bits([scheme_fidelity(scheme, family, value)]) == _bits([loop_value])
    w = weight(family, parameter_grid(family, grid), np)
    expected = _loop_evaluate(compiled, w, np.zeros_like(w))
    assert grid_report((scheme,), family, grid)[0][0].tobytes() == expected.tobytes()
    assert _bits(scheme_fidelity(scheme, family, p) for p in grid) == _bits(expected.tolist())


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_scheme_is_exactly_one_without_noise(scheme, family):
    assert scheme_fidelity(scheme, family, 0.0) == 1.0
    assert grid_report((scheme,), family, [0.0, 0.0])[0][0].tolist() == [1.0, 1.0]


# The cells of acceptance criterion 2, whose fidelity is 1 at every parameter.
_DECOHERENCE_FREE = {("phi+", "cd"), ("phi-", "cd"), ("w", "cd"), ("psi+", "cr"), ("phi-", "cr")}


@pytest.mark.parametrize("scheme, family", _CELLS)
@settings(max_examples=50, deadline=None)
@given(rates=st.lists(st.floats(0.0, 1.0), max_size=30), angles=st.lists(st.floats(-20.0, 20.0), max_size=30))
def test_a_simulated_fidelity_lies_in_the_unit_interval(scheme, family, rates, angles):
    grid = [0.0, *(rates if FAMILIES[family] == "eta" else angles)]
    simulated = grid_report((scheme,), family, grid)[0][0]
    assert simulated[0] == 1.0 and simulated.max() <= 1.0
    # cluster under cr rounds below 0 where cos^8 t nears 0, until ROADMAP item 2's stage B writes it in t
    assert (scheme, family) == ("cluster", "cr") or simulated.min() >= 0.0
    assert (scheme, family) not in _DECOHERENCE_FREE or simulated.tolist() == [1.0] * len(grid)


# Where a fidelity is near 0 its closed form is easy to lose to cancellation
# (1 - 2 eta + eta^2 at eta -> 1 under the two-weight expansion read 0.31 off);
# the one-weight polynomials keep a few ulps of relative accuracy there. Cluster
# and W under cr still cancel, near cos 2t = -1 and 1/3: writing them in t
# rather than 2t is left to ROADMAP item 2's stage B.
_CANCELLING = {("cluster", "cr"), ("w", "cr")}


def _points_where_fidelities_vanish(family):
    """A 20001-point grid of the family's range, and 1 - 2^-k for rates, or angles near pi/4 and pi/2."""
    grid = list(np.linspace(*parameter_range(family), 20001))
    if FAMILIES[family] == "eta":
        return grid + [1.0 - 2.0**-k for k in range(1, 53)]
    centres = (math.pi / 4, math.pi / 2)
    near = [c + s * 10.0**-k for c in centres for s in (-1, 1) for k in range(1, 17)]
    return grid + near + [c + i * math.ulp(c) for c in centres for i in range(-20, 21)]


@pytest.mark.parametrize("scheme, family", [cell for cell in _CELLS if cell not in _CANCELLING])
def test_a_small_fidelity_is_within_a_few_ulps_of_its_exact_polynomial(scheme, family):
    grid = _points_where_fidelities_vanish(family)
    w = weight(family, parameter_grid(family, grid), np)
    simulated = grid_report((scheme,), family, grid)[0][0]
    exact, power = _reduced(_Poly(_exact_coefficients(scheme, family)), family), 4 if scheme == "bb84" else 1
    # the exact value at the same float weight, where the float is below 1e-2: a margin that
    # lets no point with an exact value below 1e-3 escape unless its error is 10 times that value
    for x, value in zip(w[simulated < 1e-2].tolist(), simulated[simulated < 1e-2].tolist()):
        at = sum(c * Fraction(x) ** j for (j, _), c in exact.items()) ** power
        if at < Fraction(1, 1000):
            assert abs(Fraction(value) - at) <= 4 * Fraction(math.ulp(float(at))), (x, value, float(at))
