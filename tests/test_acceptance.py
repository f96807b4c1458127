"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.
"""

import importlib
import time

import numpy as np
import pytest

from decoynoise.analysis import find_crossover
from decoynoise.channels import apply_kraus_channel, apply_noise, kraus_ad, kraus_pd
from decoynoise.cli import run
from decoynoise.eavesdrop import intercept_resend_bb84, wrong_pair_bell_attack
from decoynoise.fidelity import closed_form_grid, compile_fidelity, scheme_fidelity, verify_table
from decoynoise.states import BELL_LABELS

from conftest import random_density
from test_eavesdrop import oracle_wrong_pair

fidelity_mod = importlib.import_module("decoynoise.fidelity")


def _ok(n, text):
    print(f"ACCEPTANCE {n}: {text} PASS")


def test_criterion_1_table_oracle_equivalence():
    start = time.perf_counter()
    reports = verify_table(21)
    elapsed = time.perf_counter() - start
    worst = max(r.max_abs_deviation for r in reports)
    assert len(reports) == 24
    assert worst < 1e-12
    assert elapsed < 5.0
    _ok(1, f"all 24 cells deviate < 1e-12 (worst {worst:.2e}) in {elapsed:.2f}s")


def test_criterion_2_decoherence_free_suite():
    cases = [
        ("phi+", "cd", np.linspace(0, 2 * np.pi, 21)),
        ("phi-", "cd", np.linspace(0, 2 * np.pi, 21)),
        ("psi+", "cr", np.linspace(0, 2 * np.pi, 21)),
        ("phi-", "cr", np.linspace(0, 2 * np.pi, 21)),
        ("w", "cd", np.linspace(0, 2 * np.pi, 21)),
    ]
    for scheme, family, grid in cases:
        assert np.abs(compile_fidelity(scheme, family)(grid) - 1.0).max() <= 1e-12
    _ok(2, "five decoherence-free (scheme, channel) pairs hold fidelity 1")


def test_criterion_3_pd_equivalence():
    entangled = ["psi+", "psi-", "phi+", "phi-", "cluster"]
    for eta in np.linspace(0.0, 1.0, 21):
        values = [scheme_fidelity(s, "pd", eta) for s in entangled]
        assert max(values) - min(values) <= 1e-12
    _ok(3, "all five entangled schemes agree under phase damping")


def test_criterion_4_cr_equivalence():
    for theta in np.linspace(0.0, 2 * np.pi, 21):
        assert abs(scheme_fidelity("bb84", "cr", theta) - scheme_fidelity("cluster", "cr", theta)) <= 1e-12
        assert abs(scheme_fidelity("psi-", "cr", theta) - scheme_fidelity("phi+", "cr", theta)) <= 1e-12
    _ok(4, "BB84 average equals cluster and psi- equals phi+ under rotation")


def test_criterion_5_ad_ordering():
    for eta in np.arange(0.05, 0.96, 0.05):
        psi = scheme_fidelity("psi+", "ad", eta)
        cluster = scheme_fidelity("cluster", "ad", eta)
        phi = scheme_fidelity("phi+", "ad", eta)
        assert psi > cluster > phi
    assert scheme_fidelity("psi+", "ad", 1.0) == pytest.approx(0.25, abs=1e-12)
    assert scheme_fidelity("cluster", "ad", 1.0) == pytest.approx(0.25, abs=1e-12)
    _ok(5, "psi > cluster > phi strictly on (0,1) and both hit 0.25 at eta=1")


def test_criterion_6_ad_crossover():
    root = find_crossover("bb84", "psi+", "ad", 0.3, 0.9)
    assert 0.5 <= root <= 0.65
    assert abs(root - 0.583) <= 0.01
    grid = np.arange(0.5, 0.65, 1e-4)
    diffs = closed_form_grid("bb84", "ad", grid) - closed_form_grid("psi+", "ad", grid)
    flip = int(np.nonzero(np.sign(diffs[1:]) != np.sign(diffs[:-1]))[0][0])
    assert abs(root - grid[flip]) < 1e-3
    _ok(6, f"crossover at {root:.4f}, confirmed by the 1e-4-step scan")


def test_criterion_7_eavesdropping():
    assert intercept_resend_bb84().detection_probability == 0.25
    _, oracle_value = oracle_wrong_pair("psi+", (2, 3))
    impl = wrong_pair_bell_attack("psi+", (2, 3)).detection_probability
    assert abs(impl - oracle_value) < 1e-12
    detections = [wrong_pair_bell_attack(label, (2, 3)).detection_probability for label in BELL_LABELS]
    assert all(abs(d - detections[0]) < 1e-12 for d in detections)
    _ok(7, f"intercept rate 0.25 exactly; wrong-pair detection {impl:.4f} matches the oracle")


def test_criterion_8_channel_validity():
    rng = np.random.default_rng(20260811)
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        rho = random_density(rng, n, mixture=2)
        kind = int(rng.integers(0, 4))
        if kind < 2:
            ch = (kraus_ad if kind == 0 else kraus_pd)(float(rng.random()))
            total = sum(op.conj().T @ op for op in ch.operators)
            assert np.max(np.abs(total - np.eye(2))) <= 1e-12
            out = apply_kraus_channel(rho, ch).matrix
        elif kind == 2:
            out = apply_noise(rho, "cd", float(rng.uniform(0, 2 * np.pi))).matrix
        else:
            out = apply_noise(rho, "cr", float(rng.uniform(0, 2 * np.pi))).matrix
        assert abs(np.trace(out) - 1.0) <= 1e-12
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12
        assert np.linalg.eigvalsh(out)[0] >= -1e-10
    _ok(8, "1000 randomized applications keep completeness, trace, Hermiticity, PSD")


def test_criterion_9_cli_determinism_and_mutation(tmp_path, capsys, monkeypatch):
    args = ["sweep", "--noise", "ad", "--schemes", "bb84,psi+,phi+,cluster", "--grid", "21"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    assert run(["verify-table", "--grid", "5"]) == 0

    true_form = fidelity_mod.closed_form_grid

    def skewed(scheme, family, grid):
        value = true_form(scheme, family, grid)
        if scheme == "bb84" and family == "pd":
            value += 1e-6
        return value

    monkeypatch.setattr(fidelity_mod, "closed_form_grid", skewed)
    assert run(["verify-table", "--grid", "5"]) == 2
    monkeypatch.undo()
    capsys.readouterr()
    _ok(9, "byte-identical sweeps; verify-table exits 0 clean and 2 when perturbed")
