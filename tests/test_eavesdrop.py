"""Intercept-resend and wrong-pair attack statistics.

The wrong-pair numbers are checked against a brute-force oracle built from
explicit 16x16 projectors and permutation matrices, a deliberately different
construction from the implementation's integer sums over the 16 basis states.
"""

import functools
import itertools
import math
import os
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoynoise import eavesdrop
from decoynoise.eavesdrop import intercept_resend_bb84, wrong_pair_bell_attack
from decoynoise.states import BELL_LABELS, INT_SINGLES, SINGLE_LABELS

from conftest import bell_state


# ---------------------------------------------------------------------------
# oracle: exact enumeration with explicit projector matrices
# ---------------------------------------------------------------------------

def _perm_matrix(order):
    # moves qubit order[k] into slot k (0-indexed, qubit 0 most significant)
    p = np.zeros((16, 16))
    for idx in range(16):
        bits = [(idx >> (3 - k)) & 1 for k in range(4)]
        new_idx = sum(bits[order[k]] << (3 - k) for k in range(4))
        p[new_idx, idx] = 1.0
    return p


def _bell_projector(label, pair):
    rest = [q for q in range(4) if q not in pair]
    perm = _perm_matrix(list(pair) + rest)
    ket = bell_state(label).amplitudes
    return perm.T @ np.kron(np.outer(ket, ket.conj()), np.eye(4)) @ perm


def oracle_wrong_pair(prepared, eve_pair):
    """Joint receiver distribution and detection probability, brute force."""
    bell = bell_state(prepared).amplitudes
    psi = np.kron(bell, bell)
    pair0 = tuple(q - 1 for q in eve_pair)
    joint = np.zeros((4, 4))
    for eve_label in BELL_LABELS:
        collapsed = _bell_projector(eve_label, pair0) @ psi
        p_eve = float(np.vdot(collapsed, collapsed).real)
        if p_eve < 1e-15:
            continue
        post = collapsed / math.sqrt(p_eve)
        for i, l12 in enumerate(BELL_LABELS):
            for j, l34 in enumerate(BELL_LABELS):
                amp = np.vdot(np.kron(bell_state(l12).amplitudes, bell_state(l34).amplitudes), post)
                joint[i, j] += p_eve * abs(amp) ** 2
    prep = BELL_LABELS.index(prepared)
    return joint, 1.0 - joint[prep, prep]


def _oracle_given_eve(prepared, eve_pair, eve_label):
    """Eve's outcome probability and the receiver's joint with it, from projectors alone."""
    bell = bell_state(prepared).amplitudes
    collapsed = _bell_projector(eve_label, tuple(q - 1 for q in eve_pair)) @ np.kron(bell, bell)
    joint = np.zeros((4, 4))
    for i, l12 in enumerate(BELL_LABELS):
        for j, l34 in enumerate(BELL_LABELS):
            hit = _bell_projector(l12, (0, 1)) @ _bell_projector(l34, (2, 3)) @ collapsed
            joint[i, j] = np.vdot(hit, hit).real
    return float(np.vdot(collapsed, collapsed).real), joint


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


# Born probabilities |<a|b>|^2 between the four single-qubit states, in
# SINGLE_LABELS order, from their integer vectors.
BORN = [
    [Fraction(_dot(a, b) ** 2, _dot(a, a) * _dot(b, b)) for b in map(INT_SINGLES.get, SINGLE_LABELS)]
    for a in map(INT_SINGLES.get, SINGLE_LABELS)
]


def born_table_intercept_resend(trials, seed):
    """Intercept-resend Monte Carlo that samples Eve's outcome from the Born table.

    Eve measures each sent label in a random basis and resends her outcome; the
    receiver measures that in the sent label's basis. Same random stream as the
    implementation, which instead counts by the 0, 1/2 or 1 rule on bits of the
    bit generator's raw outputs; this sampler draws through the Generator.
    """
    rng = np.random.default_rng(seed)
    born = np.array(BORN, dtype=float)
    sent = rng.integers(0, 4, size=trials)
    basis_first = 2 * rng.integers(0, 2, size=trials)  # first label of Eve's basis
    take_second = rng.random(size=trials) >= born[basis_first, sent]
    eve_outcome_idx = basis_first + take_second
    wrong = rng.random(size=trials) >= born[sent, eve_outcome_idx]
    disagreements = int(np.count_nonzero(wrong))
    dist = {"agree": (trials - disagreements) / trials, "disagree": disagreements / trials}
    return eavesdrop.AttackOutcome(disagreements / trials, dist)


# ---------------------------------------------------------------------------
# intercept-resend
# ---------------------------------------------------------------------------

def test_intercept_resend_is_exactly_one_quarter():
    outcome = intercept_resend_bb84()
    assert outcome.detection_probability == 0.25
    assert outcome.outcome_distribution == {"agree": 0.75, "disagree": 0.25}


def test_intercept_resend_monte_carlo_matches_exact():
    trials = 10**6
    outcome = intercept_resend_bb84(method="mc", trials=trials, seed=2024)
    sigma = math.sqrt(0.25 * 0.75 / trials)
    assert abs(outcome.detection_probability - 0.25) < 4 * sigma
    assert outcome.outcome_distribution["agree"] + outcome.outcome_distribution["disagree"] == 1.0


def test_intercept_resend_mc_is_reproducible():
    a = intercept_resend_bb84(method="mc", trials=5000, seed=9)
    b = intercept_resend_bb84(method="mc", trials=5000, seed=9)
    assert a == b
    c = intercept_resend_bb84(method="mc", trials=5000, seed=10)
    assert c.detection_probability != a.detection_probability


def test_born_probabilities_are_zero_half_or_one():
    # the premise of the Monte Carlo count: the receiver's agreement depends
    # only on whether Eve's basis is the sent label's basis
    for a, x in enumerate(SINGLE_LABELS):
        for b, y in enumerate(SINGLE_LABELS):
            if a >> 1 != b >> 1:
                assert BORN[a][b] == Fraction(1, 2), (x, y)
            else:
                assert BORN[a][b] == (a == b), (x, y)


@pytest.mark.parametrize("seed", [0, 7, 2024])
# 2 * 2**16 +- 1 and 3 * 2**16 + 1 trials start Eve's bases mid-output and
# the receiver's blocks out of line with the labels' blocks
@pytest.mark.parametrize(
    "trials", [1, 2, 3, 17, 65535, 65536, 65537, 2 * 2**16 - 1, 2 * 2**16 + 1, 3 * 2**16 + 1, 10**5 + 1, 10**6]
)
def test_intercept_resend_mc_matches_born_table_sampler(trials, seed):
    assert intercept_resend_bb84(method="mc", trials=trials, seed=seed) == born_table_intercept_resend(trials, seed)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 300_000), st.integers(0, 2**64 - 1))
def test_drawn_intercept_resend_mc_matches_born_table_sampler(trials, seed):
    assert intercept_resend_bb84(method="mc", trials=trials, seed=seed) == born_table_intercept_resend(trials, seed)


def test_intercept_resend_mc_needs_seed_and_trials():
    with pytest.raises(ValueError, match="seed"):
        intercept_resend_bb84(method="mc", trials=100)
    with pytest.raises(ValueError, match="trial"):
        intercept_resend_bb84(method="mc", seed=1)
    with pytest.raises(ValueError, match="method"):
        intercept_resend_bb84(method="both")


# ---------------------------------------------------------------------------
# wrong-pair entanglement swapping
# ---------------------------------------------------------------------------

def test_correct_pair_leaves_no_trace():
    outcome = wrong_pair_bell_attack("psi+", (1, 2))
    assert abs(outcome.detection_probability) < 1e-12
    assert outcome.outcome_distribution["psi+;psi+"] == pytest.approx(1.0, abs=1e-12)
    assert outcome.detection_probability == 0.0
    assert outcome.outcome_distribution["psi+;psi+"] == 1.0


def test_wrong_pair_matches_brute_force_oracle():
    for prepared in BELL_LABELS:
        joint, oracle_detection = oracle_wrong_pair(prepared, (2, 3))
        outcome = wrong_pair_bell_attack(prepared, (2, 3))
        assert abs(outcome.detection_probability - oracle_detection) < 1e-12
        for i, l12 in enumerate(BELL_LABELS):
            for j, l34 in enumerate(BELL_LABELS):
                assert outcome.outcome_distribution[f"{l12};{l34}"] == pytest.approx(
                    joint[i, j], abs=1e-12
                )


def test_wrong_pair_detection_is_three_quarters():
    # frozen from the oracle above: each of Eve's four equally likely Bell
    # outcomes leaves the receiver passing with probability 1/4
    outcome = wrong_pair_bell_attack("psi+", (2, 3))
    assert outcome.detection_probability == pytest.approx(0.75, abs=1e-12)
    assert outcome.detection_probability == 0.75


def test_wrong_pair_detection_is_label_independent():
    values = [wrong_pair_bell_attack(label, (2, 3)).detection_probability for label in BELL_LABELS]
    for v in values[1:]:
        assert abs(v - values[0]) < 1e-12


def test_wrong_pair_distribution_sums_to_one():
    outcome = wrong_pair_bell_attack("phi+", (2, 3))
    assert sum(outcome.outcome_distribution.values()) == pytest.approx(1.0, abs=1e-12)
    assert len(outcome.outcome_distribution) == 16


def test_wrong_pair_conditional_on_eve_outcome():
    outcome = wrong_pair_bell_attack("psi+", (2, 3), eve_outcome="psi+")
    assert outcome.detection_probability == pytest.approx(0.75, abs=1e-12)
    assert outcome.detection_probability == 0.75
    # the post-swap receiver outcomes are perfectly correlated
    for label in BELL_LABELS:
        assert outcome.outcome_distribution[f"{label};{label}"] == pytest.approx(0.25, abs=1e-12)
        assert outcome.outcome_distribution[f"{label};{label}"] == 0.25


@pytest.mark.parametrize("eve_outcome", (None,) + BELL_LABELS)
@pytest.mark.parametrize("eve_pair", [(1, 2), (2, 3)])
@pytest.mark.parametrize("bell", BELL_LABELS)
def test_exact_distributions_are_in_64ths_with_the_oracle_zeros(bell, eve_pair, eve_outcome):
    if eve_outcome is None:
        oracle, _ = oracle_wrong_pair(bell, eve_pair)
    else:
        p_eve, oracle = _oracle_given_eve(bell, eve_pair, eve_outcome)
        if p_eve < 1e-12:
            with pytest.raises(ValueError, match="zero probability"):
                wrong_pair_bell_attack(bell, eve_pair, eve_outcome=eve_outcome)
            return
    outcome = wrong_pair_bell_attack(bell, eve_pair, eve_outcome=eve_outcome)
    probs = np.array(list(outcome.outcome_distribution.values()))
    assert all((64 * p).is_integer() for p in probs)
    assert (64 * outcome.detection_probability).is_integer()
    np.testing.assert_array_equal(probs.reshape(4, 4) < 1e-12, oracle < 1e-12)


def test_wrong_pair_monte_carlo():
    trials = 10**6
    exact = wrong_pair_bell_attack("psi-", (2, 3)).detection_probability
    mc = wrong_pair_bell_attack("psi-", (2, 3), method="mc", trials=trials, seed=77)
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert abs(mc.detection_probability - exact) < 5 * sigma
    assert sum(mc.outcome_distribution.values()) == pytest.approx(1.0, abs=1e-12)
    again = wrong_pair_bell_attack("psi-", (2, 3), method="mc", trials=trials, seed=77)
    assert again == mc


@pytest.mark.parametrize("eve_pair", [(1, 2), (2, 3)])
@pytest.mark.parametrize("bell", BELL_LABELS)
def test_wrong_pair_mc_counts_match_generator_choice(bell, eve_pair):
    # reference: draw each trial with Generator.choice, as the sampler once did
    for eve_outcome in (None,) + BELL_LABELS:
        try:
            exact = wrong_pair_bell_attack(bell, eve_pair, eve_outcome=eve_outcome)
        except ValueError:
            assert eve_outcome is not None  # zero-probability Eve outcome
            continue
        flat = np.array(list(exact.outcome_distribution.values()))
        for seed in (0, 7, 2024):
            # 65536 uniforms are counted per block
            for trials in (1, 17, 20000, 65535, 65536, 65537, 131073):
                draws = np.random.default_rng(seed).choice(16, size=trials, p=flat / flat.sum())
                counts = np.bincount(draws, minlength=16)
                mc = wrong_pair_bell_attack(bell, eve_pair, "mc", trials, seed, eve_outcome)
                assert list(mc.outcome_distribution.values()) == list(counts / trials)
                prep = 5 * BELL_LABELS.index(bell)
                assert mc.detection_probability == 1.0 - counts[prep] / trials


def test_a_certain_outcome_draws_no_uniform(monkeypatch):
    # on the correct pair one outcome has probability 1, so every count is known without a draw
    ran = _record_parts(monkeypatch)

    def no_generator(*args):
        raise AssertionError("a generator was built")

    for name in ("default_rng", "Generator", "PCG64"):
        monkeypatch.setattr(np.random, name, no_generator)
    for bell in BELL_LABELS:
        for eve_outcome in (None, bell):
            mc = wrong_pair_bell_attack(bell, (1, 2), "mc", 10**6 + 1, 5, eve_outcome)
            assert mc == wrong_pair_bell_attack(bell, (1, 2), eve_outcome=eve_outcome)
    assert ran == []


def test_wrong_pair_rejects_bad_input():
    for eve_pair in [(1, 3), (1.9, 2.2), (2.7, 3.5), 23, "23", (2, 3, 4)]:
        with pytest.raises(ValueError, match="eve_pair must be one of"):
            wrong_pair_bell_attack("psi+", eve_pair)
    with pytest.raises(ValueError, match="Bell label"):
        wrong_pair_bell_attack("bell", (2, 3))
    with pytest.raises(ValueError, match="Bell label"):
        wrong_pair_bell_attack("psi+", (2, 3), eve_outcome="nope")
    with pytest.raises(ValueError, match="seed"):
        wrong_pair_bell_attack("psi+", (2, 3), method="mc", trials=10)


@pytest.mark.parametrize(
    "attack",
    [
        lambda: intercept_resend_bb84(),
        lambda: wrong_pair_bell_attack("phi-", (2, 3)),
        lambda: wrong_pair_bell_attack("psi+", (2, 3), eve_outcome="phi+"),
    ],
)
def test_exact_outcomes_are_fresh_on_every_call(attack):
    first = attack()
    expected = dict(first.outcome_distribution)
    first.outcome_distribution.clear()
    first.outcome_distribution["agree"] = 2.0
    second = attack()
    assert second.outcome_distribution == expected
    assert second.outcome_distribution is not first.outcome_distribution


def test_memoised_joint_is_read_only():
    joint = eavesdrop._attack_joint("psi-", (2, 3), None)
    assert isinstance(joint, tuple) and len(joint) == 16 and all(type(p) is float for p in joint)
    with pytest.raises(TypeError, match="does not support item assignment"):
        joint[0] = 1.0
    assert eavesdrop._attack_joint("psi-", (2, 3), None) is joint


@pytest.mark.parametrize("method", ["exact", "mc"])
def test_zero_probability_eve_outcome_raises_on_every_call(method):
    # on the correct pair Eve always finds the prepared label
    for _ in range(3):
        with pytest.raises(ValueError, match="^Eve outcome 'psi-' has zero probability$"):
            wrong_pair_bell_attack("psi+", (1, 2), method, 10, 1, eve_outcome="psi-")


@pytest.mark.parametrize("method", ["exact", "mc"])
@pytest.mark.parametrize("eve_pair", [(1, 2), (2, 3)])
@pytest.mark.parametrize("bell", BELL_LABELS)
def test_exact_and_mc_outcomes_have_one_shape(bell, eve_pair, method):
    outcome = wrong_pair_bell_attack(bell, eve_pair, method, 1000, 5)
    assert list(outcome.outcome_distribution) == eavesdrop._PAIRS
    assert eavesdrop._PAIRS == [f"{a};{b}" for a in BELL_LABELS for b in BELL_LABELS]
    values = [outcome.detection_probability, *outcome.outcome_distribution.values()]
    assert all(type(value) is float for value in values)
    assert outcome.detection_probability == 1.0 - outcome.outcome_distribution[f"{bell};{bell}"]


@pytest.mark.parametrize("method", ["exact", "mc"])
def test_intercept_resend_outcome_is_plain_floats(method):
    outcome = intercept_resend_bb84(method, 1000, 5)
    assert list(outcome.outcome_distribution) == ["agree", "disagree"]
    assert all(type(value) is float for value in (outcome.detection_probability,
                                                  *outcome.outcome_distribution.values()))
    assert outcome.detection_probability == outcome.outcome_distribution["disagree"]


def test_argument_errors_come_before_any_work(monkeypatch):
    # a zero trial count is refused before the joint is built, so before the
    # zero-probability Eve outcome could be found
    with pytest.raises(ValueError, match="positive trial count"):
        wrong_pair_bell_attack("psi+", (1, 2), "mc", 0, 1, eve_outcome="psi-")

    def no_joint(*args):
        raise AssertionError("the joint was built before the arguments were checked")

    monkeypatch.setattr(eavesdrop, "_attack_joint", no_joint)
    # an integer is what operator.index accepts, other than a bool
    not_integers = [("mc", trials, 1, "trial count as an integer") for trials in (True, 10.0, "10")]
    not_integers += [("mc", 10, seed, "seed as an integer") for seed in (True, 1.0, "1")]
    for method, trials, seed, message in [("both", 10, 1, "unknown method"), ("mc", None, 1, "trial count"),
                                          ("mc", 10, None, "explicit seed"), ("mc", 10, -1, "non-negative"),
                                          *not_integers]:
        with pytest.raises(ValueError, match=message):
            wrong_pair_bell_attack("psi+", (2, 3), method, trials, seed)
        with pytest.raises(ValueError, match=message):
            intercept_resend_bb84(method, trials, seed)


@pytest.mark.parametrize("integer", [np.int64, np.uint64, np.int32])
def test_monte_carlo_takes_numpy_integers_as_ints(integer):
    for attack in (intercept_resend_bb84, functools.partial(wrong_pair_bell_attack, "psi+", (2, 3))):
        for trials in (1000, 2 * 2**16 + 1):
            outcome = attack("mc", integer(trials), integer(5))
            assert outcome == attack("mc", trials, 5)
            assert all(type(value) is float for value in (outcome.detection_probability,
                                                          *outcome.outcome_distribution.values()))


# ---------------------------------------------------------------------------
# Monte Carlo in contiguous parts of the seeded stream, one per usable CPU up to a cap
# ---------------------------------------------------------------------------

def _use_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def _record_parts(monkeypatch, replace=None):
    """Record (phase, start, stop, thread) for every part that runs; replace, if given, runs in place of each part."""
    ran, in_parts = [], eavesdrop._in_parts

    def recording(trials, seed, *phases):
        def recorded(phase, part):
            def run(bits, start, stop):
                ran.append((phase, start, stop, threading.current_thread()))  # held, so never reused
                return (replace or part)(bits, start, stop)
            return run
        return in_parts(trials, seed, *[(offset, recorded(n, part)) for n, (offset, part) in enumerate(phases)])

    monkeypatch.setattr(eavesdrop, "_in_parts", recording)
    return ran


def _within(seconds, *calls):
    """Each call's result, or the exception it raised, each run in its own thread; fails if one runs too long."""
    results = [None] * len(calls)

    def run(k):
        try:
            results[k] = calls[k]()
        except BaseException as error:  # handed back to the test, which asserts on it
            results[k] = error

    threads = [threading.Thread(target=run, args=(k,), daemon=True) for k in range(len(calls))]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + seconds
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    assert not any(thread.is_alive() for thread in threads), f"a call ran past {seconds} s"
    return results


def _choice_distribution(bell, eve_pair, trials, seed):
    """The wrong-pair distribution of Generator.choice drawing each trial, the sampler's reference."""
    flat = np.array(list(wrong_pair_bell_attack(bell, eve_pair).outcome_distribution.values()))
    counts = np.bincount(np.random.default_rng(seed).choice(16, size=trials, p=flat / flat.sum()), minlength=16)
    return list(counts / trials)


# 2 * 2**16 + 1 trials make at most 2 parts; 5 * 2**16 - 1 at most 4 and 5 * 2**16 + 1 at most 5, whose
# cuts fall inside blocks; with odd counts Eve's bases start mid-output and the receiver's outputs are out
# of line with the labels'
@pytest.mark.parametrize("trials", [2 * 2**16 + 1, 5 * 2**16 - 1, 5 * 2**16 + 1, 10**6 + 1])
@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
def test_monte_carlo_counts_are_the_same_on_any_number_of_cpus(monkeypatch, cpus, trials):
    monkeypatch.setattr(eavesdrop, "_MC_PARTS", 5)  # above the CPUs, so that they bound the parts
    _use_cpus(monkeypatch, cpus)
    ran = _record_parts(monkeypatch)
    parts = max(1, min(cpus, trials // 2**16))
    cuts = [(trials * k // parts, trials * (k + 1) // parts) for k in range(parts)]

    def assert_ran(phases):
        for phase in range(phases):
            assert sorted((start, stop) for n, start, stop, _ in ran if n == phase) == cuts
            assert len({thread for n, *_, thread in ran if n == phase}) == parts
        assert {n for n, *_ in ran} == set(range(phases))
        ran.clear()

    assert intercept_resend_bb84("mc", trials, 3) == born_table_intercept_resend(trials, 3)
    assert_ran(2)
    mc = wrong_pair_bell_attack("phi-", (2, 3), "mc", trials, 3)
    assert list(mc.outcome_distribution.values()) == _choice_distribution("phi-", (2, 3), trials, 3)
    assert_ran(1)


@pytest.mark.parametrize("cpus", [2, 3, 64])
def test_the_parts_at_once_are_capped_whatever_the_cpus(monkeypatch, cpus):
    _use_cpus(monkeypatch, cpus)
    ran = _record_parts(monkeypatch)
    trials = 10**6 + 1
    assert intercept_resend_bb84("mc", trials, 3) == born_table_intercept_resend(trials, 3)
    parts = min(cpus, eavesdrop._MC_PARTS)
    cuts = [trials * k // parts for k in range(parts + 1)]
    assert sorted((n, start, stop) for n, start, stop, _ in ran) == [(n, *cut) for n in (0, 1) for cut in zip(cuts, cuts[1:])]


@pytest.mark.parametrize("failing", ["the caller's part", "another thread's part"])
def test_an_error_in_one_part_is_raised_once_every_part_has_finished(monkeypatch, failing):
    trials = 2 * 2**16
    expected = _choice_distribution("psi-", (2, 3), trials, 1)
    _use_cpus(monkeypatch, 2)
    finished = []

    def part(bits, start, stop):
        if (start == 0) == (failing == "the caller's part"):
            raise RuntimeError(f"the part from {start} failed")
        time.sleep(0.2)
        finished.append(start)

    with monkeypatch.context() as patch:
        _record_parts(patch, replace=part)
        [error] = _within(30, lambda: wrong_pair_bell_attack("psi-", (2, 3), "mc", trials, 1))
        assert isinstance(error, RuntimeError) and "failed" in str(error)
        assert finished == [trials // 2 if failing == "the caller's part" else 0]
    # the next call counts as if nothing had failed
    [mc] = _within(30, lambda: wrong_pair_bell_attack("psi-", (2, 3), "mc", trials, 1))
    assert list(mc.outcome_distribution.values()) == expected


def test_each_part_builds_its_generator_once_per_call(monkeypatch):
    # on 2 usable CPUs, 2 * 2**16 + 1 trials make two parts whose cut is odd, and 1000 trials one part
    cases = [(trials, parts, born_table_intercept_resend(trials, 3), _choice_distribution("phi-", (2, 3), trials, 3))
             for trials, parts in [(2 * 2**16 + 1, 2), (1000, 1)]]
    _use_cpus(monkeypatch, 2)
    built, pcg64 = [], np.random.PCG64
    monkeypatch.setattr(np.random, "PCG64", lambda seed: built.append(seed) or pcg64(seed))
    for trials, parts, intercept, choice in cases:
        assert intercept_resend_bb84("mc", trials, 3) == intercept
        assert built == [3] * parts  # one generator per part, read by both of intercept-resend's phases
        mc = wrong_pair_bell_attack("phi-", (2, 3), "mc", trials, 3)
        assert list(mc.outcome_distribution.values()) == choice
        assert built == [3] * (2 * parts)
        built.clear()


@pytest.mark.parametrize("eve_outcome", (None,) + BELL_LABELS)
@pytest.mark.parametrize("eve_pair", [(1, 2), (2, 3)])
@pytest.mark.parametrize("bell", BELL_LABELS)
def test_the_joint_float_sums_are_exact_and_equal_choice_normalised_cumsum(bell, eve_pair, eve_outcome):
    # the premise of the wrong-pair sampler's CDF edges, summed in plain floats
    try:
        joint = eavesdrop._attack_joint(bell, eve_pair, eve_outcome)
    except ValueError:
        return  # a zero-probability Eve outcome
    sums = list(itertools.accumulate(joint))
    assert [Fraction(total) for total in sums] == list(itertools.accumulate(map(Fraction, joint)))
    assert sums[-1] == 1.0
    cdf = np.cumsum(joint)
    assert sums == (cdf / cdf[-1]).tolist()
