"""Eavesdropping detection statistics for the two attack scenarios.

Two quantitative facts are reproduced here:

* intercept-resend on single-qubit decoys prepared in two mutually unbiased
  bases is detected with probability exactly 1/4 when the receiver measures
  in the preparation basis;

* an eavesdropper who Bell-measures the wrong pair of a two-Bell-pair decoy
  block causes entanglement swapping, which the receiver's Bell measurements
  on the correct pairs detect with probability exactly 3/4, whatever the
  prepared label.

Both attacks are computed exactly from the integer state vectors of
states.INT_SINGLES and states.INT_BELLS. Every amplitude is then an integer
times one known normalisation, so every probability is an exact rational: the
intercept-resend rate is a Fraction, and each wrong-pair probability is a
ratio of squared integer amplitudes, rounded once to the nearest float. An
Eve outcome has zero probability exactly when its integer weights are all 0.

Monte Carlo sampling exists only to exercise the statistical pathway; it
requires an explicit seed and is bit-reproducible for a fixed seed.

The receiver's joint Bell-outcome distribution is built once per process for
each of the at most 4 x 2 x 5 = 40 keys (bell, eve_pair, eve_outcome), in
plain integer arithmetic, and stored as nested tuples. Only Monte Carlo
imports numpy. Every call still returns a fresh AttackOutcome, the named
tuple (detection_probability, outcome_distribution) with a dict of its own,
and Monte Carlo samples the same joint with the same random stream. A
zero-probability eve_outcome raises on every call, as exceptions are not
memoised.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

from .states import BELL_LABELS, INT_BELLS, INT_SINGLES, SINGLE_LABELS

# Born probabilities |<a|b>|^2 between the four single-qubit states, in
# SINGLE_LABELS order: the squared dot product of the integer vectors over
# the product of their squared norms.
_SINGLE = [INT_SINGLES[label] for label in SINGLE_LABELS]
_DOTS = [[sum(x * y for x, y in zip(a, b)) for b in _SINGLE] for a in _SINGLE]
_BORN = [[Fraction(_DOTS[a][b] ** 2, _DOTS[a][a] * _DOTS[b][b]) for b in range(4)] for a in range(4)]

# Eve's two bases hold each of the four labels once, so the sent label s (1/4),
# Eve's basis (1/2) and her outcome r give the pair (s, r) probability
# Born(r, s) / 8, and the receiver then disagrees with probability
# 1 - Born(s, r). Exactly 1/4.
_DISAGREEMENT = sum(Fraction(1, 8) * _BORN[r][s] * (1 - _BORN[s][r]) for s in range(4) for r in range(4))

# The pairs Eve may measure (1-indexed; the sender entangles (1,2) and (3,4)).
_VALID_EVE_PAIRS = ((1, 2), (2, 3))

# Uniforms per wrong-pair Monte Carlo block: 512 KB of doubles.
_MC_BLOCK = 1 << 16


class AttackOutcome(NamedTuple):
    """Detection probability plus the full measurement-outcome distribution."""

    detection_probability: float
    outcome_distribution: dict[str, float]


def _require_seeded_mc(trials, seed):
    if trials is None or trials < 1:
        raise ValueError("monte-carlo method needs a positive trial count")
    if seed is None:
        raise ValueError("monte-carlo method needs an explicit seed")
    if seed < 0:
        raise ValueError(f"monte-carlo seed must be non-negative, got {seed}")


def intercept_resend_bb84(
    eve_present: bool = True,
    method: str = "exact",
    trials: int | None = None,
    seed: int | None = None,
) -> AttackOutcome:
    """Error rate a measure-and-resend eavesdropper causes on single decoys.

    The sender draws one of the four labels uniformly; Eve picks one of the
    two bases uniformly, measures, and resends her outcome; the receiver
    measures in the preparation basis and compares with the sent label. The
    exact enumeration yields a disagreement probability of 1/4. With
    eve_present=False the channel is untouched and the rate is 0.

    Monte Carlo keeps the random stream of drawing, for every trial, the sent
    label, Eve's basis, Eve's outcome uniform and the receiver's uniform. Its
    count reads only the two bases and the receiver's uniform, so Eve's
    uniforms are skipped rather than drawn, and at its peak a run holds
    10 bytes per trial.
    """
    if method not in ("exact", "mc"):
        raise ValueError(f"unknown method {method!r}, expected 'exact' or 'mc'")

    if method == "exact":
        disagree = _DISAGREEMENT if eve_present else Fraction(0)
        dist = {"agree": float(1 - disagree), "disagree": float(disagree)}
        return AttackOutcome(float(disagree), dist)

    _require_seeded_mc(trials, seed)
    disagreements = 0
    if eve_present:
        import numpy as np
        rng = np.random.default_rng(seed)
        # int32 draws the labels of the default int64 (int8 and int16 would
        # not) in half the memory
        sent = rng.integers(0, 4, size=trials, dtype=np.int32)
        basis = rng.integers(0, 2, size=trials, dtype=np.int32)
        sent >>= 1  # the sent label's basis, in SINGLE_LABELS order
        wrong = sent != basis
        del sent, basis
        # Every Born probability between the four labels is 0, 1/2 or 1: in
        # the sent label's basis Eve finds that label and the receiver agrees;
        # in the other, whatever Eve found, the receiver disagrees exactly
        # when its uniform is >= 1/2.
        rng.bit_generator.advance(trials)  # Eve's uniforms, one 64-bit output each
        wrong &= rng.random(trials) >= 0.5
        disagreements = int(np.count_nonzero(wrong))
    dist = {
        "agree": (trials - disagreements) / trials,
        "disagree": disagreements / trials,
    }
    return AttackOutcome(disagreements / trials, dist)


@functools.cache
def _attack_joint(bell: str, eve_pair: tuple[int, int], eve_outcome: str | None) -> tuple[tuple[float, ...], ...]:
    """The receiver's joint Bell-outcome distribution, as rows of floats, built once per key.

    Qubit q (1-indexed) is bit 4 - q of a basis index of the sent block. The
    receiver's integer amplitude <x|_12 <y|_34 (|e><e| on Eve's pair) |block>
    is a sum over the 16 basis states. Its square is an exact integer weight,
    so one true division by the integer total rounds each probability once.
    """
    sent = INT_BELLS[bell]
    block = [sent[k >> 2] * sent[k & 3] for k in range(16)]
    first, second = (4 - q for q in eve_pair)
    on_pair = [2 * (k >> first & 1) + (k >> second & 1) for k in range(16)]
    rest = [k & ~(1 << first | 1 << second) for k in range(16)]
    weights = [[0] * 4 for _ in range(4)]
    for eve in (INT_BELLS[label] for label in (BELL_LABELS if eve_outcome is None else (eve_outcome,))):
        # <e| on Eve's pair for each value of the other two qubits, then the block after her projection
        overlap = [sum(eve[on_pair[k]] * block[k] for k in range(16) if rest[k] == other) for other in range(16)]
        after = [eve[on_pair[k]] * overlap[rest[k]] for k in range(16)]
        for i, x in enumerate(BELL_LABELS):
            for j, y in enumerate(BELL_LABELS):
                weights[i][j] += sum(INT_BELLS[x][k >> 2] * INT_BELLS[y][k & 3] * after[k] for k in range(16)) ** 2
    total = sum(map(sum, weights))
    if not total:
        raise ValueError(f"Eve outcome {eve_outcome!r} has zero probability")
    return tuple(tuple(weight / total for weight in row) for row in weights)


def wrong_pair_bell_attack(
    bell: str,
    eve_pair: tuple[int, int],
    method: str = "exact",
    trials: int | None = None,
    seed: int | None = None,
    eve_outcome: str | None = None,
) -> AttackOutcome:
    """Detection statistics when Eve Bell-measures a pair of the decoy block.

    The sender prepares two copies of the given Bell state on qubit pairs
    (1,2) and (3,4). Eve measures eve_pair, which is either (1,2) (the correct
    pair, leaving the state untouched) or (2,3) (the wrong pair, causing
    entanglement swapping). The receiver then Bell-measures both prepared
    pairs; the attack is detected unless both outcomes equal the prepared
    label. Outcome labels in the distribution are "<pair12>;<pair34>".

    With eve_outcome set, the returned statistics are conditioned on Eve
    obtaining that Bell result.

    Monte Carlo draws one uniform per trial and counts the uniforms against
    the joint's CDF in blocks of 2**16, so its memory does not grow with
    the trial count.
    """
    if bell not in BELL_LABELS:
        raise ValueError(f"unknown Bell label {bell!r}, expected one of {BELL_LABELS}")
    try:
        eve_pair = _VALID_EVE_PAIRS[_VALID_EVE_PAIRS.index(tuple(eve_pair))]
    except (TypeError, ValueError):
        raise ValueError(f"eve_pair must be one of {_VALID_EVE_PAIRS} (1-indexed), got {eve_pair!r}") from None
    if method not in ("exact", "mc"):
        raise ValueError(f"unknown method {method!r}, expected 'exact' or 'mc'")

    if eve_outcome is not None and eve_outcome not in BELL_LABELS:
        raise ValueError(f"unknown Bell label {eve_outcome!r}")
    joint = _attack_joint(bell, eve_pair, eve_outcome)
    prep = BELL_LABELS.index(bell)

    if method == "exact":
        dist = {f"{a};{b}": joint[i][j] for i, a in enumerate(BELL_LABELS) for j, b in enumerate(BELL_LABELS)}
        detection = 1.0 - joint[prep][prep]
        return AttackOutcome(detection, dist)

    _require_seeded_mc(trials, seed)
    import numpy as np
    rng = np.random.default_rng(seed)
    flat = np.array(joint).reshape(16)
    # Inverse-CDF sampling on the uniforms and CDF of Generator.choice(16, p=...),
    # counted per outcome instead of drawn one by one: outcome k is drawn by
    # the uniforms u with cdf[k-1] <= u < cdf[k], and cdf[15] is exactly 1,
    # which no uniform reaches. Zero-probability outcomes repeat an edge,
    # which is counted once. The uniforms are drawn and counted in blocks
    # that stay in cache; consecutive blocks are the stream of one draw.
    cdf = (flat / flat.sum()).cumsum()
    cdf /= cdf[-1]
    edges, edge_of = np.unique(cdf, return_inverse=True)
    at_or_above = np.zeros(len(edges), dtype=np.int64)
    buffer = np.empty(min(trials, _MC_BLOCK))
    for start in range(0, trials, _MC_BLOCK):
        uniforms = rng.random(out=buffer[: trials - start])
        for k, edge in enumerate(edges[:-1]):
            at_or_above[k] += np.count_nonzero(uniforms >= edge)
    counts = -np.diff(at_or_above[edge_of], prepend=trials)
    dist = {
        f"{a};{b}": counts[4 * i + j] / trials
        for i, a in enumerate(BELL_LABELS)
        for j, b in enumerate(BELL_LABELS)
    }
    detection = 1.0 - counts[4 * prep + prep] / trials
    return AttackOutcome(detection, dist)
