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
each of the at most 4 x 2 x 5 = 40 keys (bell, eve_pair, eve_outcome), and
stored read-only. Every call still returns a fresh AttackOutcome with its own
outcome_distribution, and Monte Carlo samples the same joint with the same
random stream. A zero-probability eve_outcome raises on every call, as
exceptions are not memoised.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .states import BELL_LABELS, INT_BELLS, INT_SINGLES, SINGLE_LABELS

# Born probabilities |<a|b>|^2 between the four single-qubit states, in
# SINGLE_LABELS order: the squared dot product of the integer vectors over
# the product of their squared norms.
_SINGLE = np.array([INT_SINGLES[label] for label in SINGLE_LABELS])
_DOTS = (_SINGLE @ _SINGLE.T).tolist()
_BORN = [[Fraction(_DOTS[a][b] ** 2, _DOTS[a][a] * _DOTS[b][b]) for b in range(4)] for a in range(4)]
_BORN_FLOAT = np.array(_BORN, dtype=float)

# Eve's two bases hold each of the four labels once, so the sent label s (1/4),
# Eve's basis (1/2) and her outcome r give the pair (s, r) probability
# Born(r, s) / 8, and the receiver then disagrees with probability
# 1 - Born(s, r). Exactly 1/4.
_DISAGREEMENT = sum(Fraction(1, 8) * _BORN[r][s] * (1 - _BORN[s][r]) for s in range(4) for r in range(4))

# Integer Bell tensors, _BELL[label, a, b] for the qubit values a, b.
_BELL = np.array([INT_BELLS[label] for label in BELL_LABELS]).reshape(4, 2, 2)

# For each pair Eve may measure (1-indexed; the sender entangles (1,2) and
# (3,4)): the integer amplitude <x|_12 <y|_34 (|e><e| on Eve's pair) |abcd> of
# the receiver's outcomes x, y after Eve finds e, over the sent block's qubits
# abcd; capitals name the qubits that Eve's bra <e| contracts with.
_EVE_SUBSCRIPTS = {(1, 2): "xab,ycd,eab,eAB,ABcd->exy", (2, 3): "xab,ycd,ebc,eBC,aBCd->exy"}
_VALID_EVE_PAIRS = tuple(_EVE_SUBSCRIPTS)


@dataclass(frozen=True)
class AttackOutcome:
    """Detection probability plus the full measurement-outcome distribution."""

    detection_probability: float
    outcome_distribution: dict[str, float]
    method: str
    trials: int | None = None
    seed: int | None = None


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
    """
    if method not in ("exact", "mc"):
        raise ValueError(f"unknown method {method!r}, expected 'exact' or 'mc'")

    if method == "exact":
        disagree = _DISAGREEMENT if eve_present else Fraction(0)
        dist = {"agree": float(1 - disagree), "disagree": float(disagree)}
        return AttackOutcome(float(disagree), dist, "exact")

    _require_seeded_mc(trials, seed)
    rng = np.random.default_rng(seed)
    sent = rng.integers(0, 4, size=trials)
    if eve_present:
        basis_first = 2 * rng.integers(0, 2, size=trials)  # first label of Eve's basis
        take_second = rng.random(size=trials) >= _BORN_FLOAT[basis_first, sent]
        eve_outcome_idx = basis_first + take_second
        wrong = rng.random(size=trials) >= _BORN_FLOAT[sent, eve_outcome_idx]
    else:
        wrong = np.zeros(trials, dtype=bool)
    disagreements = int(np.count_nonzero(wrong))
    dist = {
        "agree": (trials - disagreements) / trials,
        "disagree": disagreements / trials,
    }
    return AttackOutcome(disagreements / trials, dist, "mc", trials=trials, seed=seed)


@functools.cache
def _attack_joint(bell: str, eve_pair: tuple[int, int], eve_outcome: str | None) -> np.ndarray:
    """The receiver's joint Bell-outcome distribution, read-only and built once per key.

    The weights are squared integer amplitudes far below 2**53, so they and
    their total convert to float exactly and one division rounds each exact
    probability correctly.
    """
    sent = _BELL[BELL_LABELS.index(bell)]
    block = np.multiply.outer(sent, sent)
    weights = np.einsum(_EVE_SUBSCRIPTS[eve_pair], _BELL, _BELL, _BELL, _BELL, block) ** 2
    if eve_outcome is None:
        weights = weights.sum(axis=0)
    else:
        weights = weights[BELL_LABELS.index(eve_outcome)]
        if not weights.any():
            raise ValueError(f"Eve outcome {eve_outcome!r} has zero probability")
    joint = weights / weights.sum()
    joint.setflags(write=False)
    return joint


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
        dist = {
            f"{a};{b}": float(joint[i, j])
            for i, a in enumerate(BELL_LABELS)
            for j, b in enumerate(BELL_LABELS)
        }
        detection = float(1.0 - joint[prep, prep])
        return AttackOutcome(detection, dist, "exact")

    _require_seeded_mc(trials, seed)
    rng = np.random.default_rng(seed)
    flat = joint.reshape(16)
    # Inverse-CDF sampling on the uniforms and CDF of Generator.choice(16, p=...),
    # counted per outcome instead of drawn one by one: outcome k is drawn by
    # the uniforms u with cdf[k-1] <= u < cdf[k], and cdf[15] is exactly 1.
    # Zero-probability outcomes repeat an edge, which is counted once.
    cdf = (flat / flat.sum()).cumsum()
    cdf /= cdf[-1]
    uniforms = rng.random(trials)
    edges, edge_of = np.unique(cdf, return_inverse=True)
    at_or_above = np.array([np.count_nonzero(uniforms >= edge) for edge in edges])
    counts = -np.diff(at_or_above[edge_of], prepend=trials)
    dist = {
        f"{a};{b}": counts[4 * i + j] / trials
        for i, a in enumerate(BELL_LABELS)
        for j, b in enumerate(BELL_LABELS)
    }
    detection = 1.0 - counts[4 * prep + prep] / trials
    return AttackOutcome(detection, dist, "mc", trials=trials, seed=seed)
