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
states.INT_SINGLES, INT_BELLS and INT_STATES. Every amplitude is then an integer
times one known normalisation, so every probability is a ratio of integers,
rounded once to the nearest float by one true division: the intercept-resend
rate is 8/32, and each wrong-pair probability a ratio of squared integer
amplitudes. An Eve outcome has zero probability exactly when its integer
weights are all 0.

Each attack is one path from its probabilities to one AttackOutcome, the
named tuple (detection_probability, outcome_distribution) with a fresh dict
of floats on every call. The exact method reads the probabilities. Monte
Carlo, which only exercises the statistical pathway, replaces them by counts
over trials; it needs an explicit seed, is bit-reproducible for a fixed seed
and alone imports numpy. The receiver's wrong-pair joint is built once per
process for each of the at most 4 x 2 x 5 = 40 keys (bell, eve_pair,
eve_outcome), in plain integer arithmetic, as a flat tuple of 16 floats in
_PAIRS order. A zero-probability eve_outcome raises on every call, as
exceptions are not memoised.
"""

from __future__ import annotations

import collections
import functools
import itertools

from .states import BELL_LABELS, INT_BELLS, INT_SINGLES, INT_STATES, SINGLE_LABELS

# Twice the Born probabilities |<a|b>|^2 between the four single-qubit states,
# in SINGLE_LABELS order: twice the squared dot product of the integer vectors
# over the product of their squared norms, each exactly 0, 1 or 2.
_SINGLE = [INT_SINGLES[label] for label in SINGLE_LABELS]
_DOTS = [[sum(x * y for x, y in zip(a, b)) for b in _SINGLE] for a in _SINGLE]
_TWICE_BORN = [[2 * _DOTS[a][b] ** 2 // (_DOTS[a][a] * _DOTS[b][b]) for b in range(4)] for a in range(4)]

# Eve's two bases hold each of the four labels once, so the sent label s (1/4),
# Eve's basis (1/2) and her outcome r give the pair (s, r) probability
# Born(r, s) / 8, and the receiver then disagrees with probability
# 1 - Born(s, r): as (numerator, denominator), (8, 32), exactly 1/4.
_DISAGREEMENT = (sum(_TWICE_BORN[r][s] * (2 - _TWICE_BORN[s][r]) for s in range(4) for r in range(4)), 32)

# The receiver's outcome labels "<pair12>;<pair34>", row-major over BELL_LABELS.
_PAIRS = [f"{a};{b}" for a, b in itertools.product(BELL_LABELS, repeat=2)]

# The pairs Eve may measure (1-indexed; the sender entangles (1,2) and (3,4)).
_VALID_EVE_PAIRS = ((1, 2), (2, 3))

# 64-bit outputs or uniforms per Monte Carlo block: 512 KB of them.
_MC_BLOCK = 1 << 16


AttackOutcome = collections.namedtuple("AttackOutcome", ["detection_probability", "outcome_distribution"])
AttackOutcome.__doc__ = """Detection probability plus the full measurement-outcome distribution, a dict of floats."""


def _sampled(method: str, trials: int | None, seed: int | None) -> bool:
    """Whether method is Monte Carlo ("mc") rather than "exact"; Monte Carlo needs trials >= 1 and a seed >= 0."""
    if method not in ("exact", "mc"):
        raise ValueError(f"unknown method {method!r}, expected 'exact' or 'mc'")
    if method == "exact":
        return False
    if trials is None or trials < 1:
        raise ValueError("monte-carlo method needs a positive trial count")
    if seed is None:
        raise ValueError("monte-carlo method needs an explicit seed")
    if seed < 0:
        raise ValueError(f"monte-carlo seed must be non-negative, got {seed}")
    return True


def intercept_resend_bb84(
    method: str = "exact",
    trials: int | None = None,
    seed: int | None = None,
) -> AttackOutcome:
    """Error rate a measure-and-resend eavesdropper causes on single decoys.

    The sender draws one of the four labels uniformly; Eve picks one of the
    two bases uniformly, measures, and resends her outcome; the receiver
    measures in the preparation basis and compares with the sent label. The
    disagreement probability is the exact 8/32, or with Monte Carlo the count
    of disagreements over trials, each rounded once to a float.

    Monte Carlo keeps the random stream of drawing, for every trial, the sent
    label, Eve's basis, Eve's outcome uniform and the receiver's uniform, and
    counts from the bit generator's raw 64-bit outputs, read in order in
    blocks. At its peak a run holds 2 bytes per trial, 54 MB at 10**7 trials.
    """
    disagree, total = _DISAGREEMENT
    if _sampled(method, trials, seed):
        import numpy as np
        bits, top = np.random.PCG64(seed), np.empty(2 * trials, dtype=bool)  # default_rng(seed)'s bit generator
        blocks = [(start, min(start + _MC_BLOCK, trials)) for start in range(0, trials, _MC_BLOCK)]
        # rng.integers(0, 4), then rng.integers(0, 2), as int32 take the top bits of 2 * trials 32-bit
        # draws (Lemire's method never rejects on a power-of-two range): the halves of the first trials
        # outputs, low half first. Bit 31 of half j is the sent label's basis (sent >> 1, in SINGLE_LABELS
        # order), and bit 31 of half trials + j is Eve's basis.
        for start, stop in blocks:  # one expression, so a block's outputs are freed before the next are drawn
            np.greater_equal(bits.random_raw(stop - start).astype("<u8", copy=False).view("<u4"), 1 << 31,
                             out=top[2 * start : 2 * stop])
        bits.advance(trials)  # Eve's uniforms, one output each
        # Every Born probability between the four labels is 0, 1/2 or 1: in the sent label's basis Eve
        # finds that label and the receiver agrees; in the other, whatever Eve found, the receiver
        # disagrees exactly when its uniform (output >> 11) / 2**53 is >= 1/2, that is when bit 63 is set.
        disagree, total = 0, trials
        for start, stop in blocks:
            wrong = top[start:stop] != top[trials + start : trials + stop]
            disagree += int(np.count_nonzero(wrong & (bits.random_raw(stop - start) >= 1 << 63)))
    return AttackOutcome(disagree / total, {"agree": (total - disagree) / total, "disagree": disagree / total})


@functools.cache
def _attack_joint(bell: str, eve_pair: tuple[int, int], eve_outcome: str | None) -> tuple[float, ...]:
    """The receiver's joint Bell-outcome distribution, 16 floats in _PAIRS order, built once per key.

    Qubit q (1-indexed) is bit 4 - q of a basis index of the sent block. The
    receiver's integer amplitude <x|_12 <y|_34 (|e><e| on Eve's pair) |block>
    is a sum over the 16 basis states. Its square is an exact integer weight,
    so one true division by the integer total rounds each probability once.
    """
    block = INT_STATES[bell]
    first, second = (4 - q for q in eve_pair)
    on_pair = [2 * (k >> first & 1) + (k >> second & 1) for k in range(16)]
    rest = [k & ~(1 << first | 1 << second) for k in range(16)]
    weights = [0] * 16
    for eve in (INT_BELLS[label] for label in (BELL_LABELS if eve_outcome is None else (eve_outcome,))):
        # <e| on Eve's pair for each value of the other two qubits, then the block after her projection
        overlap = [sum(eve[on_pair[k]] * block[k] for k in range(16) if rest[k] == other) for other in range(16)]
        after = [eve[on_pair[k]] * overlap[rest[k]] for k in range(16)]
        for n, (x, y) in enumerate(itertools.product((INT_BELLS[label] for label in BELL_LABELS), repeat=2)):
            weights[n] += sum(x[k >> 2] * y[k & 3] * after[k] for k in range(16)) ** 2
    total = sum(weights)
    if not total:
        raise ValueError(f"Eve outcome {eve_outcome!r} has zero probability")
    return tuple(weight / total for weight in weights)


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

    The exact method returns the memoised joint as its 16 probabilities.
    Monte Carlo replaces them by each outcome's count over trials: it draws
    one uniform per trial and counts the uniforms against the joint's CDF in
    blocks of 2**16, so its memory does not grow with the trial count.
    """
    if bell not in BELL_LABELS:
        raise ValueError(f"unknown Bell label {bell!r}, expected one of {BELL_LABELS}")
    try:
        eve_pair = _VALID_EVE_PAIRS[_VALID_EVE_PAIRS.index(tuple(eve_pair))]
    except (TypeError, ValueError):
        raise ValueError(f"eve_pair must be one of {_VALID_EVE_PAIRS} (1-indexed), got {eve_pair!r}") from None
    sampled = _sampled(method, trials, seed)
    if eve_outcome is not None and eve_outcome not in BELL_LABELS:
        raise ValueError(f"unknown Bell label {eve_outcome!r}")
    probs = _attack_joint(bell, eve_pair, eve_outcome)
    if sampled:
        import numpy as np
        rng = np.random.default_rng(seed)
        flat = np.array(probs)
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
        probs = (counts / trials).tolist()
    prep = BELL_LABELS.index(bell)
    return AttackOutcome(1.0 - probs[5 * prep], dict(zip(_PAIRS, probs)))
