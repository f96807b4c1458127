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
over trials; it needs integer trials and seed and alone imports numpy. It
counts contiguous parts of the seeded PCG64 stream at once, one per usable
CPU up to _MC_PARTS, so it is bit-reproducible for a fixed seed on any number
of CPUs. The receiver's wrong-pair joint is built once per process for each
of the at most 4 x 2 x 5 = 40 keys (bell, eve_pair, eve_outcome) as a flat
tuple of 16 floats in _PAIRS order. A zero-probability eve_outcome raises on
every call, as exceptions are not memoised.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
import os

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

# At most this many Monte Carlo parts at once, each on its own CPU: each holds a block of temporaries,
# about 0.6 MB, and 2 parts is the most whose speed has been measured.
_MC_PARTS = 2


AttackOutcome = collections.namedtuple("AttackOutcome", ["detection_probability", "outcome_distribution"])
AttackOutcome.__doc__ = """Detection probability plus the full measurement-outcome distribution, a dict of floats."""


def _sampled(method: str, trials: int | None, seed: int | None) -> tuple[int, int] | tuple[None, None]:
    """(trials >= 1, seed >= 0) as ints for method "mc", or (None, None) for "exact"; no bool counts as an integer."""
    if method not in ("exact", "mc"):
        raise ValueError(f"unknown method {method!r}, expected 'exact' or 'mc'")
    if method == "exact":
        return None, None
    count, start = (operator.index(value) if hasattr(type(value), "__index__") and type(value) is not bool else None
                    for value in (trials, seed))
    if count is None or count < 1:
        raise ValueError(f"monte-carlo method needs a positive trial count as an integer, got {trials!r}")
    if start is None:
        raise ValueError(f"monte-carlo method needs an explicit seed as an integer, got {seed!r}")
    if start < 0:
        raise ValueError(f"monte-carlo seed must be non-negative, got {seed}")
    return count, start


def _in_parts(trials: int, seed: int, *phases):
    """Runs part(bits, start, stop) on equal contiguous parts [start, stop) of range(trials) and sums the results.

    One part per usable CPU, at most _MC_PARTS, each of at least _MC_BLOCK trials. The (offset, part) phases run
    in turn, and the last one's sum is returned. bits is the part's PCG64(seed), built here once and advanced to
    output offset + start. Part 0 runs here, each other on its own thread; errors are raised once all have ended.
    """
    import numpy as np
    parts = max(1, min(_MC_PARTS, trials // _MC_BLOCK))
    if parts > 1:
        import threading
        parts = min(parts, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    cuts = [trials * k // parts for k in range(parts + 1)]
    bits, read = [np.random.PCG64(seed) for _ in range(parts)], [0] * parts  # read: the outputs each has drawn

    def run(k):  # the current phase's part k
        try:
            results[k] = part(bits[k], cuts[k], cuts[k + 1])
        except BaseException as error:  # raised below, once every part has finished
            results[k] = error

    for offset, part in phases:
        results = [None] * parts
        for k in range(parts):
            if offset + cuts[k] != read[k]:
                bits[k].advance(offset + cuts[k] - read[k])
            read[k] = offset + cuts[k + 1]
        threads = [threading.Thread(target=run, args=(k,)) for k in range(1, parts)]
        for thread in threads:
            thread.start()
        run(0)
        for thread in threads:
            thread.join()
        for error in (result for result in results if isinstance(result, BaseException)):
            raise error
    return sum(results[1:], results[0])


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
    trials, seed = _sampled(method, trials, seed)
    if trials:
        import numpy as np
        top = np.empty(2 * trials, dtype=bool)

        # rng.integers(0, 4), then rng.integers(0, 2), as int32 take the top bits of 2 * trials 32-bit
        # draws (Lemire's method never rejects on a power-of-two range): the halves of the first trials
        # outputs, low half first. Bit 31 of half j is the sent label's basis (sent >> 1, in SINGLE_LABELS
        # order), and bit 31 of half trials + j is Eve's basis.
        def bases(bits, start, stop):  # one expression per block, so its outputs are freed before the next are drawn
            for first, last in itertools.pairwise([*range(start, stop, _MC_BLOCK), stop]):
                np.greater_equal(bits.random_raw(last - first).astype("<u8", copy=False).view("<u4"), 1 << 31,
                                 out=top[2 * first : 2 * last])

        # Eve's uniforms take the next trials outputs, one each. Every Born probability between the four
        # labels is 0, 1/2 or 1: in the sent label's basis Eve finds that label and the receiver agrees;
        # in the other, whatever Eve found, the receiver disagrees exactly when its uniform
        # (output >> 11) / 2**53 is >= 1/2, that is when bit 63 of output 2 * trials + j is set.
        def disagreements(bits, start, stop):
            disagree = 0
            for first, last in itertools.pairwise([*range(start, stop, _MC_BLOCK), stop]):
                wrong = top[first:last] != top[trials + first : trials + last]
                disagree += int(np.count_nonzero(wrong & (bits.random_raw(last - first) >= 1 << 63)))
            return disagree

        disagree, total = _in_parts(trials, seed, (0, bases), (2 * trials, disagreements)), trials
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
    trials, seed = _sampled(method, trials, seed)
    if eve_outcome is not None and eve_outcome not in BELL_LABELS:
        raise ValueError(f"unknown Bell label {eve_outcome!r}")
    probs = _attack_joint(bell, eve_pair, eve_outcome)
    if trials:
        import numpy as np
        # default_rng(seed)'s uniforms against the CDF of Generator.choice(16, p=probs), which draws outcome k
        # for a uniform u with cdf[k-1] <= u < cdf[k]; each outcome's draws are counted, not made. The probabilities
        # are in 64ths, so their float sums are exact, equal choice's normalised cumsum and end at 1.0, which no
        # uniform reaches. Each edge inside (0, 1) is counted once a block; with one certain outcome there is none.
        cdf = [0.0, *itertools.accumulate(probs)]
        edges = set(cdf) - {0.0, 1.0}

        def count(bits, start, stop):
            rng, buffer, reached = np.random.Generator(bits), np.empty(min(trials, _MC_BLOCK)), collections.Counter()
            for first in range(start, stop, _MC_BLOCK):
                uniforms = rng.random(out=buffer[: stop - first])
                reached.update({edge: int(np.count_nonzero(uniforms >= edge)) for edge in edges})
            return reached  # the uniforms at or above each edge

        reached = _in_parts(trials, seed, (0, count)) if edges else collections.Counter()
        reached[0.0] = trials  # every uniform is at or above 0.0
        probs = [(reached[low] - reached[high]) / trials for low, high in itertools.pairwise(cdf)]
    prep = BELL_LABELS.index(bell)
    return AttackOutcome(1.0 - probs[5 * prep], dict(zip(_PAIRS, probs)))
