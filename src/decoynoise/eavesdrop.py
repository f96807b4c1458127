"""Eavesdropping detection statistics for the two attack scenarios.

Two quantitative facts are reproduced here:

* intercept-resend on single-qubit decoys prepared in two mutually unbiased
  bases is detected with probability exactly 1/4 when the receiver measures
  in the preparation basis;

* an eavesdropper who Bell-measures the wrong pair of a two-Bell-pair decoy
  block causes entanglement swapping, which the receiver's Bell measurements
  on the correct pairs detect with a label-independent probability.

Exact enumeration is the primary method. Monte Carlo sampling exists only to
exercise the statistical pathway; it requires an explicit seed and is
bit-reproducible for a fixed seed.

Both exact tables are built once per process, since each is a function of a
few labels: the intercept-resend disagreement of eve_present alone, and the
receiver's joint Bell-outcome distribution of (bell, eve_pair, eve_outcome),
at most 4 x 2 x 5 = 40 keys, stored read-only. Every call still returns a
fresh AttackOutcome with its own outcome_distribution, and Monte Carlo samples
the same joint with the same random stream. A zero-probability eve_outcome
raises on every call, as exceptions are not memoised.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .states import BELL_LABELS, SINGLE_LABELS, make_bell
from .linalg import tensor_product

# The two labels of each preparation basis.
_BASIS_LABELS = {"Z": ("0", "1"), "X": ("+", "-")}

# Exact rational Born probabilities between the four single-qubit states:
# each state is an integer vector times a coefficient whose square is
# rational, so |<a|b>|^2 is an exact Fraction. This keeps the enumerated
# detection rate exactly 1/4 instead of drifting by an ulp via sqrt(2).
_INT_VECS = {"0": (1, 0), "1": (0, 1), "+": (1, 1), "-": (1, -1)}
_COEFF_SQ = {
    "0": Fraction(1),
    "1": Fraction(1),
    "+": Fraction(1, 2),
    "-": Fraction(1, 2),
}


# Pairs Eve may measure, 1-indexed; the sender entangles (1,2) and (3,4).
_VALID_EVE_PAIRS = ((1, 2), (2, 3))


def _overlap_prob(a: str, b: str) -> Fraction:
    """Born probability |<a|b>|^2 for two single-qubit labels, exactly."""
    dot = sum(x * y for x, y in zip(_INT_VECS[a], _INT_VECS[b]))
    return dot * dot * _COEFF_SQ[a] * _COEFF_SQ[b]


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


@functools.cache
def _exact_disagreement(eve_present: bool) -> Fraction:
    """The exact disagreement probability over 4 sent labels x 2 bases of Eve's, each 1/8; built once per process."""
    if not eve_present:
        return Fraction(0)
    return sum(
        Fraction(1, 8) * _overlap_prob(resent, sent) * (1 - _overlap_prob(sent, resent))
        for sent in SINGLE_LABELS
        for labels in _BASIS_LABELS.values()
        for resent in labels
    )


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
        disagree = _exact_disagreement(bool(eve_present))
        dist = {"agree": float(1 - disagree), "disagree": float(disagree)}
        return AttackOutcome(float(disagree), dist, "exact")

    _require_seeded_mc(trials, seed)
    rng = np.random.default_rng(seed)
    # ov[a, b] = |<a|b>|^2 with labels indexed in SINGLE_LABELS order
    ov = np.array([[float(_overlap_prob(a, b)) for b in SINGLE_LABELS] for a in SINGLE_LABELS])
    sent = rng.integers(0, 4, size=trials)
    if eve_present:
        basis_first = 2 * rng.integers(0, 2, size=trials)  # first label of Eve's basis
        take_second = rng.random(size=trials) >= ov[basis_first, sent]
        eve_outcome_idx = basis_first + take_second
        wrong = rng.random(size=trials) >= ov[sent, eve_outcome_idx]
    else:
        wrong = np.zeros(trials, dtype=bool)
    disagreements = int(np.count_nonzero(wrong))
    dist = {
        "agree": (trials - disagreements) / trials,
        "disagree": disagreements / trials,
    }
    return AttackOutcome(disagreements / trials, dist, "mc", trials=trials, seed=seed)


def _bell_basis() -> np.ndarray:
    """4x4 matrix whose columns are the Bell states, in BELL_LABELS order."""
    return np.column_stack([make_bell(lab).amplitudes for lab in BELL_LABELS])


def _pair_front(state: np.ndarray, pair: tuple[int, int]) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reorder a 4-qubit state so the given 1-indexed pair comes first."""
    front = [q - 1 for q in pair]
    order = tuple(front + [q for q in range(4) if q not in front])
    moved = state.reshape(2, 2, 2, 2).transpose(order).reshape(16)
    return moved, order


def _pair_back(state: np.ndarray, order: tuple[int, ...]) -> np.ndarray:
    """Undo _pair_front's qubit reordering."""
    inverse = np.argsort(order)
    return state.reshape(2, 2, 2, 2).transpose(inverse).reshape(16)


def _eve_branches(prepared: str, eve_pair: tuple[int, int]):
    """Eve's Bell measurement branches: (label, probability, post-state)."""
    bell = make_bell(prepared).amplitudes
    psi = tensor_product(bell, bell)
    basis = _bell_basis()
    moved, order = _pair_front(psi, eve_pair)
    # rows: Eve's Bell outcome on the pair; columns: the other two qubits
    amps = basis.conj().T @ moved.reshape(4, 4)
    branches = []
    for idx, label in enumerate(BELL_LABELS):
        p = float(np.linalg.norm(amps[idx]) ** 2)
        if p < 1e-15:
            continue
        rest = amps[idx] / np.sqrt(p)
        post = _pair_back(np.kron(basis[:, idx], rest), order)
        branches.append((label, p, post))
    return branches


def _receiver_joint(state: np.ndarray) -> np.ndarray:
    """Joint Bell-outcome distribution of measurements on pairs (1,2), (3,4)."""
    basis = _bell_basis()
    amps = tensor_product(basis, basis).conj().T @ state
    return np.abs(amps.reshape(4, 4)) ** 2


@functools.cache
def _attack_joint(bell: str, eve_pair: tuple[int, int], eve_outcome: str | None) -> np.ndarray:
    """The receiver's joint Bell-outcome distribution, read-only and built once per key."""
    branches = [(p, post) for label, p, post in _eve_branches(bell, eve_pair) if eve_outcome in (None, label)]
    if not branches:
        raise ValueError(f"Eve outcome {eve_outcome!r} has zero probability")
    joint = np.zeros((4, 4))
    for p, post in branches:
        # conditioned on Eve's outcome, its one branch has weight p / p = 1
        joint += (p if eve_outcome is None else 1.0) * _receiver_joint(post)
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
    eve_pair = tuple(int(q) for q in eve_pair)
    if eve_pair not in _VALID_EVE_PAIRS:
        raise ValueError(f"eve_pair must be one of {_VALID_EVE_PAIRS} (1-indexed), got {eve_pair}")
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


def all_label_detections(eve_pair: tuple[int, int] = (2, 3)) -> dict[str, float]:
    """Exact detection probability per prepared Bell label, for symmetry checks."""
    return {
        lab: wrong_pair_bell_attack(lab, eve_pair).detection_probability
        for lab in BELL_LABELS
    }
