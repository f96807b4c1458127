"""The decoy-state amplitude tables and the scheme labels."""

import numpy as np
import pytest

from decoynoise.linalg import ATOL, tensor_product
from decoynoise.states import AMPLITUDES, BELL_LABELS, INT_BELLS, SCHEMES, SINGLES, check_scheme

SQ2 = np.sqrt(2.0)


@pytest.mark.parametrize(
    "label,expected",
    [
        ("0", [1, 0]),
        ("1", [0, 1]),
        ("+", [1 / SQ2, 1 / SQ2]),
        ("-", [1 / SQ2, -1 / SQ2]),
    ],
)
def test_single_amplitudes(label, expected):
    np.testing.assert_allclose(SINGLES[label], expected, atol=ATOL)
    # bit-identical to the literal, so no fidelity digit depends on how it is built
    assert SINGLES[label].tobytes() == np.array(expected, dtype=float).tobytes()


@pytest.mark.parametrize(
    "label,expected",
    [
        ("psi+", [1 / SQ2, 0, 0, 1 / SQ2]),
        ("psi-", [1 / SQ2, 0, 0, -1 / SQ2]),
        ("phi+", [0, 1 / SQ2, 1 / SQ2, 0]),
        ("phi-", [0, 1 / SQ2, -1 / SQ2, 0]),
    ],
)
def test_bell_pairs_use_parallel_spin_labeling(label, expected):
    # psi is the parallel pair here, phi the anti-parallel one; a scheme sends
    # two copies, the outer product of the normalised Bell vector with itself
    np.testing.assert_allclose(np.array(INT_BELLS[label]) / SQ2, expected, atol=ATOL)
    assert AMPLITUDES[label].tobytes() == np.outer(expected, expected).ravel().tobytes()


def test_bell_states_pairwise_orthogonal():
    for i, a in enumerate(BELL_LABELS):
        for b in BELL_LABELS[i + 1 :]:
            assert np.dot(INT_BELLS[a], INT_BELLS[b]) == 0
            assert abs(AMPLITUDES[a] @ AMPLITUDES[b]) <= ATOL


def test_bell_pair_block_keeps_its_rounded_amplitudes():
    # the noiseless fidelities the CLI prints depend on these exact bits
    out = AMPLITUDES["psi+"]
    expected = np.zeros(16)
    expected[[0, 3, 12, 15]] = 0.4999999999999999
    assert out.tobytes() == expected.tobytes()


def test_cluster_amplitudes():
    amps = AMPLITUDES["cluster"]
    assert amps[0] == 0.5 and amps[3] == 0.5 and amps[12] == 0.5
    assert amps[15] == -0.5
    assert set(np.abs(amps)) == {0.0, 0.5}
    assert abs(np.linalg.norm(amps) - 1.0) <= ATOL


def test_cluster_overlap_with_two_bell_pairs():
    pair = np.array(INT_BELLS["psi+"]) / SQ2
    pairs = tensor_product(pair, pair)
    np.testing.assert_allclose(pairs, AMPLITUDES["psi+"], atol=ATOL)
    overlap = abs(pairs.conj() @ AMPLITUDES["cluster"]) ** 2
    assert abs(overlap - 0.25) <= ATOL


def test_w_amplitudes():
    amps = AMPLITUDES["w"]
    w = 1.0 / np.sqrt(3.0)
    assert amps.tobytes() == np.array([0, w, w, 0, w, 0, 0, 0]).tobytes()
    assert abs(np.linalg.norm(amps) - 1.0) <= ATOL


@pytest.mark.parametrize("scheme", SCHEMES[1:])
def test_every_decoy_state_is_normalized(scheme):
    amps = AMPLITUDES[scheme]
    assert abs(np.linalg.norm(amps) - 1.0) <= ATOL
    assert amps.dtype == float and not amps.flags.writeable


def test_tables_cover_every_scheme():
    assert SCHEMES == ("bb84", "psi+", "psi-", "phi+", "phi-", "cluster", "w")
    assert tuple(AMPLITUDES) == SCHEMES[1:]
    assert not any(amps.flags.writeable for amps in SINGLES.values())


def test_check_scheme():
    for label in SCHEMES:
        assert check_scheme(label) == label
    for bad in ("ghz", "bb84:00+-", "PSI+", ""):
        with pytest.raises(ValueError) as info:
            check_scheme(bad)
        assert str(info.value) == f"unknown scheme {bad!r}; expected bb84, psi+, psi-, phi+, phi-, cluster or w"
