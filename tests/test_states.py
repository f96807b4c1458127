"""Decoy-state constructors and the scheme variants."""

import numpy as np
import pytest

from decoynoise.linalg import ATOL, tensor_product
from decoynoise.states import (
    BB84Average,
    BB84Product,
    BELL_LABELS,
    BellPair,
    Cluster,
    WState,
    make_bell,
    make_cluster,
    make_decoy_state,
    make_single,
    make_w,
    parse_scheme,
    scheme_label,
)

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
def test_make_single(label, expected):
    np.testing.assert_allclose(make_single(label).amplitudes, expected, atol=ATOL)
    # bit-identical to the literal, so no fidelity digit depends on how it is built
    assert make_single(label).amplitudes.tobytes() == np.array(expected, dtype=complex).tobytes()


def test_make_single_unknown_label():
    with pytest.raises(ValueError, match="unknown"):
        make_single("x")


@pytest.mark.parametrize(
    "label,expected",
    [
        ("psi+", [1 / SQ2, 0, 0, 1 / SQ2]),
        ("psi-", [1 / SQ2, 0, 0, -1 / SQ2]),
        ("phi+", [0, 1 / SQ2, 1 / SQ2, 0]),
        ("phi-", [0, 1 / SQ2, -1 / SQ2, 0]),
    ],
)
def test_make_bell_uses_parallel_spin_labeling(label, expected):
    # psi is the parallel pair here, phi the anti-parallel one
    np.testing.assert_allclose(make_bell(label).amplitudes, expected, atol=ATOL)
    assert make_bell(label).amplitudes.tobytes() == np.array(expected, dtype=complex).tobytes()


def test_make_bell_unknown_label():
    with pytest.raises(ValueError, match="unknown"):
        make_bell("sigma+")


def test_bell_states_pairwise_orthogonal():
    for i, a in enumerate(BELL_LABELS):
        for b in BELL_LABELS[i + 1 :]:
            overlap = make_bell(a).amplitudes.conj() @ make_bell(b).amplitudes
            assert abs(overlap) <= ATOL


def test_cluster_amplitudes():
    amps = make_cluster().amplitudes
    assert amps[0] == 0.5 and amps[3] == 0.5 and amps[12] == 0.5
    assert amps[15] == -0.5
    assert set(np.abs(amps)) == {0.0, 0.5}
    assert abs(np.linalg.norm(amps) - 1.0) <= ATOL


def test_cluster_overlap_with_two_bell_pairs():
    pairs = tensor_product(make_bell("psi+").amplitudes, make_bell("psi+").amplitudes)
    overlap = abs(pairs.conj() @ make_cluster().amplitudes) ** 2
    assert abs(overlap - 0.25) <= ATOL


def test_make_w():
    amps = make_w(3).amplitudes
    np.testing.assert_allclose(amps[[1, 2, 4]], np.full(3, 1 / np.sqrt(3)), atol=ATOL)
    assert abs(np.linalg.norm(amps) - 1.0) <= ATOL
    with pytest.raises(ValueError, match="n=3"):
        make_w(4)


@pytest.mark.parametrize(
    "scheme",
    [
        BB84Product(("0", "1", "+", "-")),
        BellPair("psi+"),
        BellPair("phi-"),
        Cluster(),
        WState(),
    ],
)
def test_every_decoy_state_is_normalized(scheme):
    amps = make_decoy_state(scheme).amplitudes
    assert abs(np.linalg.norm(amps) - 1.0) <= ATOL


def test_make_decoy_state_bell_pair_block():
    out = make_decoy_state(BellPair("psi+")).amplitudes
    expected = np.zeros(16)
    expected[[0, 3, 12, 15]] = 0.5
    np.testing.assert_allclose(out, expected, atol=ATOL)


def test_make_decoy_state_product_order():
    out = make_decoy_state(BB84Product(("0", "1", "+", "-"))).amplitudes
    explicit = make_single("0").amplitudes
    for lab in ("1", "+", "-"):
        explicit = tensor_product(explicit, make_single(lab).amplitudes)
    np.testing.assert_allclose(out, explicit, atol=ATOL)


def test_make_decoy_state_rejects_average_marker():
    with pytest.raises(ValueError, match="bb84_average_fidelity"):
        make_decoy_state(BB84Average())


def test_bb84_product_validation():
    with pytest.raises(ValueError):
        BB84Product(("0", "1", "+"))
    with pytest.raises(ValueError):
        BB84Product(("0", "1", "+", "q"))


def test_bell_pair_validation():
    with pytest.raises(ValueError):
        BellPair("psi")
    with pytest.raises(ValueError, match="copies"):
        BellPair("psi+", copies=3)


def test_w_state_validation():
    with pytest.raises(ValueError):
        WState(4)


def test_scheme_labels_round_trip():
    for scheme in (BB84Average(), BellPair("phi+"), Cluster(), WState()):
        assert parse_scheme(scheme_label(scheme)) == scheme
    assert scheme_label(BB84Product(("0", "0", "+", "-"))) == "bb84:00+-"
    with pytest.raises(ValueError):
        parse_scheme("ghz")
