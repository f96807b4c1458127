"""The distances that scripts/moved_values.py reports for a moved field."""

import importlib.util
import pathlib

import pytest

_SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "moved_values.py"
_SPEC = importlib.util.spec_from_file_location("moved_values", _SCRIPT)
moved_values = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(moved_values)

TINY = "4.440892098500626e-16"  # 2**-51


@pytest.mark.parametrize("a,b,steps,rel", [
    ("0.5", "0.5000000000000001", 1, 2.220446049250313e-16),
    ("0.9999999999999998", "1.0", 2, 2.220446049250313e-16),
    ("-0.0", "0.0", 0, 0.0),
    # a move off 0 counts every float between, but reads 1.0 relative
    ("0.0", TINY, 4377498837804122112, 1.0),
    ("-2.7755575615628914e-17", "0.0", 4359484439294640128, 1.0),
    ("1e308", "-1e308", 18429743317745373504, 2.0),
    ("inf", "1.0", None, None),
    ("nan", "nan", None, None),
    ("", "0.5", None, None),
    ("psi+", "psi-", None, None),
])
def test_ulps_and_relative_distance(a, b, steps, rel):
    assert moved_values.ulps(a, b) == moved_values.ulps(b, a) == steps
    assert moved_values.relative(a, b) == moved_values.relative(b, a) == rel


def test_a_move_off_zero_swamps_max_ulps_but_not_the_median_or_max_rel():
    pairs = [("0.5", "0.5000000000000001"), ("0.25", "0.25000000000000006"), ("0.0", TINY)]
    distances = [(moved_values.ulps(a, b), moved_values.relative(a, b)) for a, b in pairs]
    assert moved_values.summarize(distances) == [3, 4377498837804122112, 1, 1.0]
    # fields that are not two floats count, but have no distance
    assert moved_values.summarize(distances[:2] + [(None, None)]) == [3, 1, 1, 2.220446049250313e-16]
    assert moved_values.summarize([(None, None), (None, None)]) == [2, "", "", ""]
