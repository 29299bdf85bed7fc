"""The numpy ``%.17g`` formatter against Python's, byte for byte."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylwigner import _g17
from cylwigner._g17 import g17_fields


def texts(values):
    """The text of each value, from its row of ``g17_fields``."""
    return [row[row != 0].tobytes().decode("ascii") for row in g17_fields(values)]


def reference(values):
    return ["%.17g" % x for x in np.asarray(values, dtype=np.float64).ravel().tolist()]


def neighbours(x):
    """``x`` and its two float64 neighbours, with both signs."""
    around = [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]
    return np.concatenate([around, np.negative(around)])


_PINNED = [
    (1e-12, "9.9999999999999998e-13"),
    # exact ties at the 17th digit round to even, down and up
    (1000000000000000.25, "1000000000000000.2"),
    (1000000000000000.75, "1000000000000000.8"),
    (99999999999999984.0, "99999999999999984"),
    (5e-324, "4.9406564584124654e-324"),
    (2.2250738585072014e-308, "2.2250738585072014e-308"),
    (1e-290, "1.0000000000000001e-290"),
    (1e290, "1.0000000000000001e+290"),
    (1.7976931348623157e308, "1.7976931348623157e+308"),
    (0.0, "0"),
    (-0.0, "-0"),
    (np.nan, "nan"),
    (-np.nan, "nan"),
    (np.inf, "inf"),
    (-np.inf, "-inf"),
    (1000.0, "1000"),
    (-120.5, "-120.5"),
    (0.0001, "0.0001"),
    (0.00001, "1.0000000000000001e-05"),
    (1e16, "10000000000000000"),
    (1e17, "1e+17"),
]


@pytest.mark.parametrize("value, text", _PINNED)
def test_pinned(value, text):
    assert texts([value]) == [text] == reference([value])


def test_pinned_as_one_array():
    values = [value for value, _ in _PINNED]
    assert texts(values) == [text for _, text in _PINNED]


@pytest.mark.parametrize("edge", [1e-290, 1e290])
def test_fast_range_edges(edge):
    values = neighbours(edge)
    assert texts(values) == reference(values)


def test_powers_of_ten_and_neighbours():
    # e10 is estimated from log10 and corrected by one: every power of ten
    # and its neighbours sit on the boundary of that estimate
    values = np.concatenate([neighbours(float(f"1e{k}")) for k in range(-300, 301)])
    assert texts(values) == reference(values)


def test_random_bit_patterns():
    bits = np.random.default_rng(17).integers(0, 2**64, size=250_000, dtype=np.uint64)
    values = bits.view(np.float64)
    assert texts(values) == reference(values)


def test_short_decimals_and_integers():
    # trailing zeros dropped from the fraction only, and the point placed
    # after every digit count of an integer part
    rng = np.random.default_rng(23)
    values = [
        float(mantissa) * 10.0 ** (e10 - digits)
        for e10 in range(-7, 20)
        for digits in range(17)
        for mantissa in rng.integers(1, 10 ** (digits + 1), size=8)
    ]
    values += [float(i) for i in range(-1100, 1100)] + [i / 16 for i in range(-300, 300)]
    assert texts(values) == reference(values)
    assert texts(np.negative(values)) == reference(np.negative(values))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_matches_reference_on_bit_patterns(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert texts(values) == reference(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=40))
def test_matches_reference_on_floats(values):
    assert texts(values) == reference(values)


def test_shape_and_padding():
    fields = g17_fields(np.array([[0.5, -2.0], [np.inf, 1e-300]]))
    assert fields.dtype == np.uint8 and fields.shape[0] == 4
    # the first and last columns each hold a byte of some value
    assert fields[:, 0].any() and fields[:, -1].any()
    assert g17_fields(np.array([])).shape[0] == 0


def test_doubtful_values_take_the_fallback(monkeypatch):
    # an exact tie is handed to %.17g; an ordinary value is not
    calls = []
    place = _g17._place_specials

    def spy(out, x, fast, doubtful):
        calls.append(doubtful.tolist())
        return place(out, x, fast, doubtful)

    monkeypatch.setattr(_g17, "_place_specials", spy)
    assert texts([0.1, 1000000000000000.25]) == ["0.10000000000000001", "1000000000000000.2"]
    assert calls == [[1]]


def test_exponent_notation_with_every_digit_is_one_run():
    # the exponent opens at the spill byte, right after the 17th digit, so
    # a value that keeps all its digits is one run of bytes
    rng = np.random.default_rng(31)
    values = rng.uniform(1.0, 10.0, 4000) * 10.0 ** rng.integers(-280, 280, 4000)
    values[::2] *= -1
    kept = np.array([not ("%.16e" % v).split("e")[0].endswith("0") for v in values.tolist()])
    values = values[kept & ((np.abs(values) < 1e-4) | (np.abs(values) >= 1e17))]
    assert values.size > 3000
    fields = g17_fields(values)
    assert texts(values) == reference(values)
    for row in fields:
        at = np.flatnonzero(row)
        assert at[-1] - at[0] + 1 == at.size


@pytest.mark.parametrize("switch", [1e-4, 1e17])
def test_both_notation_switches(switch):
    # fixed below the switch and exponent notation past it (or the reverse
    # at 1e-4), with random digits and each value's neighbours
    rng = np.random.default_rng(37)
    values = neighbours(switch * np.concatenate([rng.uniform(0.5, 2.0, 20_000), [1.0]]))
    assert texts(values) == reference(values)
