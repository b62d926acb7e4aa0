"""fmt17.render against CPython's '%.17g', its reference, byte for byte."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from qotto import fmt17


def rendered(values) -> list[str]:
    text = fmt17.render(np.array(values, dtype=np.float64))
    assert text.shape == (len(values), fmt17.WIDTH)
    return [bytes(row).replace(bytes([fmt17.DROP]), b"").decode() for row in text]


def mismatches(values) -> list[tuple]:
    return [(value, "%.17g" % value, got)
            for value, got in zip(values, rendered(values)) if got != "%.17g" % value]


_BITS = st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64)))
_LOG_UNIFORM = st.tuples(st.floats(-13.0, 17.0), st.booleans()).map(
    lambda drawn: -(10.0 ** drawn[0]) if drawn[1] else 10.0 ** drawn[0])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(_BITS, _LOG_UNIFORM), min_size=1, max_size=64))
def test_bit_patterns_and_log_uniform_values(values):
    assert mismatches(values) == []


def _exact_ties() -> list[float]:
    """Floats whose 18th significant digit is a 5 followed by nothing: the 17-digit
    rounding is an exact tie, j 5^k / 2 for odd j. They exist for decimal exponents of
    -8 to 14, each the odd multiple j 2^-(k+1), k = 16 - X, of the smallest step."""
    ties = []
    for x in range(-11, 15):
        k = 16 - x
        low, high = -(-2 * 10**16 // 5**k), 2 * 10**17 // 5**k
        for j in {low | 1, (low + high) // 2 | 1, (high - 1) | 1}:
            if 0 < j < 2**53 and 10**16 <= j * 5**k // 2 < 10**17:
                ties.append(math.ldexp(j, -(k + 1)))
    return ties


def test_powers_of_ten_ties_and_specials():
    values = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
              2.2250738585072014e-308, 1.7976931348623157e308,
              123456789012345.125, -123456789012345.125]
    for e in range(-12, 17):
        power = float(f"1e{e}")
        values += [power, math.nextafter(power, 0.0), math.nextafter(power, math.inf)]
    ties = _exact_ties()
    values += ties + [-tie for tie in ties]
    assert len(ties) > 40
    assert "%.17g" % 123456789012345.125 == "123456789012345.12"  # half to even
    assert mismatches(values) == []


def test_no_significand_rounds_up_to_a_power_of_ten():
    # the kernel has no carry: below each power of ten on its range, the nearest float is
    # more than half a unit of the 17th digit away, so it keeps 17 digits, e.g.
    # nextafter(1e-4, 0) is 9.9999999999999991e-05
    for e in range(-11, 16):
        below = math.nextafter(float(f"1e{e}"), 0.0)
        while Fraction(below) >= 10 ** Fraction(e):
            below = math.nextafter(below, 0.0)
        assert ("%.17g" % below).lstrip("0.")[0] == "9", below


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.integers(-2**53 + 1, 2**53 - 1), st.sampled_from(
    [0, 1, -1, 2**53 - 1, -2**53 + 1, 10**15 - 1, 10**15, 10**16, -10**15])), min_size=1,
    max_size=64))
def test_whole_numbers_are_written_as_str_writes_the_int(ints):
    # a flag or an index column is float64 of whole numbers below 2^53 in magnitude, which
    # the CSV writer writes '%.17g', as the kernel or '%.17g' itself
    assert rendered(ints) == ["%.17g" % float(n) for n in ints] == list(map(str, ints))
