"""The vectorised ``%.17g`` kernel against one ``format(x, ".17g")`` per value."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ellipspin._csv import format_rows


def reference(block):
    return "".join(",".join(format(float(x), ".17g") for x in row) + "\n" for row in block)


def assert_exact(values, cols=5):
    """Every value, laid out ``cols`` to a row, formats as ``format`` would."""
    values = np.asarray(values, dtype=np.float64)
    block = np.concatenate([values, np.zeros(-values.size % cols)]).reshape(-1, cols)
    got, want = format_rows(block).splitlines(), reference(block).splitlines()
    assert len(got) == len(want)
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert not bad, f"{len(bad)} rows differ, first {bad[0]}"


@st.composite
def blocks(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    values = draw(st.lists(st.floats(), min_size=rows * cols, max_size=rows * cols))
    return np.array(values, dtype=np.float64).reshape(rows, cols)


@settings(max_examples=400, deadline=None)
@given(blocks())
def test_any_doubles_in_any_block(block):
    # st.floats() draws from the whole double range: subnormals, +-0,
    # +-inf and nan included.
    assert format_rows(block) == reference(block)


def test_random_bit_patterns():
    bits = np.random.default_rng(20).integers(0, 2**64, size=50_000, dtype=np.uint64)
    assert_exact(bits.view(np.float64), cols=10)


def test_scaled_normals_in_the_kernel_range():
    rng = np.random.default_rng(21)
    assert_exact(rng.standard_normal(50_000) * 10.0 ** rng.integers(-199, 199, 50_000), cols=10)


def test_neighbours_of_powers_of_ten():
    # log10 rounds onto the integer next to 10^e, which sends the first
    # guess of E one too high or too low; several of these values also
    # round up to 10^e at 17 digits (1e-14, 1e-70, 1e+98, ...).
    values = []
    for e in range(-320, 309):
        p = float(f"1e{e}")
        values += [np.nextafter(p, 0.0), p, np.nextafter(p, math.inf)]
    values = np.array(values)
    assert_exact(np.concatenate([values, -values]))


def test_rounding_carries_into_the_next_power_of_ten():
    # The nearest double to 10^e lies below it and its 17 digits round up.
    for text in ("1e-14", "1e-70", "1e+98", "1e+129"):
        x = float(text)
        assert Fraction(x) < Fraction(10) ** int(text[2:])
        assert format_rows(np.array([[x, -x]])) == f"{text},-{text}\n"


@pytest.mark.parametrize(
    "x, text",
    [
        (1e-4, "0.0001"),
        (np.nextafter(1e-4, 0.0), "9.9999999999999991e-05"),
        (1.5e-5, "1.5e-05"),
        (1e16, "10000000000000000"),
        (np.nextafter(1e16, 0.0), "9999999999999998"),
        (1e17, "1e+17"),
        (np.nextafter(1e17, 0.0), "99999999999999984"),
        (123.0, "123"),
        (0.5, "0.5"),
        (0.0, "0"),
        (-0.0, "-0"),
    ],
)
def test_switch_between_fixed_and_exponent_notation(x, text):
    assert format_rows(np.array([[x]])) == text + "\n"


def test_three_digit_exponents():
    values = [1e100, -1e-100, 1.5e-150, 2.5e123, 1e200, 1e-200, 9.8765432109876543e199]
    assert_exact(values)
    assert format_rows(np.array([[1.5e-150, 1e200]])) == "1.5000000000000001e-150,9.9999999999999997e+199\n"


def _ties():
    """Doubles whose exact value lies halfway between two 17-digit decimals.

    x = m 2^(E-17) with m odd is such a tie when m 5^(16-E) = 2n + 1 for a
    17-digit n, so that x = (n + 1/2) 10^(E-16).  That needs E <= 15: a
    double of 10^16 or more is an integer, a multiple of 2^(E-17) at most
    when its exponent is E, so no 17-digit tie exists there (not even among
    integers from 10^17 whose 18th digit is 5, which are odd or not a
    multiple of a large enough power of two).
    """
    rng = np.random.default_rng(22)
    ties = []
    for e in range(-8, 16):
        five = 5 ** (16 - e)
        lo = -(-2 * 10**16 // five) | 1
        hi = min(2 * 10**17 // five, 2**53)
        for m in {lo, hi - 1 | 1, *(int(v) | 1 for v in rng.integers(lo, hi, 6))}:
            if lo <= m < hi:
                x = math.ldexp(m, e - 17)
                assert (Fraction(x) / Fraction(10) ** (e - 16)) % 1 == Fraction(1, 2)
                ties += [x, -x]
    return ties


def test_exact_ties_round_half_even():
    ties = _ties()
    assert len(ties) > 200
    assert_exact(ties)
    # 1 + 2^-17 = 1.00000762939453125 keeps its even 17th digit, and
    # 1 + 3 2^-17 = 1.00002288818359375 rounds its odd one up.
    assert format_rows(np.array([[1 + 2**-17, 1 + 3 * 2**-17]])) == "1.0000076293945312,1.0000228881835938\n"


def test_integers_whose_18th_digit_is_5():
    # The nearest doubles to these integers are near ties, not exact ones.
    rng = np.random.default_rng(23)
    values = []
    for digits in (18, 19):
        for head in rng.integers(10**16, 10**17, 200).tolist():
            values.append(float((head * 10 + 5) * 10 ** (digits - 18)))
    assert_exact(values)

