"""CSV lines of ``%.17g`` values for whole blocks of float64, without a Python call per value.

`format_rows` turns a (rows, columns) float64 array into the text
``",".join(format(x, ".17g") for x in row) + "\\n"`` for every row, byte
for byte.  It follows the usual route of exact binary-to-decimal
conversion, which only needs a product carried to about twice double
precision (Dekker, Numer. Math. 18 (1971) 224; Steele & White, PLDI 1990):

1. E = floor(log10 |x|) from numpy's log10, moved by one where that misses
   a power of ten.
2. y = |x| 10^(16 - E) as a double-double: Dekker's exact product of |x|
   with the high part of an exact hi + lo table of powers of ten, plus |x|
   times the low part.  Its error is below 1e-14 while y < 10^18.
3. D = round(y) holds the 17 significant digits; a carry to 10^17 moves E
   up by one.
4. The digits come from a table of 3-digit ASCII groups, eight digits to a
   uint64 word, and ``%g``'s layout is a set of byte masks chosen by E and
   the count of significant digits (see `_layout`).
5. Each value fills a 32-byte field padded with NUL bytes, and one
   ``bytes.translate`` drops the pads.

Values the kernel cannot vouch for go through ``format`` one at a time:
non-finite values, |x| outside [1e-200, 1e200] (zeros aside), and values
whose y lies within 1e-6 of a half-integer.  The last covers every exact
decimal tie, where round-half-even needs the exact value.
"""

from __future__ import annotations

import math

import numpy as np

# Range of |x| the kernel formats; its tables span exponents a little wider,
# for the first guess of E and its correction.
_X_MIN, _X_MAX = 1e-200, 1e200
_E_SPAN = 202
# Distance of y's fraction from 1/2 below which the value is formatted by
# `format`: the double-double error is below 1e-14.
_TIE_BAND = 1e-6
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_FIELD = 32  # bytes per value: four little-endian uint64 words
_U64 = np.uint64
_MASK64 = 2**64 - 1


def _powers_of_ten():
    """hi + lo = 10^k within 2^-106 relative, for k = 16 - E over E in ±_E_SPAN.

    Each comes from an exact integer: 10^k itself, or 2^s / 10^-k with at
    least 128 bits for k < 0.  The high part is also split in two halves
    of at most 27 bits for Dekker's product.
    """
    hi, lo = [], []
    for k in range(16 - _E_SPAN, 17 + _E_SPAN):
        s = 0 if k >= 0 else 4 * -k + 128
        num = 10**k if k >= 0 else (1 << s) // 10**-k
        head = float(num)
        hi.append(math.ldexp(head, -s))
        lo.append(math.ldexp(float(num - int(head)), -s))
    hi, lo = np.array(hi), np.array(lo)
    big = _SPLIT * hi
    hi_hi = big - (big - hi)
    return hi, hi_hi, hi - hi_hi, lo


_P_HI, _P_HI_HI, _P_HI_LO, _P_LO = _powers_of_ten()

# ASCII of every 3-digit group, first digit in the lowest byte.
_n = np.arange(1000, dtype=_U64)
_DIGITS3 = sum(((_n // _U64(10 ** (2 - j)) % _U64(10)) + _U64(ord("0"))) << _U64(8 * j) for j in range(3))
del _n
_ZEROS8 = _U64(int.from_bytes(b"0" * 8, "little"))


def _word(text: bytes, at: int) -> int:
    """A little-endian word holding ``text`` from byte ``at`` on."""
    return int.from_bytes(bytes(at) + text, "little")


def _layout(e: int, nsig: int) -> list[int]:
    """Masks that lay out 17 digits with exponent e and nsig significant digits.

    The digits sit in three words (digits 0-7, 8-15, 16); the result takes
    18 bytes of the same three words.  Trailing zeros past nsig are dropped,
    except those before the decimal point in fixed notation.  The point
    follows digit c: c = E in fixed notation for E >= 0, c = 0 in exponent
    notation, and nowhere when no digit would follow it or when E < 0 in
    fixed notation, whose "0.000" prefix holds the point.  Returns, per
    word, the mask of digits kept in place, the mask of digits taken from
    the copy shifted up by one byte, and the point itself.
    """
    if 0 <= e < 17:
        ndig, c = max(nsig, e + 1), e
    else:
        ndig, c = nsig, (0 if not -4 <= e < 0 else 17)
    if nsig <= c + 1:
        c = 17

    def low(m):
        return (1 << 8 * m) - 1

    masks = (low(min(ndig, c + 1)), low(ndig + 1) & ~low(c + 2), ord(".") << 8 * (c + 1) if c < 17 else 0)
    return [(m >> 64 * w) & _MASK64 for m in masks for w in range(3)]


# Layout masks by (E clipped to [-5, 17], nsig): every exponent outside
# [-4, 16] lays out alike.  Row i holds mask i // 3 of word i % 3.
_LAYOUT = np.array([[_layout(e, n) for n in range(18)] for e in range(-5, 18)], dtype=_U64).reshape(-1, 9).T.copy()


def _edges(e: int) -> tuple[int, int]:
    """Word 0's "0.000" prefix (after the sign byte) and word 3's exponent, for E = e."""
    prefix = _word(b"0.000"[: 1 - e], 1) if -4 <= e < 0 else 0
    exponent = 0 if -4 <= e < 17 else _word(b"e%c%02d" % (b"-+"[e >= 0], abs(e)), 2)
    return prefix, exponent


_PREFIX, _EXPONENT = (np.array(t, dtype=_U64) for t in zip(*map(_edges, range(-_E_SPAN, _E_SPAN + 1))))


def _scaled(a: np.ndarray, e: np.ndarray):
    """floor(y) as int64 and y's fraction, for y = a * 10^(16 - e)."""
    i = _E_SPAN - e
    big = _SPLIT * a
    a_hi = big - (big - a)
    a_lo = a - a_hi
    b_hi, b_lo = _P_HI_HI[i], _P_HI_LO[i]
    p = a * _P_HI[i]
    t = (((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo) + a * _P_LO[i]
    whole = np.floor(t)
    return p.astype(np.int64) + whole.astype(np.int64), t - whole


def _digits8(v: np.ndarray) -> np.ndarray:
    """Eight ASCII digits of each v < 10^8 in one word, first digit lowest."""
    head = v // 100000
    mid = (v - head * 100000) // 100
    tail = v - head * 100000 - mid * 100
    return _DIGITS3[head] | (_DIGITS3[mid] << _U64(24)) | ((_DIGITS3[tail] >> _U64(8)) << _U64(48))


def _decimal(x: np.ndarray):
    """E and the 17-digit integer D of each x, and the indices that need `format`.

    Zeros come out as E = 0 and D = 10^16, the digits of 1.
    """
    a = np.abs(x)
    inside = (a >= _X_MIN) & (a <= _X_MAX)
    a = np.where(inside, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    floor_y, frac = _scaled(a, e)
    low, high = floor_y < 10**16, floor_y >= 10**17
    miss = np.flatnonzero(low | high)
    if miss.size:
        e[miss] += high[miss].astype(np.intp) - low[miss]
        floor_y[miss], frac[miss] = _scaled(a[miss], e[miss])
    d = floor_y + (frac > 0.5)
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    slow = (~inside & (x != 0.0)) | (np.abs(frac - 0.5) < _TIE_BAND)
    return e, d, np.flatnonzero(slow)


def _fields(x: np.ndarray, e: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The four words of each value's field: sign and prefix, digits and point, exponent."""
    head = d // 10**9
    rest = d - head * 10**9
    mid = rest // 10
    last = rest - mid * 10
    w0, w1, w2 = _digits8(head), _digits8(mid), (last + ord("0")).astype(_U64)
    # Significant digits: the highest byte that is not '0', from the float
    # exponent of the word XOR '00000000' (its top byte is at most 9, so
    # rounding to float cannot carry into the next byte).
    in_w1 = mid != 0
    nonzero = np.where(in_w1, w1, w0) ^ _ZEROS8
    nbytes = (np.frexp(nonzero.astype(np.float64))[1] + 7) // 8
    nsig = np.where(last != 0, 17, np.where(in_w1, 8, 0) + nbytes)

    j = (np.clip(e, -5, 17) + 5) * 18 + nsig
    keep, shift, point = _LAYOUT[0:3], _LAYOUT[3:6], _LAYOUT[6:9]
    eight = _U64(8)
    ie = e + _E_SPAN
    field = np.empty((x.size, _FIELD // 8), dtype="<u8")
    field[:, 0] = _PREFIX[ie] | (np.signbit(x) * _U64(ord("-")))
    field[:, 1] = (w0 & keep[0][j]) | ((w0 << eight) & shift[0][j]) | point[0][j]
    field[:, 2] = (w1 & keep[1][j]) | (((w1 << eight) | (w0 >> _U64(56))) & shift[1][j]) | point[1][j]
    field[:, 3] = (
        (w2 & keep[2][j]) | (((w2 << eight) | (w1 >> _U64(56))) & shift[2][j]) | point[2][j] | _EXPONENT[ie]
    )
    field[x == 0.0, 1] = ord("0")
    return field


def format_rows(block: np.ndarray) -> str:
    """The CSV lines of a (rows, columns) float64 array, each value as ``format(x, ".17g")``."""
    rows, cols = block.shape
    x = block.ravel()
    e, d, slow = _decimal(x)
    field = _fields(x, e, d)
    separators = np.full(cols, ord(","), dtype=_U64)
    separators[-1] = ord("\n")
    field.reshape(rows, cols, -1)[:, :, -1] |= separators << _U64(56)
    if slow.size:
        text = field.view(np.uint8)
        for i in slow.tolist():
            s = format(float(x[i]), ".17g").encode("ascii")
            text[i, : _FIELD - 1] = 0
            text[i, : len(s)] = np.frombuffer(s, np.uint8)
    return field.tobytes().translate(None, b"\0").decode("ascii")
