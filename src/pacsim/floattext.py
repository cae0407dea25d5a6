"""Text of float64 blocks in shortest round-trip ``repr`` form, as array passes.

``rows_text(block)`` returns the same string as
``"".join(" ".join(map(repr, row.tolist())) + "\\n" for row in block)``
with no Python work per value on its fast path.

Each |x| is scaled to v = |x| 10^(16 - e10), e10 = floor(log10 |x|), as a
double-double (Dekker's exact product with a (hi, lo) table of 10^p), so the
integer part F of v holds the 17 leading digits and the values that read
back as x are those within h, half an ulp of x, of v. As in Ryu (Adams,
PLDI 2018), the shortest digits are those of the nearest multiple of 10^j to
v for the largest j that puts it within h. A multiple of 10^(j+1) is one of
10^j, so the walk over j stops at the first miss and carries on only the
values still hitting. The characters go into a NUL-padded byte matrix laid
out by repr's rules, one row per character position, and ``bytes.translate``
drops the NULs.

After the digit search every pass is on 1- to 4-byte integers: the 17
digits come from halving groups of 16 digits down to one (in uint32,
uint16 and uint8), and the layout's masks and characters are int8, int16
or uint8 rows. Each array is dropped once spent, so a block's temporaries
peak at about 80 bytes a value.

A value whose digits the fast path cannot decide with a wide margin gets
``repr``: +-0, non-finite values, |x| outside [1e-280, 1e280], powers of two
(whose interval is not symmetric), an interval edge v +- h within ``_TOL``
of an integer (where a multiple of 10^j may sit), a near tie between two
multiples, and a log10 estimate one decade off.
"""

from __future__ import annotations

import functools

import numpy as np

_MIN, _MAX = 1e-280, 1e280  # |x| range of the fast path
# e10 over that range: log10(1e-280) may round below -280
_E10_MIN, _E10_MAX = -281, 280
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter
# margin of every decision, in units of the 17th digit: v is accurate to
# about 1e-14 of them and h, at least 0.55 of them, to about 2e-15
_TOL = 1e-7
_EXPONENT_BITS = np.uint64(0x7FF << 52)
_FRACTION_BITS = np.uint64((1 << 52) - 1)
_HALF_ULP = np.uint64(53 << 52)  # exponent bits of x minus these: ulp(x) / 2

# character rows of one value: sign, "0." and three zeros for 1e-4 <= |x| < 1,
# 18 digit rows with the point moved in, "e", the exponent's sign, three
# exponent digits, the separator
_SIGN, _LEAD, _DIGITS, _EXP, _SEP = 0, 1, 6, 24, 29
_ROWS = _SEP + 1
# the prefix rows "0.000" of 0 <= -decpt <= 3: a row holds its character
# where -decpt exceeds its threshold
_PREFIX_CHARS = np.array([ord(ch) for ch in "0.000"], np.uint8)[:, None]
_PREFIX_BELOW = np.array([-1, -1, 0, 1, 2], np.int16)[:, None]
_SLOTS = np.arange(18, dtype=np.int8)[:, None]


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a as hi + lo with 26-bit halves, so their products are exact."""
    hi = _SPLIT * a
    lo = hi - a
    hi -= lo
    return hi, np.subtract(a, hi, out=lo)


def _product_error(
    a: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray, ab: np.ndarray
) -> np.ndarray:
    """a b - ab exactly (Dekker), for ab = a b rounded and b = b_hi + b_lo
    split by _split; b_hi and b_lo are overwritten."""
    a_hi, a_lo = _split(a)
    err = a_hi * b_hi
    err -= ab
    err += np.multiply(a_hi, b_lo, out=a_hi)
    err += np.multiply(a_lo, b_hi, out=b_hi)
    err += np.multiply(a_lo, b_lo, out=b_lo)
    return err


#: 10^(16 - e10) as rows (hi, hi's two halves, lo), hi + lo to about 2^-106
#: relative; column i is for e10 = i, and a negative e10 counts from the
#: end, so e10 in [_E10_MIN, _E10_MAX] indexes it as it is. _pow10 fills a
#: decade's column the first time a block needs it, always with the same
#: bits, so two threads that both fill one agree.
_POW10 = np.zeros((4, _E10_MAX - _E10_MIN + 1))
_FILLED = np.zeros(_POW10.shape[1], bool)


def _pow10(e10: np.ndarray) -> np.ndarray:
    """_POW10 with the column of every decade in ``e10`` filled, from exact
    integers; the decades no block has needed stay unbuilt (about 2 us each)."""
    if _FILLED[np.arange(e10.min(), e10.max() + 1)].all():
        return _POW10
    size = _FILLED.size
    # a mask, not np.unique, whose first call imports numpy.ma (17 ms)
    new = np.zeros(size, bool)
    new[e10] = True
    new &= ~_FILLED
    for i in np.flatnonzero(new).tolist():
        p = 16 - (i if i <= _E10_MAX else i - size)
        n = 10 ** abs(p)
        if p >= 0:
            hi = float(n)
            lo = float(n - int(hi))
        else:
            hi = 1 / n  # int true division is correctly rounded
            a, b = hi.as_integer_ratio()
            lo = (b - a * n) / (n * b)  # 1/n - a/b, correctly rounded
        _POW10[0, i], _POW10[3, i] = hi, lo
    _POW10[1:3, new] = _split(_POW10[0, new])
    _FILLED[new] = True
    return _POW10


@functools.cache
def _int_pow10() -> np.ndarray:
    """10^j as int64 for j = 0..16; built on first use."""
    return 10 ** np.arange(17, dtype=np.int64)


def _scaled(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(e10, F, v - F, h) of each |x| in [_MIN, _MAX], all but e10 in units
    of the 17th digit; F is exact and v - F and h are good to about 1e-14.
    e10 is int16."""
    e10 = np.floor(np.log10(ax)).astype(np.intp)
    hi, hi_hi, hi_lo, lo = _pow10(e10)
    hi = hi[e10]
    half = ((ax.view(np.uint64) & _EXPONENT_BITS) - _HALF_ULP).view(np.float64)
    half *= hi
    prod = np.multiply(ax, hi, out=hi)
    # v = prod + tail to about 1e-14; prod is an integer (at least 2^53)
    # wherever F can pass the range check, so F = prod + floor(tail)
    tail = _product_error(ax, hi_hi[e10], hi_lo[e10], prod)
    tail += ax * lo[e10]
    whole = np.floor(tail)
    tail -= whole
    big = prod.astype(np.int64)
    big += whole.astype(np.int64)
    return e10.astype(np.int16), big, tail, half


def _bounds(fast: np.ndarray, frac: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bounds (a, b) of F mod 10^j for the multiple of 10^j below v (a
    remainder below a) and above it (one above 10^j - b) to be within h;
    clears ``fast`` where either bound is not an integer by a margin, and
    gives such a value bounds that no remainder meets."""
    bounds = []
    for edge in (half - frac, half + frac):
        bound = np.ceil(edge)
        edge -= bound
        edge += 0.5  # -(bound - edge - 0.5), exactly
        fast &= np.abs(edge, out=edge) < 0.5 - _TOL
        bounds.append(bound.astype(np.int64))
    for bound in bounds:
        bound *= fast
    return bounds[0], bounds[1]


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shortest digits of each |x| as (fast, c, k, decpt).

    |x| reads as 0.d1...dk 10^decpt, where d1...dk are the first k digits of
    the 17-digit integer c and the rest of c's digits are zeros; k is int8
    and decpt int16. Where ``fast`` is False the other arrays are
    meaningless and x needs repr.
    """
    ax = np.abs(x)
    fast = (ax >= _MIN) & (ax <= _MAX) & ((ax.view(np.uint64) & _FRACTION_BITS) != 0)
    if not fast.all():
        ax[~fast] = 1.5
    e10, big, frac, half = _scaled(ax)
    del ax
    fast &= (big >= 10**16) & (big < 10**17)
    # the multiple of 10^j below v is within h when F mod 10^j < h - frac,
    # the one above when 10^j - F mod 10^j < h + frac; with both bounds off
    # integers by a margin, these are integer comparisons
    a, b = _bounds(fast, frac, half)
    del half

    # the largest j hit (j = 0 always is) and F mod 10^j
    shift = np.zeros(x.shape, np.int8)
    rem = np.zeros(x.shape, np.int64)
    live, f = None, big
    for j in range(1, 17):
        size = 10**j
        r = f // size
        r *= size
        np.subtract(f, r, out=r)  # int64 % runs a division per value
        hit = np.flatnonzero((r < a) | (r > size - b))
        if not hit.size:
            break
        live = hit if live is None else live[hit]
        f, a, b = f[hit], a[hit], b[hit]
        shift[live] = j
        rem[live] = r[hit]
    step = _int_pow10()[shift]
    twice = rem + frac
    twice *= 2  # twice the distance down, against 10^j
    gap = twice - step
    fast &= np.abs(gap, out=gap) >= _TOL  # a tie between two multiples
    big -= rem
    big += (twice > step) * step
    carry = big == 10**17  # 9.99...e(n) rounded up to 1e(n+1)
    big[carry] = 10**16
    e10 += 1
    e10 += carry
    return fast, big, 17 - shift, e10


def _digits(c: np.ndarray) -> np.ndarray:
    """(18, n) uint8: the 17 decimal digits of each c in [10^16, 10^17), then 0."""
    out = np.empty((18, c.size), np.uint8)
    groups = c // 10
    out[16] = c - groups * 10
    out[17] = 0
    # split each group of 2s digits into two of s: 16, 8, 4, 2, 1
    groups = groups[None]
    for size, dtype in ((10**8, np.uint32), (10**4, np.uint16), (100, np.uint8), (10, np.uint8)):
        halves = out[:16] if size == 10 else np.empty((2 * len(groups), c.size), dtype)
        top = groups // size
        halves[0::2] = top
        top *= size
        groups -= top
        halves[1::2] = groups
        groups = halves
    return out


def _layout(x: np.ndarray, digits: np.ndarray, k: np.ndarray, decpt: np.ndarray) -> np.ndarray:
    """(_ROWS, n) NUL-padded characters of each value by repr's rules, from
    the rows of _digits, which it overwrites; the separator row is left
    unset."""
    out = np.empty((_ROWS, x.size), np.uint8)
    sci = (decpt <= -4) | (decpt > 16)
    fixed = ~sci & (decpt > 0)  # ddd.ddd, with the point after digit decpt
    np.multiply((x < 0).view(np.uint8), ord("-"), out=out[_SIGN])
    # "0." and -decpt zeros for -3 <= decpt <= 0
    lead = (-decpt > _PREFIX_BELOW) & (decpt >= -3)
    np.multiply(lead.view(np.uint8), _PREFIX_CHARS, out=out[_LEAD:_DIGITS])
    del lead
    _digit_rows(out[_DIGITS:_EXP + 1], digits, k, decpt, sci, fixed)
    _exponent_rows(out[_EXP:_SEP], decpt - 1, sci)
    return out


def _digit_rows(
    rows: np.ndarray, digits: np.ndarray, k: np.ndarray, decpt: np.ndarray, sci: np.ndarray,
    fixed: np.ndarray,
) -> None:
    """Fill the 18 digit rows of ``rows``; a value with no point gets one in
    its last row, the "e" row, which the exponent rows then overwrite."""
    n = digits.shape[1]
    # digit i of c, NUL past the k-th, but zeros up to the point and the 0 of
    # ".0" for an integer (c's digits from the k-th on are zeros already)
    shown = (decpt + 1) * fixed
    length = np.maximum(shown, k, out=shown).astype(np.int8)
    mask = _SLOTS[:17] < length
    zeros = mask.view(np.uint8)
    zeros *= ord("0")
    digits[:17] |= zeros
    # the point goes into slot dot: after digit decpt, after the first digit
    # of d.dde-05, nowhere (slot 18) for 0.000ddd and de-05
    dot = 18 - (18 - decpt) * fixed - (sci & (k > 1)).view(np.int8) * np.int8(17)
    dot = dot.astype(np.int8)
    # slot i (1 to 17) holds digit i before the point, digit i - 1 after it
    rows[0] = digits[0]
    moved = rows[1:18]
    np.subtract(digits[1:], digits[:-1], out=moved)
    moved *= np.less(_SLOTS[1:], dot, out=mask)
    moved += digits[:-1]
    del mask, zeros
    index = dot.astype(np.intp)
    index *= n
    index += np.arange(n)
    rows.reshape(-1)[index] = ord(".")


def _exponent_rows(rows: np.ndarray, exp: np.ndarray, sci: np.ndarray) -> None:
    """Fill the 5 exponent rows, "e", sign and two or three digits, of the
    values in scientific notation and clear them for the rest."""
    mag = np.abs(exp)
    hundreds = mag // 100
    mag -= hundreds * 100
    tens = mag // 10
    mag -= tens * 10
    sci_char = sci.view(np.uint8)
    np.multiply(sci_char, ord("e"), out=rows[0])
    sign = (exp < 0).view(np.uint8) * np.uint8(2)
    sign += ord("+")  # "-" is two past it
    np.multiply(sign, sci_char, out=rows[1])
    rows[2] = (hundreds + ord("0")) * (sci & (hundreds > 0))
    rows[3] = (tens + ord("0")) * sci
    rows[4] = (mag + ord("0")) * sci


def rows_text(block: np.ndarray) -> str:
    """Each row of a 2-D float block as its values' reprs joined by spaces, plus "\\n".

    A block whose rows are bitwise palindromes, as a real state's Wigner
    grid is in p, has only its first ceil(n/2) columns formatted; their
    characters are mirrored into the rest.
    """
    block = np.asarray(block, dtype=np.float64)
    n_rows, n_cols = block.shape
    if not block.size:
        return "\n" * n_rows
    # bits, not values: -0.0 and 0.0, or two NaN payloads, are not a mirror
    bits = block.view(np.uint64)
    half = (n_cols + 1) // 2 if np.array_equal(bits, bits[:, ::-1]) else n_cols
    x = block[:, :half].ravel()
    # each array is dropped once spent, so the peak is one stage's arrays
    with np.errstate(all="ignore"):
        fast, c, k, decpt = _shortest(x)
    digits = _digits(c)
    del c
    out = _layout(x, digits, k, decpt)
    del digits, k, decpt
    for i in np.flatnonzero(~fast).tolist():
        text = repr(x[i].item()).encode("ascii")
        out[:_SEP, i] = 0
        out[:len(text), i] = np.frombuffer(text, np.uint8)
    # one record of _ROWS characters a value, mirrored where the block is
    records = np.empty((n_rows, n_cols, _ROWS), np.uint8)
    records[:, :half] = out.T.reshape(n_rows, half, _ROWS)
    del out
    records[:, half:] = records[:, :n_cols - half][:, ::-1]
    records[:, :, _SEP] = ord(" ")
    records[:, -1, _SEP] = ord("\n")
    text = records.tobytes()
    del records
    return text.translate(None, b"\0").decode("ascii")
