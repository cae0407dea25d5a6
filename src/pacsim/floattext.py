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
# p = 16 - e10 for e10 in [-281, 280]: log10(1e-280) may round below -280
_P_MIN, _P_MAX = 16 - 280, 16 + 281
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
_SIGN, _LEAD, _ZEROS, _DIGITS, _EXP, _SEP = 0, 1, 3, 6, 24, 29
_ROWS = _SEP + 1


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a as hi + lo with 26-bit halves, so their products are exact."""
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


@functools.cache
def _pow10() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(hi, hi's two halves, lo) with hi + lo = 10^p to about 2^-106 relative,
    for p = _P_MIN.._P_MAX, from exact integers; built on first use."""
    his, los = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        n = 10 ** abs(p)
        if p >= 0:
            hi = float(n)
            lo = float(n - int(hi))
        else:
            hi = 1 / n  # int true division is correctly rounded
            a, b = hi.as_integer_ratio()
            lo = (b - a * n) / (n * b)  # 1/n - a/b, correctly rounded
        his.append(hi)
        los.append(lo)
    hi = np.array(his)
    return (hi, *_split(hi), np.array(los))


def _scaled(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(e10, F, v - F, h) of each |x| in [_MIN, _MAX], all but e10 in units
    of the 17th digit; F is exact and v - F and h are good to about 1e-14."""
    e10 = np.floor(np.log10(ax)).astype(np.int64)
    hi, hi_hi, hi_lo, lo = (t[16 - _P_MIN - e10] for t in _pow10())
    ax_hi, ax_lo = _split(ax)
    prod = ax * hi
    err = ((ax_hi * hi_hi - prod) + ax_hi * hi_lo + ax_lo * hi_hi) + ax_lo * hi_lo
    tail = err + ax * lo
    v_hi = prod + tail
    v_lo = tail - (v_hi - prod)
    whole = np.floor(v_lo)
    half = ((ax.view(np.uint64) & _EXPONENT_BITS) - _HALF_ULP).view(np.float64) * hi
    return e10, v_hi.astype(np.int64) + whole.astype(np.int64), v_lo - whole, half


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shortest digits of each |x| as (fast, c, k, decpt).

    |x| reads as 0.d1...dk 10^decpt, where d1...dk are the first k digits of
    the 17-digit integer c and the rest of c's digits are zeros. Where
    ``fast`` is False the other arrays are meaningless and x needs repr.
    """
    ax = np.abs(x)
    fast = (ax >= _MIN) & (ax <= _MAX) & ((ax.view(np.uint64) & _FRACTION_BITS) != 0)
    if not fast.all():
        ax = np.where(fast, ax, 1.5)
    e10, big, frac, half = _scaled(ax)
    fast &= (big >= 10**16) & (big < 10**17)
    # the multiple of 10^j below v is within h when F mod 10^j < h - frac,
    # the one above when 10^j - F mod 10^j < h + frac; with both bounds off
    # integers by a margin, these are integer comparisons
    below, above = np.ceil(half - frac), np.ceil(half + frac)
    for bound, edge in ((below, half - frac), (above, half + frac)):
        fast &= np.abs(bound - edge - 0.5) < 0.5 - _TOL

    shift = np.zeros(x.shape, np.int64)  # the largest j hit; j = 0 always is
    live = np.flatnonzero(fast)
    f, a, b = big[live], below[live].astype(np.int64), above[live].astype(np.int64)
    for j in range(1, 17):
        step = 10**j
        rem = f % step
        hit = np.flatnonzero((rem < a) | (rem > step - b))
        if not hit.size:
            break
        live, f, a, b = live[hit], f[hit], a[hit], b[hit]
        shift[live] = j
    step = 10**shift
    rem = big % step
    twice = 2 * (rem + frac)  # twice the distance down, against 10^j
    fast &= np.abs(twice - step) >= _TOL  # a tie between two multiples
    c = big - rem + (twice > step) * step
    carry = c == 10**17  # 9.99...e(n) rounded up to 1e(n+1)
    c[carry] = 10**16
    return fast, c, 17 - shift, e10 + 1 + carry


def _layout(x: np.ndarray, c: np.ndarray, k: np.ndarray, decpt: np.ndarray) -> np.ndarray:
    """(_ROWS, n) NUL-padded characters of each value by repr's rules; the
    separator row is left empty."""
    n = x.size
    out = np.zeros((_ROWS, n), np.uint8)
    sci = (decpt <= -4) | (decpt > 16)
    lead = ~sci & (decpt <= 0)  # 0.000ddd
    zero, point = ord("0"), ord(".")
    out[_SIGN] = (x < 0) * ord("-")
    out[_LEAD] = lead * zero
    out[_LEAD + 1] = lead * point
    zeros = np.where(lead, -decpt, 0)
    for i in range(3):
        out[_ZEROS + i] = (zeros > i) * zero

    # digit i of c, NUL past the k-th, but zeros up to the point and the 0 of
    # ".0" for an integer
    length = np.where(~sci & (decpt >= k), decpt + 1, k).astype(np.int8)
    # c's two halves of nine digits (the first always 0) side by side, then NUL
    rows = np.zeros((19, n), np.uint8)
    top = c // 10**9
    value = np.stack((top, c - top * 10**9)).astype(np.uint32)
    halves = rows[:18].reshape(2, 9, n)
    for i in range(8, -1, -1):
        q = value // 10
        halves[:, i] = value - q * 10
        value = q
    digits = rows[1:]
    slot = np.arange(18, dtype=np.int8)[:, None]
    digits += (slot < length) * np.uint8(zero)
    # the point goes after digit dot - 1; the digits from there move one down
    dot = np.where(sci, np.where(k > 1, 1, 18), np.where(lead, 18, decpt))
    moved = digits[1:] + (digits[:-1] - digits[1:]) * (slot[1:] > dot.astype(np.int8))
    out[_DIGITS] = digits[0]
    out[_DIGITS + 1:_EXP] = moved
    out.reshape(-1)[(_DIGITS + dot) * n + np.arange(n)] = point

    exp = decpt - 1
    mag = np.abs(exp)
    out[_EXP] = sci * ord("e")
    out[_EXP + 1] = sci * np.where(exp < 0, ord("-"), ord("+"))
    out[_EXP + 2] = (sci & (mag >= 100)) * (mag // 100 + zero)
    out[_EXP + 3] = sci * (mag // 10 % 10 + zero)
    out[_EXP + 4] = sci * (mag % 10 + zero)
    return out


def rows_text(block: np.ndarray) -> str:
    """Each row of a 2-D float block as its values' reprs joined by spaces, plus "\\n"."""
    block = np.asarray(block, dtype=np.float64)
    n_rows, n_cols = block.shape
    if not n_cols:
        return "\n" * n_rows
    x = block.ravel()
    with np.errstate(all="ignore"):
        fast, c, k, decpt = _shortest(x)
    out = _layout(x, c, k, decpt)
    out[_SEP] = ord(" ")
    out[_SEP, n_cols - 1::n_cols] = ord("\n")
    for i in np.flatnonzero(~fast).tolist():
        text = repr(x[i].item()).encode("ascii")
        out[:_SEP, i] = 0
        out[:len(text), i] = np.frombuffer(text, np.uint8)
    return out.T.tobytes().translate(None, b"\0").decode("ascii")
