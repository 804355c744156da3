"""`time,value` CSV rows as bytes, exactly as `f"{t},{v!r}\\n"` writes them,
formatted a chunk of rows at a time with numpy.

repr writes a float64 with the fewest significant digits that read back as
the same float and, of those, the ones nearest to it (Steele & White;
Adams, "Ryū: fast float-to-string conversion", PLDI 2018). For
1e-10 <= |v| < 1e15 this module finds those digits in exact integer
arithmetic, on every value at once. A value outside that range or that
the arithmetic cannot decide exactly (see `_shortest`) is written by repr
itself, so every row is the bytes the f-string writes.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# every operand of the integer arithmetic is uint64: numpy before 2.0 turns
# a uint64 array combined with a signed integer into float64
_U = np.uint64
_POW5 = np.array([5**k for k in range(28)], dtype=np.uint64)
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
_FRACTION = _U((1 << 52) - 1)
_HIDDEN = _U(1 << 52)
# the four ASCII digits of 0..9999, each as one uint32
_QUADS = (np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
          % np.uint16(10) + np.uint16(ord("0"))).astype(np.uint8).view(np.uint32).ravel()
_ZERO, _DOT, _MINUS, _COMMA, _NEWLINE = b"0.-,\n"
# row k keeps the last k of 16 columns
_LAST = np.where(np.arange(16) >= 16 - np.arange(17)[:, None], 0xFF, 0).astype(np.uint8)


def format_rows(times, values):
    """The rows `f"{t},{v!r}\\n"` of int64 `times` and float64 `values`, as
    ASCII bytes."""
    times = np.asarray(times, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if not len(times):
        return b""
    fields = _int_field(times), _value_field(values)
    at = fields[0].shape[1]
    rows = np.empty((len(times), at + 1 + fields[1].shape[1] + 1), np.uint8)
    rows[:, :at] = fields[0]
    rows[:, at] = _COMMA
    rows[:, at + 1:-1] = fields[1]
    rows[:, -1] = _NEWLINE
    # each row's fields hold NUL bytes wherever its text is shorter
    return rows.tobytes().translate(None, b"\0")


def _digits(u, quads):
    """Write the 20 decimal digits of uint64 `u`, zero-padded, as ASCII into
    the (n, 5) uint32 array `quads`, four digits to each."""
    high = u // _U(10**8)
    top = high // _U(10**8)
    quads[:, 0] = _QUADS.take(top.astype(np.intp))
    for col, part in ((1, high - top * _U(10**8)), (3, u - high * _U(10**8))):
        upper = part // _U(10**4)
        quads[:, col] = _QUADS.take(upper.astype(np.intp))
        quads[:, col + 1] = _QUADS.take((part - upper * _U(10**4)).astype(np.intp))


def _int_field(ints):
    """int64 `ints` right-aligned in as many ASCII columns as the longest
    needs, NUL before each shorter one."""
    negative = ints < 0
    magnitude = ints.view(np.uint64).copy()
    np.negative(magnitude, out=magnitude, where=negative)  # exact for int64's minimum too
    # the columns of each: its digits (one for 0) and a minus sign
    width = np.searchsorted(_POW10, np.maximum(magnitude, _U(1)), side="right") + negative
    widest = int(width.max())
    quads = np.empty((len(ints), 5), np.uint32)
    _digits(magnitude, quads)
    field = quads.view(np.uint8)[:, 20 - widest:]
    short = np.flatnonzero(width < widest)
    if len(short):
        part = field[short]
        part[np.arange(widest) < (widest - width[short])[:, None]] = 0
        field[short] = part
    rows = np.flatnonzero(negative)
    field[rows, widest - width[rows]] = _MINUS
    return field


def _shortest(x):
    """(digits, count, point, exact) of float64 `x`. Where `exact`, repr
    writes |x| with the `count` decimal digits of uint64 `digits`, the last
    of them not 0, and |x| = 0.<digits> * 10**point.

    With x = m * 2**e, scale it to D = x * 10**p in [1e15, 1e18): D is
    m * 5**p / 2**t, a product of at most 116 bits shifted right by t >= 1.
    The doubles next to x lie 2 * H away on either side, with
    H = 5**p / 2**(t+1) in the same scale, so a decimal reads back as x when
    it lies strictly within H of D. 2**(t+1) * (D ± H) is odd, so D ± H is
    never an integer and no decimal lies exactly H away. The shortest digits
    are then those of the multiple of 10**j nearest to D, for the largest j
    at which a multiple of 10**j lies within H; the nearest multiple of
    10**(j-1) lies at least as close, so the search stops at the first j
    that fails.

    Not exact, left to repr: 0, subnormals, nan, inf and |x| outside
    [1e-10, 1e15), where the product would not fit; a power of two, whose
    lower neighbour lies half as far; and D exactly halfway between two
    multiples, where repr breaks the tie."""
    exact, p, t, d, frac, five = _scaled(x)
    # D = d + frac / 2**(t+1) and H = h_int + h_frac / 2**(t+1)
    h_int = five >> (t + _U(1))
    h_frac = five & ((_U(1) << (t + _U(1))) - _U(1))
    # the integers in [D - H, D + H] are those in [lowest, highest]
    highest = d + h_int + ((frac + h_frac) >> (t + _U(1)))
    lowest = d - h_int + (frac > h_frac)
    del five, h_int, h_frac
    exact &= highest >= lowest
    j = _largest_level(highest, lowest)

    # round D to the nearest multiple of 10**j
    unit = _POW10.take(j)
    q = d // unit
    twice = (d - q * unit) * _U(2) + (frac >> t)  # 2 * (D mod 10**j), less its fraction
    rest = frac & ((_U(1) << t) - _U(1))
    exact &= (twice != unit) | (rest != _U(0))
    digits = q + ((twice > unit) | ((twice == unit) & (rest != _U(0))))
    rounded = digits * unit
    width = (_U(16) + (rounded >= _U(10**16)) + (rounded >= _U(10**17))
             + (rounded >= _U(10**18))).astype(np.int64)
    return digits, width - j, width - p, exact


def _scaled(x):
    """(exact, p, t, d, frac, five) of float64 `x`, as `_shortest` uses
    them: D = d + frac / 2**(t+1) and five = 5**p, where `exact`, and the
    same for x = 1.5 elsewhere."""
    ax = np.abs(x)
    exact = (ax >= 1e-10) & (ax < 1e15) & ((x.view(np.uint64) & _FRACTION) != _U(0))
    ax = np.where(exact, ax, 1.5)
    bits = ax.view(np.uint64)
    p = 16 - np.floor(np.log10(ax)).astype(np.int64)
    t = (1075 - (bits >> _U(52)).astype(np.int64) - p).astype(np.uint64)
    five = _POW5.take(p)
    # the 116-bit product m * 5**p from 32-bit limbs, as high and low words;
    # 5**27 < 2**63, so the sum of the middle products fits
    m = (bits & _FRACTION) | _HIDDEN
    m_lo, m_hi = m & _U(0xFFFFFFFF), m >> _U(32)
    f_lo, f_hi = five & _U(0xFFFFFFFF), five >> _U(32)
    low = m_lo * f_lo
    mid = m_lo * f_hi + m_hi * f_lo
    lo = low + (mid << _U(32))
    hi = m_hi * f_hi + (mid >> _U(32)) + (lo < low)
    d = (hi << (_U(64) - t)) | (lo >> t)
    frac = (lo << (_U(64) - t)) >> (_U(63) - t)
    return exact, p, t, d, frac, five


def _largest_level(highest, lowest):
    """The largest j <= 18 at which a multiple of 10**j lies in [lowest,
    highest], or 0."""

    def within(j, highest, lowest):
        return highest // _POW10[j] * _POW10[j] >= lowest

    # most values have 16 or 17 digits: the first two levels run on every
    # value, later ones only on the values still within
    j = within(1, highest, lowest).astype(np.int64)
    j += within(2, highest, lowest)
    lanes = np.flatnonzero(j == 2)
    highest, lowest = highest.take(lanes), lowest.take(lanes)
    for level in range(3, 19):
        keep = np.flatnonzero(within(level, highest, lowest))
        if not len(keep):
            break
        lanes, highest, lowest = lanes.take(keep), highest.take(keep), lowest.take(keep)
        j[lanes] += 1
    return j


def _value_field(values):
    """repr of each float64 of `values` in a row of ASCII columns, with NUL
    bytes in the columns it leaves out."""
    n = len(values)
    digits, count, point, exact = _shortest(values)
    # scientific, for 1e-10 <= |v| < 1e-4: the digits with the point after
    # the first, then 'e-XX'
    sci = exact & (point < -3)
    scaled = np.where(sci, 1, point)
    # the columns: a sign, `whole` of the powers whole-1..0, the point, 20
    # of the powers -1..-20, then 'e-XX' if a value needs it. The digit of
    # power i is that of power i - low of `digits`, read from the digits
    # with NUL after them; `_LAST` clears the columns before the first.
    whole = int(np.clip(scaled.max(initial=1, where=exact), 1, 16))
    low = np.clip(scaled - count, -20, 15)
    quads = np.empty((n, 5), np.uint32)
    _digits(digits, quads)
    padded = np.empty((n, 16 + 20 + 35), np.uint8)
    padded[:, 16:36] = quads.view(np.uint8)
    padded[:, 36:] = 0
    text = sliding_window_view(padded, whole + 20, axis=1)[np.arange(n), 36 - whole + low]
    ints = text[:, :whole]
    np.maximum(ints, _ZERO, out=ints)  # zeros down to the point, as in 4690.0
    ints &= _LAST[:, 16 - whole:].take(np.clip(scaled, 0, whole), axis=0)
    # repr of a value left to it is at most 24 columns, as '-2.2250738585072014e-308'
    field = np.zeros((n, max(whole + 22 + 4 * sci.any(), 24)), np.uint8)
    field[:, 0] = _MINUS * np.signbit(values)
    field[:, 1:whole + 1] = ints
    field[:, whole + 1] = _DOT
    field[:, whole + 2:whole + 22] = text[:, whole:]
    for col in (whole, whole + 2):  # '0.' before a value below 1, '.0' after an integer
        np.maximum(field[:, col], _ZERO, out=field[:, col])

    sci = np.flatnonzero(sci)
    if len(sci):
        exponent = (1 - point[sci]).astype(np.uint8)  # 5..10
        field[sci, whole + 22] = ord("e")
        field[sci, whole + 23] = _MINUS
        field[sci, whole + 24] = _ZERO + exponent // 10
        field[sci, whole + 25] = _ZERO + exponent % 10
        single = sci[count[sci] == 1]  # no point after a single digit
        field[single, whole + 1:whole + 3] = 0
    rest = np.flatnonzero(~exact)
    if len(rest):
        texts = np.array([repr(v) for v in values[rest].tolist()], dtype=f"S{field.shape[1]}")
        field[rest] = texts.view(np.uint8).reshape(len(rest), -1)
    return field
