"""The ``%.17g`` text of float64 arrays, computed in numpy.

``g17_fields(x)`` gives, for each value, the bytes of ``"%.17g" % value``
in a row of a uint8 array, with NUL bytes before, between and after them:
dropping the NULs leaves the text.  The digits are those of Grisu
(Loitsch, PLDI 2010): the value scaled by a power of ten into
[1e16, 1e17) as a double-double, an exact integer part, and a check that
hands every value the scaling cannot settle to Python's own formatter.

- ``y = |x| 10^(16 - e10)`` is ``|x|`` times a table pair ``(hi, lo)``
  of ``10^k``: an exact Veltkamp/Dekker product with ``hi``, plus
  ``|x| lo``.  No product over- or underflows on ``[1e-290, 1e290]``, and
  the error is below 2^-46 of a unit in the 17th digit.
- ``e10`` is first ``floor(log10|x|)`` and is corrected by one when
  ``floor(y)`` lies outside [1e16, 1e17); the test is on the unrounded
  value, as ``9.9999999999999998e-13`` must not round into ``1e-12``.
- A value whose fraction lies within ``_TIE`` of one half (the rounding
  the error bound cannot decide, and every exact tie, which ``%`` rounds
  to even), and every nonzero finite value outside ``[1e-290, 1e290]``,
  is formatted by ``%.17g`` one at a time.

A row is four little-endian uint64 words: the head (sign, the ``0.000``
lead of fixed notation below 1, the first digit and the point after it),
ending at byte 7; the other 16 digits, their trailing zeros dropped; and
a spill byte, or the exponent from that byte on.  A point after digit
1..15 (fixed notation) is put in by shifting the digits after it up one
byte, the last into the spill byte; exponent notation never shifts, so
its ``e`` takes the spill byte, and a value whose 16 digits after the
first are all kept is one run of bytes.
"""

import functools

import numpy as np

__all__ = ["g17_fields"]

# the magnitudes the numpy path formats; the rest take %.17g one at a time
_LOW, _HIGH = 1e-290, 1e290
# decimal exponents the tables cover: those of [_LOW, _HIGH], an estimate
# one off, and a rounding up
_E10 = 291
_K_MIN, _K_MAX = 16 - _E10, 16 + _E10  # the powers 10^(16 - e10)
# a fraction this close to one half is left to %.17g
_TIE = 2.0**-30
_E16, _E17 = 10**16, 10**17
# fixed notation, as %.17g writes it: e10 in [-4, 17)
_FIXED = range(-4, 17)
# the decimal exponents the head and exponent tables cover, from -_E10 - 1
_NE = 2 * _E10 + 3
_WORD = np.dtype("<u8")


def _words(texts) -> np.ndarray:
    """Little-endian words of byte strings of at most 8 bytes, NUL-filled."""
    return np.array(texts, dtype="S8").view(_WORD)


def _kind(e10, more) -> int:
    """The head kind of a value of decimal exponent ``e10``, with ``more``
    digits after the first or not."""
    if e10 in _FIXED and e10 < 0:
        return e10 + 4
    # an integer part after the first digit takes its point later
    return 4 + (more and not (e10 in _FIXED and e10 > 0))


@functools.cache
def _tables():
    """The lookup tables, built on first use from Python integers.

    ``hh, hl, lo`` give ``10^k = hh + hl + lo`` for ``k`` in ``[_K_MIN,
    _K_MAX]``, with ``hh + hl`` the Veltkamp halves of the leading 53 bits
    and ``lo`` the next 53, truncated (relative error below 2^-105); all
    three are normal doubles.  ``groups`` maps ``g`` in [0, 1e4) to its
    four digits as a little-endian uint32, and ``10000 + g`` to the same
    with its trailing zeros dropped.  ``head`` is indexed by ``20 kind +
    10 sign + d0`` (``kind`` 0..3 for the leads of e10 = -4..-1, 4 for the
    digit alone, 5 for the digit and a point), and ``kinds`` gives ``20 kind``
    at ``e10 + _E10 + 1``, plus ``_NE`` when a digit follows the first;
    ``zeros`` puts back the zeros of an integer part of ``e10`` digits
    after the first; ``exps`` is indexed by ``e10 + _E10 + 1``, with no
    text in fixed notation, and its text opens at the spill byte."""
    # 10^k = 5^k 2^k, with 5^k for k < 0 held as floor(2^N / 5^-k): over 106
    # bits each, and the leading bits of a floor are those of the quotient
    N = 106 + 3 * -_K_MIN
    fives, f = [], 1 << N
    for _ in range(-_K_MIN):
        f //= 5
        fives.append(f)
    fives.reverse()  # k = _K_MIN .. -1
    f = 1
    for _ in range(_K_MAX + 1):
        fives.append(f)
        f *= 5
    hi, lo, b = [], [], []
    for k, f in zip(range(_K_MIN, _K_MAX + 1), fives):
        n = f.bit_length()
        m = f >> (n - 106) if n >= 106 else f << (106 - n)  # in [2^105, 2^106)
        e = k + n - 1 - (N if k < 0 else 0)
        hi.append(m >> 53)
        lo.append(m & (2**53 - 1))
        b.append(e)
    hi = np.ldexp(np.array(hi, dtype=np.float64), -52)
    c = hi * 134217729.0  # 2^27 + 1
    hh = c - (c - hi)
    digits = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1).T  # row g: g's digits
    chars = np.zeros((2, 10000, 4), dtype=np.uint8)
    chars[:] = ord("0") + digits
    # a digit is dropped when it and every digit after it are zero
    dropped = digits == 0
    for i in (2, 1, 0):
        dropped[:, i] &= dropped[:, i + 1]
    chars[1][dropped] = 0
    leads = [b"0.000", b"0.00", b"0.0", b"0.", b"", b""]
    head = [
        (sign + lead + bytes([ord("0") + d]) + (b"." if kind == 5 else b"")).rjust(8, b"\0")
        for kind, lead in enumerate(leads)
        for sign in (b"", b"-")
        for d in range(10)
    ]
    b = np.array(b)  # the halves are split in [1, 2), then scaled exactly
    tables = {
        "hh": np.ldexp(hh, b),
        "hl": np.ldexp(hi - hh, b),
        "lo": np.ldexp(np.array(lo, dtype=np.float64), b - 105),
        "groups": chars.reshape(20000, 4).view("<u4").ravel().astype(np.uint64),
        "head": _words(head),
        "zeros": np.array([b"0" * n for n in range(17)], dtype="S16").view(_WORD).reshape(17, 2),
        "kinds": np.array([20 * _kind(e10, more) for more in (False, True) for e10 in range(-_E10 - 1, _E10 + 2)]),
        "exps": _words([b"" if e in _FIXED else b"e%+03d" % e for e in range(-_E10 - 1, _E10 + 2)]),
    }
    for table in tables.values():  # shared by every call
        table.setflags(write=False)
    return tables


def _scaled(a, e10, t):
    """``(floor(y), y - floor(y))`` of ``y = a 10^(16 - e10)``, the floor
    as int64 and the fraction within 2^-46 of its exact value."""
    i = 16 - _K_MIN - e10
    hh, hl, lo = t["hh"].take(i), t["hl"].take(i), t["lo"].take(i)
    p = a * (hh + hl)  # hh + hl is exact: it is the table's hi
    c = a * 134217729.0
    ah = c - (c - a)
    al = a - ah
    low = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo
    whole = np.floor(p)
    r = (p - whole) + low
    carry = np.floor(r)
    return whole.astype(np.int64) + carry.astype(np.int64), r - carry


def _digits(a, t):
    """``(D, e10, doubt)`` for finite ``a`` in ``[_LOW, _HIGH]``: the
    17-digit integer ``D`` in [1e16, 1e17) and decimal exponent of ``a``
    rounded to 17 significant digits, and where the rounding is in doubt."""
    e10 = np.floor(np.log10(a)).astype(np.int64)
    D, frac = _scaled(a, e10, t)
    off = np.flatnonzero((D < _E16) | (D >= _E17))
    if off.size:
        e10[off] += np.where(D[off] < _E16, -1, 1)
        D[off], frac[off] = _scaled(a[off], e10[off], t)
    doubt = np.abs(frac - 0.5) < _TIE
    D += frac > 0.5
    top = np.flatnonzero(D == _E17)  # a rounding up to 10^17
    D[top] = _E16
    e10[top] += 1
    # a value one correction did not place goes to %.17g as well
    doubt[off] |= (D[off] < _E16) | (D[off] >= _E17)
    return D, e10, doubt


def g17_fields(values) -> np.ndarray:
    """``(n, w)`` uint8: row ``i`` holds the bytes of ``"%.17g" % x[i]``
    for the flattened float64 ``values``, in order, with NUL bytes around
    them; the columns before the first and after the last byte of any row
    are left out."""
    x = np.asarray(values, dtype=np.float64).ravel()
    t = _tables()
    a = np.abs(x)
    fast = (a >= _LOW) & (a <= _HIGH)
    rows = np.flatnonzero(fast)
    slow = np.flatnonzero(~fast) if rows.size < x.size else rows[:0]
    if slow.size:
        a, x_fast = a[rows], x[rows]
    else:
        x_fast = x
    D, e10, doubt = _digits(a, t)
    first9 = D // 10**8
    lower = (D - first9 * 10**8).astype(np.int32)
    first9 = first9.astype(np.int32)
    d0 = first9 // 10**8
    upper = first9 - d0 * 10**8
    g1 = upper // 10**4
    g2 = upper - g1 * 10**4
    g3 = lower // 10**4
    g4 = lower - g3 * 10**4
    j = e10 + (_E10 + 1)
    # the head: the lead below 1, or the first digit and, in exponent
    # notation or at e10 = 0, the point when a digit follows
    kind20 = t["kinds"].take(j + _NE * ((upper | lower) != 0))
    # a group drops its trailing zeros when every later group is zero
    z3 = g4 == 0
    z2 = z3 & (g3 == 0)
    z1 = z2 & (g2 == 0)
    groups = t["groups"]
    part = np.empty((rows.size, 4), dtype=np.uint64)
    part[:, 0] = t["head"].take(kind20 + 10 * np.signbit(x_fast) + d0)
    part[:, 1] = groups.take(g1 + 10000 * z1) | groups.take(g2 + 10000 * z2) << 32
    part[:, 2] = groups.take(g3 + 10000 * z3) | groups.take(g4 + 10000) << 32
    part[:, 3] = t["exps"].take(j)
    ints = np.flatnonzero((e10 > 0) & (e10 < _FIXED.stop))  # an integer part after the first digit
    if ints.size:
        _integer_part(part, ints, e10[ints], t["zeros"])
    if slow.size:
        words = np.zeros((x.size, 4), dtype=_WORD)
        words[rows] = part
    else:
        words = part.astype(_WORD, copy=False)
    out = words.view(np.uint8)
    _place_specials(out, x, slow, rows[doubt])
    # one word column at a time: a reduce over axis 0 of (n, 4) is slower
    used = [np.bitwise_or.reduce(words[:, k]) for k in range(4)]
    used = np.flatnonzero(np.array(used, dtype=_WORD).view(np.uint8))
    return out[:, used[0] : used[-1] + 1] if used.size else out[:, :0]


def _integer_part(part, rows, e10, zeros):
    """Complete the integer part of ``e10`` digits after the first (``1 <=
    e10 <= 16``) in ``rows`` of the digit words 1 and 2 of ``part``: put
    back its trailing zeros, and where ``e10 <= 15`` and a digit follows
    it, the point after it, moving the digits after it up one byte and the
    last into the spill byte of word 3."""
    X = e10.astype(np.uint64)
    zeros = zeros.take(e10, axis=0)
    v1, v2 = part[rows, 1] | zeros[:, 0], part[rows, 2] | zeros[:, 1]
    first = X < 8
    # the word that takes the point, and its bits below the point: all of
    # them at X = 16, where a shift by 64 gives 0
    w = np.where(first, v1, v2)
    b = np.where(first, X, X - 8) << 3
    low = w & ((np.uint64(1) << b) - np.uint64(1))
    high = w ^ low  # the digits after the point, none when no point goes in
    point = ((w >> b) != 0) * np.uint64(ord(".")) << b
    part[rows, 1] = np.where(first, low | high << 8 | point, v1)
    part[rows, 2] = np.where(first, v2 << 8 | v1 >> 56, low | high << 8 | point)
    part[rows, 3] |= np.where(first, v2, high) >> 56


def _place_specials(out, x, slow, doubtful):
    """Write zeros, nan and infinities in place, and the ``%.17g`` text of
    every value outside the numpy path (``slow``) or in doubt there."""
    if slow.size:
        v = x[slow]
        zero = slow[v == 0]
        out[zero, 6] = np.where(np.signbit(x[zero]), ord("-"), 0)
        out[zero, 7] = ord("0")
        nan = slow[np.isnan(v)]
        out[nan, 5:8] = np.frombuffer(b"nan", dtype=np.uint8)
        inf = slow[np.isinf(v)]
        out[inf, 4] = np.where(x[inf] < 0, ord("-"), 0)
        out[inf, 5:8] = np.frombuffer(b"inf", dtype=np.uint8)
        doubtful = np.concatenate([slow[np.isfinite(v) & (v != 0)], doubtful])
    if doubtful.size:
        text = np.array([b"%.17g" % value for value in x[doubtful].tolist()], dtype=f"S{out.shape[1]}")
        out[doubtful] = text.view(np.uint8).reshape(-1, out.shape[1])
