"""The package's file formats, each with one writer and one reader: one CSV
dialect (see :func:`write_csv`), and JSON objects (see :func:`write_object`).
The ``%.2f`` text of SVG polyline points (see :func:`points_text`) is made
here too, next to the CSV digit kernel whose digit words and splitter it
shares; nothing reads it back."""

from __future__ import annotations

import functools
import itertools
import json
import math
from typing import NamedTuple

import numpy as np

# rows formatted per write by write_csv: a chunk of a tracking log is 3,840
# values, which the digit kernel formats holding at most 0.84 MB (traced);
# chunks of 128 to 512 rows wrote the 20 s gait1 log equally fast within the
# host's noise (0.07-0.10 s, interleaved in-process timing), 64 rows ~20 % slower
CSV_CHUNK = 128

# the digit kernel writes 10**-_EXP <= |x| < 10**_EXP itself, so every
# exponent it writes has two digits; Python formats the other values
_EXP = 99
# a product within this of a tie is left to Python where 10**(16 - E) is not
# a double, since there the product's last bits are rounded (by < 1e-14)
_TIE_MARGIN = 1e-9
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter
# the layouts: fixed notation for each E in [-4, 16], then the exponent form
_FORMS = 22
# a value's row of _ROW 8-byte words: slot j is byte 2j, a digit, and byte
# 2j + 1, the point after it.  Slot 1 holds the sign, slots 3-6 the zeros
# of "0.000", slot 7 the leading digit and slots 8-23 the other 16; bytes
# 48-51 hold "e+XX" and byte 52 the separator.  The bytes a value does
# not use are zeros, which the writer deletes.
_ROW = 7
_FALLBACK = 2 * _FORMS * 17  # the row code of a value Python formats


def _pow10(k: int) -> tuple[float, float]:
    """``10**k`` as a double-double ``(hi, lo)``, each part correctly rounded."""
    num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    hi = num / den  # int division rounds correctly
    h_num, h_den = hi.as_integer_ratio()
    return hi, (num * h_den - h_num * den) / (den * h_den)


def _words(rows) -> np.ndarray:
    """Rows of bytes as little-endian 8-byte words."""
    return np.ascontiguousarray(rows, dtype=np.uint8).view("<u8")


class _Tables(NamedTuple):
    """The digit kernel's tables: the first eight by ``E + _EXP + 1``."""
    least: np.ndarray  # the least double >= 10**E
    hi: np.ndarray     # 10**(16 - E) = hi + lo, and hi = hh + hl split
    lo: np.ndarray
    hh: np.ndarray
    hl: np.ndarray
    tie: np.ndarray    # |t - rint(t)| above this is too near a tie to decide
    base: np.ndarray   # the row code of E with 17 digits, positive
    exp: np.ndarray    # the word "e+XX" of E
    quad: np.ndarray   # the word of four digits, by their number (slots 4-7 too)
    zeros: np.ndarray  # the trailing zeros of four digits, by their number
    masks: np.ndarray  # the kept bytes of each row code, with slots 0-3 filled


@functools.cache
def _tables() -> _Tables:
    e = np.arange(-_EXP - 1, _EXP + 3)
    hi, lo = np.array([_pow10(16 - k) for k in e.tolist()]).T
    c = hi * _SPLIT
    hh = c - (c - hi)
    least = [h if l <= 0.0 else math.nextafter(h, math.inf)
             for h, l in map(_pow10, e.tolist())]
    base = np.where((e >= -4) & (e <= 16), e + 4, _FORMS - 1) * 17 + 16
    exp = np.zeros((e.size, 8), np.uint8)
    exp[:, 0], exp[:, 1] = ord("e"), np.where(e < 0, ord("-"), ord("+"))
    exp[:, 2], exp[:, 3] = 48 + abs(e) // 10 % 10, 48 + abs(e) % 10
    g = np.arange(10_000, dtype=np.int16)[:, None]  # int16 keeps the build's arrays small
    quad = np.full((g.size, 8), ord("."), np.uint8)
    quad[:, ::2] = 48 + g // np.array([1000, 100, 10, 1], np.int16) % 10
    zeros = (g % np.array([10, 100, 1000, 10_000], np.int16) == 0).sum(1, dtype=np.int8)

    # row code (sign * _FORMS + form) * 17 + digits - 1: the slots from
    # first to last, the point after slot `point` if a digit follows it
    code = np.arange(_FALLBACK)[:, None]
    sign, form, digits = code // (_FORMS * 17), code // 17 % _FORMS, code % 17 + 1
    exponent = form == _FORMS - 1
    point = np.where(exponent, 7, form + 3)
    first, last = np.minimum(point, 7), np.maximum(6 + digits, point)
    b = np.arange(8 * _ROW)
    slot = b // 2
    keep = np.where(b % 2 == 1, (slot == point) & (point < last), (first <= slot) & (slot <= last))
    keep |= ((b == 2) & (sign == 1)) | ((b >= 48) & (b < 52) & exponent) | (b == 52)
    masks = np.vstack([keep, (b < 24) | (b == 52)]).astype(np.uint8) * np.uint8(255)
    masks[:, :8] &= np.frombuffer(b"0.-.0.0.", np.uint8)
    return _Tables(np.array(least), hi, lo, hh, hi - hh,
                   np.where(lo != 0.0, 0.5 - _TIE_MARGIN, 0.5), base.astype(np.intp),
                   _words(exp).ravel(), _words(quad).ravel(),
                   zeros, _words(masks))


def _digits(x: np.ndarray, tb: _Tables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For the floats ``x``: ``E + _EXP + 1``, the 17 digits and where Python writes the value.

    The digits are ``round(|x| * 10**(16 - E))`` half to even (0 for a
    zero), for ``10**E <= |x| < 10**(E + 1)``.  The product is ``p + t``:
    ``p`` the rounded product of ``|x|`` and ``hi``, ``t`` its error (exact,
    by Dekker's split) plus ``|x| * lo``.
    """
    a = np.abs(x)
    fast = (a >= tb.least[1]) & (a < tb.least[2 * _EXP + 1])
    zero = x == 0.0
    if not fast.all():
        a[~fast] = 1.0
    j = np.log10(a)
    np.floor(j, out=j)
    j = j.astype(np.intp)
    j += _EXP + 1
    j += a >= tb.least.take(j + 1)
    j -= a < tb.least.take(j)

    p = a * tb.hi.take(j)
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    bh, bl = tb.hh.take(j), tb.hl.take(j)
    t = ah * bh - p
    t += ah * bl
    t += al * bh
    t += al * bl
    t += a * tb.lo.take(j)
    r = np.rint(t)
    slow = np.flatnonzero(~(fast | zero) | (np.abs(t - r) > tb.tie.take(j)))
    d = p.astype(np.int64)
    d += r.astype(np.int64)
    carry = d == 10 ** 17  # a double just below 10**(E + 1) rounds up to it
    d[carry] = 10 ** 16
    j += carry
    d[zero] = 0
    return j, d, slow


def _rows(x: np.ndarray, seps: np.ndarray) -> np.ndarray:
    """The byte rows of the floats ``x``, each ending in its word of ``seps``."""
    tb = _tables()
    j, d, slow = _digits(x, tb)
    lead = d // 10 ** 16
    d -= lead * 10 ** 16
    high = d // 10 ** 8
    d -= high * 10 ** 8
    q0, q2 = high // 10 ** 4, d // 10 ** 4
    quads = (q0, high - q0 * 10 ** 4, q2, d - q2 * 10 ** 4)
    zeros = tb.zeros.take(quads[0])
    for q in quads[1:]:
        zeros *= q == 0
        zeros += tb.zeros.take(q)
    code = tb.base.take(j)
    code += np.signbit(x) * (_FORMS * 17)
    code -= zeros
    code[slow] = _FALLBACK

    rows = tb.masks.take(code, axis=0)
    for k, q in enumerate((lead, *quads), 1):
        rows[:, k] &= tb.quad.take(q)
    rows[:, 6] &= tb.exp.take(j) | seps
    if slow.size:
        text = np.array(["%.17g" % v for v in x[slow].tolist()], dtype="S24")
        rows.view(np.uint8)[slow, :24] = text.view(np.uint8).reshape(-1, 24)
    return rows


@functools.cache
def _point_masks() -> np.ndarray:
    """The kept bytes of each row code of :func:`points_text`, as 8-byte words.

    Row code ``sep * 15 + lead``: ``sep`` 0 for a comma and 1 for a
    space, ``lead`` the number of integer digits less one, or 14 for a
    value Python formats.  Words 1-4 of a row hold its 16 digits as the
    digit words of ``_tables().quad``, a digit at each even byte and a
    point at each odd one.  The point after digit 13 is kept, and the last
    one is masked to the separator: a comma and a space are bit subsets of
    a point.  The odd byte before the first digit (byte 7, in word 0, for
    14 integer digits) is left for a minus sign, and bytes 36-37 of a
    value Python formats for ``%s``.
    """
    code = np.arange(30)[:, None]
    sep, lead = code // 15, code % 15
    b = np.arange(40)
    digit = b // 2 - 4
    keep = (b >= 8) & (lead < 14) & np.where(b % 2 == 0, digit >= 13 - lead, digit == 13)
    masks = keep.astype(np.uint8) * np.uint8(255)
    masks[:, 39] = np.where(sep == 1, ord(" "), ord(","))[:, 0]
    return _words(masks)


# points_text writes |v| < _FIXED_MAX itself: |v| * 100 is then below
# 2**54, where its rounding error as a double is at most 1, and its
# rounding has at most 16 digits, the four digit words of a row
_FIXED_MAX = 1e14
# n >= _LEADS[k] has k + 2 integer digits or more, for n = round(|v| * 100)
_LEADS = 10 ** np.arange(3, 16, dtype=np.int64)
# values formatted at a time by points_text.  A 20,001-point line took
# 1.6-2.0 ms (best of 40, in each of 3 processes) in chunks of 8,192 values,
# 1.8-2.1 ms in chunks of 4,096, 2.4-2.9 ms in chunks of 16,384 and
# 3.3-3.8 ms in one pass: there the arrays outgrow the cache, and one
# expression over 40,002 int64s with a temporary (n - q * 10_000) took
# 160 us against 28 us for the same two operations as two statements
_POINTS_CHUNK = 8192


def _point_bytes(v: np.ndarray) -> bytes:
    """The text of the values ``v``, of even length, each followed by a comma or a space in turn.

    A value :func:`points_text` leaves to Python is written ``%s``.
    """
    a = np.abs(v)
    fast = a < _FIXED_MAX
    slow = np.flatnonzero(~fast)
    a[slow] = 0.0
    p = a * 100.0
    c = a * _SPLIT
    ah = c - (c - a)
    t = ah * 100.0 - p
    t += (a - ah) * 100.0
    n0 = np.rint(p)
    r = p - n0
    n = n0.astype(np.int64)
    up, down = r - 0.5, r + 0.5
    up += t
    down += t
    n += up > 0.0
    n -= down < 0.0

    lead = np.zeros(v.size, np.intp)
    for bound in _LEADS[:np.searchsorted(_LEADS, n.max(), "right")]:
        lead += n >= bound
    # the rows start at the word of the first byte a minus sign could take
    first = (7 + 2 * (13 - int(lead.max()))) // 8
    neg = np.flatnonzero(np.signbit(v) & fast)
    sign_at = 7 - 8 * first + 2 * (13 - lead[neg])
    lead[slow] = 14
    lead[1::2] += 15
    rows = _point_masks()[:, first:].take(lead, axis=0)
    quad = _tables().quad
    for word in range(4, max(first, 1) - 1, -1):  # the last four digits first
        q = n // 10_000
        n -= q * 10_000
        rows[:, word - first] &= quad.take(n)
        n = q
    chars = rows.view(np.uint8)
    chars[neg, sign_at] = ord("-")
    chars[slow, -4:-2] = np.frombuffer(b"%s", np.uint8)
    return chars.tobytes().translate(None, b"\0")


def points_text(x: np.ndarray, y: np.ndarray) -> str:
    """The text of ``" ".join("%.2f,%.2f" % p for p in zip(x, y))`` for 1-D float arrays.

    Each value's digits are ``n = round(|v| * 100)`` half to even, from
    the exact product ``|v| * 100 = p + t`` (Dekker's split; 100 is a
    double).  With ``n0 = rint(p)`` and ``r = p - n0``, both exact, the
    signs of ``(r - 0.5) + t`` and ``(r + 0.5) + t`` are exact too: they
    move ``n0`` one up or down, and an exact zero is a tie, which leaves
    ``n0``.  On a tie ``n0`` is already even: below ``2**52`` a tie's
    product is exact and ``rint`` rounds it to even, and above, the
    product's own rounding to a double took the even neighbour.  A row of bytes per value holds the sign, the integer digits
    without leading zeros, the point, two decimals and the separator, and
    ``bytes.translate`` deletes the zero bytes between them.  The rows of
    each :data:`_POINTS_CHUNK` values start at the first word one of them
    uses.  ``'%.2f' % v`` writes the values at or beyond
    :data:`_FIXED_MAX` (nan and inf too), so the text is ``%.2f``'s for
    every double.
    """
    v = np.empty(2 * len(x))
    v[0::2], v[1::2] = x, y
    text = b"".join([_point_bytes(v[i:i + _POINTS_CHUNK])
                     for i in range(0, v.size, _POINTS_CHUNK)]).decode("ascii")[:-1]
    if "%" in text:
        text %= tuple("%.2f" % f for f in v[~(np.abs(v) < _FIXED_MAX)].tolist())
    return text


def write_csv(path, header: str, columns) -> None:
    """Write ``columns``, equal-length 1-D or 2-D arrays side by side, under ``header``.

    ``path`` is a path or an open text stream.  The text is that of
    ``np.savetxt(path, np.column_stack(columns), fmt="%.17g",
    delimiter=",", header=header, comments="")``, formatted
    :data:`CSV_CHUNK` rows at a time from slices of the columns, so neither
    the whole text nor a copy of the whole table is ever held at once.

    The digits are made in numpy, the way ``%.17g`` makes them.  The
    exponent E of ``|x|`` is ``floor(log10(|x|))``, corrected against the
    least double at or above each power of ten.  The 17 digits are
    ``|x| * 10**(16 - E)`` rounded half to even, from its product with
    ``10**(16 - E)`` as a double-double (Dekker's split): exact where that
    power is a double (E from -6 to 16), and within 1e-14 of a unit
    elsewhere; a product that rounds up to ``10**17`` moves to the next E.
    The text follows ``%g``: fixed notation for -4 <= E <= 16, else
    ``d.ddde+XX``; no trailing zeros or bare point; ``-0`` for negative
    zero.  Python's own ``'%.17g' % x`` writes every value the kernel
    cannot prove: nan, inf, ``|x|`` outside ``[1e-99, 1e99)``, and a
    product within 1e-9 of a tie where it is not exact.  So the text is
    ``%.17g``'s for every value.  Raises :class:`ValueError` when the
    columns are not as many as the names of ``header``.
    """
    if not hasattr(path, "write"):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            write_csv(fh, header, columns)
        return
    names = len(header.split(","))
    sep = np.zeros((names, 8), np.uint8)
    sep[:, 4] = ord(",")
    sep[-1, 4] = ord("\n")
    seps = _words(np.tile(sep, (CSV_CHUNK, 1))).ravel()
    path.write(header + "\n")
    for i in range(0, len(columns[0]), CSV_CHUNK):
        block = np.column_stack([c[i:i + CSV_CHUNK] for c in columns]).astype(float, copy=False)
        if block.shape[1] != names:
            raise ValueError(f"{block.shape[1]} columns under the {names} names of {header!r}")
        data = _rows(block.ravel(), seps[:block.size]).tobytes()
        path.write(data.translate(None, b"\0").decode("ascii"))


def read_csv(path, header: str) -> np.ndarray:
    """The ``(n, k)`` rows under the ``k`` names of ``header``, from a path or an open text stream.

    ``\\r\\n`` line ends read too.  Raises :class:`ValueError`, naming the
    file if its first line is not ``header`` or no row of ``k`` numbers
    follows it.
    """
    if not hasattr(path, "read"):
        with open(path, encoding="utf-8") as fh:
            return read_csv(fh, header)
    # the first row is checked here, so that a file of the header alone is
    # refused without np.loadtxt's warning; loadtxt refuses the other rows
    first, row = path.readline().rstrip("\r\n"), path.readline()
    if first != header or row.count(",") != header.count(","):
        raise ValueError(f"{getattr(path, 'name', 'the stream')} is not rows of "
                         f"{header.count(',') + 1} numbers under the header {header!r}")
    return np.loadtxt(itertools.chain((row,), path), delimiter=",", ndmin=2)


def write_object(path, obj) -> None:
    """Write ``obj`` to ``path`` as JSON indented by 2, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _unique_keys(pairs) -> dict:
    """``read_object``'s ``object_pairs_hook``: the pairs as a dict, refusing a repeated key."""
    d = {}
    for key, value in pairs:
        if key in d:
            raise ValueError(f"repeated key {key!r}")
        d[key] = value
    return d


def read_object(path, forms: dict, where: str) -> dict:
    """The JSON object in ``path`` as keyword arguments, each value checked against ``forms``.

    ``forms`` maps each key to a tuple of the forms its value may take:
    ``None`` for a number, ``n`` for a list of ``n`` numbers (read as an
    array), ``str`` for a string; or to a dict of forms for a nested
    object.  Integers read as floats, so a boolean is not a number and one
    too large for a float reads as inf.  Raises :class:`ValueError` naming
    ``where`` if the file is not one object, else the key at fault (a
    repeated key is at fault).
    """
    with open(path, encoding="utf-8") as fh:
        d = json.load(fh, parse_int=float, object_pairs_hook=_unique_keys)

    def fields(d, forms, where):
        if not isinstance(d, dict):
            raise ValueError(f"{where} must be a JSON object, got {json.dumps(d)}")
        kw = {}
        for key, value in d.items():
            if key not in forms:
                raise ValueError(f"unknown key {key!r} in {where}")
            form = forms[key]
            if isinstance(form, dict):
                kw[key] = fields(value, form, key)
            elif (None if isinstance(value, float) else type(value)) in form:
                kw[key] = value  # a number (None) or a string (str)
            elif (isinstance(value, list) and len(value) in form
                  and all(isinstance(v, float) for v in value)):
                kw[key] = np.array(value, dtype=float)
            else:
                names = {None: "a number", str: "a string"}
                wanted = " or ".join(names.get(n, f"a list of {n} numbers") for n in form)
                raise ValueError(f"{key} must be {wanted}, got {json.dumps(value)}")
        return kw

    return fields(d, forms, where)
