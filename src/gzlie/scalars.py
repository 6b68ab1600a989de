"""Exact scalars over the Gaussian rationals.

Every quantity in this package is computed over Q(i); there is no floating
point anywhere.  Rationals are gmpy2.mpq when available, with
fractions.Fraction as a fallback; the hot loops of gzlie.matrices (elimination
and the characteristic polynomial) run on Python ints and build their results
through _mpq, so the backend matters mostly elsewhere.  A sum, difference,
product or negation of real scalars keeps an operand's zero imaginary part;
theta is a signed relabeling (gzlie.liealg) that moves scalars unchanged.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

try:
    from gmpy2 import mpq as _mpq
    BACKEND = "gmpy2.mpq"
except ImportError:  # gmpy2 is the optional "fast" extra
    _mpq = Fraction
    BACKEND = "fractions.Fraction"

_ZERO = _mpq(0)
_ONE = _mpq(1)


class QI:
    """A Gaussian rational re + im*i with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _mpq(re)
        self.im = _mpq(im)

    @classmethod
    def _raw(cls, re, im):
        # fast path: parts are already mpq
        s = object.__new__(cls)
        s.re = re
        s.im = im
        return s

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not (self.im or other.im):
            return QI._raw(self.re + other.re, self.im)
        return QI._raw(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not (self.im or other.im):
            return QI._raw(self.re - other.re, self.im)
        return QI._raw(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        if not (b or d):
            return QI._raw(a * c, b)
        return QI._raw(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        c, d = other.re, other.im
        n = c * c + d * d
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        a, b = self.re, self.im
        return QI._raw((a * c + b * d) / n, (b * c - a * d) / n)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return QI._raw(-self.re, -self.im if self.im else self.im)

    def __pos__(self):
        return self

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return "QI(%s)" % format_scalar(self)


def _coerce(v):
    if isinstance(v, QI):
        return v
    if isinstance(v, int):
        return QI._raw(_mpq(v), _ZERO)
    if isinstance(v, (Fraction, type(_ONE))):
        return QI._raw(_mpq(v), _ZERO)
    return NotImplemented


ZERO = QI(0)
ONE = QI(1)
I = QI(0, 1)


def rat(num, den=1):
    return QI._raw(_mpq(num, den), _ZERO)


# --- external scalar syntax -------------------------------------------------
#
# Grammar: optional rational part a or a/b, optional imaginary part c*i or
# c/d*i, joined by a sign; denominators are nonzero.  Examples: "3", "-1/2",
# "2+1/3*i", "-1/2*i", "0".

# A rational a or a/b; its numerator and denominator are the groups
# <name> and <name>den.
_RAT = r"(?P<%(n)s>[+-]?\d+)(?:/(?P<%(n)sden>0*[1-9]\d*))?"
_SCALAR_RE = _re.compile(
    r"^\s*(?:%s(?=\s*(?:[+-]|$)))?\s*"
    r"(?:%s\s*\*\s*i|(?P<imsign>[+-]?)\s*i)?\s*$"
    % (_RAT % {"n": "re"}, _RAT % {"n": "im"}), _re.ASCII)


def _rat_parts(num, den):
    """The rational of the digit strings of a numerator and a denominator
    (None: 1); int() reads a leading '+' too."""
    return _mpq(int(num), int(den)) if den else _mpq(int(num))


def parse_scalar(text):
    """Parse 'a/b+c/d*i' style input into a QI scalar.  Every spelling of
    zero ('0', '-0', '0/7', '0*i', ...) gives the shared ZERO, so parsed
    matrices take the ``is ZERO`` fast paths of the matrix kernels.  Digits
    are ASCII only; a part with more digits than Python's limit for
    converting a string to an integer raises ValueError, from int()."""
    m = _SCALAR_RE.match(text)
    re_num, re_den, im_num, im_den, imsign = (
        m.group("re", "reden", "im", "imden", "imsign") if m else (None,) * 5)
    if re_num is None and im_num is None and imsign is None:
        raise ValueError("bad scalar syntax: %r" % text)
    re_part = _rat_parts(re_num, re_den) if re_num else _ZERO
    if im_num is not None:
        im_part = _rat_parts(im_num, im_den)
    elif imsign is not None:
        im_part = -_ONE if imsign == "-" else _ONE
    else:
        im_part = _ZERO
    if not (re_part or im_part):
        return ZERO
    return QI._raw(re_part, im_part)


def format_scalar(z):
    """Canonical form: '0', '3', '-1/2', '1/2+3*i', '-2*i', '1-i' never used
    (imaginary part always carries '*i')."""
    if z.im == 0:
        return str(z.re)
    imtxt = "%s*i" % z.im
    if z.re == 0:
        return imtxt
    if z.im > 0:
        return "%s+%s" % (z.re, imtxt)
    return "%s%s" % (z.re, imtxt)
