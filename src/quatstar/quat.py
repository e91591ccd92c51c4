"""Exact quaternion arithmetic over the rationals.

A quaternion x0 + x1 i + x2 j + x3 k is stored as four integer numerators
n0..n3 over one shared integer denominator den, in lowest terms: den > 0,
gcd(n0, n1, n2, n3, den) == 1, and the zero quaternion has den == 1.  The
form is canonical, so equal quaternions have equal fields, and every
operation is integer arithmetic plus at most one gcd reduction (none when
the result's denominator is 1).  `components()` reads x0..x3 back as reduced
`fractions.Fraction`s.  Multiplication follows the basis table

    i^2 = j^2 = k^2 = -1,   ij = k = -ji,   jk = i = -kj,   ki = j = -ik,

conjugation negates the imaginary components (and reverses products), and
the squared norm x0^2 + x1^2 + x2^2 + x3^2 is multiplicative.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError

_UNIT_NAMES = ("", "i", "j", "k")


def _rational(value):
    """`value` itself if it is an int or a Fraction (both carry
    numerator/denominator); anything else is a TypeError."""
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"quaternion components must be rational, got {type(value).__name__}")


def _quat(n0, n1, n2, n3, den):
    """The quaternion (n0 + n1 i + n2 j + n3 k) / den for den > 0, reduced."""
    if den != 1:
        g = gcd(n0, n1, n2, n3, den)
        if g != 1:
            n0, n1, n2, n3, den = n0 // g, n1 // g, n2 // g, n3 // g, den // g
    q = object.__new__(Quaternion)
    q.n0, q.n1, q.n2, q.n3, q.den = n0, n1, n2, n3, den
    return q


class Quaternion:
    """An exact quaternion x0 + x1 i + x2 j + x3 k."""

    __slots__ = ("n0", "n1", "n2", "n3", "den")

    def __init__(self, x0=0, x1=0, x2=0, x3=0):
        xs = [_rational(x) for x in (x0, x1, x2, x3)]
        den = lcm(*(x.denominator for x in xs))
        # Over the lcm of reduced denominators the numerators share no factor with den.
        self.n0, self.n1, self.n2, self.n3 = (x.numerator * (den // x.denominator) for x in xs)
        self.den = den

    def components(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """x0..x3 as reduced Fractions."""
        d = self.den
        return Fraction(self.n0, d), Fraction(self.n1, d), Fraction(self.n2, d), Fraction(self.n3, d)

    def is_zero(self) -> bool:
        return not (self.n0 or self.n1 or self.n2 or self.n3)

    def _is_integral(self) -> bool:
        return self.den == 1

    def __add__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        d, e = self.den, other.den
        if d == e:
            return _quat(self.n0 + other.n0, self.n1 + other.n1,
                         self.n2 + other.n2, self.n3 + other.n3, d)
        return _quat(self.n0 * e + other.n0 * d, self.n1 * e + other.n1 * d,
                     self.n2 * e + other.n2 * d, self.n3 * e + other.n3 * d, d * e)

    def __sub__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return _quat(-self.n0, -self.n1, -self.n2, -self.n3, self.den)

    def __mul__(self, other):
        if not isinstance(other, Quaternion):
            return self.scale(other) if isinstance(other, (int, Fraction)) else NotImplemented
        a0, a1, a2, a3 = self.n0, self.n1, self.n2, self.n3
        b0, b1, b2, b3 = other.n0, other.n1, other.n2, other.n3
        return _quat(a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                     a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
                     a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
                     a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
                     self.den * other.den)

    # A rational is central, so it scales from either side.
    __rmul__ = __mul__

    def scale(self, factor) -> "Quaternion":
        f = _rational(factor)
        p = f.numerator
        return _quat(self.n0 * p, self.n1 * p, self.n2 * p, self.n3 * p,
                     self.den * f.denominator)

    def conj(self) -> "Quaternion":
        return _quat(self.n0, -self.n1, -self.n2, -self.n3, self.den)

    def norm_sq(self) -> Fraction:
        return Fraction(self.n0 * self.n0 + self.n1 * self.n1 + self.n2 * self.n2
                        + self.n3 * self.n3, self.den * self.den)

    def inverse(self) -> "Quaternion":
        # conj(q) / |q|^2 = (conj numerators * den) / (sum of squared numerators)
        n = self.n0 * self.n0 + self.n1 * self.n1 + self.n2 * self.n2 + self.n3 * self.n3
        if not n:
            raise DomainError("zero quaternion has no inverse")
        d = self.den
        return _quat(self.n0 * d, -self.n1 * d, -self.n2 * d, -self.n3 * d, n)

    def __eq__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return (self.n0 == other.n0 and self.n1 == other.n1 and self.n2 == other.n2
                and self.n3 == other.n3 and self.den == other.den)

    def __hash__(self):
        return hash((self.n0, self.n1, self.n2, self.n3, self.den))

    def __repr__(self):
        return f"Quaternion({', '.join(map(repr, self.components()))})"

    def __str__(self):
        return quat_text(self)


ZERO = Quaternion(0, 0, 0, 0)
ONE = Quaternion(1, 0, 0, 0)
I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)

UNITS = (ONE, I, J, K)
GROUP_ELEMENTS = (ONE, I, J, K, -ONE, -I, -J, -K)


def commutator(x: Quaternion, y: Quaternion) -> Quaternion:
    return x * y - y * x


def quat_text(q: Quaternion) -> str:
    """Canonical text: '0', a bare signed single component ('-2/3 j', 'i',
    '5'), or the signed sum of the nonzero components in parentheses
    ('(1 - 2 k)').  An integer past Python's int/str limit is a DomainError."""
    pieces = []
    try:
        for value, unit in zip(q.components(), _UNIT_NAMES):
            if value:
                mag = abs(value)
                body = str(mag) if not unit else unit if mag == 1 else f"{mag} {unit}"
                pieces.append((" - " if value < 0 else " + ") + body)
    except ValueError:  # past Python's int/str digit limit
        raise DomainError(f"coefficient over {sys.get_int_max_str_digits()} digits") from None
    if not pieces:
        return "0"
    text = "".join(pieces)
    text = text[3:] if text[1] == "+" else "-" + text[3:]
    return text if len(pieces) == 1 else f"({text})"
