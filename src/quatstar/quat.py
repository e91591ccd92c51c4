"""Exact quaternion arithmetic over the rationals.

A quaternion x0 + x1 i + x2 j + x3 k is stored as four `fractions.Fraction`
components.  Multiplication follows the basis table

    i^2 = j^2 = k^2 = -1,   ij = k = -ji,   jk = i = -kj,   ki = j = -ik,

conjugation negates the imaginary components (and reverses products), and
the squared norm x0^2 + x1^2 + x2^2 + x3^2 is multiplicative.  Two exact
matrix models are provided: the real 4x4 left-regular representation and
the complex 2x2 representation

    q  ->  [[x0 + x1 i, x2 + x3 i], [-x2 + x3 i, x0 - x1 i]]

whose determinant is the squared norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

_UNIT_NAMES = ("", "i", "j", "k")


def _rat(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"quaternion components must be rational, got {type(value).__name__}")


class Quaternion:
    """An exact quaternion x0 + x1 i + x2 j + x3 k."""

    __slots__ = ("x0", "x1", "x2", "x3")

    def __init__(self, x0=0, x1=0, x2=0, x3=0):
        self.x0 = _rat(x0)
        self.x1 = _rat(x1)
        self.x2 = _rat(x2)
        self.x3 = _rat(x3)

    @classmethod
    def _raw(cls, x0, x1, x2, x3):
        # Internal: components are already Fractions; skip coercion.
        q = object.__new__(cls)
        q.x0 = x0
        q.x1 = x1
        q.x2 = x2
        q.x3 = x3
        return q

    def components(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.x0, self.x1, self.x2, self.x3)

    def is_zero(self) -> bool:
        return not (self.x0 or self.x1 or self.x2 or self.x3)

    def is_real(self) -> bool:
        return not (self.x1 or self.x2 or self.x3)

    def _is_integral(self) -> bool:
        return (self.x0.denominator == 1 and self.x1.denominator == 1
                and self.x2.denominator == 1 and self.x3.denominator == 1)

    def __add__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        if self._is_integral() and other._is_integral():
            return Quaternion._raw(
                Fraction(self.x0.numerator + other.x0.numerator),
                Fraction(self.x1.numerator + other.x1.numerator),
                Fraction(self.x2.numerator + other.x2.numerator),
                Fraction(self.x3.numerator + other.x3.numerator))
        return Quaternion._raw(self.x0 + other.x0, self.x1 + other.x1,
                               self.x2 + other.x2, self.x3 + other.x3)

    def __sub__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        if self._is_integral() and other._is_integral():
            return Quaternion._raw(
                Fraction(self.x0.numerator - other.x0.numerator),
                Fraction(self.x1.numerator - other.x1.numerator),
                Fraction(self.x2.numerator - other.x2.numerator),
                Fraction(self.x3.numerator - other.x3.numerator))
        return Quaternion._raw(self.x0 - other.x0, self.x1 - other.x1,
                               self.x2 - other.x2, self.x3 - other.x3)

    def __neg__(self):
        return Quaternion._raw(-self.x0, -self.x1, -self.x2, -self.x3)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Quaternion):
            return NotImplemented
        a0, a1, a2, a3 = self.x0, self.x1, self.x2, self.x3
        b0, b1, b2, b3 = other.x0, other.x1, other.x2, other.x3
        if self._is_integral() and other._is_integral():
            n0, n1, n2, n3 = a0.numerator, a1.numerator, a2.numerator, a3.numerator
            m0, m1, m2, m3 = b0.numerator, b1.numerator, b2.numerator, b3.numerator
            return Quaternion._raw(
                Fraction(n0 * m0 - n1 * m1 - n2 * m2 - n3 * m3),
                Fraction(n0 * m1 + n1 * m0 + n2 * m3 - n3 * m2),
                Fraction(n0 * m2 - n1 * m3 + n2 * m0 + n3 * m1),
                Fraction(n0 * m3 + n1 * m2 - n2 * m1 + n3 * m0))
        return Quaternion._raw(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, factor) -> "Quaternion":
        f = _rat(factor)
        if f.denominator == 1 and self._is_integral():
            n = f.numerator
            return Quaternion._raw(Fraction(self.x0.numerator * n), Fraction(self.x1.numerator * n),
                                   Fraction(self.x2.numerator * n), Fraction(self.x3.numerator * n))
        return Quaternion._raw(self.x0 * f, self.x1 * f, self.x2 * f, self.x3 * f)

    def conj(self) -> "Quaternion":
        return Quaternion(self.x0, -self.x1, -self.x2, -self.x3)

    def norm_sq(self) -> Fraction:
        return self.x0 * self.x0 + self.x1 * self.x1 + self.x2 * self.x2 + self.x3 * self.x3

    def inverse(self) -> "Quaternion":
        n = self.norm_sq()
        if not n:
            from .errors import DomainError
            raise DomainError("zero quaternion has no inverse")
        return self.conj().scale(Fraction(1, 1) / n)

    def __eq__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return self.components() == other.components()

    def __hash__(self):
        return hash(self.components())

    def __repr__(self):
        return f"Quaternion({self.x0!r}, {self.x1!r}, {self.x2!r}, {self.x3!r})"

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


def _part_text(value: Fraction, unit: str) -> str:
    """Unsigned text of one component, e.g. '2/3 j', 'i', '5'."""
    mag = abs(value)
    if not unit:
        return str(mag)
    if mag == 1:
        return unit
    return f"{mag} {unit}"


def quat_parts_text(q: Quaternion) -> str:
    """Signed sum of the nonzero components, without enclosing parens."""
    pieces = []
    for value, unit in zip(q.components(), _UNIT_NAMES):
        if not value:
            continue
        body = _part_text(value, unit)
        if not pieces:
            pieces.append(f"-{body}" if value < 0 else body)
        else:
            pieces.append((" - " if value < 0 else " + ") + body)
    return "".join(pieces)


def quat_text(q: Quaternion) -> str:
    """Canonical text: '0', a bare single component, or a parenthesized sum."""
    n_parts = sum(1 for v in q.components() if v)
    if n_parts == 0:
        return "0"
    if n_parts == 1:
        return quat_parts_text(q)
    return f"({quat_parts_text(q)})"


# --- matrix representations -------------------------------------------------

@dataclass(frozen=True)
class MatrixRep:
    """A square matrix model of a quaternion.

    kind "R4": entries are Fractions (the 4x4 left-regular representation).
    kind "C2": entries are (real, imag) Fraction pairs (complex 2x2).
    """

    kind: str
    entries: tuple

    def __add__(self, other):
        if not isinstance(other, MatrixRep) or other.kind != self.kind:
            return NotImplemented
        rows = tuple(
            tuple(_entry_add(self.kind, a, b) for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)
        )
        return MatrixRep(self.kind, rows)

    def __mul__(self, other):
        if not isinstance(other, MatrixRep) or other.kind != self.kind:
            return NotImplemented
        n = len(self.entries)
        cols = tuple(zip(*other.entries))
        rows = []
        for r in self.entries:
            row = []
            for c in cols:
                acc = _entry_zero(self.kind)
                for a, b in zip(r, c):
                    acc = _entry_add(self.kind, acc, _entry_mul(self.kind, a, b))
                row.append(acc)
            rows.append(tuple(row))
        assert len(rows) == n
        return MatrixRep(self.kind, tuple(rows))

    def det(self):
        """Exact determinant (a Fraction for R4, a Fraction pair for C2)."""
        return _det(self.kind, [list(r) for r in self.entries])


def _entry_zero(kind):
    return Fraction(0) if kind == "R4" else (Fraction(0), Fraction(0))


def _entry_add(kind, a, b):
    if kind == "R4":
        return a + b
    return (a[0] + b[0], a[1] + b[1])


def _entry_sub(kind, a, b):
    if kind == "R4":
        return a - b
    return (a[0] - b[0], a[1] - b[1])


def _entry_mul(kind, a, b):
    if kind == "R4":
        return a * b
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _det(kind, rows):
    # Laplace expansion along the first row; matrices here are at most 4x4.
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = _entry_zero(kind)
    for col in range(n):
        minor = [r[:col] + r[col + 1:] for r in rows[1:]]
        term = _entry_mul(kind, rows[0][col], _det(kind, minor))
        acc = _entry_add(kind, acc, term) if col % 2 == 0 else _entry_sub(kind, acc, term)
    return acc


def to_matrix(q: Quaternion, kind: str) -> MatrixRep:
    """Embed q as a matrix; kind is "R4" or "C2"."""
    a, b, c, d = q.components()
    if kind == "R4":
        rows = (
            (a, -b, -c, -d),
            (b, a, -d, c),
            (c, d, a, -b),
            (d, -c, b, a),
        )
        return MatrixRep("R4", rows)
    if kind == "C2":
        rows = (
            ((a, b), (c, d)),
            ((-c, d), (a, -b)),
        )
        return MatrixRep("C2", rows)
    from .errors import DomainError
    raise DomainError(f"unknown matrix representation kind {kind!r}")
