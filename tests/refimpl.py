"""Reference models for the test suite that share no arithmetic with quatstar.

A quaternion's real 4x4 (left-regular) and complex 2x2 matrix models, built
from its components as sympy matrices; sympy does every sum, product and
determinant.  C2 products come back unexpanded: compare them after `expand()`.
"""

from sympy import I, Matrix, Rational


def _components(q):
    return [Rational(x.numerator, x.denominator) for x in q.components()]


def r4(q) -> Matrix:
    a, b, c, d = _components(q)
    return Matrix([[a, -b, -c, -d], [b, a, -d, c], [c, d, a, -b], [d, -c, b, a]])


def c2(q) -> Matrix:
    """q -> [[x0 + x1 i, x2 + x3 i], [-x2 + x3 i, x0 - x1 i]], whose determinant is |q|^2."""
    a, b, c, d = _components(q)
    return Matrix([[a + b * I, c + d * I], [-c + d * I, a - b * I]])
