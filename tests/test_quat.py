"""Exact quaternion arithmetic, conjugation, norms, and text rendering."""

import itertools
from fractions import Fraction
from math import gcd
from random import Random

import pytest
import sympy
from sympy.algebras.quaternion import Quaternion as SympyQuaternion

from quatstar.errors import DomainError
from quatstar.quat import (GROUP_ELEMENTS, I, J, K, ONE, UNITS, ZERO,
                           Quaternion, commutator, quat_text)
from refimpl import c2, r4

# Basis products written out independently of the implementation:
# _BASIS_TABLE[x][y] = (sign, basis index) for e_x * e_y with basis (1, i, j, k).
_BASIS_TABLE = {
    0: {0: (1, 0), 1: (1, 1), 2: (1, 2), 3: (1, 3)},
    1: {0: (1, 1), 1: (-1, 0), 2: (1, 3), 3: (-1, 2)},
    2: {0: (1, 2), 1: (-1, 3), 2: (-1, 0), 3: (1, 1)},
    3: {0: (1, 3), 1: (1, 2), 2: (-1, 1), 3: (-1, 0)},
}


def _draw_component(rng):
    """Zero, a small integer, a large-denominator rational, or a rational
    built unreduced (such as Fraction(6, 4)); signs either way."""
    kind = rng.randrange(4)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-9, 9)
    if kind == 2:
        return Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
    k = rng.randint(2, 6)
    return Fraction(k * rng.randint(-9, 9), k * rng.randint(1, 9))


def _draw_quaternion(rng):
    return Quaternion(*(_draw_component(rng) for _ in range(4)))


def _hamilton(a, b):
    """The Hamilton product of two Fraction 4-tuples."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)


def _to_sympy(values):
    return SympyQuaternion(*(sympy.Rational(v.numerator, v.denominator) for v in values))


def _from_sympy(q):
    return tuple(Fraction(int(c.p), int(c.q)) for c in (q.a, q.b, q.c, q.d))


def _assert_canonical(q):
    # four integer numerators over one positive denominator, in lowest terms
    fields = (q.n0, q.n1, q.n2, q.n3, q.den)
    assert all(type(v) is int for v in fields)
    assert q.den > 0 and gcd(*fields) == 1
    assert q.components() == tuple(Fraction(n, q.den) for n in fields[:4])


def _group_as_pairs():
    # (sign, basis index) for each of the eight group elements
    return [(1, 0), (1, 1), (1, 2), (1, 3), (-1, 0), (-1, 1), (-1, 2), (-1, 3)]


def test_unit_products():
    assert I * I == -ONE
    assert J * J == -ONE
    assert K * K == -ONE
    assert I * J == K
    assert J * I == -K
    assert J * K == I
    assert K * J == -I
    assert K * I == J
    assert I * K == -J


def test_full_group_table():
    pairs = _group_as_pairs()
    for (s1, b1), (s2, b2) in itertools.product(pairs, repeat=2):
        x = GROUP_ELEMENTS[b1 if s1 == 1 else 4 + b1]
        y = GROUP_ELEMENTS[b2 if s2 == 1 else 4 + b2]
        sign, basis = _BASIS_TABLE[b1][b2]
        expected = UNITS[basis].scale(s1 * s2 * sign)
        assert x * y == expected


def test_group_table_against_matrix_model():
    # sympy multiplies the complex 2x2 models built from components(), so
    # this multiplication oracle shares no arithmetic with the kernel
    rng = Random(29)
    rational = [(_draw_quaternion(rng), _draw_quaternion(rng)) for _ in range(40)]
    for x, y in list(itertools.product(GROUP_ELEMENTS, repeat=2)) + rational:
        assert c2(x * y) == (c2(x) * c2(y)).expand()


def test_constructor_coerces_rationals():
    q = Quaternion(1, Fraction(1, 2), -3, 0)
    assert q.components() == (Fraction(1), Fraction(1, 2), Fraction(-3), Fraction(0))
    with pytest.raises(TypeError):
        Quaternion(0.5)
    # equal values built by different routes share one canonical form
    x = Quaternion(Fraction(3, 4), -2, Fraction(5, 6), 0)
    routes = [(Quaternion(Fraction(2, 4)), Quaternion(Fraction(1, 2))),
              (x + (-x), ZERO),
              (x.scale(3).scale(Fraction(1, 3)), x)]
    for left, right in routes:
        assert left == right
        assert hash(left) == hash(right)
        for value in left.components() + right.components():
            assert type(value) is Fraction
            assert gcd(value.numerator, value.denominator) == 1
        _assert_canonical(left)
        _assert_canonical(right)


def test_kernel_against_fraction_formulas_and_sympy():
    # the engine and the oracle share this kernel, so it is checked here
    # against plain Fraction 4-tuples and against sympy's quaternions
    rng = Random(2024)
    for _ in range(200):
        x, y = _draw_quaternion(rng), _draw_quaternion(rng)
        factor = Fraction(_draw_component(rng))
        xt, yt = x.components(), y.components()
        sx, sy = _to_sympy(xt), _to_sympy(yt)
        sf = sympy.Rational(factor.numerator, factor.denominator)
        norm = sum(v * v for v in xt)
        cases = [
            (x * y, _hamilton(xt, yt), sx * sy),
            (x + y, tuple(a + b for a, b in zip(xt, yt)), sx + sy),
            (x - y, tuple(a - b for a, b in zip(xt, yt)), sx - sy),
            (x.scale(factor), tuple(a * factor for a in xt), sx * sf),
            (x.conj(), (xt[0], -xt[1], -xt[2], -xt[3]), sx.conjugate()),
        ]
        if norm:
            inv = (xt[0] / norm, -xt[1] / norm, -xt[2] / norm, -xt[3] / norm)
            cases.append((x.inverse(), inv, sx.inverse()))
        else:
            with pytest.raises(DomainError):
                x.inverse()
        for result, by_formula, by_sympy in cases:
            _assert_canonical(result)
            assert result.components() == by_formula == _from_sympy(by_sympy)
        assert type(x.norm_sq()) is Fraction
        assert x.norm_sq() == norm == (sx * sx.conjugate()).a


def test_addition_and_negation():
    q = Quaternion(1, 2, 3, 4)
    r = Quaternion(-1, Fraction(1, 2), 0, 1)
    assert q + r == Quaternion(0, Fraction(5, 2), 3, 5)
    assert q - r == Quaternion(2, Fraction(3, 2), 3, 3)
    assert -q == Quaternion(-1, -2, -3, -4)
    assert q + ZERO == q


def test_general_product():
    q = Quaternion(1, 2, 3, 4)
    r = Quaternion(5, 6, 7, 8)
    # hand-expanded Hamilton product
    assert q * r == Quaternion(-60, 12, 30, 24)
    assert r * q == Quaternion(-60, 20, 14, 32)


def test_fractional_product_matches_scaled_integer_product():
    # products and sums of rational and integral operands must agree
    rng = Random(5)
    for _ in range(50):
        q = Quaternion(*[rng.randint(-9, 9) for _ in range(4)])
        r = Quaternion(*[rng.randint(-9, 9) for _ in range(4)])
        half_q = q.scale(Fraction(1, 2))
        third_r = r.scale(Fraction(1, 3))
        assert half_q * third_r == (q * r).scale(Fraction(1, 6))
        assert half_q + half_q == q


def test_scalar_multiplication():
    q = Quaternion(1, -2, 0, 3)
    assert q * 2 == Quaternion(2, -4, 0, 6)
    assert 2 * q == Quaternion(2, -4, 0, 6)
    assert q * Fraction(1, 2) == Quaternion(Fraction(1, 2), -1, 0, Fraction(3, 2))
    assert Fraction(-1, 3) * q == q.scale(Fraction(-1, 3))


def test_conjugate_and_commutator():
    q = Quaternion(1, 2, 3, 4)
    assert q.conj() == Quaternion(1, -2, -3, -4)
    assert q.conj().conj() == q
    assert commutator(I, J) == K * 2
    assert commutator(I, I) == ZERO
    # conjugation reverses products
    r = Quaternion(2, 0, -1, 5)
    assert (q * r).conj() == r.conj() * q.conj()


def test_norm_square():
    q = Quaternion(1, 2, 3, 4)
    assert q.norm_sq() == 30
    assert (q * q.conj()) == Quaternion(30)
    assert (q.conj() * q) == Quaternion(30)
    r = Quaternion(Fraction(1, 2), 0, 1, 0)
    assert r.norm_sq() == Fraction(5, 4)
    assert (q * r).norm_sq() == q.norm_sq() * r.norm_sq()


def test_inverse():
    q = Quaternion(1, 2, 3, 4)
    inv = q.inverse()
    assert q * inv == ONE
    assert inv * q == ONE
    assert inv == q.conj().scale(Fraction(1, 30))
    with pytest.raises(DomainError):
        ZERO.inverse()


def test_predicates_and_hash():
    assert ZERO.is_zero()
    assert not I.is_zero()
    assert hash(Quaternion(1, 2, 3, 4)) == hash(Quaternion(1, 2, 3, 4))
    assert Quaternion(1) != "1"


def test_text_rendering():
    assert quat_text(ZERO) == "0"
    assert quat_text(ONE) == "1"
    assert quat_text(I) == "i"
    assert quat_text(-J) == "-j"
    assert quat_text(Quaternion(0, 0, 0, 2)) == "2 k"
    assert quat_text(Quaternion(0, -2)) == "-2 i"
    assert quat_text(Quaternion(Fraction(1, 2))) == "1/2"
    assert quat_text(Quaternion(1, 1)) == "(1 + i)"
    assert quat_text(Quaternion(1, -2, 3, -4)) == "(1 - 2 i + 3 j - 4 k)"
    assert quat_text(Quaternion(0, Fraction(-1, 3), 0, 1)) == "(-1/3 i + k)"


def test_matrix_r4_is_a_homomorphism():
    rng = Random(11)
    for _ in range(30):
        q = Quaternion(*[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4)])
        r = Quaternion(*[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4)])
        assert r4(q * r) == r4(q) * r4(r)
        assert r4(q + r) == r4(q) + r4(r)


def test_matrix_determinants():
    q = Quaternion(1, 2, 3, 4)
    n = q.norm_sq()
    # the C2 determinant is |q|^2, the R4 determinant |q|^4
    assert sympy.expand(c2(q).det()) == n
    assert r4(q).det() == n * n


def test_repr_and_str():
    q = Quaternion(1, Fraction(1, 2), -3)
    assert repr(q) == "Quaternion(Fraction(1, 1), Fraction(1, 2), Fraction(-3, 1), Fraction(0, 1))"
    assert str(q) == "(1 + 1/2 i - 3 j)"


@pytest.mark.parametrize("op", [lambda: Quaternion(1) + 1, lambda: Quaternion(1) - 1],
                         ids=["add", "sub"])
def test_sum_with_a_rational_is_a_type_error(op):
    with pytest.raises(TypeError):
        op()
