"""Polynomials with left quaternion coefficients over central indeterminates."""

from fractions import Fraction
from math import factorial
from random import Random

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.algebras.quaternion import Quaternion as SympyQuaternion

from quatstar.errors import DomainError
from quatstar.expr import evaluate_text
from quatstar.oracle import random_qpoly, random_quaternion
from quatstar.poly import (EXPONENT_LIMIT, NU as NU_INDEX, QPolynomial, VARIABLES, ZERO_MONO,
                           add_partial_rows, add_partial_unit_rows, add_rows, gen_q, gen_qbar,
                           mono_text, mul_rows, mul_unit_rows, var_index, var_mono)
from quatstar.quat import GROUP_ELEMENTS, I, J, K, ONE, Quaternion
from quatstar.star import PAIRS, pair_indices, star
from test_golden import CENTRAL_REALS, central_bases, with_real


def _mono(**exps):
    m = [0] * len(VARIABLES)
    for name, e in exps.items():
        m[var_index(name)] = e
    return tuple(m)


A = QPolynomial.variable("a")
B = QPolynomial.variable("b")
C = QPolynomial.variable("c")
D = QPolynomial.variable("d")
NU = QPolynomial.variable("nu")


def test_variable_order_is_fixed():
    assert VARIABLES == ("a", "b", "c", "d", "nu", "Theta_ab", "Theta_ac",
                         "Theta_ad", "Theta_bc", "Theta_bd", "Theta_cd")
    with pytest.raises(DomainError):
        var_index("x")


def test_constructors():
    assert QPolynomial.zero().is_zero()
    assert not QPolynomial.zero()
    assert QPolynomial.constant(0).is_zero()
    one = QPolynomial.constant(1)
    assert one.coefficient(_mono()) == ONE
    assert len(A) == 1
    assert A.coefficient(_mono(a=1)) == ONE
    with pytest.raises(DomainError):
        QPolynomial.variable("q")


def test_generators_text():
    assert str(gen_q()) == "a + i b + j c + k d"
    assert str(gen_qbar()) == "a - i b - j c - k d"
    assert gen_q() + gen_qbar() == 2 * A


def test_addition_merges_and_prunes():
    p = A + B
    assert len(p) == 2
    assert (p - A - B).is_zero()
    assert p + QPolynomial.zero() == p
    q = A * 3 + A * (-3)
    assert q.is_zero()


def test_central_multiplication_is_commutative():
    p = (A + B) * (A - B)
    assert p == A * A - B * B
    assert (A + B) ** 2 == A * A + 2 * A * B + B * B
    assert str((A + B) ** 2) == "a^2 + 2 a b + b^2"


def test_coefficients_multiply_in_order():
    ip = QPolynomial.constant(I)
    jp = QPolynomial.constant(J)
    assert ip * jp == QPolynomial.constant(K)
    assert jp * ip == QPolynomial.constant(-K)
    # left scalars hit coefficients from the left, right scalars from the right
    p = QPolynomial.constant(J) * A
    assert I * p == QPolynomial.constant(K) * A
    assert p * I == QPolynomial.constant(-K) * A


def test_noncommutative_polynomial_product():
    f = QPolynomial.constant(I) * A   # i a
    g = QPolynomial.constant(J) * B   # j b
    assert f * g == QPolynomial.constant(K) * (A * B)
    assert g * f == QPolynomial.constant(-K) * (A * B)


def test_canonical_term_order_is_graded_lex():
    p = B * B + A * B + A * A + QPolynomial.constant(5) + NU
    assert str(p) == "a^2 + a b + b^2 + nu + 5"
    assert [mono_text(m) for m, _ in p.terms()] == ["a^2", "a b", "b^2", "nu", ""]


def test_term_text_coefficient_first():
    p = QPolynomial.constant(Quaternion(0, 0, 0, -2)) * C
    assert str(p) == "-2 k c"
    q = QPolynomial.constant(Quaternion(1, 1)) * A * B
    assert str(q) == "(1 + i) a b"
    r = QPolynomial.constant(Fraction(1, 2)) * A
    assert str(r) == "1/2 a"
    assert str(QPolynomial.zero()) == "0"
    assert str(A - A) == "0"
    s = A - QPolynomial.constant(Quaternion(0, 1)) * B
    assert str(s) == "a - i b"


def test_powers():
    q = gen_q()
    assert q ** 0 == QPolynomial.constant(1)
    assert q ** 1 == q
    assert q ** 3 == q * q * q
    with pytest.raises(DomainError):
        q ** -1
    with pytest.raises(DomainError):
        A ** (EXPONENT_LIMIT + 1)
    with pytest.raises(TypeError):
        A ** 2 * "b"          # type: ignore[operator]
    # A single-term base is raised directly: exponents times n, coefficient by squaring.
    term = QPolynomial.constant(Quaternion(Fraction(1, 2), -1, 0, 3)) * A * B ** 2
    assert term ** 5 == term * term * term * term * term
    assert str(A ** EXPONENT_LIMIT) == "a^1000000"
    assert (A * A) ** (EXPONENT_LIMIT // 2) == A ** EXPONENT_LIMIT
    with pytest.raises(DomainError):
        (A * A) ** (EXPONENT_LIMIT // 2 + 1)
    # The guard reads the largest exponent, not the total degree: b^2 reaches
    # the limit while a stays at half of it.
    assert str((A * B ** 2) ** (EXPONENT_LIMIT // 2)) == "a^500000 b^1000000"
    with pytest.raises(DomainError):
        (A * B ** 2) ** (EXPONENT_LIMIT // 2 + 1)
    assert str(evaluate_text("(a^500000 + i b)^2")) == "a^1000000 + 2 i a^500000 b - b^2"
    assert (str(evaluate_text("(a^333333 + j c)^3"))
            == "a^999999 + 3 j a^666666 c - 3 a^333333 c^2 - j c^3")
    assert QPolynomial.zero() ** 3 == QPolynomial.zero()
    assert QPolynomial.zero() ** 0 == QPolynomial.constant(1)


def _row_product(x, y):
    """x * y through the integer-row kernel: one row each, converted back once."""
    (rx, dx), (ry, dy) = QPolynomial.constant(x).rows(), QPolynomial.constant(y).rows()
    acc = {}
    mul_rows(acc, rx.items(), ry.items())
    data = add_rows({}, acc.items(), dx * dy)
    return data.get(ZERO_MONO, Quaternion())


def test_row_product_equals_quaternion_product():
    rng = Random(8)
    pairs = [(x, y) for x in GROUP_ELEMENTS for y in GROUP_ELEMENTS]
    pairs += [(random_quaternion(rng), random_quaternion(rng)) for _ in range(50)]
    for x, y in pairs:
        assert _row_product(x, y) == x * y


def test_power_equals_repeated_product():
    # Multi-term powers run on integer rows, products on Quaternion objects.  Seeded
    # bases seldom have a real-coefficient term, so the binomial sum over one needs
    # central_bases().
    rng = Random(9)
    for base in [random_qpoly(rng, 2, 4, True) for _ in range(60)] + central_bases():
        product = QPolynomial.constant(1)
        for n in range(9):
            assert base ** n == product
            product = product * base


@pytest.mark.parametrize("text", ["(a^600000 + i b)^2", "(a + i b^600000)^2",
                                  "(2 a^333334 + j c)^3", "(b^699051 + i a)^4",
                                  "(b^524288 + i a)^5"])
def test_power_exponent_overflow(text):
    # In the last two, a multiple of the peeled real term b^e would carry out of
    # its 21-bit field (4 * 699051 and 5 * 524288 are >= 2^21).
    with pytest.raises(DomainError, match=f"exponent overflow: monomial exponent exceeds "
                                          f"{EXPONENT_LIMIT}$"):
        evaluate_text(text)


def test_monomial_exponent_overflow():
    big = QPolynomial({_mono(a=EXPONENT_LIMIT): 1})
    with pytest.raises(DomainError):
        big * A
    # The total degree is over the limit, but every exponent is within it.
    wide = QPolynomial({_mono(a=600000): 1}) * QPolynomial({_mono(b=600000): 1})
    assert str(wide) == "a^600000 b^600000"
    assert wide.total_degree() == 1200000
    for factor in ("Theta_cd", "nu"):
        at_limit = QPolynomial({_mono(**{factor: EXPONENT_LIMIT}): 1}) * gen_q()
        with pytest.raises(DomainError):
            star(at_limit, gen_q())
    theta_cd = QPolynomial.variable("Theta_cd")
    mixed = A ** EXPONENT_LIMIT + B ** EXPONENT_LIMIT + theta_cd ** EXPONENT_LIMIT + A * B
    assert str(mixed) == "a^1000000 + b^1000000 + Theta_cd^1000000 + a b"
    assert [m for m, _ in mixed.terms()] == [_mono(a=EXPONENT_LIMIT), _mono(b=EXPONENT_LIMIT),
                                             _mono(Theta_cd=EXPONENT_LIMIT), _mono(a=1, b=1)]


@pytest.mark.parametrize("mono", [(-1,) + (0,) * 10, (2000000,) + (0,) * 10, (1, 0),
                                  (1.5,) + (0,) * 10],
                         ids=["negative", "over-limit", "short", "float"])
def test_malformed_monomials_are_rejected(mono):
    with pytest.raises(DomainError):
        QPolynomial({mono: 1})
    with pytest.raises(DomainError):
        A.coefficient(mono)


def test_out_of_range_arguments_are_rejected():
    for idx in (11, -1):
        with pytest.raises(DomainError, match="out of range"):
            var_index(idx)
    with pytest.raises(DomainError, match="exponent overflow"):
        var_mono(0, EXPONENT_LIMIT + 1)
    with pytest.raises(TypeError, match="coefficients must be quaternions or rationals"):
        QPolynomial([((0,) * 11, "1")])


def test_scaling_by_zero_is_the_zero_polynomial():
    for product in (gen_q() * 0, 0 * gen_q(), gen_q() * Fraction(0)):
        assert product == QPolynomial() and product.is_zero() and str(product) == "0"


_NON_INT_POWER = "a polynomial power needs an int exponent, got "


@pytest.mark.parametrize("op, message", [
    (lambda: gen_q() + 1, None), (lambda: gen_q() - 1, None), (lambda: "x" * gen_q(), None),
    (lambda: gen_q() ** Fraction(1, 2), _NON_INT_POWER + "Fraction$"),
    (lambda: gen_q() ** Fraction(2), _NON_INT_POWER + "Fraction$"),
    (lambda: gen_q() ** 2.0, _NON_INT_POWER + "float$")],
                         ids=["add-int", "sub-int", "str-times", "fraction-power",
                              "integral-fraction-power", "float-power"])
def test_unsupported_operands_are_type_errors(op, message):
    with pytest.raises(TypeError, match=message):
        op()


def test_partial_derivatives():
    p = A * A * B + C
    assert p.partial("a") == 2 * A * B
    assert p.partial("b") == A * A
    assert p.partial("c") == QPolynomial.constant(1)
    assert p.partial("d").is_zero()
    with pytest.raises(DomainError):
        p.partial("nu")
    with pytest.raises(DomainError):
        p.partial("Theta_ab")


def test_partial_rows_equal_shifted_scaled_partials():
    rng = Random(18)
    theta_ab = var_mono(var_index("Theta_ab"))
    factors = ((1, ZERO_MONO, QPolynomial.constant(1)),
               (-3, theta_ab, QPolynomial.variable("Theta_ab") * -3))
    for _ in range(30):
        p = random_qpoly(rng, 4, 4, True)
        rows, den = p.rows()
        for idx in range(4):
            for k, shift, factor in factors:
                acc = {}
                add_partial_rows(acc, rows, idx, k, shift)
                result = add_rows({}, acc.items(), den)
                assert QPolynomial.from_terms(result) == p.partial(idx) * factor
    at_limit = QPolynomial({_mono(b=1, Theta_ab=EXPONENT_LIMIT): 1})
    with pytest.raises(DomainError, match="exponent overflow"):
        add_partial_rows({}, at_limit.rows()[0], var_index("b"), 1, theta_ab)


def _sparse_qpoly(rng):
    """A seeded polynomial whose coefficients keep 1-4 of their components."""
    terms = []
    for mono, coeff in random_qpoly(rng, 4, 4, True).terms():
        keep = rng.sample(range(4), rng.randint(1, 4))
        terms.append((mono, Quaternion(*(x if u in keep else 0
                                         for u, x in enumerate(coeff.components())))))
    return QPolynomial(terms)


def _unit_split(rows):
    """Integer rows as signed-unit rows, one row per nonzero component."""
    return {m << 2 | u: n for m, row in rows.items() for u, n in enumerate(row) if n}


def _nonzero(rows):
    """The entries of an integer rows dict that are not all zero, as tuples."""
    return {m: tuple(row) for m, row in rows.items() if any(row)}


# The signed-unit row of the real unit 1: unit 0 at the unit monomial.
_REAL_UNIT_ROW = [(ZERO_MONO << 2, 1)]


def test_signed_unit_kernel_equals_the_row_kernel():
    """On rows of 1-4 components per term, the signed-unit product writes,
    entry by entry, the integer rows that `mul_rows` writes, and a
    signed-unit partial times the real unit row is the integer partial that
    `add_partial_rows` writes.  A sum that cancels leaves only zero entries."""
    rng = Random(19)
    theta_ab = var_mono(var_index("Theta_ab"))
    factors = ((1, ZERO_MONO, QPolynomial.constant(1)),
               (-3, theta_ab, QPolynomial.variable("Theta_ab") * -3))
    pairs = [(gen_q(), gen_qbar()), (gen_q() ** 3, gen_q() ** 2)]
    pairs += [(_sparse_qpoly(rng), _sparse_qpoly(rng)) for _ in range(40)]
    for p, r in pairs:
        (p_rows, p_den), (r_rows, r_den) = p.rows(), r.rows()
        p_units, r_units = _unit_split(p_rows), _unit_split(r_rows)
        single = all(len(_unit_split({0: row})) == 1 for row in p_rows.values())
        assert p.unit_rows() == ((p_units, p_den) if single else None)
        as_rows = {}
        mul_unit_rows(as_rows, p_units.items(), _REAL_UNIT_ROW)
        assert _nonzero(as_rows) == p_rows
        for c in (1, 3):
            by_rows, by_units = {}, {}
            mul_rows(by_rows, p_rows.items(), r_rows.items(), c)
            mul_unit_rows(by_units, p_units.items(), r_units.items(), c)
            assert _nonzero(by_units) == _nonzero(by_rows)
            product = QPolynomial.from_terms(add_rows({}, by_units.items(), p_den * r_den))
            assert product == p * r * c
            mul_rows(by_rows, p_rows.items(), r_rows.items(), -c)
            mul_unit_rows(by_units, p_units.items(), r_units.items(), -c)
            assert by_units and not _nonzero(by_units) and not _nonzero(by_rows)
            assert add_rows({}, by_units.items(), p_den * r_den) == {}
        for idx in range(4):
            for k, shift, factor in factors:
                by_rows, by_units, as_rows = {}, {}, {}
                add_partial_rows(by_rows, p_rows, idx, k, shift)
                add_partial_unit_rows(by_units, p_units, idx, k, shift)
                partial = QPolynomial.from_terms(add_rows({}, by_rows.items(), p_den))
                assert partial == p.partial(idx) * factor
                mul_unit_rows(as_rows, by_units.items(), _REAL_UNIT_ROW)
                assert _nonzero(as_rows) == _nonzero(by_rows)
                add_partial_unit_rows(by_units, p_units, idx, -k, shift)
                assert set(by_units.values()) <= {0}


def _overflow(run):
    """The message of the DomainError `run()` raises, or None."""
    try:
        run()
    except DomainError as exc:
        return str(exc)
    return None


def test_signed_unit_kernel_overflows_where_the_row_kernel_does():
    limit = EXPONENT_LIMIT
    operands = [QPolynomial({_mono(**exps): unit}) for exps, unit in [
        ({"a": limit}, I), ({"a": 1}, J), ({"b": 1}, ONE), ({"a": limit - 1, "b": 2}, -K),
        ({"a": 600000}, ONE), ({"b": 600000}, J), ({"b": 1, "Theta_ab": limit}, J),
        ({"Theta_ab": 1}, -I)]]
    shifts = (ZERO_MONO, var_mono(var_index("Theta_ab")), var_mono(var_index("a"), limit))
    raised = []
    for x in operands:
        x_rows, x_units = x.rows()[0], x.unit_rows()[0]
        for y in operands:
            y_rows, y_units = y.rows()[0], y.unit_rows()[0]
            message = _overflow(lambda: mul_rows({}, x_rows.items(), y_rows.items()))
            assert _overflow(lambda: mul_unit_rows({}, x_units.items(), y_units.items())) == message
            raised.append(message)
        for idx in range(4):
            for shift in shifts:
                message = _overflow(lambda: add_partial_rows({}, x_rows, idx, 1, shift))
                assert _overflow(lambda: add_partial_unit_rows({}, x_units, idx, 1, shift)) == message
                raised.append(message)
    assert set(raised) == {None, f"exponent overflow: monomial exponent exceeds {limit}"}


def test_partials_commute():
    rng = Random(2)
    from quatstar.oracle import random_qpoly
    for _ in range(20):
        p = random_qpoly(rng, max_position_degree=5, max_terms=5)
        for u in ("a", "b", "c", "d"):
            for v in ("a", "b", "c", "d"):
                assert p.partial(u).partial(v) == p.partial(v).partial(u)


def test_conjugate():
    p = QPolynomial.constant(I) * A + B
    assert p.conjugate() == QPolynomial.constant(-I) * A + B
    assert p.conjugate().conjugate() == p
    assert gen_q().conjugate() == gen_qbar()


def test_evaluate():
    q = gen_q()
    point = {"a": Fraction(1), "b": Fraction(2), "c": Fraction(3), "d": Fraction(5)}
    assert q.evaluate(point) == Quaternion(1, 2, 3, 5)
    qq = q * q
    assert qq.evaluate(point) == Quaternion(1, 2, 3, 5) * Quaternion(1, 2, 3, 5)
    with pytest.raises(DomainError):
        (q + NU).evaluate(point)


def test_degrees():
    assert QPolynomial.zero().total_degree() == -1
    assert QPolynomial.zero().position_degree() == -1
    assert QPolynomial.constant(3).total_degree() == 0
    p = A * A * B + NU * C
    assert p.total_degree() == 3
    assert p.position_degree() == 3
    # Read off the highest monomial when it is free of nu and Theta, else
    # from every term.
    assert (NU ** 9 * A + B * B).position_degree() == 2
    assert (QPolynomial.variable("Theta_cd") ** 4 * A * B + C).position_degree() == 2
    assert p.nu_degree() == 1
    assert (A * B).nu_degree() == 0
    assert QPolynomial.zero().nu_degree() == -1


def test_coefficient_of_nu_power():
    p = A + NU * B + NU * NU * C
    assert p.coefficient_of_nu_power(0) == A
    assert p.coefficient_of_nu_power(1) == B
    assert p.coefficient_of_nu_power(2) == C
    assert p.coefficient_of_nu_power(3).is_zero()


def test_variables_used():
    p = A * B + NU
    assert p.variables_used() == {"a", "b", "nu"}
    assert QPolynomial.zero().variables_used() == set()


def test_equality_and_hashability():
    assert A + B == B + A
    assert A != B
    assert A != "a"
    with pytest.raises(TypeError):
        hash(A)


def test_repr_contains_text():
    assert "a + i b" in repr(gen_q())


# --- an independent check against sympy -------------------------------------

SYMBOLS = sympy.symbols(VARIABLES)
ALL_VARS = tuple(range(len(VARIABLES)))


def _to_sympy(poly, gens=ALL_VARS):
    """A sympy quaternion whose components are sympy polynomials in the
    variables with indices `gens` (fewer generators make sympy's dense
    polynomials faster), built from the public terms()."""
    parts = [{} for _ in range(4)]
    for mono, coeff in poly.terms():
        assert not any(e for idx, e in enumerate(mono) if idx not in gens), mono
        for part, value in zip(parts, coeff.components()):
            if value:
                key = tuple(mono[idx] for idx in gens)
                part[key] = sympy.Rational(value.numerator, value.denominator)
    symbols = [SYMBOLS[idx] for idx in gens]
    return SympyQuaternion(*(sympy.Poly.from_dict(part, *symbols, domain="QQ") for part in parts))


def _parts(q):
    return (q.a, q.b, q.c, q.d)


def _same(poly, expected, gens=ALL_VARS):
    """`poly` equals `expected`, and rebuilding it from its public terms()
    gives an equal polynomial (so no internal field is out of step)."""
    return poly == QPolynomial(poly.terms()) and _parts(_to_sympy(poly, gens)) == _parts(expected)


def _diff(q, var):
    return SympyQuaternion(*(x.diff(var) for x in _parts(q)))


def _nu_coefficient(q, s):
    """The coefficient of nu^s; nu's generator position is its variable index."""
    return SympyQuaternion(*(sympy.Poly.from_dict(
        {m[:NU_INDEX] + (0,) + m[NU_INDEX + 1:]: c for m, c in x.terms() if m[NU_INDEX] == s},
        *x.gens, domain="QQ") for x in _parts(q)))


def _sympy_star(f, g):
    """sum_s (1/s!) (nu/2)^s mul(B^s (f (x) g)), B = sum_{m<n} Theta_mn (d_m (x) d_n - d_n (x) d_m),
    summed term by term over every sequence of signed derivative pairs."""
    def poly(symbol):
        return sympy.Poly(symbol, *SYMBOLS, domain="QQ")

    steps = []
    for pair in PAIRS:
        m, n = (SYMBOLS[i] for i in pair_indices(pair))
        theta = poly(SYMBOLS[var_index("Theta_" + pair)])
        steps += [(m, n, theta), (n, m, -theta)]
    nu = poly(SYMBOLS[NU_INDEX])
    total, level, s = f * g, [(f, g, nu ** 0)], 0
    while level:
        s += 1
        level = [(fd, gd, w * sign) for left, right, w in level for m, n, sign in steps
                 for fd in [_diff(left, m)] if any(_parts(fd))
                 for gd in [_diff(right, n)] if any(_parts(gd))]
        scale = nu ** s * sympy.Rational(1, factorial(s) * 2 ** s)
        for fd, gd, w in level:
            total = total + (fd * gd) * (w * scale)
    return total


def test_polynomial_core_against_sympy():
    rng = Random(41)
    for trial in range(40):
        f = random_qpoly(rng, max_position_degree=2, max_terms=3, include_params=True)
        g = random_qpoly(rng, max_position_degree=2, max_terms=3, include_params=True)
        # a..d and nu keep their variable indices as generator positions.
        used = sorted({var_index(v) for v in f.variables_used() | g.variables_used()}
                      | set(range(5)))
        sf, sg = _to_sympy(f, used), _to_sympy(g, used)
        assert _same(f * g, sf * sg, used)
        assert _same(f - g, SympyQuaternion(*(x - y for x, y in zip(_parts(sf), _parts(sg)))), used)
        for var in "abcd":
            assert _same(f.partial(var), _diff(sf, SYMBOLS[var_index(var)]), used)
        real = CENTRAL_REALS[trial % len(CENTRAL_REALS)]
        for base in (f, QPolynomial([f.terms()[0]]), with_real(QPolynomial(f.terms()[:2]), real)):
            gens = sorted({var_index(v) for v in base.variables_used()} | set(range(5)))
            expected = _to_sympy(QPolynomial.constant(1), gens)
            for n in range(5):
                assert _same(base ** n, expected, gens)
                expected = expected * _to_sympy(base, gens)
        assert _same(f.conjugate(), SympyQuaternion(sf.a, -sf.b, -sf.c, -sf.d), used)
        for s in range(3):
            assert _same(f.coefficient_of_nu_power(s), _nu_coefficient(sf, s), used)
        assert _same(star(f, g), _sympy_star(_to_sympy(f), _to_sympy(g))), trial


# --- properties ---------------------------------------------------------------

_EXPONENTS = st.one_of(st.integers(0, 2), st.integers(0, EXPONENT_LIMIT), st.just(EXPONENT_LIMIT))
_RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
_POLYS = st.lists(st.tuples(st.tuples(*[_EXPONENTS] * len(VARIABLES)),
                            st.builds(Quaternion, _RATIONALS, _RATIONALS, _RATIONALS, _RATIONALS)),
                  max_size=6).map(QPolynomial)


@settings(derandomize=True, deadline=None)
@given(_POLYS)
def test_canonical_text_round_trip_and_order(p):
    assert evaluate_text(p.canonical_text()) == p
    keys = [(sum(mono), mono) for mono, _ in p.terms()]
    assert all(high > low for high, low in zip(keys, keys[1:]))
