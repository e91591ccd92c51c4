"""Poisson brackets and the terminating star product."""

import ast
import importlib
import itertools
from fractions import Fraction
from math import factorial
from pathlib import Path
from random import Random

import pytest

import quatstar.poly
import quatstar.verify as verify
from quatstar.errors import DomainError
from quatstar.expr import evaluate_text
from quatstar.oracle import (random_monomial, random_qpoly, random_quaternion, random_rational,
                             star_oracle)
from quatstar.poly import POSITION_VARS, QPolynomial, add_rows, gen_q, gen_qbar
from quatstar.quat import UNITS, I, J, K, Quaternion
from quatstar.star import (PAIRS, StarConfig, ThetaSpec,
                           associator, pair_indices, poisson_bracket, star,
                           star_commutator, star_differences,
                           star_order_term)
from oracle_order import star_oracle_order

Q = gen_q()
QBAR = gen_qbar()


def _const(q):
    return QPolynomial.constant(q)


def test_pairs_enumeration():
    assert PAIRS == ("ab", "ac", "ad", "bc", "bd", "cd")
    assert pair_indices("ad") == (0, 3)
    with pytest.raises(DomainError):
        pair_indices("ba")


def test_bracket_values_for_q_with_itself():
    expected = {
        "ab": _const(Quaternion()), "ac": _const(Quaternion()),
        "ad": _const(Quaternion()),
        "bc": _const(K * 2), "bd": _const(J * -2), "cd": _const(I * 2),
    }
    for pair in PAIRS:
        assert poisson_bracket(Q, Q, pair) == expected[pair]
        assert poisson_bracket(QBAR, QBAR, pair) == expected[pair]


def test_bracket_values_for_mixed_arguments():
    assert poisson_bracket(Q, QBAR, "ab") == _const(I * -2)
    assert poisson_bracket(Q, QBAR, "ac") == _const(J * -2)
    assert poisson_bracket(Q, QBAR, "ad") == _const(K * -2)
    assert poisson_bracket(QBAR, Q, "ab") == _const(I * 2)
    assert poisson_bracket(QBAR, Q, "ac") == _const(J * 2)
    assert poisson_bracket(QBAR, Q, "ad") == _const(K * 2)
    # the mixed-pair brackets do not vanish
    assert poisson_bracket(Q, QBAR, "bc") == _const(K * -2)
    assert poisson_bracket(Q, QBAR, "bd") == _const(J * 2)
    assert poisson_bracket(Q, QBAR, "cd") == _const(I * -2)


def test_bracket_of_q_with_q_squared():
    # {q, q^2}_an = {q^2, q}_an = q e_n - e_n q for the a-row pairs
    b = QPolynomial.variable("b")
    c = QPolynomial.variable("c")
    d = QPolynomial.variable("d")
    comm_i = _const(J) * d * 2 - _const(K) * c * 2
    comm_j = _const(K) * b * 2 - _const(I) * d * 2
    comm_k = _const(I) * c * 2 - _const(J) * b * 2
    assert poisson_bracket(Q, Q * Q, "ab") == comm_i
    assert poisson_bracket(Q * Q, Q, "ab") == comm_i
    assert poisson_bracket(Q, Q * Q, "ac") == comm_j
    assert poisson_bracket(Q * Q, Q, "ac") == comm_j
    assert poisson_bracket(Q, Q * Q, "ad") == comm_k
    assert poisson_bracket(Q * Q, Q, "ad") == comm_k


def test_bracket_matches_its_definition_and_is_bilinear():
    rng = Random(17)
    for _ in range(25):
        f = random_qpoly(rng, max_position_degree=3, max_terms=3)
        g = random_qpoly(rng, max_position_degree=3, max_terms=3)
        h = random_qpoly(rng, max_position_degree=3, max_terms=3)
        for pair in ("ab", "cd"):
            m, n = pair_indices(pair)
            u, v = "abcd"[m], "abcd"[n]
            direct = f.partial(u) * g.partial(v) - f.partial(v) * g.partial(u)
            assert poisson_bracket(f, g, pair) == direct
            assert (poisson_bracket(f + h, g, pair)
                    == poisson_bracket(f, g, pair) + poisson_bracket(h, g, pair))
            assert (poisson_bracket(f, g + h, pair)
                    == poisson_bracket(f, g, pair) + poisson_bracket(f, h, pair))


def test_star_of_q_with_itself():
    result = star(Q, Q)
    assert str(result) == ("a^2 + 2 i a b + 2 j a c + 2 k a d"
                           " - b^2 - c^2 - d^2"
                           " + k nu Theta_bc - j nu Theta_bd + i nu Theta_cd")


def test_star_zeroth_order_is_the_point_product():
    rng = Random(23)
    for _ in range(30):
        f = random_qpoly(rng, max_position_degree=4, max_terms=4)
        g = random_qpoly(rng, max_position_degree=4, max_terms=4)
        assert star(f, g).coefficient_of_nu_power(0) == f * g


def test_star_first_order_is_half_the_bracket():
    rng = Random(29)
    theta_vars = {p: QPolynomial.variable(f"Theta_{p}") for p in PAIRS}
    for _ in range(20):
        f = random_qpoly(rng, max_position_degree=3, max_terms=3)
        g = random_qpoly(rng, max_position_degree=3, max_terms=3)
        expected = QPolynomial.zero()
        for pair in PAIRS:
            expected = expected + theta_vars[pair] * poisson_bracket(f, g, pair) * Fraction(1, 2)
        assert star(f, g).coefficient_of_nu_power(1) == expected


def test_star_terminates_at_the_smaller_position_degree():
    rng = Random(31)
    f = random_qpoly(rng, max_position_degree=2, max_terms=3) + QPolynomial.variable("a") ** 2
    g = random_qpoly(rng, max_position_degree=5, max_terms=3)
    assert star(f, g).nu_degree() <= 2


def test_star_order_term():
    assert star_order_term(Q, Q, 0) == Q * Q
    theta_bc = QPolynomial.variable("Theta_bc")
    theta_bd = QPolynomial.variable("Theta_bd")
    theta_cd = QPolynomial.variable("Theta_cd")
    first = star_order_term(Q, Q, 1)
    assert first == (_const(K) * theta_bc - _const(J) * theta_bd
                     + _const(I) * theta_cd)
    assert star_order_term(Q, Q, 2).is_zero()


def test_star_order_term_past_the_series_end_walks_no_levels(monkeypatch):
    # The series ends at the smaller position degree, and a capped one at the
    # cap, so past either no operand becomes rows and no partial is taken.
    def no_walk(*args):
        raise AssertionError("rows formed past the series end")

    f, g = Q ** 3, QBAR ** 2 * QPolynomial.variable("nu") ** 4
    star_module = importlib.import_module("quatstar.star")
    for name in ("rows", "unit_rows"):
        monkeypatch.setattr(QPolynomial, name, no_walk)
    for name in ("add_partial_rows", "add_partial_unit_rows"):
        monkeypatch.setattr(star_module, name, no_walk)
    for s in (3, 4, 7):
        assert star_order_term(f, g, s).is_zero()
    assert star_order_term(f, g, 2, StarConfig(order_cap=1)).is_zero()
    assert star_order_term(f, QPolynomial.zero(), 1).is_zero()
    with pytest.raises(AssertionError, match="past the series end"):
        star_order_term(f, g, 2)


def test_star_with_zero_theta_or_zero_nu():
    cfg_zero_theta = StarConfig(theta=ThetaSpec.zero())
    cfg_zero_nu = StarConfig(nu=0)
    f = Q * Q
    g = QBAR
    assert star(f, g, cfg_zero_theta) == f * g
    assert star(f, g, cfg_zero_nu) == f * g


@pytest.mark.parametrize("var", ["nu", "Theta_ab"])
def test_parameter_exponents_are_guarded_on_every_term_the_walk_forms(var):
    # nu and Theta both ride in the engine's step table and in the oracle's
    # summand monomials, so order 1 of f * f, with f = var^K a b, forms
    # var^(2K + 1) terms before they cancel: K = 500,000 overflows the
    # exponent limit on both routes, and K = 499,999 agrees.
    a_b, config = QPolynomial.variable("a") * QPolynomial.variable("b"), StarConfig(order_cap=1)
    f = QPolynomial.variable(var) ** 500_000 * a_b
    for route in (star, star_oracle):
        with pytest.raises(DomainError, match="exponent overflow"):
            route(f, f, config)
    f = QPolynomial.variable(var) ** 499_999 * a_b
    assert star(f, f, config) == star_oracle(f, f, config)


# q q and qbar have one nonzero component per coefficient, so the engine runs
# them on signed-unit rows; (1 + i) q q has two, which keeps it on integer rows.
UNIT_PAIR = (Q * Q, QBAR)
DENSE_PAIR = (Q * Q * Quaternion(1, 1), QBAR)
# 1 + k has position degree 0, so its series with any operand stops at order
# 0: against q, a dense operand, zero and nu Theta_ab, either way round.
ONE_K = _const(Quaternion(1, 0, 0, 1))
FLAT_PAIRS = [pair for other in (Q, DENSE_PAIR[0], QPolynomial.zero(),
                                 QPolynomial.variable("nu") * QPolynomial.variable("Theta_ab"))
              for pair in ((ONE_K, other), (other, ONE_K))]
NU_0, CAP_0 = StarConfig(nu=0), StarConfig(order_cap=0)


@pytest.mark.parametrize("route, config", [
    (star, CAP_0), (star, NU_0), (star_oracle, CAP_0), (star_oracle, NU_0), (star, StarConfig()),
    (star, StarConfig(theta=ThetaSpec.numeric({"ab": 1, "bc": Fraction(3, 2), "cd": -2}),
                      nu=Fraction(1, 3))),
    (star, StarConfig(nu=Fraction(-2, 5)))],
                         ids=["engine-cap-0", "engine-nu-0", "oracle-cap-0", "oracle-nu-0",
                              "engine-formal", "engine-numeric", "engine-numeric-nu"])
def test_nu_zero_is_order_cap_zero_on_both_routes(monkeypatch, route, config):
    # nu = 0, order cap 0 and an operand of position degree 0 are one rule:
    # the series stops at order 0, so both routes return f g without building
    # a derivative, and the engine converts no operand to rows, whatever its
    # row format.  The engine's commutator and its order terms C_0 and C_1
    # (zero at position degree 0) agree with the oracle.
    pairs = [UNIT_PAIR, DENSE_PAIR] if config in (NU_0, CAP_0) else []
    if route is star_oracle:
        checks = [(star_oracle, (f, g, config), f * g) for f, g in pairs]
    else:
        checks = [check for f, g in pairs + FLAT_PAIRS for check in [
            (star, (f, g, config), star_oracle(f, g, config)),
            (star_commutator, (f, g, config), star_oracle(f, g, config) - star_oracle(g, f, config))]]
        checks += [(star_order_term, (f, g, s, config), star_oracle_order(f, g, s, config))
                   for f, g in FLAT_PAIRS for s in (0, 1)]

    def no_derivatives(*args):
        raise AssertionError("a series that stops at order 0 builds no rows or gradients")

    monkeypatch.setattr(QPolynomial, "rows", no_derivatives)
    monkeypatch.setattr(QPolynomial, "unit_rows", no_derivatives)
    monkeypatch.setattr(importlib.import_module("quatstar.oracle"), "_gradient", no_derivatives)
    monkeypatch.setattr(importlib.import_module("quatstar.star"), "add_partial_unit_rows",
                        no_derivatives)
    for function, args, expected in checks:
        assert function(*args) == expected, (function.__name__, args)


@pytest.mark.parametrize("f, g, other", [
    (*UNIT_PAIR, "mul_rows"), (Q ** 3, QBAR ** 2, "mul_rows"),
    (_const(J) * Q * QBAR * Q, _const(I) * QBAR - QPolynomial.variable("nu"), "mul_rows"),
    (*DENSE_PAIR, "mul_unit_rows"), (QBAR, Q + _const(Quaternion(1, 0, 0, 1)), "mul_unit_rows"),
], ids=["q q, qbar", "q^3, qbar^2", "j q qbar q, i qbar - nu", "(1 + i) q q, qbar",
        "qbar, q + 1 + k"])
@pytest.mark.parametrize("config", [StarConfig(), StarConfig(
    theta=ThetaSpec.numeric({"ab": 1, "bc": Fraction(3, 2), "cd": -2}), nu=Fraction(1, 3))],
                         ids=["formal", "numeric"])
def test_each_pair_runs_on_one_row_format(monkeypatch, f, g, other, config):
    # Operands with one nonzero component per coefficient never reach
    # `mul_rows`; a pair with a denser coefficient never reaches the
    # signed-unit product.  Either way the product is the oracle's.
    expected = star_oracle(f, g, config)

    def other_format(*args):
        raise AssertionError(f"{other} reached")

    expected_orders = [star_oracle_order(f, g, s, config) for s in range(3)]
    monkeypatch.setattr(importlib.import_module("quatstar.star"), other, other_format)
    assert star(f, g, config) == expected
    assert [star_order_term(f, g, s, config) for s in range(3)] == expected_orders


def test_every_catalogue_star_call_takes_signed_unit_rows(monkeypatch, full_report):
    # Every star product the catalogue forms has one nonzero component per
    # coefficient, so the integer-row product and partial are never reached
    # and the report is the one the shared full run gave.
    def integer_rows(*args):
        raise AssertionError("a catalogue star call took integer rows")

    star_module = importlib.import_module("quatstar.star")
    monkeypatch.setattr(star_module, "mul_rows", integer_rows)
    monkeypatch.setattr(star_module, "add_partial_rows", integer_rows)
    assert verify.run_all().to_dict() == full_report.to_dict()


def test_star_with_numeric_theta():
    cfg = StarConfig(theta=ThetaSpec.numeric({"cd": 1}))
    nu = QPolynomial.variable("nu")
    assert star(Q, Q, cfg) == Q * Q + _const(I) * nu


def test_star_with_numeric_nu():
    cfg = StarConfig(nu=Fraction(1, 2))
    theta_bc = QPolynomial.variable("Theta_bc")
    theta_bd = QPolynomial.variable("Theta_bd")
    theta_cd = QPolynomial.variable("Theta_cd")
    expected = Q * Q + (_const(K) * theta_bc - _const(J) * theta_bd
                        + _const(I) * theta_cd) * Fraction(1, 2)
    assert star(Q, Q, cfg) == expected


def test_order_cap_truncates():
    cfg = StarConfig(order_cap=0)
    assert star(Q, Q, cfg) == Q * Q
    cfg1 = StarConfig(order_cap=1)
    assert star(Q * Q, Q * Q, cfg1).nu_degree() <= 1
    with pytest.raises(DomainError):
        StarConfig(order_cap=-1)
    with pytest.raises(DomainError):
        StarConfig(nu="half")


def test_star_commutator_of_q_and_qbar():
    nu = QPolynomial.variable("nu")
    t_ab = QPolynomial.variable("Theta_ab")
    t_ac = QPolynomial.variable("Theta_ac")
    t_ad = QPolynomial.variable("Theta_ad")
    expected = (_const(I) * t_ab + _const(J) * t_ac + _const(K) * t_ad) * nu * -2
    assert star_commutator(Q, QBAR) == expected
    assert star_commutator(Q, Q).is_zero()


def test_associator_vanishes():
    assert associator(Q, Q, Q).is_zero()
    assert associator(Q, Q, QBAR).is_zero()
    assert associator(Q, QBAR, Q).is_zero()
    rng = Random(37)
    for _ in range(10):
        f = random_qpoly(rng, max_position_degree=2, max_terms=3)
        g = random_qpoly(rng, max_position_degree=2, max_terms=3)
        h = random_qpoly(rng, max_position_degree=2, max_terms=3)
        assert associator(f, g, h).is_zero()


# Operand triples as expression text: a dense operand among one-component
# ones (integer rows), either way round; one-component operands over
# different denominators, whose outer associator products stop at orders 2
# and 1, so the two series lie over different denominators; the V11.4
# shape; two associators whose series stop at orders 2 and 1, then 1 and
# 2, so the one walk carries a series that ends before its bound; and one
# whose inner product f * g cancels the 3 of f, so only the lcm of the two
# sides' denominators serves both.
DIFFERENCE_TRIPLES = [("(1 + 1/3 i + 2 k) q + qbar", "q", "qbar^2"),
                      ("q", "(1 + i) q qbar", "1/2 qbar"),
                      ("1/2 q", "qbar", "1/3 q^2"),
                      ("q", "qbar", "q^2"),
                      ("q", "q", "q^2"),
                      ("q^2", "qbar", "q"),
                      ("1/3 q", "3 qbar", "q")]


@pytest.mark.parametrize("config", [
    StarConfig(), StarConfig(theta=ThetaSpec.numeric({"ab": 1, "bc": Fraction(3, 2), "cd": -2}),
                             nu=Fraction(1, 3)),
    StarConfig(nu=Fraction(-2, 5)), StarConfig(nu=0),
    StarConfig(order_cap=0), StarConfig(order_cap=1), StarConfig(order_cap=2)],
                         ids=["formal", "numeric", "numeric-nu", "nu-0", "cap-0", "cap-1", "cap-2"])
def test_differences_equal_their_materialised_form(config):
    # star_commutator and associator walk both series into one accumulator;
    # the result is the difference of the star products, and `comm` and
    # `assoc` in expression text are these two functions.
    sizes = []
    for texts in DIFFERENCE_TRIPLES:
        f, g, h = map(evaluate_text, texts)
        comm = star_commutator(f, g, config)
        assert comm == star(f, g, config) - star(g, f, config)
        assert evaluate_text("comm({}, {})".format(*texts[:2]), config) == comm
        assoc = associator(f, g, h, config)
        assert assoc == star(star(f, g, config), h, config) - star(f, star(g, h, config), config)
        assert evaluate_text("assoc({}, {}, {})".format(*texts), config) == assoc
        sizes.append((len(comm), len(assoc)))
    # Under every config some commutator is nonzero, and the series cut
    # after order 1 is not associative, so nonzero differences are compared.
    assert any(c for c, _ in sizes) and (config.order_cap != 1 or any(a for _, a in sizes))


def test_differences_cancel_as_ints(monkeypatch):
    # Both sides of star_commutator(q, q), and the outer products of an
    # associator of one-component operands, cancel in the accumulator:
    # add_rows is handed only zero rows for them.
    handed = []

    def spy(data, rows, den):
        handed.append(list(rows))
        return add_rows(data, handed[-1], den)

    monkeypatch.setattr(importlib.import_module("quatstar.star"), "add_rows", spy)
    assert star_commutator(Q, Q).is_zero()
    assert len(handed) == 1 and handed[0] and not any(any(row) for _, row in handed[0])
    handed.clear()
    assert associator(Q, QBAR, Q * Q).is_zero()
    # The inner products star(q, qbar) and star(qbar, q^2) convert their
    # nonzero orders first; the difference's one call comes last.
    assert any(any(row) for _, row in handed[0])
    assert handed[-1] and not any(any(row) for _, row in handed[-1])


def test_series_denominators_stop_at_the_series_end(monkeypatch):
    # nu and Theta powers raise the total degree but not the last order of
    # the series, so no denominator s! den^s is formed past that order, on
    # a star product or on a difference.
    tops = []
    monkeypatch.setattr(importlib.import_module("quatstar.star"), "factorial",
                        lambda n: tops.append(n) or factorial(n))
    nu = QPolynomial.variable("nu") ** 1000
    f, g = nu * Q ** 3, QPolynomial.variable("Theta_ab") ** 1000 * QBAR ** 2
    assert star(f, g) == star_oracle(f, g)
    assert star_commutator(f, g) == star_oracle(f, g) - star_oracle(g, f)
    assert max(tops) == 2


def _one_component_operand(rng):
    """A seeded operand whose coefficients are each a random unit times a
    nonzero rational, so it runs on signed-unit rows."""
    return QPolynomial([(mono, UNITS[rng.randrange(4)].scale(value.components()[0] or 1))
                        for mono, value in random_qpoly(rng, 3, 3, True).terms()])


def _dense_operand(rng):
    """A seeded operand with a dense rational coefficient: integer rows."""
    return random_qpoly(rng, 3, 3, True) + QPolynomial({(1, 0, 1) + (0,) * 8:
                                                        random_quaternion(rng)})


DIFFERENCE_CONFIGS = [StarConfig(theta, nu, cap) for theta, nu in [
    (ThetaSpec.formal(), "formal"),
    (ThetaSpec.numeric({"ab": Fraction(2, 3), "bd": -1, "cd": 3}), "formal"),
    (ThetaSpec.formal(), Fraction(-2, 5))] for cap in (None, 0, 1, 2)]


@pytest.mark.parametrize("config", DIFFERENCE_CONFIGS, ids=[
    f"{route}-cap-{cap}" for route in ("formal", "numeric-theta", "numeric-nu")
    for cap in (None, 0, 1, 2)])
@pytest.mark.parametrize("operand, bounds_2_and_1, other", [
    (_one_component_operand, ((Q * Q, QBAR * QBAR), (_const(J) * Q, QBAR ** 3)), "mul_rows"),
    (_dense_operand, ((DENSE_PAIR[0], QBAR * QBAR), (QBAR, Q ** 3)), "mul_unit_rows")],
                         ids=["signed-unit", "integer"])
def test_star_difference_is_the_difference_of_two_stars(monkeypatch, config, operand,
                                                        bounds_2_and_1, other):
    # Seeded pairs of pairs on one row format, a commutator, and two series
    # whose bounds are 2 and 1.  The series cut after order 1 is not
    # associative: some associators of seeded triples are nonzero, and each
    # is its materialised form.
    rng = Random(2032)
    x = [operand(rng) for _ in range(8)]
    cases = [((x[0], x[1]), (x[2], x[3])), ((x[4], x[5]), (x[6], x[7])),
             ((x[0], x[1]), (x[1], x[0])), bounds_2_and_1]
    expected = [star(*first, config) - star(*second, config) for first, second in cases]
    if config.order_cap == 1:
        associators = [(associator(f, g, h, config),
                        star(star(f, g, config), h, config) - star(f, star(g, h, config), config))
                       for f, g, h in (x[i:i + 3] for i in range(6))]
        assert all(value == materialised for value, materialised in associators)
        assert not all(value.is_zero() for value, _ in associators)

    def other_format(*args):
        raise AssertionError(f"{other} reached")

    monkeypatch.setattr(importlib.import_module("quatstar.star"), other, other_format)
    assert [next(star_differences([case], config)) for case in cases] == expected
    assert not all(value.is_zero() for value in expected)


@pytest.mark.parametrize("config", DIFFERENCE_CONFIGS, ids=[
    f"{route}-cap-{cap}" for route in ("formal", "numeric-theta", "numeric-nu")
    for cap in (None, 0, 1, 2)])
@pytest.mark.parametrize("operand", [_one_component_operand, _dense_operand],
                         ids=["signed-unit", "integer"])
def test_a_batch_is_its_differences_one_by_one(config, operand):
    # Seeded candidates over five operands, so each recurs across them in
    # both roles, plus one whose two series stop at order 0 (a constant on
    # each side).  The batch keeps every operand's rows and derivatives, and
    # gives what a batch of one gives candidate by candidate.  Fresh equal
    # copies, made for one candidate and dropped after it, give the same:
    # the batch keys an operand by id and holds it, so a freed copy's id
    # never reaches another operand's derivatives.
    rng = Random(2033)
    x = [operand(rng) for _ in range(4)] + [_const(Quaternion(0, 0, Fraction(3, 2)))]
    cases = [((x[a], x[b]), (x[c], x[d])) for a, b, c, d in (
        rng.choices(range(5), k=4) for _ in range(16))] + [((x[4], x[0]), (x[1], x[4]))]
    expected = [next(star_differences([case], config)) for case in cases]
    assert expected[-1] == x[4] * x[0] - x[1] * x[4]
    assert list(star_differences(cases, config)) == expected
    assert not all(value.is_zero() for value in expected)

    def copies():
        for pairs in cases:
            yield tuple(tuple(QPolynomial.from_terms(dict(p.items())) for p in pair)
                        for pair in pairs)

    assert list(star_differences(copies(), config)) == expected


def _position_monomials(max_degree):
    """The real monomials in a, b, c, d of degree <= max_degree, lowest first."""
    monomials = []
    for degree in range(max_degree + 1):
        for combo in itertools.combinations_with_replacement(range(4), degree):
            exps = [0] * 11
            for idx in combo:
                exps[idx] += 1
            monomials.append(QPolynomial({tuple(exps): 1}))
    return monomials


def _assert_associative_on(monomials, star_fn):
    """Assert that every associator of the monomials vanishes, each inner
    product computed once; return them as (f, g, star_fn(f, g)) triples."""
    inner = {(x, y): star_fn(f, g) for (x, f), (y, g)
             in itertools.product(enumerate(monomials), repeat=2)}
    for (x, y), fg in inner.items():
        for z, h in enumerate(monomials):
            assert star_fn(fg, h) == star_fn(monomials[x], inner[y, z]), (x, y, z)
    return [(monomials[x], monomials[y], fg) for (x, y), fg in inner.items()]


def test_associativity_through_position_degree_two():
    """assoc(f, g, h) = 0 for every f, g, h of position degree <= 2, under
    formal Theta and nu, by three finite checks.

    Star is linear over the central nu and Theta, which it never
    differentiates, and coefficients act from the left, so
    (e_u F) * (e_v G) = e_u e_v (F * G) for real F, G.  An associator of
    quaternion polynomials is then a sum of unit products (ii) times
    associators of real position monomials (i); (iii) checks the
    unit-pulling step on the engine itself.  The Leibniz rule rides along
    on the same pairs, and the oracle repeats (i) through degree 1."""
    monomials = _position_monomials(2)
    assert len(monomials) == 15
    inner = _assert_associative_on(monomials, star)      # (i): 3,375 triples
    for u, v, w in itertools.product(UNITS, repeat=3):  # (ii)
        assert (u * v) * w == u * (v * w)
    for f, g, fg in inner:
        for u, v in itertools.product(UNITS, repeat=2):  # (iii)
            assert star(u * f, v * g) == (u * v) * fg
        for m in POSITION_VARS:
            assert fg.partial(m) == star(f.partial(m), g) + star(f, g.partial(m))
    _assert_associative_on(_position_monomials(1), star_oracle)


def _real_components(f):
    """The real polynomials f_0..f_3 with f = f_0 + i f_1 + j f_2 + k f_3."""
    return [QPolynomial([(mono, coeff.components()[u]) for mono, coeff in f.terms()])
            for u in range(4)]


ASSOCIATIVE_CONFIGS = DIFFERENCE_CONFIGS[::4]  # the three routes, uncapped
CONFIG_IDS = ["formal", "numeric-theta", "numeric-nu"]


@pytest.mark.parametrize("config", ASSOCIATIVE_CONFIGS, ids=CONFIG_IDS)
def test_star_is_the_unit_table_over_real_component_stars(monkeypatch, config):
    # f * g = sum_{u,v} e_u e_v (f_u * g_v) over the real components, as B
    # differentiates only central variables and coefficients act from the
    # left.  The left side of each seeded dense pair runs on integer rows,
    # every right-side product on signed-unit rows, so each row kernel
    # checks the other.
    rng = Random(2040)
    pairs = [(_dense_operand(rng) + random_qpoly(rng, 4, 2, True), _dense_operand(rng))
             for _ in range(6)]
    star_module = importlib.import_module("quatstar.star")

    def unreached(*args):
        raise AssertionError("the other row format reached")

    with monkeypatch.context() as patch:
        patch.setattr(star_module, "mul_unit_rows", unreached)
        expected = [star(f, g, config) for f, g in pairs]
    with monkeypatch.context() as patch:
        patch.setattr(star_module, "mul_rows", unreached)
        for (f, g), fg in zip(pairs, expected):
            total = QPolynomial.zero()
            for (u, f_u), (v, g_v) in itertools.product(enumerate(_real_components(f)),
                                                         enumerate(_real_components(g))):
                total = total + (UNITS[u] * UNITS[v]) * star(f_u, g_v, config)
            assert total == fg
    assert all(f.position_degree() >= 2 and g.position_degree() >= 2 for f, g in pairs)


def _real_operand(rng, degree):
    """A seeded real polynomial of position degree `degree`: a leading
    monomial of that degree and one to three lower terms, rational coefficients."""
    top = [0] * 11
    for _ in range(degree):
        top[rng.randrange(4)] += 1
    return QPolynomial([(tuple(top), random_rational(rng) or 1)] + [
        (random_monomial(rng, degree - 1, True), random_rational(rng))
        for _ in range(rng.randint(1, 3))])


@pytest.mark.parametrize("config", ASSOCIATIVE_CONFIGS, ids=CONFIG_IDS)
def test_real_associators_of_position_degree_three_and_four_vanish(config):
    # With the unit table's associativity and the component identity above,
    # this is the general law: every uncapped associator vanishes.  The
    # series cut after order 1 is not associative on the same triples.
    rng = Random(2041)
    triples = [[_real_operand(rng, rng.choice((3, 4))) for _ in range(3)] for _ in range(6)]
    assert {x.position_degree() for triple in triples for x in triple} == {3, 4}
    for f, g, h in triples:
        assert associator(f, g, h, config).is_zero()
    capped = StarConfig(config.theta, config.nu, 1)
    assert not all(associator(f, g, h, capped).is_zero() for f, g, h in triples)


@pytest.mark.parametrize("build", [
    lambda: StarConfig(nu=0.1),
    lambda: ThetaSpec.numeric({"ab": 0.1}),
    lambda: Q.evaluate({"a": 0.5, "b": 1, "c": 2, "d": Fraction(1, 3)}),
], ids=["nu", "theta", "evaluate"])
def test_float_inputs_are_rejected(build):
    with pytest.raises(DomainError):
        build()


def test_theta_spec_validation():
    spec = ThetaSpec.numeric({"ab": Fraction(1, 2)})
    assert not spec.is_formal()
    assert ThetaSpec.formal().is_formal()
    with pytest.raises(DomainError):
        ThetaSpec.numeric({"zz": 1})
    # directly built values are stored as Fractions, as numeric() stores them
    assert all(type(value) is Fraction for value in ThetaSpec((1, 0, 0, 0, 0, -2)).values)


@pytest.mark.parametrize("build", [
    lambda: star(Q ** 3, Q ** 3, StarConfig(order_cap=1.5)),
    lambda: StarConfig(order_cap="2"),
    lambda: star(Q, Q, StarConfig(theta=ThetaSpec((0.5,) * 6))),
    lambda: ThetaSpec((1, 2)),
    lambda: StarConfig(theta=None),
], ids=["float-cap", "text-cap", "float-theta", "short-theta", "no-theta"])
def test_bad_configs_are_domain_errors(build):
    with pytest.raises(DomainError):
        build()


def test_star_leaves_the_packed_format_to_poly():
    """`star.py` takes no underscore-prefixed name from `poly` and does not
    import the module itself, so only `poly` knows the monomial format."""
    path = Path(quatstar.poly.__file__).with_name("star.py")
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == "poly":
            assert not [alias.name for alias in node.names if alias.name.startswith("_")]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            assert not any(alias.name == "poly" or alias.name.endswith(".poly")
                           for alias in node.names)
