"""The independent star-product oracle and random-testing helpers."""

import ast
import importlib
import re
from fractions import Fraction
from math import comb, factorial
from pathlib import Path
from random import Random

import pytest

import quatstar.oracle
from quatstar.errors import DomainError
from quatstar.oracle import (poisson_bracket_oracle, random_qpoly, random_quaternion, random_rational,
                             star_oracle)
from quatstar.poly import ZERO_MONO, QPolynomial, add_term, gen_q, gen_qbar
from quatstar.quat import Quaternion
from quatstar.star import (PAIRS, StarConfig, ThetaSpec, poisson_bracket,
                           star, star_differences, star_order_term)
import costs
from oracle_order import star_oracle_order
from test_golden import DEEP_THETAS

Q = gen_q()
QBAR = gen_qbar()

# Numeric Theta with non-unit rationals on some pairs and zero on the others.
RATIONAL_THETA = ThetaSpec.numeric({"ab": Fraction(2, 3), "ac": 0,
                                    "bc": Fraction(-5, 4), "bd": 3,
                                    "cd": Fraction(7, 2)})
# The order-2 weight of d_a d_c (x) d_b d_d is
# 2 (Theta_ab Theta_cd - Theta_ad Theta_bc), which cancels to zero here.
CANCELLING_THETA = ThetaSpec.numeric({"ab": 1, "ad": 1, "bc": 1, "cd": 1})


def _cubic(rng):
    """A random quaternion times a random monomial of position degree 3."""
    exps = [0] * 11
    for _ in range(3):
        exps[rng.randrange(4)] += 1
    return QPolynomial({tuple(exps): random_quaternion(rng)})


def test_oracle_matches_engine_on_basic_inputs():
    assert star_oracle(Q, Q) == star(Q, Q)
    assert star_oracle(Q, QBAR) == star(Q, QBAR)
    assert star_oracle(Q * Q, QBAR) == star(Q * Q, QBAR)


def test_oracle_matches_engine_on_seeded_random_pairs():
    rng = Random(41)
    for _ in range(40):
        f = random_qpoly(rng, max_position_degree=4, max_terms=4)
        g = random_qpoly(rng, max_position_degree=4, max_terms=4)
        assert star_oracle(f, g) == star(f, g)


def test_oracle_matches_engine_with_parameter_laden_operands():
    rng = Random(43)
    for _ in range(15):
        f = random_qpoly(rng, max_position_degree=3, max_terms=3,
                         include_params=True)
        g = random_qpoly(rng, max_position_degree=3, max_terms=3,
                         include_params=True)
        assert star_oracle(f, g) == star(f, g)


def test_oracle_respects_configs():
    cfg_zero = StarConfig(theta=ThetaSpec.zero())
    assert star_oracle(Q, Q, cfg_zero) == Q * Q
    cfg_cd = StarConfig(theta=ThetaSpec.numeric({"cd": Fraction(1)}))
    assert star_oracle(Q, Q, cfg_cd) == star(Q, Q, cfg_cd)
    cfg_nu = StarConfig(nu=Fraction(2, 3))
    assert star_oracle(Q, QBAR, cfg_nu) == star(Q, QBAR, cfg_nu)
    cfg_cap = StarConfig(order_cap=0)
    assert star_oracle(Q * Q, Q * Q, cfg_cap) == Q * Q * Q * Q

    configs = [StarConfig(theta=RATIONAL_THETA),
               StarConfig(theta=RATIONAL_THETA, nu=Fraction(-3, 5)),
               StarConfig(theta=CANCELLING_THETA),
               StarConfig(order_cap=1), StarConfig(order_cap=2),
               StarConfig(order_cap=2, nu=Fraction(5, 2)),
               StarConfig(theta=RATIONAL_THETA, order_cap=1, nu=Fraction(1, 3))]
    rng = Random(59)
    for _ in range(4):
        # position degree 3, so order caps 1 and 2 lie below the natural cap
        f = random_qpoly(rng, max_position_degree=2, max_terms=3) + _cubic(rng)
        g = random_qpoly(rng, max_position_degree=3, max_terms=3) + _cubic(rng)
        for cfg in configs:
            assert star_oracle(f, g, cfg) == star(f, g, cfg)
            if cfg.order_cap is not None:
                assert star(f, g, cfg) != star(f, g, StarConfig(cfg.theta, cfg.nu))


def test_order_term_extraction():
    configs = [StarConfig(), StarConfig(theta=RATIONAL_THETA),
               StarConfig(theta=CANCELLING_THETA), StarConfig(order_cap=1)]
    rng = Random(47)
    for _ in range(10):
        f = random_qpoly(rng, max_position_degree=3, max_terms=3)
        g = random_qpoly(rng, max_position_degree=3, max_terms=3)
        cap = max(min(f.position_degree(), g.position_degree()), 0)
        for cfg in configs:
            for s in range(cap + 2):
                assert star_oracle_order(f, g, s, cfg) == star_order_term(f, g, s, cfg)

    # With CANCELLING_THETA every order-2 weight of f (x) g cancels.
    f = QPolynomial({(1, 0, 1) + (0,) * 8: random_quaternion(rng)})
    g = QPolynomial({(0, 1, 0, 1) + (0,) * 7: random_quaternion(rng)})
    cancelling = StarConfig(theta=CANCELLING_THETA)
    assert not star_order_term(f, g, 1, cancelling).is_zero()
    assert not star_order_term(f, g, 2, StarConfig(theta=RATIONAL_THETA)).is_zero()
    for s in range(3):
        assert star_oracle_order(f, g, s, cancelling) == star_order_term(f, g, s, cancelling)
    assert star_order_term(f, g, 2, cancelling).is_zero()
    assert star_oracle(f, g, cancelling) == star(f, g, cancelling)


def test_collected_weight_that_cancels_drops_its_pair():
    """Under formal Theta, B^3(abc (x) abc) has the one pair (a+b+c, a+b+c),
    reached along the two 3-cycles of {a, b, c} with weights
    -+Theta_ab Theta_ac Theta_bc that cancel: the oracle drops the pair, so
    its series ends at order 2, and the engine's order 3 is zero too."""
    f = QPolynomial.variable("a") * QPolynomial.variable("b") * QPolynomial.variable("c")
    rows, _ = quatstar.oracle._rows(f)
    steps, _ = quatstar.oracle._signed_steps(ThetaSpec.formal(), ZERO_MONO)
    assert len(quatstar.oracle._order_sums(rows, rows, steps, None)) == 2
    assert not star_order_term(f, f, 2).is_zero() and star_order_term(f, f, 3).is_zero()
    assert star_oracle(f, f) == star(f, f)


@pytest.mark.parametrize("route", [star, star_oracle])
def test_star_of_a_and_b_powers_has_a_closed_form(route):
    """star(a^n, b^n) = sum_s C(n,s)^2 s! (nu Theta_ab / 2)^s a^(n-s) b^(n-s)
    under formal Theta and nu: only d_a^s (x) (Theta_ab d_b)^s survives."""
    a, b = QPolynomial.variable("a"), QPolynomial.variable("b")
    for n in range(1, 7):
        expected = {(n - s, n - s, 0, 0, s, s, 0, 0, 0, 0, 0):
                    Quaternion(Fraction(comb(n, s) ** 2 * factorial(s), 2 ** s))
                    for s in range(n + 1)}
        assert dict(route(a ** n, b ** n).terms()) == expected


def test_routes_agree_on_q_powers_under_deep_configs():
    """star(q^n, qbar^n) and its order terms on both routes, n = 1-4.  The
    derivative multi-indices repeat directions, and with Theta_ab = 1,
    Theta_cd = -1 the right operand's iterated derivatives cancel to zero
    along some of them, for n = 4 from order 3, before the series ends."""
    for n in range(1, 5):
        f, g = Q ** n, QBAR ** n
        for theta in (DEEP_THETAS[1], ThetaSpec.numeric({"ab": 1, "cd": -1})):
            for cap in (None, 1, 3):
                for nu in ("formal", Fraction(-3, 7)):
                    cfg = StarConfig(theta, nu, cap)
                    assert star(f, g, cfg) == star_oracle(f, g, cfg)
                for s in range(n + 2):
                    cfg = StarConfig(theta, "formal", cap)
                    assert star_order_term(f, g, s, cfg) == star_oracle_order(f, g, s, cfg)


@pytest.mark.parametrize("order_term", [star_order_term])
def test_negative_order_is_domain_error(order_term):
    with pytest.raises(DomainError, match="non-negative"):
        order_term(Q, Q, -1)


@pytest.mark.parametrize("order", [1.5, Fraction(3, 2)], ids=["float", "fraction"])
@pytest.mark.parametrize("order_term", [star_order_term])
def test_non_int_order_is_domain_error(order_term, order):
    with pytest.raises(DomainError, match=re.escape(f"must be a non-negative int, got {order!r}")):
        order_term(Q ** 3, QBAR ** 3, order)


@pytest.mark.parametrize("full, order_term", [(star, star_order_term),
                                              (star_oracle, star_oracle_order)])
def test_star_properties_on_each_route(full, order_term):
    """conj(f *_nu g) = conj(g) *_-nu conj(f), the nu^0 term is fg and the
    nu^1 term is 1/2 sum_mn Theta_mn {f,g}_mn, each checked on one route."""
    nu, minus_nu = StarConfig(nu=Fraction(3, 4)), StarConfig(nu=Fraction(-3, 4))
    rng = Random(61)
    for _ in range(40):
        f = random_qpoly(rng, 3, 3, True)
        g = random_qpoly(rng, 3, 3, True)
        assert full(f, g, nu).conjugate() == full(g.conjugate(), f.conjugate(), minus_nu)
        assert order_term(f, g, 0) == f * g
        first = QPolynomial.zero()
        for pair in PAIRS:
            first = first + QPolynomial.variable("Theta_" + pair) * poisson_bracket(f, g, pair)
        assert order_term(f, g, 1) == first * Fraction(1, 2)


def test_bracket_oracle_matches_engine():
    rng = Random(53)
    for _ in range(10):
        f = random_qpoly(rng, max_position_degree=3, max_terms=3)
        g = random_qpoly(rng, max_position_degree=3, max_terms=3)
        for pair in PAIRS:
            assert poisson_bracket_oracle(f, g, pair) == poisson_bracket(f, g, pair)


def test_bracket_oracle_forms_only_the_first_order(monkeypatch):
    # The bracket is the raw order-1 sum, one product of integer rows per
    # signed pair whose two derivatives are nonzero; a second order would be
    # formed and dropped.
    calls, real, f, g = [], quatstar.oracle._add_product, Q ** 2, QBAR ** 2
    monkeypatch.setattr(quatstar.oracle, "_add_product",
                        lambda *args: calls.append(args) or real(*args))
    for pair in PAIRS:
        calls.clear()
        assert poisson_bracket_oracle(f, g, pair) == poisson_bracket(f, g, pair)
        assert len(calls) == 2, pair
        assert all(type(n) is int for _, left, right, _ in calls
                   for rows in (left, right) for row in rows.values() for n in row)


def test_bracket_oracle_handles_nu_laden_operands():
    nu = QPolynomial.variable("nu")
    f = nu * Q
    g = Q
    for pair in PAIRS:
        assert poisson_bracket_oracle(f, g, pair) == poisson_bracket(f, g, pair)


def test_random_generators_are_deterministic():
    a = random_qpoly(Random(7), max_position_degree=4, max_terms=4)
    b = random_qpoly(Random(7), max_position_degree=4, max_terms=4)
    assert a == b
    assert random_quaternion(Random(9)) == random_quaternion(Random(9))
    assert random_rational(Random(9)) == random_rational(Random(9))


def test_random_quaternion_is_four_random_rationals():
    for seed in range(1000):
        rng, reference = Random(seed), Random(seed)
        x = random_quaternion(rng)
        y = Quaternion(*(random_rational(reference) for _ in range(4)))
        assert (x.n0, x.n1, x.n2, x.n3, x.den) == (y.n0, y.n1, y.n2, y.n3, y.den), seed
        assert rng.getstate() == reference.getstate(), seed


@pytest.mark.parametrize("config", [StarConfig(), StarConfig(theta=RATIONAL_THETA),
                                    StarConfig(nu=Fraction(-3, 2), order_cap=2)],
                         ids=["formal", "numeric-theta", "numeric-nu-capped"])
def test_star_routes_leave_their_operands_unchanged(config):
    # Expression lowering hands one polynomial object to both routes, and a
    # star_differences batch keeps each operand's rows across its candidates.
    rng = Random(43)
    for _ in range(4):
        f, g, h = (random_qpoly(rng, 3, 4, True) + _cubic(rng) for _ in range(3))
        texts = [p.canonical_text() for p in (f, g, h)]
        star(f, g, config), star(f, f, config), star_oracle(f, g, config), star_oracle(g, g, config)
        next(star_differences([((f, g), (g, h))], config))
        list(star_differences([((f, g), (g, h)), ((h, f), (f, g)), ((g, g), (f, h))], config))
        for pair in PAIRS:
            poisson_bracket(f, g, pair), poisson_bracket_oracle(f, g, pair)
        assert [p.canonical_text() for p in (f, g, h)] == texts


def test_random_rational_bounds():
    rng = Random(13)
    for _ in range(200):
        x = random_rational(rng)
        assert -9 <= x.numerator <= 9 or abs(x) <= 9
        assert 1 <= x.denominator <= 4


def test_oracle_shares_no_star_kernel():
    """The oracle may take only configuration names from `star` and no
    integer-row kernel or private name from `poly`, and the engine never
    names the oracle's gradient, so that their agreement stays a check on
    two routes."""
    star_names = {"PAIRS", "StarConfig", "ThetaSpec", "DEFAULT_CONFIG", "pair_indices"}
    row_kernel = {"mul_rows", "add_rows", "add_partial_rows", "live_directions",
                  "unit_rows", "mul_unit_rows", "add_unit_rows", "add_partial_unit_rows"}
    oracle_path = Path(quatstar.oracle.__file__)
    tree = ast.parse(oracle_path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(alias.name.startswith(("quatstar.star", "quatstar.poly"))
                           for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            module = (node.module or "").rpartition(".")[2]
            if module == "star":
                assert names <= star_names, names - star_names
            elif module == "poly":
                assert not names & row_kernel, names & row_kernel
                assert not {name for name in names if name.startswith("_")}, names
        elif isinstance(node, ast.Attribute):
            assert node.attr not in row_kernel | {"rows", "denominator", "partial",
                                                   "gradient"}, node.attr
    engine = ast.parse(oracle_path.with_name("star.py").read_text(encoding="utf-8"))
    engine_names = {node.attr if isinstance(node, ast.Attribute) else node.id
                    for node in ast.walk(engine) if isinstance(node, (ast.Attribute, ast.Name))}
    assert not {name for name in engine_names if "gradient" in name}


def _raise(*args, **kwargs):
    raise AssertionError("the oracle reached a product, partial, row kernel or merge of the engine")


@pytest.mark.parametrize("config", [StarConfig(), StarConfig(theta=RATIONAL_THETA),
                                    StarConfig(nu=Fraction(-3, 2))],
                         ids=["formal", "numeric-theta", "numeric-nu"])
def test_oracle_runs_on_its_own_product_and_gradient(monkeypatch, config):
    """With every polynomial product, partial, row kernel and term merge of
    `poly` and `star`, and `Quaternion`'s `+`, `*` and `scale`, raising, the
    oracle's star products and brackets are unchanged."""
    rng = Random(61)
    pairs = [(random_qpoly(rng, 4, 4, True), random_qpoly(rng, 4, 4, True)) for _ in range(12)]
    pairs += [(Q * Q, QBAR), (QBAR, Q * Q * Q)]

    def results():
        return ([star_oracle(f, g, config) for f, g in pairs]
                + [poisson_bracket_oracle(f, g, pair) for f, g in pairs[:4] for pair in PAIRS])

    expected = results()
    for name in ("__mul__", "partial", "rows", "unit_rows"):
        monkeypatch.setattr(QPolynomial, name, _raise)
    for name in ("__add__", "__mul__", "scale"):
        monkeypatch.setattr(Quaternion, name, _raise)
    for module in ("quatstar.poly", "quatstar.star"):
        module = importlib.import_module(module)
        for name in ("mul_rows", "mul_unit_rows", "add_partial_rows", "add_partial_unit_rows",
                     "add_rows", "add_term"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _raise)
    assert results() == expected


def _swapped_mul(self, other):
    """`QPolynomial.__mul__` with each coefficient product taken right to left."""
    data = {}
    for m1, c1 in self.items():
        for m2, c2 in other.items():
            add_term(data, m1 + m2, c2 * c1)
    return QPolynomial.from_terms(data)


@pytest.mark.parametrize("config", [StarConfig(order_cap=0), StarConfig(nu=0)],
                         ids=["cap-0", "nu-0"])
def test_oracle_order_0_sees_a_mutant_polynomial_product(monkeypatch, config):
    """C_0[f, g] = f g is formed by the oracle on its own, so a fault in
    `QPolynomial.__mul__` shows as a difference from the engine, which
    forms an order-0-only series as f * g."""
    f = QPolynomial({(1,) + (0,) * 10: Quaternion(1, 2, 3, 4)})
    g = QPolynomial({(0, 1) + (0,) * 9: Quaternion(4, -3, 2, 1)})
    right = star_oracle(f, g, config)
    assert right == f * g
    monkeypatch.setattr(QPolynomial, "__mul__", _swapped_mul)
    assert star_oracle(f, g, config) == right
    assert star(f, g, config) != right


def test_oracle_work_counts_stay_within_their_bounds():
    # Exact counts of the oracle's product and gradient (tests/costs.py) on
    # star_oracle(q^4, qbar^4); a change that lowers one lowers its bound here.
    bound = {"pairs": 6_664, "_add_product": 673, "_gradient": 90, "terms": 755}
    counts = costs.measure("star_oracle(q^4, qbar^4)")
    assert counts["terms"] == bound["terms"]
    assert not {key: counts[key] for key in bound if counts[key] > bound[key]}, counts


def test_oracle_gradient_equals_the_four_partials():
    rng = Random(17)
    cases = [random_qpoly(rng, 4, 4, True) for _ in range(60)]
    cases += [QPolynomial.zero(), QPolynomial.constant(Fraction(-3, 4)), gen_q() ** 3]
    for p in cases:
        rows, den = quatstar.oracle._rows(p)
        assert [{mono: Quaternion(*(Fraction(n, den) for n in row)) for mono, row in part.items()}
                for part in quatstar.oracle._gradient(rows)] == [
            dict(p.partial(v).items()) for v in range(4)]
