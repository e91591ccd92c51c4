"""The engine and the oracle against the third route in `refimpl`.

`refimpl` shares no code with quatstar: it reads operands through `terms()`
and `components()` only, and computes on real tuple-monomial polynomials
combined by sympy's unit table.  Each seeded pair gets one Theta and cap
from the grid below and is checked under every nu.
"""

from fractions import Fraction
from random import Random

import refimpl
from oracle_order import star_oracle_order
from quatstar.oracle import random_qpoly, star_oracle
from quatstar.star import PAIRS, StarConfig, ThetaSpec, poisson_bracket, star, star_order_term

# (refimpl's Theta, the engine's Theta): formal, numeric, zero, cancelling.
THETAS = [(None, ThetaSpec.formal())] + [
    (values, ThetaSpec.numeric(values)) for values in (
        {"ab": Fraction(2, 3), "bc": Fraction(-5, 4), "bd": 3, "cd": Fraction(7, 2)},
        {},
        {"ab": 1, "cd": -1})]
NUS = ("formal", Fraction(-3, 5), 0)
CAPS = (None, 1)


def test_routes_match_the_third_route_on_seeded_pairs():
    rng = Random(71)
    compared = 0
    for case in range(60):
        f = random_qpoly(rng, 3, 3, include_params=case % 3 == 0)
        g = random_qpoly(rng, 3, 3, include_params=case % 5 == 0)
        theta, spec = THETAS[case % 4]
        cap = CAPS[case // 4 % 2]
        series = refimpl.star_series(f, g, theta, cap)
        for nu in NUS:
            assert refimpl.real_parts(star(f, g, StarConfig(spec, nu, cap))) == \
                refimpl.star_parts(series, nu), (case, nu)
        nu = NUS[case % 3]
        assert refimpl.real_parts(star_oracle(f, g, StarConfig(spec, nu, cap))) == \
            refimpl.star_parts(series, nu), case
        for s in range(4):
            for order_term in (star_order_term, star_oracle_order):
                assert refimpl.real_parts(order_term(f, g, s, StarConfig(spec, "formal", cap))) == \
                    refimpl.order_parts(series, s), (case, s, order_term.__name__)
        for pair in PAIRS:
            assert refimpl.real_parts(poisson_bracket(f, g, pair)) == \
                refimpl.bracket_parts(f, g, pair), (case, pair)
        compared += len(NUS) + 1 + 2 * 4 + len(PAIRS)
    assert compared == 60 * 18
