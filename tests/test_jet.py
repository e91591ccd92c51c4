"""Degree-7 star products checked by point values from Taylor jets (`jet`).

The jet route shares no arithmetic with the engine: no `QPolynomial`
product and no rows.  Each product is compared at two seeded points, mod
the 61-bit prime `jet.P`.
"""

from fractions import Fraction
from random import Random

import jet
from quatstar.oracle import random_qpoly, random_quaternion
from quatstar.poly import QPolynomial, gen_q, gen_qbar
from quatstar.star import StarConfig, ThetaSpec, star

NUMERIC = StarConfig(ThetaSpec.numeric({"ab": Fraction(2, 3), "ac": -1, "bc": Fraction(7, 5),
                                        "bd": 3, "cd": Fraction(-1, 4)}), Fraction(-3, 7))


def _formal_at(f, g, points):
    """The jet's values of f * g under formal Theta and nu at the points."""
    return [jet.star_at(f, g, point, point[5:], point[4]) for point in points]


def test_jet_route_sees_the_correction_terms():
    # q * q = q q + nu (k Theta_bc - j Theta_bd + i Theta_cd): the jet must
    # tell the star product from the point product.
    q = gen_q()
    points = [jet.random_point(Random(3))]
    assert _formal_at(q, q, points) == jet.values_at(star(q, q), points)
    assert _formal_at(q, q, points) != jet.values_at(q * q, points)


def test_degree_seven_star_of_q_and_qbar_under_formal_theta():
    f, g = gen_q() ** 7, gen_qbar() ** 7
    rng = Random(7)
    points = [jet.random_point(rng) for _ in range(2)]
    assert _formal_at(f, g, points) == jet.values_at(star(f, g), points)


def test_seeded_degree_seven_pair_under_numeric_theta_and_nu():
    # Four-component coefficients keep the pair on integer rows, and the
    # step table holds the folded nu Theta / 2 values; the operands' own nu
    # and Theta factors stay formal and take the point's values.
    rng = Random(77)
    f, g = (random_qpoly(rng, 6, 5, include_params=True)
            + QPolynomial({(2, 1, 3, 1) + (0,) * 7: random_quaternion(rng)}) for _ in range(2))
    assert f.position_degree() == g.position_degree() == 7
    assert any(len([x for x in c.components() if x]) > 1 for _, c in f.terms())
    product = star(f, g, NUMERIC)
    theta = [jet.residue(value) for value in NUMERIC.theta.values]
    points = [jet.random_point(rng) for _ in range(2)]
    assert [jet.star_at(f, g, point, theta, jet.residue(NUMERIC.nu)) for point in points] == \
        jet.values_at(product, points)
