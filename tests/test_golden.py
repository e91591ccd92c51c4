"""Byte-identity guard: canonical texts from seeded operands, hashed per group.

Each group renders a fixed, seeded set of results to canonical text and
compares one SHA-256 over them with a recorded constant.  A refactor that
changes any result, or the text of any result, changes its group's hash.
The constants were recorded from the engine before the oracle's series
became an explicit-stack enumeration; a change that means to alter output
records new ones and says so in the changelog.
"""

import hashlib
from fractions import Fraction
from random import Random

import pytest

from quatstar.oracle import (poisson_bracket_oracle, random_qpoly, random_quaternion,
                             star_oracle, star_oracle_order)
from quatstar.poly import QPolynomial
from quatstar.star import (PAIRS, StarConfig, ThetaSpec, poisson_bracket, star,
                           star_order_term)

THETAS = (ThetaSpec.formal(), ThetaSpec.zero(),
          ThetaSpec.numeric({"ab": Fraction(2, 3), "bc": Fraction(-5, 4), "cd": 3}),
          ThetaSpec.numeric({"ab": 1, "ad": 1, "bc": 1, "cd": 1}))
NUS = ("formal", 0, Fraction(2, 3))
CAPS = (None, 0, 1, 2)
ORDERS = range(5)
CONFIGS = [StarConfig(theta, nu, cap) for theta in THETAS for nu in NUS for cap in CAPS]
# Order terms keep nu formal, so only Theta and the cap matter.
ORDER_CONFIGS = [StarConfig(theta, "formal", cap) for theta in THETAS for cap in CAPS]


def _operand(rng):
    """A seeded polynomial with nu/Theta factors plus one cubic term, so the
    series runs to order 3 and caps 1 and 2 truncate it."""
    exps = [0] * 11
    for _ in range(3):
        exps[rng.randrange(4)] += 1
    return random_qpoly(rng, 3, 3, True) + QPolynomial({tuple(exps): random_quaternion(rng)})


def _operands():
    rng = Random(2024)
    return [(_operand(rng), _operand(rng)) for _ in range(8)]


def _texts():
    pairs = _operands()
    groups = {
        "star": [star(f, g, cfg) for f, g in pairs for cfg in CONFIGS],
        "star_oracle": [star_oracle(f, g, cfg) for f, g in pairs for cfg in CONFIGS],
        "star_order_term": [star_order_term(f, g, s, cfg) for f, g in pairs
                            for cfg in ORDER_CONFIGS for s in ORDERS],
        "star_oracle_order": [star_oracle_order(f, g, s, cfg) for f, g in pairs
                              for cfg in ORDER_CONFIGS for s in ORDERS],
        "bracket": [bracket(f, g, pair) for f, g in pairs for pair in PAIRS
                    for bracket in (poisson_bracket, poisson_bracket_oracle)],
        "ring": [value for f, g in pairs
                 for value in (f * g, g * f, f + g, f - g, -f, f ** 0, f ** 2, g ** 3)],
    }
    return {name: [value.canonical_text() for value in values]
            for name, values in groups.items()}


GOLDEN = {
    "star": "78c3f710ed65c15d69daf64f4d7aabf08a2610746d3f0c2d532403160877617e",
    "star_oracle": "78c3f710ed65c15d69daf64f4d7aabf08a2610746d3f0c2d532403160877617e",
    "star_order_term": "6bd1980c7adc5a180d77de4b285414c1ef62c8439ea25f64a15df4d0718cfca5",
    "star_oracle_order": "6bd1980c7adc5a180d77de4b285414c1ef62c8439ea25f64a15df4d0718cfca5",
    "bracket": "2cc4f0607d3225e0125cc8a07172e8ee2139d5656b348f650b74ad8885e337b5",
    "ring": "f7248fe7fe059c23883c683db6a51a45ebbb105b4884598fbaf5c76a25ae65ef",
}


@pytest.fixture(scope="module")
def texts():
    return _texts()


def test_golden_covers_enough_texts(texts):
    assert sum(len(group) for group in texts.values()) >= 2000


@pytest.mark.parametrize("group", sorted(GOLDEN))
def test_golden_texts_unchanged(texts, group):
    digest = hashlib.sha256("\n".join(texts[group]).encode()).hexdigest()
    assert digest == GOLDEN[group], f"canonical texts of group {group!r} changed"
