"""Byte-identity guard: canonical texts from seeded operands, hashed per group.

Each group renders a fixed, seeded set of results to canonical text and
compares one SHA-256 over them with a recorded constant.  A refactor that
changes any result, or the text of any result, changes its group's hash.
The constants were recorded from the engine before the oracle's series
became an explicit-stack enumeration, those of `power` and `star_deep`
before multi-term powers and star corrections moved to integer rows, and
that of `power_central` before a multi-term power became a binomial sum
over a real-coefficient term.  A change that means to alter output
records new ones and says so in the changelog.
"""

import hashlib
from fractions import Fraction
from random import Random

import pytest

from oracle_order import star_oracle_order
from quatstar.expr import evaluate_text
from quatstar.oracle import poisson_bracket_oracle, random_qpoly, random_quaternion, star_oracle
from quatstar.poly import QPolynomial, gen_q, gen_qbar
from quatstar.star import (PAIRS, StarConfig, ThetaSpec, associator, poisson_bracket, star,
                           star_commutator, star_order_term)

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


# Deep stars and powers run the integer-row kernel over many term pairs and
# several denominators: numeric Theta with mixed denominators, numeric nu.
DEEP_THETAS = (ThetaSpec.formal(),
               ThetaSpec.numeric({"ab": Fraction(2, 3), "ac": Fraction(-5, 4),
                                  "bc": Fraction(7, 6), "bd": -1, "cd": Fraction(3, 10)}))
DEEP_CONFIGS = [StarConfig(theta, nu, cap) for theta in DEEP_THETAS
                for nu in ("formal", Fraction(-3, 7)) for cap in (None, 1, 3)]


def _deep_pairs():
    q, qbar = gen_q(), gen_qbar()
    rng = Random(2025)
    seeded = []
    for _ in range(3):
        f, g = (random_qpoly(rng, 5, 6, True) + QPolynomial({(2, 1, 1, 1) + (0,) * 7:
                                                             random_quaternion(rng)})
                for _ in range(2))
        seeded.append((f, g))
    return [(q ** n, qbar ** n) for n in range(1, 5)] + seeded


def _powers():
    rng = Random(2026)
    bases = [base for base in (random_qpoly(rng, 2, 4, True) for _ in range(12)) if len(base) > 1]
    q = gen_q()
    return [base ** n for base in bases for n in range(4, 9)] + [q ** n for n in range(13)]


# Real-coefficient terms for power bases: a constant, a position monomial, a
# parameter monomial, a non-integral rational multiple and two terms.
CENTRAL_REALS = tuple(evaluate_text(text) for text in ("5", "a^2 b", "nu Theta_ab", "-3/4 c",
                                                       "2 + a d"))


def with_real(seeded, real):
    """`seeded` without its terms at the monomials of `real`, plus `real`."""
    return QPolynomial([(m, c) for m, c in seeded.terms() if real.coefficient(m).is_zero()]) + real


def central_bases():
    """Seeded bases with the real terms of each CENTRAL_REALS entry, whose
    multi-term powers are binomial sums over a real term."""
    rng = Random(2027)
    return [with_real(random_qpoly(rng, 2, 4, True), real) for real in CENTRAL_REALS
            for _ in range(3)]


def _power_central():
    return ([p ** n for p in (gen_q(), gen_qbar()) for n in range(13, 31)]
            + [base ** n for base in central_bases() for n in range(2, 9)])


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
        "power": _powers(),
        "power_central": _power_central(),
        "star_deep": [star(f, g, cfg) for f, g in _deep_pairs() for cfg in DEEP_CONFIGS],
        "difference": [value for (f, g), (h, _) in zip(pairs, pairs[1:] + pairs[:1])
                       for cfg in CONFIGS
                       for value in (star_commutator(f, g, cfg), associator(f, g, h, cfg))],
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
    "power": "84adda259cb7f731046cfbcc60e6b5c4f8a7d4e23f9e3ab3daa05b6364cb788a",
    "power_central": "0fab6ccc91f66236147fda3c30855e86ad63bb66fad8e1b38c8a84324592213a",
    "star_deep": "2094671358ac6e283a769e68af58592b4c4160d76579a438ca856b4a9d00b510",
    "difference": "0aa9986177acd37c39ee0b7db58c510abfea7a664c1a7ce01dc2a91ce0ae0d8f",
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
