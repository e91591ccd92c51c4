"""Independent reference route for the star product, plus randomized checks.

`star_oracle` computes the product literally from the series definition:
the s-th correction is (1/s!)(nu/2)^s times the sum over every ordered
sequence of s signed derivative pairs drawn from the twelve summands of
the exponent,

    (a,b,+T_ab), (b,a,-T_ab), (a,c,+T_ac), (c,a,-T_ac), (a,d,+T_ad),
    (d,a,-T_ad), (b,c,+T_bc), (c,b,-T_bc), (b,d,+T_bd), (d,b,-T_bd),
    (c,d,+T_cd), (d,c,-T_cd),

applying the left index to the left operand and the right index to the
right operand.  The walk is a plain depth-first enumeration on an explicit
stack that abandons a branch once either iterated derivative vanishes, so
the series ends where its last branch dies (or at the order cap).  It
shares only the polynomial primitives (partial, mul, add_term) with the
main engine — no tensor state, no merging, no degree bound, no integer
rows — so agreement between the two routes is meaningful.

The same module hosts the seeded random generators used by the fuzz
harness and the randomized identity checks: rational values have
numerators in [-9, 9] and denominators in [1, 4].
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from random import Random

from .errors import DomainError
from .poly import QPolynomial, N_VARS, NU, VARIABLES, add_term
from .quat import Quaternion
from .star import PAIRS, StarConfig, ThetaSpec, DEFAULT_CONFIG, pair_indices

_NU_POLY = QPolynomial.variable("nu")


def _signed_steps(theta: ThetaSpec):
    steps = []
    for pos, pair in enumerate(PAIRS):
        m, n = pair_indices(pair)
        if theta.is_formal():
            weight = QPolynomial.variable("Theta_" + pair)
        else:
            value = theta.values[pos]
            if not value:
                continue
            weight = QPolynomial.constant(value)
        steps.append((m, n, weight))
        steps.append((n, m, -weight))
    return steps


def _order_sums(f, g, theta, cap):
    """Raw sums over ordered pair sequences, by length; index 0 is f*g.

    The list ends at the deepest order a branch reaches, or at `cap` when
    it is not None.  A node whose left operand is constant has no live
    branch, so its right partials are never taken."""
    sums = [dict((f * g).items())]
    steps = _signed_steps(theta)
    stack = [(0, f, g, QPolynomial.constant(1))] if steps and cap != 0 else []
    while stack:
        depth, fd, gd, weight = stack.pop()
        fds = [fd.partial(var) for var in range(4)]
        if all(fd2.is_zero() for fd2 in fds):
            continue
        gds = [gd.partial(var) for var in range(4)]
        for m, n, w in steps:
            fd2, gd2 = fds[m], gds[n]
            if fd2.is_zero() or gd2.is_zero():
                continue
            w2 = weight * w
            if depth + 1 == len(sums):
                sums.append({})
            for mono, coeff in ((fd2 * gd2) * w2).items():
                add_term(sums[depth + 1], mono, coeff)
            if cap is None or depth + 1 < cap:
                stack.append((depth + 1, fd2, gd2, w2))
    return [QPolynomial.from_terms(data) for data in sums]


def star_oracle(f: QPolynomial, g: QPolynomial,
                config: StarConfig = DEFAULT_CONFIG) -> QPolynomial:
    """The star product computed by literal series enumeration."""
    zero_nu = config.nu != "formal" and config.nu == 0
    sums = _order_sums(f, g, config.theta, 0 if zero_nu else config.order_cap)
    result = sums[0]
    for s in range(1, len(sums)):
        term = sums[s] * Fraction(1, factorial(s) * 2 ** s)
        if config.nu == "formal":
            term = term * (_NU_POLY ** s)
        else:
            term = term * (config.nu ** s)
        result = result + term
    return result


def star_oracle_order(f: QPolynomial, g: QPolynomial, s: int,
                      config: StarConfig = DEFAULT_CONFIG) -> QPolynomial:
    """Coefficient of nu^s in the oracle's expansion (nu kept formal)."""
    if s < 0:
        raise DomainError("correction order must be non-negative")
    if config.order_cap is not None and s > config.order_cap:
        return QPolynomial.zero()
    sums = _order_sums(f, g, config.theta, s)
    if s >= len(sums):
        return QPolynomial.zero()
    return sums[s] * Fraction(1, factorial(s) * 2 ** s)


def poisson_bracket_oracle(f: QPolynomial, g: QPolynomial, pair: str) -> QPolynomial:
    """{f,g}_mn recovered from the oracle's first-order term with Theta_mn = 1.

    Twice the nu^1 coefficient of the star series with only Theta_mn active
    is exactly the bracket; this route never touches the engine's bracket
    code.
    """
    config = StarConfig(theta=ThetaSpec.numeric({pair: 1}))
    return star_oracle_order(f, g, 1, config) * 2


# --- seeded random data -----------------------------------------------------

def random_rational(rng: Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def random_quaternion(rng: Random) -> Quaternion:
    return Quaternion(*(random_rational(rng) for _ in range(4)))


def random_monomial(rng: Random, max_position_degree: int = 4,
                    include_params: bool = False) -> tuple:
    exps = [0] * N_VARS
    for _ in range(rng.randint(0, max_position_degree)):
        exps[rng.randrange(4)] += 1
    if include_params:
        if rng.random() < 0.3:
            exps[NU] += rng.randint(1, 2)
        if rng.random() < 0.3:
            exps[5 + rng.randrange(6)] += 1
    return tuple(exps)


def random_qpoly(rng: Random, max_position_degree: int = 4, max_terms: int = 4,
                 include_params: bool = False) -> QPolynomial:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        mono = random_monomial(rng, max_position_degree, include_params)
        terms.append((mono, random_quaternion(rng)))
    return QPolynomial(terms)


def random_point(rng: Random, names) -> dict:
    return {name: random_rational(rng) for name in names}


def find_disagreement_point(lhs: QPolynomial, rhs: QPolynomial,
                            trials: int = 50, seed: int = 0):
    """A rational assignment where the two sides differ, or None."""
    names = sorted(lhs.variables_used() | rhs.variables_used(),
                   key=VARIABLES.index)
    rng = Random(seed)
    for _ in range(trials):
        point = random_point(rng, names)
        if lhs.evaluate(point) != rhs.evaluate(point):
            return point
    return None
