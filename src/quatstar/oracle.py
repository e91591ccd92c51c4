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
the series ends where its last branch dies (or at the order cap).  Every
sequence still costs one product of its two iterated derivatives; what
siblings share is only the gradients of those derivatives, taken once per
parent, and a path's weight is a Theta monomial and a rational, applied to
each product term as it is added.  It shares only the primitives
(`QPolynomial.gradient` and `*`, `add_term`, `mono_mul`, `Quaternion.scale`)
with the main engine — no tensor state, no merging of sequences, no cache
keyed by derivative multi-index, no degree bound, no integer rows — so
agreement between the two routes is meaningful.

The same module hosts the seeded random generators used by the fuzz
harness and the randomized identity checks: rational values have
numerators in [-9, 9] and denominators in [1, 4].
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from random import Random

from .poly import N_VARS, NU, VAR_INDEX, ZERO_MONO, QPolynomial, add_term, mono_mul, var_mono
from .quat import Quaternion
from .star import PAIRS, StarConfig, ThetaSpec, DEFAULT_CONFIG, pair_indices


def _signed_steps(theta: ThetaSpec):
    """steps[m]: (n, Theta monomial, signed weight) for each summand d_m (x) d_n
    of the exponent.  Formal Theta gives the Theta_mn monomial and weight +-1,
    numeric Theta the unit monomial and +- the pair's value; zero pairs drop."""
    steps = [[] for _ in range(4)]
    for pos, pair in enumerate(PAIRS):
        m, n = pair_indices(pair)
        if theta.is_formal():
            mono, weight = var_mono(VAR_INDEX["Theta_" + pair]), 1
        else:
            mono, weight = ZERO_MONO, theta.values[pos]
            if not weight:
                continue
        steps[m].append((n, mono, weight))
        steps[n].append((m, mono, -weight))
    return steps


def _order_sums(f, g, theta, cap):
    """Raw sums over ordered pair sequences as term dicts; sums[s - 1] holds
    the sequences of length s.  The walk forms every order it reaches.

    The list ends at the deepest order a branch reaches, or at `cap` when it
    is not None.  A stack entry holds the gradients of its fd and gd and its
    path weight, a (Theta monomial, rational) pair.  A node takes the
    gradient of its fd_m once per live m and of its gd_n once per live n,
    shared by the siblings; a child whose left gradient is all zero has no
    branch and is not pushed, so its right gradient is never taken."""
    sums = []
    steps = _signed_steps(theta)
    if cap == 0 or not any(steps):
        return sums
    stack = [(0, f.gradient(), g.gradient(), ZERO_MONO, 1)]
    while stack:
        depth, fds, gds, wmono, w = stack.pop()
        deeper = cap is None or depth + 1 < cap
        rights = {}
        for m, fd in enumerate(fds):
            if fd.is_zero():
                continue
            left = fd.gradient() if deeper else None
            push = deeper and any(left)
            for n, theta_mono, signed in steps[m]:
                gd = gds[n]
                if gd.is_zero():
                    continue
                wmono2, w2 = mono_mul(wmono, theta_mono), w * signed
                if depth == len(sums):
                    sums.append({})
                target = sums[depth]
                for mono, coeff in (fd * gd).items():
                    add_term(target, mono_mul(mono, wmono2),
                             coeff if w2 == 1 else coeff.scale(w2))
                if push:
                    if n not in rights:
                        rights[n] = gd.gradient()
                    stack.append((depth + 1, left, rights[n], wmono2, w2))
    return sums


def star_oracle(f: QPolynomial, g: QPolynomial,
                config: StarConfig = DEFAULT_CONFIG) -> QPolynomial:
    """The star product computed by literal series enumeration: each order's
    raw sum is weighted once by (nu/2)^s / s!, a formal nu^s as a shift."""
    formal = config.nu == "formal"
    sums = _order_sums(f, g, config.theta, config.order_cap if formal or config.nu else 0)
    data = dict((f * g).items())
    for s, raw in enumerate(sums, 1):
        weight = Fraction(1 if formal else config.nu ** s, factorial(s) * 2 ** s)
        shift = var_mono(NU, s) if formal else ZERO_MONO
        for mono, coeff in raw.items():
            add_term(data, mono_mul(mono, shift), coeff.scale(weight))
    return QPolynomial.from_terms(data)


def poisson_bracket_oracle(f: QPolynomial, g: QPolynomial, pair: str) -> QPolynomial:
    """{f,g}_mn as the oracle's raw first-order sum with only Theta_mn = 1.

    That sum runs over the signed pairs (m, n, +1) and (n, m, -1), so it is
    exactly the bracket; the star weight 1/2 of order 1 is never applied.
    This route never touches the engine's bracket code.
    """
    sums = _order_sums(f, g, ThetaSpec.numeric({pair: 1}), 1)
    return QPolynomial.from_terms(sums[0] if sums else {})


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

