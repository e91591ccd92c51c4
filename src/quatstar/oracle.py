"""Independent reference route for the star product, plus randomized checks.

`star_oracle` computes f * g = sum_s (nu/2)^s / s! * mul B^s(f (x) g) from
the definition, the exponent B being the sum of the twelve signed summands

    (a,b,+T_ab), (b,a,-T_ab), (a,c,+T_ac), (c,a,-T_ac), (a,d,+T_ad),
    (d,a,-T_ad), (b,c,+T_bc), (c,b,-T_bc), (b,d,+T_bd), (d,b,-T_bd),
    (c,d,+T_cd), (d,c,-T_cd),

each applying its left index to the left factor and its right index to the
right factor.  B^s(f (x) g) is held with like terms collected, one entry per
pair (alpha, beta) of derivative multi-indices, and the series ends where no
pair is left (or at the order cap).  Each order's raw sum is one product
d^alpha f * d^beta g per pair, times the pair's weight; order 0 is f * g.

Gradients and products are the oracle's own, over plain term dicts
{packed monomial: Quaternion}.  It shares only primitives (`add_term`,
`mono_mul`, `var_mono`, the packed-format constants, `Quaternion` `*` and
`scale`) with the main engine, which sums over alpha alone, on integer
rows, with multinomials s!/alpha! and derivatives D^alpha g that fold
Theta, nu and 1/2 in, and forms order 0 with `QPolynomial.__mul__` on
integer rows and at bound 0.  The oracle keeps the
plain d^beta g, holds Theta and a formal nu in the weights and finds every
multiplicity by merging the pairs B reaches, so agreement between the
routes is meaningful.  A formal nu rides in each summand's monomial, so its
exponent is guarded on every term an order forms, as the engine's is.

The same module hosts the seeded random generators used by the fuzz
harness and the randomized identity checks: rational values have
numerators in [-9, 9] and denominators in [1, 4].
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from random import Random

from .poly import (DEGREE_GUARD, FIELD_MASK, N_VARS, NU, POSITION_FIELDS, VAR_INDEX, ZERO_MONO,
                   QPolynomial, add_term, mono_mul, var_mono)
from .quat import Quaternion
from .star import PAIRS, StarConfig, ThetaSpec, DEFAULT_CONFIG, pair_indices


def _signed_steps(theta: ThetaSpec, nu_mono: int):
    """The summands d_m (x) d_n of the exponent as (m, n, e_m, e_n, monomial,
    signed weight), e_m and e_n the unit monomials of m and n.  Formal Theta
    gives the Theta_mn monomial and weight +-1, numeric Theta the unit
    monomial and +- the pair's value; zero pairs drop.  Every monomial
    carries `nu_mono`, a formal nu's factor."""
    steps = []
    for pos, pair in enumerate(PAIRS):
        m, n = pair_indices(pair)
        if theta.is_formal():
            mono, weight = var_mono(VAR_INDEX["Theta_" + pair]), 1
        else:
            mono, weight = ZERO_MONO, theta.values[pos]
            if not weight:
                continue
        mono, em, en = mono_mul(mono, nu_mono), var_mono(m), var_mono(n)
        steps += [(m, n, em, en, mono, weight), (n, m, en, em, mono, -weight)]
    return steps


def _gradient(terms) -> tuple:
    """The partials of a term dict over a, b, c and d, as four term dicts,
    in one pass over the terms."""
    parts = ({}, {}, {}, {})
    for mono, coeff in terms.items():
        for idx, shift, unit in POSITION_FIELDS:
            if exp := mono >> shift & FIELD_MASK:
                parts[idx][mono - unit] = coeff if exp == 1 else coeff.scale(exp)
    return parts


def _add_product(target: dict, left, right, weight: dict) -> None:
    """Add the product of the term dicts `left` and `right` (coefficients
    multiplied left to right), times each term of `weight`, a (nu, Theta)
    monomial -> rational dict, into the term dict `target` in place."""
    right, weight = right.items(), weight.items()
    for m1, c1 in left.items():
        for m2, c2 in right:
            coeff, mono = c1 * c2, m1 + m2
            if mono >= DEGREE_GUARD:
                mono_mul(m1, m2)
            for wmono, w in weight:
                add_term(target, mono_mul(mono, wmono), coeff if w == 1 else coeff.scale(w))


def _order_sums(f, g, theta, cap, nu_mono=ZERO_MONO):
    """Raw sums of B^s(f (x) g) as term dicts; sums[s - 1] holds order s.

    An order maps (alpha, beta), packed monomials in a..d, to (d^alpha f,
    d^beta g, weight): the derivatives are term dicts (the start pair is f
    and g, read by items() alike), the weight a (nu, Theta) monomial ->
    rational dict.
    B adds each pair's weight, times a summand's, into (alpha + e_m, beta + e_n)
    when d_m d^alpha f and d_n d^beta g are nonzero; a cancelled weight drops.
    Each distinct derivative's gradient is taken once per order, a right one
    only for a pair with a nonzero left gradient.  The list ends at the first
    order with no pair, or at `cap` when it is not None."""
    sums = []
    steps = _signed_steps(theta, nu_mono)
    if cap == 0 or not steps:
        return sums
    level = {(ZERO_MONO, ZERO_MONO): (f, g, {ZERO_MONO: 1})}
    while len(sums) != cap:
        lefts, rights, children = {}, {}, {}
        for (alpha, beta), (fd, gd, weight) in level.items():
            fds = lefts[alpha] if alpha in lefts else lefts.setdefault(alpha, _gradient(fd))
            if not any(fds):
                continue
            gds = rights[beta] if beta in rights else rights.setdefault(beta, _gradient(gd))
            for m, n, em, en, theta_mono, signed in steps:
                if fds[m] and gds[n]:
                    key = (mono_mul(alpha, em), mono_mul(beta, en))
                    child = children.setdefault(key, (fds[m], gds[n], {}))[2]
                    for wmono, w in weight.items():
                        wmono = mono_mul(wmono, theta_mono)
                        w = (w * signed + child.pop(wmono)) if wmono in child else w * signed
                        if w:
                            child[wmono] = w
        level = {key: pair for key, pair in children.items() if pair[2]}
        if not level:
            break
        target = {}
        for fd, gd, weight in level.values():
            _add_product(target, fd, gd, weight)
        sums.append(target)
    return sums


def star_oracle(f: QPolynomial, g: QPolynomial,
                config: StarConfig = DEFAULT_CONFIG) -> QPolynomial:
    """The star product summed from the series definition: each order's
    raw sum is weighted once by (nu/2)^s / s!, a formal nu^s already in the
    sum from the steps' monomials."""
    formal = config.nu == "formal"
    sums = _order_sums(f, g, config.theta, config.order_cap if formal or config.nu else 0,
                       var_mono(NU) if formal else ZERO_MONO)
    data = {}
    _add_product(data, f, g, {ZERO_MONO: 1})
    for s, raw in enumerate(sums, 1):
        weight = Fraction(1 if formal else config.nu ** s, factorial(s) * 2 ** s)
        for mono, coeff in raw.items():
            add_term(data, mono, coeff.scale(weight))
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

