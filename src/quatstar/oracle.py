"""Independent reference route for the star product, plus randomized checks.

`star_oracle` computes f * g = sum_s (nu/2)^s / s! * mul B^s(f (x) g) from
the definition, the exponent B being the sum of the twelve signed summands
(m, n, +T_mn) and (n, m, -T_mn), m < n in a..d, each applying its left index
to the left factor and its right index to the right factor.  B^s(f (x) g)
is held with like terms collected, one entry per pair (alpha, beta) of
derivative multi-indices, and the series ends where no pair is left (or at
the order cap).  Each order's raw sum is one product d^alpha f * d^beta g
per pair, times the pair's weight; order 0 is f * g.

The oracle's own integer rows {packed monomial: (n0, n1, n2, n3)}, over one
int denominator per operand, replace the term dicts {packed monomial:
Quaternion}.  Numeric Theta values are ints over their lcm denominator, so
order s sums over den_f den_g Theta_den^s, and each of its terms becomes one
Quaternion.  Only `mono_mul`, `var_mono`, the packed-format constants and
`_quat` are shared with the engine, which sums over alpha alone, with
multinomials s!/alpha! and derivatives D^alpha g that fold Theta, nu and 1/2
in.  The oracle keeps the plain d^beta g and holds Theta and a formal nu (its
exponent guarded on every term) in the weights, so agreement is meaningful.

The same module hosts the seeded random generators used by the fuzz
harness and the randomized identity checks: rational values have
numerators in [-9, 9] and denominators in [1, 4], and a random quaternion
is four such draws, over the product of their denominators, reduced once.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from random import Random

from .poly import (DEGREE_GUARD, FIELD_MASK, N_VARS, NU, POSITION_FIELDS, VAR_INDEX, ZERO_MONO,
                   QPolynomial, mono_mul, var_mono)
from .quat import Quaternion, _quat
from .star import PAIRS, StarConfig, ThetaSpec, DEFAULT_CONFIG, pair_indices


def _signed_steps(theta: ThetaSpec, nu_mono: int):
    """(steps, den): the summands d_m (x) d_n as (m, n, e_m, e_n, monomial, signed
    int weight over den): formal Theta_mn in the monomial with +-1, numeric Theta
    +- its nonzero values over their lcm denominator; `nu_mono` in each monomial."""
    ratios = None if theta.is_formal() else [value.as_integer_ratio() for value in theta.values]
    den, steps = lcm(*(d for _, d in ratios or ())), []
    for pos, pair in enumerate(PAIRS):
        m, n = pair_indices(pair)
        mono, weight = ((var_mono(VAR_INDEX["Theta_" + pair]), 1) if ratios is None
                        else (ZERO_MONO, ratios[pos][0] * (den // ratios[pos][1])))
        if weight:
            mono, em, en = mono_mul(mono, nu_mono), var_mono(m), var_mono(n)
            steps += [(m, n, em, en, mono, weight), (n, m, en, em, mono, -weight)]
    return steps, den


def _rows(p: QPolynomial):
    """(rows, den): `p`'s terms as integer rows over the lcm of their denominators."""
    den = lcm(*(c.den for _, c in p.items()))
    return {m: (c.n0 * (k := den // c.den), c.n1 * k, c.n2 * k, c.n3 * k)
            for m, c in p.items()}, den


def _gradient(rows) -> tuple:
    """The partials of integer rows over a..d, as four rows dicts, in one pass."""
    parts = ({}, {}, {}, {})
    for mono, row in rows.items():
        for idx, shift, unit in POSITION_FIELDS:
            if exp := mono >> shift & FIELD_MASK:
                parts[idx][mono - unit] = row if exp == 1 else (
                    row[0] * exp, row[1] * exp, row[2] * exp, row[3] * exp)
    return parts


def _add_product(target: dict, left, right, weight: dict) -> None:
    """Add the integer rows `left` times `right` times each term of `weight`, a
    (nu, Theta) monomial -> int dict, into the 4-list rows `target` in place."""
    right, weight, get = right.items(), weight.items(), target.get
    for m1, (a0, a1, a2, a3) in left.items():
        for m2, (b0, b1, b2, b3) in right:
            mono = m1 + m2
            if mono >= DEGREE_GUARD:
                mono_mul(m1, m2)
            p0 = a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3
            p1 = a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2
            p2 = a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1
            p3 = a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0
            for wmono, w in weight:
                key = mono_mul(mono, wmono)
                if (row := get(key)) is None:
                    target[key] = [p0 * w, p1 * w, p2 * w, p3 * w]
                else:
                    row[0] += p0 * w
                    row[1] += p1 * w
                    row[2] += p2 * w
                    row[3] += p3 * w


def _order_sums(f, g, steps, cap):
    """Raw sums of B^s(f (x) g), sums[s - 1] order s as 4-list rows over
    den_f den_g den^s (f, g rows over den_f, den_g; `steps` over den).  An
    order maps (alpha, beta) in a..d to (d^alpha f, d^beta g, weight), the
    weight a (nu, Theta) monomial -> int dict.  B adds each pair's weight,
    times a summand's, into (alpha + e_m, beta + e_n) when d_m d^alpha f and
    d_n d^beta g are nonzero, unguarded (no field passes an operand's exponent
    or the order); a cancelled weight drops.  A gradient is taken once per
    derivative and order, a right one only past a nonzero left one; the list
    ends at the first order with no pair, or at `cap`."""
    sums = []
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
                    child = children.setdefault((alpha + em, beta + en), (fds[m], gds[n], {}))[2]
                    for wmono, w in weight.items():
                        wmono += theta_mono
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


def _add_terms(data: dict, raw: dict, num: int, den: int) -> None:
    """Add the nonzero rows of `raw` times num/den into the term dict `data`."""
    for mono, (n0, n1, n2, n3) in raw.items():
        if n0 or n1 or n2 or n3:
            n0, n1, n2, n3, d = n0 * num, n1 * num, n2 * num, n3 * num, den
            if p := data.pop(mono, None):
                n0, n1, n2, n3, d = (p.n0 * d + n0 * p.den, p.n1 * d + n1 * p.den,
                                     p.n2 * d + n2 * p.den, p.n3 * d + n3 * p.den, p.den * d)
            if n0 or n1 or n2 or n3:
                data[mono] = _quat(n0, n1, n2, n3, d)


def star_oracle(f: QPolynomial, g: QPolynomial, config: StarConfig = DEFAULT_CONFIG) -> QPolynomial:
    """The star product from the series definition: order s's raw sum is weighted
    once by (nu/2)^s / s!, a formal nu^s already in its monomials."""
    formal = config.nu == "formal"
    nu_num, nu_den = (1, 1) if formal else config.nu.as_integer_ratio()
    (f, f_den), (g, g_den) = _rows(f), _rows(g)
    steps, theta_den = _signed_steps(config.theta, var_mono(NU) if formal else ZERO_MONO)
    num, den, data, product = 1, f_den * g_den, {}, {}
    _add_product(product, f, g, {ZERO_MONO: 1})
    sums = _order_sums(f, g, steps, config.order_cap if nu_num else 0)
    for s, raw in enumerate([product] + sums):
        _add_terms(data, raw, num, den)
        num, den = num * nu_num, den * theta_den * nu_den * 2 * (s + 1)
    return QPolynomial.from_terms(data)


def poisson_bracket_oracle(f: QPolynomial, g: QPolynomial, pair: str) -> QPolynomial:
    """{f,g}_mn as the oracle's raw first-order sum with only Theta_mn = 1:
    its signed pairs (m, n, +1) and (n, m, -1) make exactly the bracket, and
    the star weight 1/2 of order 1 is never applied."""
    (f, f_den), (g, g_den), data = _rows(f), _rows(g), {}
    for raw in _order_sums(f, g, _signed_steps(ThetaSpec.numeric({pair: 1}), ZERO_MONO)[0], 1):
        _add_terms(data, raw, 1, f_den * g_den)
    return QPolynomial.from_terms(data)


# --- seeded random data -----------------------------------------------------

def random_rational(rng: Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def random_quaternion(rng: Random) -> Quaternion:
    """Four random_rational draws as one quaternion, formed without Fractions."""
    draw = rng.randint
    n0, d0, n1, d1, n2, d2, n3, d3 = (draw(-9, 9), draw(1, 4), draw(-9, 9), draw(1, 4),
                                      draw(-9, 9), draw(1, 4), draw(-9, 9), draw(1, 4))
    return _quat(n0 * d1 * d2 * d3, n1 * d0 * d2 * d3, n2 * d0 * d1 * d3, n3 * d0 * d1 * d2,
                 d0 * d1 * d2 * d3)


def random_monomial(rng: Random, max_position_degree: int = 4,
                    include_params: bool = False) -> tuple:
    exps = [0] * N_VARS
    for _ in range(rng.randint(0, max_position_degree)):
        exps[rng.randrange(4)] += 1
    if include_params:
        if rng.random() < 0.3:
            exps[NU] += rng.randint(1, 2)
        if rng.random() < 0.3:
            exps[VAR_INDEX["Theta_" + PAIRS[rng.randrange(6)]]] += 1
    return tuple(exps)


def random_qpoly(rng: Random, max_position_degree: int = 4, max_terms: int = 4,
                 include_params: bool = False) -> QPolynomial:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        mono = random_monomial(rng, max_position_degree, include_params)
        terms.append((mono, random_quaternion(rng)))
    return QPolynomial(terms)

