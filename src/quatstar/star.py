"""Poisson brackets and the terminating Moyal-Weyl star product.

For an ordered position pair (m, n) the componentwise Poisson bracket is

    {f, g}_mn = (d_m f)(d_n g) - (d_n f)(d_m g)

with the left operand's derivative kept leftmost — coefficients are
quaternions, so the factor order is part of the definition.  The star
product applies the antisymmetric bidifferential operator

    B = sum_{m<n} Theta_mn (d_m (x) d_n  -  d_n (x) d_m)

iteratively to the tensor pair (f, g) and multiplies out:

    f * g = sum_{s>=0} (1/s!) (nu/2)^s  mul(B^s (f (x) g)).

Because B only differentiates in a..d, the series terminates at
s = min(position degree f, position degree g).  Theta and nu may stay formal
(fresh central variables) or be given exact rational values.

The tensor state after s applications of B maps derivative multi-index
pairs (alpha, beta) to central rational weight maps {monomial: coefficient}:
Theta monomials with integer coefficients when Theta is formal, one constant
when it is numeric.  Equal pairs are merged, weights whose entries cancel
are dropped, and branches whose derivative vanishes are pruned as they
appear.  alpha and beta are packed monomials in a..d, so a bump adds a unit
monomial, and the tables of d^alpha f and d^beta g are filled from the entry
being extended: d^(alpha + e_m) f = d_m (d^alpha f).  Each order's sum of
(d^alpha f)(d^beta g) w_(alpha,beta) is built in one dict, with one
polynomial product per state entry scaled onto the weight's monomials, and
1/(s! 2^s) nu^s is then applied to it in one pass.  Star code only adds
monomials from `poly`; each Theta, weight and nu^s shift goes through the
guarded `mono_mul`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import DomainError
from .poly import (NU, VAR_INDEX, ZERO_MONO, QPolynomial, add_term, exact_rational,
                   mono_mul, var_mono)

PAIRS = ("ab", "ac", "ad", "bc", "bd", "cd")

_PAIR_INDICES = {pair: (VAR_INDEX[pair[0]], VAR_INDEX[pair[1]]) for pair in PAIRS}
_PAIR_THETA = {pair: VAR_INDEX["Theta_" + pair] for pair in PAIRS}


def pair_indices(pair: str) -> tuple[int, int]:
    try:
        return _PAIR_INDICES[pair]
    except KeyError:
        raise DomainError(f"unknown bracket pair {pair!r}; expected one of {', '.join(PAIRS)}") from None


def poisson_bracket(f: QPolynomial, g: QPolynomial, pair: str) -> QPolynomial:
    m, n = pair_indices(pair)
    return f.partial(m) * g.partial(n) - f.partial(n) * g.partial(m)


@dataclass(frozen=True)
class ThetaSpec:
    """Formal Theta symbols (values=None) or six exact rational values."""

    values: tuple | None = None

    def __post_init__(self):
        if self.values is not None:
            if not isinstance(self.values, tuple) or len(self.values) != len(PAIRS):
                raise DomainError(f"Theta values are a tuple of six rationals, got {self.values!r}")
            object.__setattr__(self, "values", tuple(
                exact_rational(value, f"Theta_{pair}") for pair, value in zip(PAIRS, self.values)))

    @classmethod
    def formal(cls) -> "ThetaSpec":
        return cls(None)

    @classmethod
    def zero(cls) -> "ThetaSpec":
        return cls((0,) * 6)

    @classmethod
    def numeric(cls, mapping) -> "ThetaSpec":
        values = [0] * 6
        for pair, value in mapping.items():
            if pair not in _PAIR_INDICES:
                raise DomainError(f"unknown bracket pair {pair!r}")
            values[PAIRS.index(pair)] = value
        return cls(tuple(values))

    def is_formal(self) -> bool:
        return self.values is None


@dataclass(frozen=True)
class StarConfig:
    """Evaluation policy for star products.

    theta: formal symbols or numeric values for the six Theta_mn.
    nu: the string "formal" or an exact rational value.
    order_cap: optional cap on the correction order s (None = run to
    natural termination).
    """

    theta: ThetaSpec = ThetaSpec(None)
    nu: object = "formal"
    order_cap: int | None = None

    def __post_init__(self):
        if not isinstance(self.theta, ThetaSpec):
            raise DomainError(f"theta must be a ThetaSpec, got {self.theta!r}")
        if self.nu != "formal":
            object.__setattr__(self, "nu", exact_rational(self.nu, "nu"))
        cap = self.order_cap
        if cap is not None and (not isinstance(cap, int) or cap < 0):
            raise DomainError(f"order_cap must be None or a non-negative int, got {cap!r}")


DEFAULT_CONFIG = StarConfig()


def _theta_factors(theta: ThetaSpec):
    """(m, n, theta_mono, value) for the active pairs; zero pairs dropped.

    Pair mn contributes value * theta_mono * (d_m (x) d_n - d_n (x) d_m) to
    B: formal Theta gives the Theta_mn monomial and value 1, numeric Theta
    gives the unit monomial and the pair's value.
    """
    factors = []
    for pos, pair in enumerate(PAIRS):
        m, n = _PAIR_INDICES[pair]
        if theta.is_formal():
            factors.append((m, n, var_mono(_PAIR_THETA[pair]), 1))
        elif theta.values[pos]:
            factors.append((m, n, ZERO_MONO, theta.values[pos]))
    return factors


def _natural_cap(f, g, config):
    smax = min(f.position_degree(), g.position_degree())
    if smax < 0:
        smax = 0
    if config.order_cap is not None:
        smax = min(smax, config.order_cap)
    return smax


def _correction_terms(f, g, theta, max_order):
    """Yield (s, {monomial: coefficient}) for s >= 1: the terms of the sum
    over the order-s state of (d^alpha f)(d^beta g) w_(alpha,beta), before
    the factor 1/(s! 2^s) nu^s."""
    if max_order < 1:
        return
    factors = _theta_factors(theta)
    if not factors:
        return
    df, dg = {ZERO_MONO: f}, {ZERO_MONO: g}
    state = {(ZERO_MONO, ZERO_MONO): {ZERO_MONO: 1}}
    for s in range(1, max_order + 1):
        new_state = {}
        for (alpha, beta), weight in state.items():
            for m, n, theta_mono, value in factors:
                for am, bn, signed in ((m, n, value), (n, m, -value)):
                    a2 = alpha + var_mono(am)
                    fd = df.get(a2)
                    if fd is None:
                        fd = df[a2] = df[alpha].partial(am)
                    if fd.is_zero():
                        continue
                    b2 = beta + var_mono(bn)
                    gd = dg.get(b2)
                    if gd is None:
                        gd = dg[b2] = dg[beta].partial(bn)
                    if gd.is_zero():
                        continue
                    target = new_state.setdefault((a2, b2), {})
                    for mono, coeff in weight.items():
                        mono = mono_mul(mono, theta_mono)
                        merged = target.get(mono, 0) + coeff * signed
                        if merged:
                            target[mono] = merged
                        else:
                            del target[mono]
        state = {key: weight for key, weight in new_state.items() if weight}
        if not state:
            return
        term = {}
        for (alpha, beta), weight in state.items():
            product = df[alpha] * dg[beta]
            for mono, coeff in product.items():
                for wmono, value in weight.items():
                    add_term(term, mono_mul(mono, wmono), coeff.scale(value))
        yield s, term


def _add_scaled(data, term, factor, nu_mono):
    """Add factor * nu_mono * term into the term dict `data` in place."""
    for mono, coeff in term.items():
        add_term(data, mono_mul(mono, nu_mono), coeff.scale(factor))


def _prefactor(s):
    return Fraction(1, factorial(s) << s)


def star(f: QPolynomial, g: QPolynomial, config: StarConfig = DEFAULT_CONFIG) -> QPolynomial:
    """The full (terminating) star product of f and g under `config`."""
    result = f * g
    if config.nu != "formal" and config.nu == 0:
        return result
    data = dict(result.items())
    for s, term in _correction_terms(f, g, config.theta, _natural_cap(f, g, config)):
        if config.nu == "formal":
            _add_scaled(data, term, _prefactor(s), var_mono(NU, s))
        else:
            _add_scaled(data, term, _prefactor(s) * config.nu ** s, ZERO_MONO)
    return QPolynomial.from_terms(data)


def star_order_term(f: QPolynomial, g: QPolynomial, s: int,
                    config: StarConfig = DEFAULT_CONFIG) -> QPolynomial:
    """The coefficient of nu^s in the star expansion (nu kept formal)."""
    if s < 0:
        raise DomainError("correction order must be non-negative")
    if s == 0:
        return f * g
    data = {}
    if s <= _natural_cap(f, g, config):
        for order, term in _correction_terms(f, g, config.theta, s):
            if order == s:
                _add_scaled(data, term, _prefactor(s), ZERO_MONO)
    return QPolynomial.from_terms(data)


def star_commutator(f: QPolynomial, g: QPolynomial,
                    config: StarConfig = DEFAULT_CONFIG) -> QPolynomial:
    return star(f, g, config) - star(g, f, config)


def associator(f: QPolynomial, g: QPolynomial, h: QPolynomial,
               config: StarConfig = DEFAULT_CONFIG) -> QPolynomial:
    return star(star(f, g, config), h, config) - star(f, star(g, h, config), config)
