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
pairs (alpha, beta) to central weight maps {monomial: int}: Theta monomials
when Theta is formal, the unit monomial when it is numeric, with the six
values scaled to ints by the lcm L of their denominators (an order-s weight
is then over L^s).  Equal pairs are merged and weights whose entries cancel
are dropped.  alpha and beta are packed monomials in a..d, so a bump adds a
unit monomial.  The tables of d^alpha f and d^beta g hold integer rows (see
`poly`) over the denominators of f and g, which the denominator of every
derivative divides, each filled from the entry being extended:
d^(alpha + e_m) f = d_m (d^alpha f).  Each entry lists its live directions,
the m with d_m d^alpha f != 0, so the walk never steps onto a vanishing
derivative.  Each order's sum of (d^alpha f)(d^beta g) w_(alpha,beta)
accumulates in one rows dict, one row product per state entry with the
weight folded into the left rows; 1/(s! 2^s), the denominators and a
numeric nu^s are applied once per output term as it turns back into
Quaternions.  Star code only adds monomials from `poly`; each Theta, weight
and nu^s shift goes through the guarded `mono_mul`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

from .errors import DomainError
from .poly import (NU, VAR_INDEX, ZERO_MONO, QPolynomial, add_rows, exact_rational,
                   live_directions, mono_mul, mul_rows, row_partial, var_mono)

PAIRS = ("ab", "ac", "ad", "bc", "bd", "cd")

_PAIR_INDICES = {pair: (VAR_INDEX[pair[0]], VAR_INDEX[pair[1]]) for pair in PAIRS}
_PAIR_THETA = {pair: VAR_INDEX["Theta_" + pair] for pair in PAIRS}
_UNITS = tuple(var_mono(idx) for idx in range(4))


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
    """(m, n, theta_mono, value) for the active pairs, zero pairs dropped, and
    the denominator the int values are over.

    Pair mn contributes value / den * theta_mono * (d_m (x) d_n - d_n (x) d_m)
    to B: formal Theta gives the Theta_mn monomial and value 1 over 1,
    numeric Theta the unit monomial and the pair's value times the lcm of
    the values' denominators.
    """
    if theta.is_formal():
        return [(*_PAIR_INDICES[pair], var_mono(_PAIR_THETA[pair]), 1) for pair in PAIRS], 1
    den = lcm(*(value.denominator for value in theta.values))
    return [(*_PAIR_INDICES[pair], ZERO_MONO, int(value * den))
            for pair, value in zip(PAIRS, theta.values) if value], den


def _natural_cap(f, g, config):
    smax = min(f.position_degree(), g.position_degree())
    if smax < 0:
        smax = 0
    if config.order_cap is not None:
        smax = min(smax, config.order_cap)
    return smax


def _extend(table, key, idx):
    """The key of d_idx d^key, filling its (rows, live directions) entry
    from table[key] on first use."""
    key2 = key + _UNITS[idx]
    if key2 not in table:
        rows = row_partial(table[key][0], idx)
        table[key2] = rows, live_directions(rows)
    return key2


def _order_rows(f, g, theta, max_order, first_order=1):
    """Yield (s, rows, den) for first_order <= s <= max_order: the sum over
    the order-s state of (d^alpha f)(d^beta g) w_(alpha,beta) as integer rows
    over `den`, before the factor 1/(s! 2^s) nu^s.  The state still steps
    through the orders below `first_order`, but their rows are never
    multiplied out."""
    factors, theta_den = _theta_factors(theta)
    if max_order < 1 or not factors:
        return
    # steps[m]: (n, theta_mono, signed value) for each summand d_m (x) d_n of B.
    steps = [[] for _ in range(4)]
    for m, n, theta_mono, value in factors:
        steps[m].append((n, theta_mono, value))
        steps[n].append((m, theta_mono, -value))
    f_den, g_den = f.denominator(), g.denominator()
    df, dg = ({ZERO_MONO: (rows, live_directions(rows))}
              for rows in (f.rows(f_den), g.rows(g_den)))
    state = {(ZERO_MONO, ZERO_MONO): {ZERO_MONO: 1}}
    for s in range(1, max_order + 1):
        new_state = {}
        for (alpha, beta), weight in state.items():
            g_live = dg[beta][1]
            for am in df[alpha][1]:
                a2 = _extend(df, alpha, am)
                for bn, theta_mono, signed in steps[am]:
                    if bn not in g_live:
                        continue
                    target = new_state.setdefault((a2, _extend(dg, beta, bn)), {})
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
        if s < first_order:
            continue
        acc = {}
        for (alpha, beta), weight in state.items():
            left = [(mono_mul(m, wmono), (n0 * w, n1 * w, n2 * w, n3 * w))
                    for wmono, w in weight.items() for m, (n0, n1, n2, n3) in df[alpha][0].items()]
            mul_rows(acc, left, dg[beta][0].items())
        yield s, acc.items(), f_den * g_den * theta_den ** s


def _prefactor(s):
    return Fraction(1, factorial(s) << s)


def star(f: QPolynomial, g: QPolynomial, config: StarConfig = DEFAULT_CONFIG) -> QPolynomial:
    """The full (terminating) star product of f and g under `config`."""
    result = f * g
    if config.nu != "formal" and config.nu == 0:
        return result
    data = dict(result.items())
    for s, rows, den in _order_rows(f, g, config.theta, _natural_cap(f, g, config)):
        if config.nu == "formal":
            add_rows(data, rows, _prefactor(s) / den, var_mono(NU, s))
        else:
            add_rows(data, rows, _prefactor(s) * config.nu ** s / den)
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
        for _, rows, den in _order_rows(f, g, config.theta, s, s):
            add_rows(data, rows, _prefactor(s) / den)
    return QPolynomial.from_terms(data)


def star_commutator(f: QPolynomial, g: QPolynomial,
                    config: StarConfig = DEFAULT_CONFIG) -> QPolynomial:
    return star(f, g, config) - star(g, f, config)


def associator(f: QPolynomial, g: QPolynomial, h: QPolynomial,
               config: StarConfig = DEFAULT_CONFIG) -> QPolynomial:
    return star(star(f, g, config), h, config) - star(f, star(g, h, config), config)
