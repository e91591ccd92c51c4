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

Theta is constant, so (nu/2) B = sum_m d_m (x) D_m with the step operators
D_m = sum_n (nu/2) Theta_mn d_n (Theta_nm = -Theta_mn), which commute.
The multinomial theorem gives

    (nu/2)^s B^s = sum_{|alpha| = s} (s!/alpha!) d^alpha (x) D^alpha

over derivative multi-indices alpha, so no state over pairs (alpha, beta)
is needed, and nu and the 1/2 are plain factors of one step table: a formal
Theta_mn or nu goes into a step's monomial, numeric values into an int over
den, the lcm of Theta's denominators times nu's denominator times 2.  Order
s keeps a level, a list of (d^alpha f, D^alpha g, c) with the derivatives
as rows (see `poly`): d^alpha f over the denominator of f, D^alpha g over
that of g times den^s.  One bound top on the last order is decided per
expression before any row is formed: the cap (0 for an empty table, from
zero Theta or nu = 0), else the larger over its pairs of the smaller
position degree.  At top 0 the expression is the point product f * g.
Otherwise it lies over one denominator, top! den^top times the lcm of the
rows' denominators, so c is s!/alpha! times top!/s! den^(top - s).  Alpha
grows only in directions at or after its last one, so each alpha is reached
once, from alpha - e_m with m its last direction: its rows are d_m d^alpha'
f and D_m D^alpha' g and its c that of alpha' over k den, k the new
exponent of m.  One rule decides a child: alpha + e_m exists iff d_m
d^alpha f != 0 and D_m D^alpha g != 0, so a series may end before top.
Each alpha adds one row product to one accumulator of integer rows that
`add_rows` turns back into Quaternions once; a difference starts both series
in one level, so terms cancel as ints across orders.  A child's rows stay in
its operand's tree, so `star_differences` differentiates an operand that
recurs across its batch once (V11.4's 125 associators have 30 operands).

One walk serves both operand formats, chosen per call by one rule:
signed-unit rows iff every coefficient of every operand has exactly one
nonzero component (q^n, qbar^n, i q and their products all do), integer
rows otherwise.  Both products write integer rows: a signed-unit row
product is one int multiply placed by the unit table, an integer row
product sixteen.  Signed-unit rows also form order 0, which integer rows
leave to f * g on Quaternions.  Star code does no arithmetic on packed
monomials: a step's Theta and nu join through `mono_mul`, and the partials
that carry them into D^alpha g guard every exponent they raise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import takewhile
from math import factorial, inf, lcm
from operator import sub

from .errors import DomainError
from .poly import (NU, PAIRS, VAR_INDEX, ZERO_MONO, QPolynomial, add_partial_rows,
                   add_partial_unit_rows, add_rows, exact_rational, mono_mul, mul_rows,
                   mul_unit_rows, var_mono)

_PAIR_INDICES = {pair: (VAR_INDEX[pair[0]], VAR_INDEX[pair[1]]) for pair in PAIRS}
_PAIR_THETA = {pair: var_mono(VAR_INDEX["Theta_" + pair]) for pair in PAIRS}


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
        for pair in mapping:
            pair_indices(pair)  # a DomainError naming the six pairs if unknown
        return cls(tuple(mapping.get(pair, 0) for pair in PAIRS))

    def is_formal(self) -> bool:
        return self.values is None


@dataclass(frozen=True)
class StarConfig:
    """Evaluation policy for star products.

    theta: formal symbols or numeric values for the six Theta_mn.
    nu: the string "formal" or an exact rational value.
    order_cap: optional cap on the correction order s (None = run until the
    series ends, at the smaller position degree).
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


def _steps(theta: ThetaSpec, nu):
    """(steps, den): steps[m] lists (n, mono, signed value) for each summand
    (nu/2) Theta_mn d_n of D_m, the values ints over den, zero ones dropped.
    A formal Theta_mn or nu goes into the monomial; numeric values make the
    int, over den = the lcm of Theta's denominators times nu's denominator
    times 2.  nu = 0 or zero Theta leaves the table empty."""
    formal = theta.is_formal()
    nu_mono, nu = (var_mono(NU), 1) if isinstance(nu, str) else (ZERO_MONO, nu)
    theta_den = 1 if formal else lcm(*(value.denominator for value in theta.values))
    steps = [[] for _ in range(4)]
    for pair, value in zip(PAIRS, theta.values or PAIRS):
        m, n = _PAIR_INDICES[pair]
        if formal:
            mono, value = mono_mul(_PAIR_THETA[pair], nu_mono), nu.numerator
        else:
            mono, value = nu_mono, value.numerator * (theta_den // value.denominator) * nu.numerator
        if value:
            steps[m].append((n, mono, value))
            steps[n].append((m, mono, -value))
    return steps, 2 * theta_den * nu.denominator


def _walk(acc, kernel, steps, den, level, top, first_order):
    """Add to the integer rows `acc` c/(alpha! den^s) times (d^alpha f)(D^alpha
    g) for every alpha of order first_order <= s <= top.  `level`, replaced in
    place order by order, starts with one entry (f node, g node, c, 0, 0) per
    series, top! den^top dividing c; an entry holds alpha's nodes, its c, its
    last direction m and alpha_m.  A node is [child 0, .., child 3, rows], a
    child (d_m left, D_m right) formed on first use and kept, {} if zero.  A
    series ends where its children are all zero, the walk at top or when its
    level empties.  `kernel` is the rows' format: its partial, its product
    into integer rows, and the entry a partial's sum that cancels leaves."""
    partial, product, cancelled = kernel
    s = 0
    while True:
        if s >= first_order:
            for df, dg, c, _, _ in level:
                product(acc, df[4].items(), dg[4].items(), c)
        if s == top:
            return
        s += 1
        grown = []
        for df, dg, c, last, k in level:
            for m in range(last, 4):
                if (df_m := df[m]) is None:
                    partial(rows := {}, df[4], m, 1)
                    df_m = df[m] = rows and [None, None, None, None, rows]
                if not df_m:
                    continue
                if (dg_m := dg[m]) is None:
                    rows = {}
                    for n, mono, signed in steps[m]:
                        partial(rows, dg[4], n, signed, mono)
                    rows = {key: row for key, row in rows.items() if row != cancelled}
                    dg_m = dg[m] = rows and [None, None, None, None, rows]
                if dg_m:
                    k_m = k + 1 if m == last else 1
                    grown.append((df_m, dg_m, c // (k_m * den), m, k_m))
        level[:] = grown
        if not level:
            return


def _roots(memo, x, unit):
    """(left root, right root, den) of x on signed-unit rows if `unit`, else on
    integer rows (None if x has none), made once per `memo`, which holds x:
    its key id(x) cannot pass to another operand while the memo lives."""
    if (hit := memo.get(key := (id(x), unit))) is None:
        rows = x.unit_rows() if unit else x.rows()
        hit = memo[key] = x, rows and ([None] * 4 + [rows[0]], [None] * 4 + [rows[0]], rows[1])
    return hit[1]


def _order_rows(pairs, theta, nu, max_order, first_order=0, memo=None):
    """The term dict of sum nu^s C_s[f, g] over first_order <= s <= max_order
    (None: until the series ends) for the first pair (f, g) of `pairs`, minus
    that of the second pair if any.  Its bound `top` is decided before any row
    is formed: the cap (0 for an empty step table), else the larger over the
    pairs of the smaller position degree.  Past top it is zero, at top 0 the
    point product.  Otherwise one row format serves every operand (see the
    module), and both series walk in one level into one accumulator.  A
    `memo` (`_roots`) shares operand trees across calls of one Theta and nu."""
    steps, den = _steps(theta, nu)
    cap = 0 if not any(steps) else inf if max_order is None else max_order
    top = min(cap, max(min(f.position_degree(), g.position_degree()) for f, g in pairs))
    if first_order > top:
        return {}
    if top == 0:
        return dict(reduce(sub, [f * g for f, g in pairs]).items())
    memo = {} if memo is None else memo
    operands = [x for pair in pairs for x in pair]
    roots = list(takewhile(bool, (_roots(memo, x, True) for x in operands)))
    if len(roots) == len(operands):
        kernel, data = (add_partial_unit_rows, mul_unit_rows, 0), {}
    else:
        kernel = add_partial_rows, mul_rows, (0, 0, 0, 0)
        data = dict(reduce(sub, [f * g for f, g in pairs]).items()) if first_order == 0 else {}
        first_order = max(first_order, 1)
        roots = [_roots(memo, x, False) for x in operands]
    dens = [f_den * g_den for (_, _, f_den), (_, _, g_den) in zip(roots[::2], roots[1::2])]
    total = factorial(top) * den ** top * lcm(*dens)
    level = [(f_node, g_node, sign * total // d, 0, 0) for sign, (f_node, _, _), (_, g_node, _), d
             in zip((1, -1), roots[::2], roots[1::2], dens)]
    del memo, roots  # unless a batch holds them, the trees die level by level
    _walk(acc := {}, kernel, steps, den, level, top, first_order)
    return add_rows(data, acc.items(), total)


def star(f: QPolynomial, g: QPolynomial, config: StarConfig = DEFAULT_CONFIG) -> QPolynomial:
    """The full (terminating) star product of f and g under `config`."""
    return QPolynomial.from_terms(_order_rows([(f, g)], config.theta, config.nu, config.order_cap))


def star_order_term(f: QPolynomial, g: QPolynomial, s: int,
                    config: StarConfig = DEFAULT_CONFIG) -> QPolynomial:
    """The series term C_s[f, g] of f * g = sum_s nu^s C_s[f, g], which has nu
    in it when an operand does (so it is not the nu^s coefficient of star);
    zero past the cap and past the series end, the smaller position degree."""
    if not isinstance(s, int) or s < 0:
        raise DomainError(f"correction order must be a non-negative int, got {s!r}")
    cap = s if config.order_cap is None else min(s, config.order_cap)
    return QPolynomial.from_terms(_order_rows([(f, g)], config.theta, 1, cap, s))


def star_differences(candidates, config: StarConfig = DEFAULT_CONFIG):
    """Yield f1 * g1 - f2 * g2 for each ((f1, g1), (f2, g2)) of `candidates`,
    lazily, each one walk.  While the generator lives it holds each operand it
    met, per row format, with its rows and every derivative a walk formed, so
    an operand repeated across candidates is converted and differentiated once."""
    memo = {}
    for first, second in candidates:
        yield QPolynomial.from_terms(
            _order_rows([first, second], config.theta, config.nu, config.order_cap, memo=memo))


def star_commutator(f: QPolynomial, g: QPolynomial,
                    config: StarConfig = DEFAULT_CONFIG) -> QPolynomial:
    """f * g - g * f as one difference walk."""
    return next(star_differences([((f, g), (g, f))], config))


def associator(f: QPolynomial, g: QPolynomial, h: QPolynomial,
               config: StarConfig = DEFAULT_CONFIG) -> QPolynomial:
    """(f * g) * h - f * (g * h): the inner products are stars, the outer
    two series one difference walk."""
    return next(star_differences([((star(f, g, config), h), (f, star(g, h, config)))], config))
