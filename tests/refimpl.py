"""Reference models for the test suite that share no arithmetic with quatstar.

A quaternion's real 4x4 (left-regular) and complex 2x2 matrix models, built
from its components as sympy matrices; sympy does every sum, product and
determinant.  C2 products come back unexpanded: compare them after `expand()`.

A third route to the star product, beside the engine and the oracle.  A real
polynomial is a dict from 11-tuples of exponents, in the layout `terms()`
gives (a, b, c, d, nu, Theta_ab .. Theta_cd), to nonzero Fractions, and a
quaternion polynomial is its four real components, read only through
`terms()` and `Quaternion.components()`.  By linearity, and because nu and
Theta are central and coefficients act from the left,

    f * g = sum_{u,v} e_u e_v (f_u *_R g_v)

over the units e = 1, i, j, k, whose product table is read off sympy's
quaternion.  The real product sums, over every ordered sequence of s signed
pairs (m, n, +-Theta_mn) from the exponent, the weight times
d_m1..d_ms f_u  d_n1..d_ns g_v.  The walk over those sequences runs on an
explicit stack and ends a branch once its left or right multi-index kills
every monomial of its operand; sequences with the same pair of multi-indices
share one derivative product, weighted by their summed Theta polynomial.
The walk takes its operands as quatstar polynomials or as component dicts.

`text_parts` evaluates expression text on this route: it walks the syntax
tree of quatstar's parser and does every sum, product, power, conjugate,
bracket and star product (formal nu and Theta, no cap) on component dicts.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial, perm, prod
from operator import add

from sympy import I, Matrix, Rational
from sympy.algebras.quaternion import Quaternion as SympyQuaternion

from quatstar.expr import BinOp, Call, Name, Neg, Num, Pow, parse_expression

N_VARS = 11
NU = 4
PAIR_NAMES = ("ab", "ac", "ad", "bc", "bd", "cd")
VARIABLE_NAMES = ("a", "b", "c", "d", "nu") + tuple("Theta_" + p for p in PAIR_NAMES)
# Theta of the position pair PAIRS[p] is variable 5 + p.
PAIRS = tuple(combinations(range(4), 2))
ZERO = (0,) * N_VARS


def _components(q):
    return [Rational(x.numerator, x.denominator) for x in q.components()]


def r4(q) -> Matrix:
    a, b, c, d = _components(q)
    return Matrix([[a, -b, -c, -d], [b, a, -d, c], [c, d, a, -b], [d, -c, b, a]])


def c2(q) -> Matrix:
    """q -> [[x0 + x1 i, x2 + x3 i], [-x2 + x3 i, x0 - x1 i]], whose determinant is |q|^2."""
    a, b, c, d = _components(q)
    return Matrix([[a + b * I, c + d * I], [-c + d * I, a - b * I]])


def _unit_table():
    """UNITS[u][v] = (sign, w) with e_u e_v = sign * e_w."""
    units = [SympyQuaternion(*(int(k == u) for k in range(4))) for u in range(4)]
    table = []
    for eu in units:
        row = []
        for ev in units:
            product = eu * ev
            parts = (product.a, product.b, product.c, product.d)
            w = next(k for k, x in enumerate(parts) if x)
            row.append((int(parts[w]), w))
        table.append(row)
    return table


UNITS = _unit_table()


def _unit(idx, exp=1):
    return tuple(exp if k == idx else 0 for k in range(N_VARS))


def _sum(m1, m2):
    return tuple(map(add, m1, m2))


def _add(acc, mono, x):
    x += acc.get(mono, 0)
    if x:
        acc[mono] = x
    else:
        acc.pop(mono, None)


def _divides(alpha, mono):
    return all(k <= e for k, e in zip(alpha, mono))


def _diff(poly, alpha):
    """d^alpha poly for a multi-index alpha (an 11-tuple, zero past d)."""
    if alpha == ZERO:
        return poly
    return {tuple(e - k for e, k in zip(mono, alpha)): x * prod(map(perm, mono, alpha))
            for mono, x in poly.items() if _divides(alpha, mono)}


def real_parts(p):
    """The four real components of a quatstar polynomial."""
    parts = ({}, {}, {}, {})
    for mono, coeff in p.terms():
        for part, x in zip(parts, coeff.components()):
            if x:
                part[mono] = x
    return parts


def _steps(theta):
    """(m, n, Theta monomial, weight) for each signed summand of the exponent:
    +Theta_mn d_m (x) d_n and -Theta_mn d_n (x) d_m.  `theta` is None for
    formal Theta, else {pair name: rational}; a zero pair has no summand."""
    steps = []
    for p, (m, n) in enumerate(PAIRS):
        if theta is None:
            mono, w = _unit(5 + p), 1
        else:
            mono, w = ZERO, theta.get(PAIR_NAMES[p], 0)
            if not w:
                continue
        steps += [(m, n, mono, w), (n, m, mono, -w)]
    return steps


def _sequence_weights(f_support, g_support, theta, cap):
    """levels[s]: {(alpha, beta): Theta polynomial}, summed over the ordered
    sequences of s signed pairs whose left indices make alpha and right
    indices make beta; a sequence past `cap` (None: no cap) is not walked."""
    steps = _steps(theta)
    levels = [{(ZERO, ZERO): {ZERO: 1}}]
    stack = [(0, ZERO, ZERO, ZERO, 1)]
    while stack:
        depth, alpha, beta, wmono, w = stack.pop()
        if depth == cap:
            continue
        for m, n, theta_mono, signed in steps:
            alpha2, beta2 = _sum(alpha, _unit(m)), _sum(beta, _unit(n))
            if not (any(_divides(alpha2, mono) for mono in f_support)
                    and any(_divides(beta2, mono) for mono in g_support)):
                continue
            if depth + 1 == len(levels):
                levels.append({})
            wmono2, w2 = _sum(wmono, theta_mono), w * signed
            _add(levels[depth + 1].setdefault((alpha2, beta2), {}), wmono2, w2)
            stack.append((depth + 1, alpha2, beta2, wmono2, w2))
    return levels


def _level_sum(fs, gs, level):
    """The four real components of sum W(Theta) e_u e_v d^alpha f_u d^beta g_v
    over one level's (alpha, beta) entries and the unit pairs (u, v)."""
    out = ({}, {}, {}, {})
    for (alpha, beta), weight in level.items():
        rights = [_diff(gv, beta) for gv in gs]
        for u, fu in enumerate(fs):
            left = _diff(fu, alpha)
            for v, right in enumerate(rights):
                sign, w = UNITS[u][v]
                for m1, x1 in left.items():
                    for m2, x2 in right.items():
                        mono, x = _sum(m1, m2), sign * x1 * x2
                        for m3, x3 in weight.items():
                            _add(out[w], _sum(mono, m3), x * x3)
    return out


def _levels(f, g, theta, cap):
    fs, gs = (p if isinstance(p, tuple) else real_parts(p) for p in (f, g))
    return fs, gs, _sequence_weights(set().union(*fs), set().union(*gs), theta, cap)


def star_series(f, g, theta=None, cap=None):
    """series[s]: the four real components of the order-s sum before its
    weight (nu/2)^s / s!; series[0] is f g."""
    fs, gs, levels = _levels(f, g, theta, cap)
    return [_level_sum(fs, gs, level) for level in levels]


def star_parts(series, nu="formal"):
    """The star product from its series: nu is "formal" or a rational."""
    out = ({}, {}, {}, {})
    for s, order in enumerate(series):
        weight = Fraction(1, factorial(s) * 2 ** s)
        if nu == "formal":
            shift = _unit(NU, s)
        else:
            weight, shift = weight * Fraction(nu) ** s, ZERO
        for part, raw in zip(out, order):
            for mono, x in raw.items():
                _add(part, _sum(mono, shift), weight * x)
    return out


def order_parts(series, s):
    """The series term C_s, which has nu in it when an operand does."""
    if s >= len(series):
        return ({}, {}, {}, {})
    weight = Fraction(1, factorial(s) * 2 ** s)
    return tuple({mono: weight * x for mono, x in raw.items()} for raw in series[s])


def bracket_parts(f, g, pair):
    """{f,g}_mn: the unweighted order-1 sum with only Theta_mn = 1."""
    fs, gs, levels = _levels(f, g, {pair: 1}, 1)
    return _level_sum(fs, gs, levels[1]) if len(levels) > 1 else ({}, {}, {}, {})


# --- expression text on this route ------------------------------------------

def _atom_parts(ident):
    if ident in ("q", "qbar"):
        sign = 1 if ident == "q" else -1
        return tuple({_unit(u): 1 if u == 0 else sign} for u in range(4))
    if ident in ("i", "j", "k"):
        return tuple({ZERO: 1} if u == " ijk".index(ident) else {} for u in range(4))
    return ({_unit(VARIABLE_NAMES.index(ident)): 1}, {}, {}, {})


def _combine(x, y, sign):
    """x + sign y."""
    out = tuple(dict(part) for part in x)
    for part, other in zip(out, y):
        for mono, c in other.items():
            _add(part, mono, sign * c)
    return out


def _product(x, y):
    out = ({}, {}, {}, {})
    for u, xu in enumerate(x):
        for v, yv in enumerate(y):
            sign, w = UNITS[u][v]
            for m1, c1 in xu.items():
                for m2, c2 in yv.items():
                    _add(out[w], _sum(m1, m2), sign * c1 * c2)
    return out


def _star(x, y):
    return star_parts(star_series(x, y))


def _node_parts(node, memo):
    if node in memo:
        return memo[node]
    if isinstance(node, Num):
        out = ({ZERO: node.value} if node.value else {}, {}, {}, {})
    elif isinstance(node, Name):
        out = _atom_parts(node.ident)
    elif isinstance(node, Neg):
        out = _combine(({}, {}, {}, {}), _node_parts(node.operand, memo), -1)
    elif isinstance(node, BinOp):
        x, y = _node_parts(node.left, memo), _node_parts(node.right, memo)
        out = _product(x, y) if node.op == "*" else _combine(x, y, 1 if node.op == "+" else -1)
    elif isinstance(node, Pow):
        base, out = _node_parts(node.base, memo), ({ZERO: 1}, {}, {}, {})
        for _ in range(node.exponent):
            out = _product(out, base)
    elif isinstance(node, Call):
        args = [_node_parts(arg, memo) for arg in node.args]
        if node.func == "conj":
            out = (args[0][0],) + tuple({m: -c for m, c in part.items()} for part in args[0][1:])
        elif node.func == "star":
            out = _star(*args)
        elif node.func == "comm":
            out = _combine(_star(*args), _star(args[1], args[0]), -1)
        elif node.func == "assoc":
            x, y, z = args
            out = _combine(_star(_star(x, y), z), _star(x, _star(y, z)), -1)
        else:
            out = bracket_parts(*args, node.func[3:])
    else:
        raise TypeError(f"unexpected node {node!r}")
    memo[node] = out
    return out


def text_parts(text, memo):
    """The four real components of expression text, evaluated on this route;
    `memo` maps each syntax tree already evaluated to its components."""
    return _node_parts(parse_expression(text), memo)


def difference(x, y):
    return _combine(x, y, -1)
