"""A fourth route to the star product: its value at a point, from jets.

At a point x0 of the positions, with Theta0 and nu0 the values of the
series' parameters, the definition f * g = sum_k (nu/2)^k / k! mul(B^k (f (x) g))
gives

    (f * g)(x0) = sum_k (nu0/2)^k / k! sum_{|A| = |B| = k} V_k[A, B] f_A g_B,

where f_A = (d^A f)(x0) and g_B = (d^B g)(x0) are jet entries and V_k is
the coefficient table of (sum_{m<n} Theta0_mn (y_m z_n - y_n z_m))^k, y
standing for the left derivatives and z for the right ones.  A term c x^C
gives f_A straight as c C!/(C - A)! x0^(C - A) for A <= C, so the route
forms no polynomial product and no row; f_A g_B keeps the left factor first.

Everything is an int mod the prime P = 2^61 - 1 and a quaternion is a
4-tuple of them, multiplied by `refimpl`'s sympy-derived unit table.
Operands are read only through `terms()` and `components()`, and a nu or
Theta in an operand takes its value from the point.  By the Schwartz-Zippel
lemma a nonzero difference of total degree d vanishes at a uniform point
with probability at most d / P.
"""

from math import factorial, perm, prod
from random import Random

from refimpl import PAIRS, UNITS

P = (1 << 61) - 1


def residue(x) -> int:
    """A rational (int or Fraction) mod P."""
    return x.numerator * pow(x.denominator, -1, P) % P


def random_point(rng: Random) -> tuple:
    """Values mod P for the eleven variables a, b, c, d, nu, Theta_ab .. Theta_cd."""
    return tuple(rng.randrange(P) for _ in range(11))


def _qmul(x, y):
    out = [0, 0, 0, 0]
    for u, xu in enumerate(x):
        if xu:
            for v, yv in enumerate(y):
                sign, w = UNITS[u][v]
                out[w] += sign * xu * yv
    return tuple(part % P for part in out)


def _powers(point, top):
    return [[pow(x, e, P) for e in range(top + 1)] for x in point]


def values_at(poly, points) -> list:
    """A quatstar polynomial's value at each of the points."""
    terms = [(mono, [residue(c) for c in coeff.components()]) for mono, coeff in poly.terms()]
    top = max((max(mono) for mono, _ in terms), default=0)
    values = []
    for point in points:
        powers, total = _powers(point, top), [0, 0, 0, 0]
        for mono, parts in terms:
            x = prod([row[e] for row, e in zip(powers, mono) if e])
            for w, c in enumerate(parts):
                if c:
                    total[w] += x * c
        values.append(tuple(part % P for part in total))
    return values


# A position multi-index A is packed into one int, 8 bits per position.
_BITS = 8
_OFFSETS = tuple(1 << (_BITS * m) for m in range(4))


def derivatives(poly, point) -> dict:
    """{packed A: (d^A poly)(point)} for the multi-indices A of the terms,
    each term c x^C giving c C!/(C - A)! x0^(C - A) for A <= C."""
    terms = poly.terms()
    powers = _powers(point, max((max(mono) for mono, _ in terms), default=0))
    jet = {}
    for mono, coeff in terms:
        central = prod(row[e] for row, e in zip(powers[4:], mono[4:]))
        parts = [residue(c) * central % P for c in coeff.components()]
        ranges = [[(k * offset, perm(e, k) * row[e - k]) for k in range(e + 1)]
                  for e, offset, row in zip(mono, _OFFSETS, powers)]
        for a, xa in ranges[0]:
            for b, xb in ranges[1]:
                for c, xc in ranges[2]:
                    for d, xd in ranges[3]:
                        x = xa * xb * xc * xd % P
                        prev = jet.get(key := a + b + c + d, (0, 0, 0, 0))
                        jet[key] = tuple((p + x * q) % P for p, q in zip(prev, parts))
    return jet


def _degree(key):
    return sum(key >> (_BITS * m) & 0xFF for m in range(4))


def star_at(f, g, point, theta, nu) -> tuple:
    """(f * g)(point) mod P with the series' six Theta values and nu given
    mod P (for formal ones, their values at the point).  `weights` holds
    V_k, keyed by A << 32 | B."""
    fj, gj = derivatives(f, point), derivatives(g, point)
    top = min(max(map(_degree, fj)), max(map(_degree, gj)))
    summands = [(_OFFSETS[m] << 32 | _OFFSETS[n], t) for (m, n), t in zip(PAIRS, theta) if t]
    summands += [(_OFFSETS[n] << 32 | _OFFSETS[m], -t) for (m, n), t in zip(PAIRS, theta) if t]
    half_nu = nu * pow(2, -1, P) % P
    total, weights = [0, 0, 0, 0], {0: 1}
    for k in range(top + 1):
        scale = pow(half_nu, k, P) * pow(factorial(k), -1, P) % P
        by_left = {}
        for key, w in weights.items():
            alpha, beta = key >> 32, key & 0xFFFFFFFF
            if alpha in fj and beta in gj:
                c = w * scale % P
                prev = by_left.get(alpha, (0, 0, 0, 0))
                by_left[alpha] = tuple(p + c * x for p, x in zip(prev, gj[beta]))
        for alpha, right in by_left.items():
            total = [t + x for t, x in zip(total, _qmul(fj[alpha], right))]
        if k < top:
            grown = {}
            for key, w in weights.items():
                for offset, t in summands:
                    grown[key + offset] = (grown.get(key + offset, 0) + w * t) % P
            weights = grown
    return tuple(part % P for part in total)
