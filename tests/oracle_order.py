"""The oracle's order-s series term, read off `star_oracle`.

`star_oracle` is the oracle's only weighting of its order sums, so one
order's term C_s[f, g] of f * g = sum_s nu^s C_s[f, g] is taken from it:
the product with nu formal capped at s, minus the product capped at s - 1,
is nu^s C_s[f, g], shifted back here by nu^s.  As with the engine's
`star_order_term`, C_s has nu in it when an operand does, and it is zero
past the config's cap and past the series end.
"""

from quatstar.oracle import star_oracle
from quatstar.poly import NU, QPolynomial
from quatstar.star import DEFAULT_CONFIG, StarConfig


def star_oracle_order(f, g, s, config=DEFAULT_CONFIG):
    if config.order_cap is not None and s > config.order_cap:
        return QPolynomial.zero()
    below = star_oracle(f, g, StarConfig(config.theta, "formal", s - 1)) if s else QPolynomial.zero()
    term = star_oracle(f, g, StarConfig(config.theta, "formal", s)) - below
    return QPolynomial([(mono[:NU] + (mono[NU] - s,) + mono[NU + 1:], coeff)
                        for mono, coeff in term.terms()])
