"""Exact symbolic star products for quaternion-valued polynomials.

The package provides exact rational quaternion arithmetic, polynomials in
the four position variables (with quaternion coefficients acting from the
left), componentwise Poisson brackets, a terminating Moyal-style star
product with an independent oracle implementation, an expression language,
and a verifier that checks a catalogue of encoded identities.
"""

from .errors import (DomainError, OracleDivergenceError, ParseError,
                     QuatstarError, UnknownIdentityError)
from .quat import Quaternion, I, J, K, ONE, ZERO, commutator, quat_text
from .poly import QPolynomial, VARIABLES, gen_q, gen_qbar
from .star import (PAIRS, StarConfig, ThetaSpec, associator, poisson_bracket,
                   star, star_commutator, star_order_term)
from .oracle import poisson_bracket_oracle, star_oracle
from .expr import evaluate_text, parse_expression
from .verify import (DiscrepancyReport, IdentityRecord, render_report,
                     run_all, run_identity)

__version__ = "0.1.0"

__all__ = [
    "DomainError", "OracleDivergenceError", "ParseError", "QuatstarError",
    "UnknownIdentityError",
    "Quaternion", "I", "J", "K", "ONE", "ZERO", "commutator", "quat_text",
    "QPolynomial", "VARIABLES", "gen_q", "gen_qbar",
    "PAIRS", "StarConfig", "ThetaSpec", "associator", "poisson_bracket",
    "star", "star_commutator", "star_order_term",
    "poisson_bracket_oracle", "star_oracle",
    "evaluate_text", "parse_expression",
    "DiscrepancyReport", "IdentityRecord", "render_report", "run_all",
    "run_identity",
    "__version__",
]
