"""Polynomials in eleven central indeterminates with quaternion coefficients.

The indeterminates, in their fixed order, are the four position variables
a, b, c, d, the deformation parameter nu, and the six antisymmetric-tensor
entries Theta_ab .. Theta_cd.  All eleven commute with each other and with
every quaternion; all noncommutativity lives in the coefficients, which are
kept on the left of their monomial.  A polynomial is a dict from exponent
tuples (length 11) to nonzero Quaternion coefficients.

Canonical term order is graded lexicographic, highest first (total degree,
then exponent tuple with `a` most significant).  Canonical text renders each
term as `<coefficient> <monomial>`: single-component coefficients print bare
with their sign pulled out ("-2 k c", "i b", "a^2"), multi-component
coefficients print parenthesized ("(1 + i) a b").
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .errors import DomainError
from .quat import Quaternion, quat_parts_text, _UNIT_NAMES

VARIABLES = ("a", "b", "c", "d", "nu",
             "Theta_ab", "Theta_ac", "Theta_ad",
             "Theta_bc", "Theta_bd", "Theta_cd")
VAR_INDEX = {name: idx for idx, name in enumerate(VARIABLES)}
POSITION_VARS = ("a", "b", "c", "d")
NU = VAR_INDEX["nu"]

N_VARS = len(VARIABLES)
ZERO_MONO = (0,) * N_VARS

# Resource guard: exponents beyond this raise DomainError instead of silently
# consuming unbounded time/memory.
EXPONENT_LIMIT = 10 ** 6

Monomial = tuple  # length-11 tuple of non-negative ints


def var_index(var) -> int:
    if isinstance(var, int):
        if 0 <= var < N_VARS:
            return var
        raise DomainError(f"variable index {var} out of range")
    try:
        return VAR_INDEX[var]
    except KeyError:
        raise DomainError(f"unknown variable {var!r}") from None


def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    product = tuple(map(add, m1, m2))
    if max(product) > EXPONENT_LIMIT:
        raise DomainError(f"exponent overflow: monomial exponent exceeds {EXPONENT_LIMIT}")
    return product


def mono_degree(m: Monomial) -> int:
    return sum(m)


def mono_position_degree(m: Monomial) -> int:
    return m[0] + m[1] + m[2] + m[3]


def mono_text(m: Monomial) -> str:
    pieces = []
    for name, exp in zip(VARIABLES, m):
        if exp == 1:
            pieces.append(name)
        elif exp > 1:
            pieces.append(f"{name}^{exp}")
    return " ".join(pieces)


def _sort_key(m: Monomial):
    return (mono_degree(m), m)


def add_term(data: dict, mono: Monomial, coeff: Quaternion) -> None:
    """Add a nonzero term into the term dict `data` in place; a sum that
    cancels removes the monomial."""
    prev = data.get(mono)
    if prev is None:
        data[mono] = coeff
    else:
        merged = prev + coeff
        if merged.is_zero():
            del data[mono]
        else:
            data[mono] = merged


def _coerce_coeff(value) -> Quaternion:
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, Fraction)):
        return Quaternion(value)
    raise TypeError(f"coefficients must be quaternions or rationals, got {type(value).__name__}")


class QPolynomial:
    """A polynomial with quaternion coefficients and central variables."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for mono, coeff in (terms.items() if isinstance(terms, dict) else terms):
                coeff = _coerce_coeff(coeff)
                if not coeff.is_zero():
                    add_term(data, mono, coeff)
        self._terms = data

    # --- constructors ---

    @classmethod
    def from_terms(cls, data: dict) -> "QPolynomial":
        """Adopt a dict of nonzero terms as is (no copy, no check)."""
        out = cls.__new__(cls)
        out._terms = data
        return out

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls()

    @classmethod
    def constant(cls, value) -> "QPolynomial":
        return cls({ZERO_MONO: _coerce_coeff(value)})

    @classmethod
    def variable(cls, var) -> "QPolynomial":
        idx = var_index(var)
        mono = tuple(1 if i == idx else 0 for i in range(N_VARS))
        return cls({mono: Quaternion(1)})

    # --- inspection ---

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def items(self):
        """Terms as (monomial, coefficient) pairs, in storage order."""
        return self._terms.items()

    def terms(self) -> list:
        """Terms as (monomial, coefficient) pairs, canonical order (highest first)."""
        return sorted(self._terms.items(), key=lambda kv: _sort_key(kv[0]), reverse=True)

    def coefficient(self, mono: Monomial) -> Quaternion:
        return self._terms.get(tuple(mono), Quaternion())

    def total_degree(self) -> int:
        if not self._terms:
            return -1
        return max(mono_degree(m) for m in self._terms)

    def position_degree(self) -> int:
        """Degree in the position variables a..d alone (-1 for the zero polynomial)."""
        if not self._terms:
            return -1
        return max(mono_position_degree(m) for m in self._terms)

    def nu_degree(self) -> int:
        if not self._terms:
            return -1
        return max(m[NU] for m in self._terms)

    def variables_used(self) -> set:
        used = set()
        for m in self._terms:
            for idx, exp in enumerate(m):
                if exp:
                    used.add(VARIABLES[idx])
        return used

    # --- ring operations ---

    def __add__(self, other):
        if not isinstance(other, QPolynomial):
            return NotImplemented
        data = dict(self._terms)
        for mono, coeff in other._terms.items():
            add_term(data, mono, coeff)
        return QPolynomial.from_terms(data)

    def __sub__(self, other):
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return QPolynomial.from_terms({m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        if isinstance(other, Quaternion):
            # Right-multiplication by a constant: coefficients pick it up on the right.
            return QPolynomial({m: c * other for m, c in self._terms.items()})
        if not isinstance(other, QPolynomial):
            return NotImplemented
        data = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                # Coefficients multiply strictly left-to-right; order matters.
                # The merge below is add_term inlined, as this is the hottest loop.
                coeff = c1 * c2
                if coeff.is_zero():
                    continue
                mono = mono_mul(m1, m2)
                if mono in data:
                    merged = data[mono] + coeff
                    if merged.is_zero():
                        del data[mono]
                    else:
                        data[mono] = merged
                else:
                    data[mono] = coeff
        return QPolynomial.from_terms(data)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        if isinstance(other, Quaternion):
            return QPolynomial({m: other * c for m, c in self._terms.items()})
        return NotImplemented

    def _scaled(self, factor) -> "QPolynomial":
        # A rational is central: scaling each coefficient equals the quaternion product.
        if not factor:
            return QPolynomial()
        return QPolynomial.from_terms({m: c.scale(factor) for m, c in self._terms.items()})

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise DomainError("negative powers are not defined for polynomials")
        if n > EXPONENT_LIMIT:
            raise DomainError(f"exponent overflow: power {n} exceeds {EXPONENT_LIMIT}")
        result = QPolynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    # --- calculus and involution ---

    def partial(self, var) -> "QPolynomial":
        """Formal partial derivative; defined for the position variables only."""
        idx = var_index(var)
        if VARIABLES[idx] not in POSITION_VARS:
            raise DomainError(
                f"partial derivative over {VARIABLES[idx]!r} is not defined; "
                "only a, b, c, d admit partials")
        data = {}
        for mono, coeff in self._terms.items():
            exp = mono[idx]
            if not exp:
                continue
            lowered = mono[:idx] + (exp - 1,) + mono[idx + 1:]
            add_term(data, lowered, coeff.scale(exp))
        return QPolynomial.from_terms(data)

    def conjugate(self) -> "QPolynomial":
        """Quaternionic conjugation of every coefficient (variables stay fixed)."""
        return QPolynomial.from_terms({m: c.conj() for m, c in self._terms.items()})

    def evaluate(self, assignment: dict) -> Quaternion:
        """Evaluate at rational values for every variable that occurs.

        `assignment` maps variable names to rationals.  A variable that occurs
        in the polynomial but not in the assignment is a domain error.
        """
        values = {}
        for name, value in assignment.items():
            idx = var_index(name)
            values[idx] = value if isinstance(value, Fraction) else Fraction(value)
        total = Quaternion()
        for mono, coeff in self._terms.items():
            factor = Fraction(1)
            for idx, exp in enumerate(mono):
                if not exp:
                    continue
                if idx not in values:
                    raise DomainError(f"no value assigned to variable {VARIABLES[idx]!r}")
                factor *= values[idx] ** exp
            total = total + coeff.scale(factor)
        return total

    def coefficient_of_nu_power(self, s: int) -> "QPolynomial":
        """The polynomial multiplying nu^s (with that nu power removed)."""
        data = {}
        for mono, coeff in self._terms.items():
            if mono[NU] != s:
                continue
            stripped = mono[:NU] + (0,) + mono[NU + 1:]
            data[stripped] = coeff
        return QPolynomial.from_terms(data)

    # --- text ---

    def canonical_text(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for mono, coeff in self.terms():
            negative, body = _term_text(mono, coeff)
            if not pieces:
                pieces.append(f"-{body}" if negative else body)
            else:
                pieces.append((" - " if negative else " + ") + body)
        return "".join(pieces)

    def __str__(self):
        return self.canonical_text()

    def __repr__(self):
        return f"QPolynomial<{self.canonical_text()}>"


def _term_text(mono: Monomial, coeff: Quaternion):
    """Render one term; returns (sign_extracted, unsigned_body)."""
    mtext = mono_text(mono)
    comps = coeff.components()
    nonzero = [idx for idx, v in enumerate(comps) if v]
    if len(nonzero) > 1:
        body = f"({quat_parts_text(coeff)})"
        return False, f"{body} {mtext}" if mtext else body
    idx = nonzero[0]
    value = comps[idx]
    unit = _UNIT_NAMES[idx]
    mag = abs(value)
    if unit:
        coeff_body = unit if mag == 1 else f"{mag} {unit}"
    elif mag == 1 and mtext:
        coeff_body = ""
    else:
        coeff_body = str(mag)
    if coeff_body and mtext:
        return value < 0, f"{coeff_body} {mtext}"
    return value < 0, coeff_body or mtext


def gen_q() -> QPolynomial:
    """The coordinate quaternion q = a + i b + j c + k d."""
    from .quat import ONE, I, J, K
    terms = {}
    for idx, unit in zip(range(4), (ONE, I, J, K)):
        mono = tuple(1 if i == idx else 0 for i in range(N_VARS))
        terms[mono] = unit
    return QPolynomial(terms)


def gen_qbar() -> QPolynomial:
    """The conjugate coordinate qbar = a - i b - j c - k d."""
    return gen_q().conjugate()
