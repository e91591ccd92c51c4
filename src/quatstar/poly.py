"""Polynomials in eleven central indeterminates with quaternion coefficients.

The indeterminates, in their fixed order, are the four position variables
a, b, c, d, the deformation parameter nu, and the six antisymmetric-tensor
entries Theta_ab .. Theta_cd.  All eleven commute with each other and with
every quaternion; all noncommutativity lives in the coefficients, which are
kept on the left of their monomial.  A polynomial is a dict from packed
monomials to nonzero Quaternion coefficients.

A packed monomial is one int: eleven 21-bit exponent fields, `a` most
significant, below the total degree.  Its integer order is the canonical
order, and a product is `m1 + m2`: a field holds the sum of two exponents
<= EXPONENT_LIMIT < 2^20 without a carry.  The overflow guard is one compare
against (EXPONENT_LIMIT + 1) << degree shift; only a product of higher total
degree is unpacked to check each field.  A partial reads one field with a
shift and a mask and subtracts a precomputed unit.  The constructor,
`terms()` and `coefficient()` speak 11-tuples of ints in [0, EXPONENT_LIMIT],
and anything else is a DomainError.  Outside this module only the oracle
reads the format, through FIELD_MASK, DEGREE_GUARD and POSITION_FIELDS (a
position variable's index, shift and unit), for its own gradient and product.

A row is a (packed monomial, (n0, n1, n2, n3)) pair of ints, the term
(n0 + n1 i + n2 j + n3 k) mono over a denominator the caller keeps.
`mul_rows` sums row products with the Hamilton formula inlined on ints and
no gcd, `add_partial_rows` sums k times a partial times a monomial, and
`add_rows`, over the caller's int denominator, is the one way back to
reduced Quaternions, once per term.  A signed-unit row, an operand format
only, is a (mono << 2 | unit, n) pair of ints, the term n e_unit mono (unit
0..3 for e = 1, i, j, k) over a denominator the caller keeps.
`unit_rows()` converts terms straight to them, `add_partial_unit_rows` is
`add_partial_rows` on them, and `mul_unit_rows` adds one int multiply per
row pair, signed by the unit table's e_u e_v = sign e_w, into component w
of an integer row.
Rows serve where an operand is reused across many products: the running
power of a multi-term `__pow__` (integer rows) and the derivatives in the
star kernel.  The star kernel takes signed-unit rows iff every coefficient
of both operands has exactly one nonzero component, integer rows
otherwise.  A pair of terms costs signed-unit rows one multiply per pair of
nonzero components and integer rows sixteen; on star(u q^n, qbar^n u),
n = 3..5, signed-unit rows took 0.55-0.65x the integer-row time for a unit
u, but 1.4-1.5x, 2.3-3.1x and 3.2-3.5x for u of two, three and four
components.
`__pow__` peels the highest real-coefficient term t off its base, and sums
C(n, k) t^(n-k) r^k over the powers of the rest r: t is central (central
variables, rational coefficient), so it commutes with r and the binomial
theorem holds for quaternion coefficients, while t^(n-k) is one monomial.
`__mul__` stays on Quaternion objects: its products are mostly small and
one-off, where converting both operands to rows costs more than it saves.

Canonical term order is graded lexicographic, highest first (total degree,
then exponent tuple with `a` most significant).  Canonical text renders each
term as `<coefficient> <monomial>` with the coefficient's `quat_text`: a
single component's sign is pulled out and a real 1 before a monomial is
left out ("-2 k c", "i b", "a^2"); a parenthesized multi-component
coefficient stays as it is ("(1 + i) a b").
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, lcm

from .errors import DomainError
from .quat import ONE, UNITS, Quaternion, _quat, quat_text

POSITION_VARS = ("a", "b", "c", "d")
# The six antisymmetric position pairs, ab .. cd.
PAIRS = tuple(m + n for m, n in combinations(POSITION_VARS, 2))
VARIABLES = POSITION_VARS + ("nu",) + tuple("Theta_" + pair for pair in PAIRS)
VAR_INDEX = {name: idx for idx, name in enumerate(VARIABLES)}
NU = VAR_INDEX["nu"]

N_VARS = len(VARIABLES)

# Resource guard: exponents beyond this raise DomainError instead of silently
# consuming unbounded time/memory.
EXPONENT_LIMIT = 10 ** 6

_FIELD_BITS = 21
FIELD_MASK = (1 << _FIELD_BITS) - 1
_SHIFTS = tuple(_FIELD_BITS * (N_VARS - 1 - idx) for idx in range(N_VARS))
_DEGREE_SHIFT = _FIELD_BITS * N_VARS
DEGREE_GUARD = (EXPONENT_LIMIT + 1) << _DEGREE_SHIFT
_UNITS = tuple((1 << _DEGREE_SHIFT) | (1 << shift) for shift in _SHIFTS)
POSITION_FIELDS = tuple(zip(range(4), _SHIFTS[:4], _UNITS[:4]))
_PARAMETER_FIELDS = (1 << _SHIFTS[3]) - 1  # the nu and Theta fields
_OVERFLOW = f"exponent overflow: monomial exponent exceeds {EXPONENT_LIMIT}"
ZERO_MONO = 0


def var_index(var) -> int:
    if isinstance(var, int):
        if 0 <= var < N_VARS:
            return var
        raise DomainError(f"variable index {var} out of range")
    try:
        return VAR_INDEX[var]
    except KeyError:
        raise DomainError(f"unknown variable {var!r}") from None


def exact_rational(value, name: str) -> Fraction:
    """`value` as a Fraction; anything but an int or a Fraction (a float, say) is a DomainError."""
    if not isinstance(value, (int, Fraction)):
        raise DomainError(f"{name} must be an int or a Fraction, got {value!r}")
    return Fraction(value)


def _pack(mono: tuple) -> int:
    """The packed monomial of an 11-tuple of int exponents in [0, EXPONENT_LIMIT]."""
    if (type(mono) is not tuple or len(mono) != N_VARS
            or not all(type(e) is int and 0 <= e <= EXPONENT_LIMIT for e in mono)):
        raise DomainError(f"a monomial is {N_VARS} ints in [0, {EXPONENT_LIMIT}], got {mono!r}")
    return sum(e << shift for e, shift in zip(mono, _SHIFTS)) | sum(mono) << _DEGREE_SHIFT


def _unpack(mono: int) -> tuple:
    return tuple(mono >> shift & FIELD_MASK for shift in _SHIFTS)


def var_mono(idx: int, exp: int = 1) -> int:
    """The packed monomial of variable `idx` to the power `exp`."""
    if exp > EXPONENT_LIMIT:
        raise DomainError(_OVERFLOW)
    return exp * _UNITS[idx]


def mono_mul(m1: int, m2: int) -> int:
    """The product of two packed monomials, guarded against exponent overflow."""
    product = m1 + m2
    if product >= DEGREE_GUARD and any(
            product >> shift & FIELD_MASK > EXPONENT_LIMIT for shift in _SHIFTS):
        raise DomainError(_OVERFLOW)
    return product


def mono_text(mono: tuple) -> str:
    pieces = []
    for name, exp in zip(VARIABLES, mono):
        if exp == 1:
            pieces.append(name)
        elif exp > 1:
            pieces.append(f"{name}^{exp}")
    return " ".join(pieces)


def add_term(data: dict, mono: int, coeff: Quaternion) -> None:
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


def mul_rows(acc: dict, left, right, c: int = 1) -> None:
    """Add c times the product of every left row and right row into the rows
    dict `acc` in place; entries that cancel stay in `acc` as zeros.  `left`
    and `right` iterate over rows, such as a rows dict's items()."""
    get = acc.get
    for m1, (a0, a1, a2, a3) in left:
        if c != 1:
            a0, a1, a2, a3 = a0 * c, a1 * c, a2 * c, a3 * c
        for m2, (b0, b1, b2, b3) in right:
            mono = m1 + m2
            if mono >= DEGREE_GUARD:
                mono_mul(m1, m2)
            p0, p1, p2, p3 = get(mono, (0, 0, 0, 0))
            acc[mono] = (p0 + a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                         p1 + a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
                         p2 + a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
                         p3 + a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)


def add_partial_rows(acc: dict, rows: dict, idx: int, k: int, shift: int = ZERO_MONO) -> None:
    """Add k times the partial of `rows` over position variable `idx`, at
    each monomial times `shift`, into the rows dict `acc` in place; entries
    that cancel stay in `acc` as zeros."""
    field, unit = _SHIFTS[idx], _UNITS[idx]
    get = acc.get
    for m, (n0, n1, n2, n3) in rows.items():
        if e := m >> field & FIELD_MASK:
            m -= unit
            mono = m + shift
            if mono >= DEGREE_GUARD:
                mono_mul(m, shift)
            e *= k
            p0, p1, p2, p3 = get(mono, (0, 0, 0, 0))
            acc[mono] = (p0 + e * n0, p1 + e * n1, p2 + e * n2, p3 + e * n3)


def add_rows(data: dict, rows, den: int) -> dict:
    """The term dict of `data` plus each nonzero row over the positive int
    `den` as a reduced Quaternion, the one way back from rows (both row
    products write integer rows) to terms: a new dict, the rows' terms first."""
    terms = {mono: _quat(n0, n1, n2, n3, den) for mono, (n0, n1, n2, n3) in rows
             if n0 or n1 or n2 or n3}
    for mono, coeff in data.items():
        add_term(terms, mono, coeff)
    return terms


def _signed_unit(coeff: Quaternion):
    """(unit, numerator) of a coefficient with exactly one nonzero component,
    unit 0..3 for 1, i, j, k; None for any other coefficient."""
    ns = (coeff.n0, coeff.n1, coeff.n2, coeff.n3)
    if ns.count(0) != 3:
        return None
    u = 0 if ns[0] else 1 if ns[1] else 2 if ns[2] else 3
    return u, ns[u]


# _UNIT_STEPS[u][v] = (w, sign) for e_u e_v = sign e_w, read off the
# quaternion product.
_UNIT_STEPS = tuple(tuple(_signed_unit(x * y) for y in UNITS) for x in UNITS)
_UNIT_GUARD = DEGREE_GUARD << 2


def mul_unit_rows(acc: dict, left, right, c: int = 1) -> None:
    """Add c times the product of every left and right signed-unit row into
    the integer rows dict `acc` in place: acc[mono][w] += sign a b for
    e_u e_v = sign e_w, into row lists this function makes; entries that
    cancel stay as zeros.  Each (u, v) unit pair runs one loop over the
    right rows of unit v.  `left` and `right` iterate over signed-unit rows."""
    groups = ([], [], [], [])
    for key, b in right:
        groups[key & 3].append((key >> 2, b))
    get, guard = acc.get, DEGREE_GUARD
    for key, a in left:
        m1, a = key >> 2, a * c
        for (w, sign), group in zip(_UNIT_STEPS[key & 3], groups):
            sa = sign * a
            for m2, b in group:
                mono = m1 + m2
                if mono >= guard:
                    mono_mul(m1, m2)
                if (row := get(mono)) is None:
                    acc[mono] = row = [0, 0, 0, 0]
                row[w] += sa * b


def add_partial_unit_rows(acc: dict, rows: dict, idx: int, k: int,
                          shift: int = ZERO_MONO) -> None:
    """`add_partial_rows` on signed-unit rows: add k times the partial of
    `rows` over position variable `idx`, at each monomial times `shift`, into
    `acc` in place; entries that cancel stay in `acc` as zeros."""
    field, unit, offset = _SHIFTS[idx] + 2, _UNITS[idx] << 2, shift << 2
    get, mask, guard = acc.get, FIELD_MASK, _UNIT_GUARD
    for key, n in rows.items():
        if e := key >> field & mask:
            key -= unit
            moved = key + offset
            if moved >= guard:
                mono_mul(key >> 2, shift)
            acc[moved] = get(moved, 0) + e * k * n


def _coerce_coeff(value) -> Quaternion:
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, Fraction)):
        return Quaternion(value)
    raise TypeError(f"coefficients must be quaternions or rationals, got {type(value).__name__}")


def _quat_pow(x: Quaternion, n: int) -> Quaternion:
    result = ONE
    while n:
        if n & 1:
            result = result * x
        x, n = x * x, n >> 1
    return result


class QPolynomial:
    """A polynomial with quaternion coefficients and central variables."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for mono, coeff in (terms.items() if isinstance(terms, dict) else terms):
                mono, coeff = _pack(mono), _coerce_coeff(coeff)
                if not coeff.is_zero():
                    add_term(data, mono, coeff)
        self._terms = data

    # --- constructors ---

    @classmethod
    def from_terms(cls, data: dict) -> "QPolynomial":
        """Adopt a dict of packed monomials to nonzero terms as is (no copy, no check)."""
        out = cls.__new__(cls)
        out._terms = data
        return out

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls()

    @classmethod
    def constant(cls, value) -> "QPolynomial":
        coeff = _coerce_coeff(value)
        return cls.from_terms({} if coeff.is_zero() else {ZERO_MONO: coeff})

    @classmethod
    def variable(cls, var) -> "QPolynomial":
        return cls.from_terms({var_mono(var_index(var)): ONE})

    # --- inspection ---

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self):
        return len(self._terms)

    def items(self):
        """Terms as (packed monomial, coefficient) pairs, in storage order."""
        return self._terms.items()

    def terms(self) -> list:
        """Terms as (monomial, coefficient) pairs, canonical order (highest first)."""
        return [(_unpack(m), self._terms[m]) for m in sorted(self._terms, reverse=True)]

    def coefficient(self, mono: tuple) -> Quaternion:
        return self._terms.get(_pack(mono), Quaternion())

    def total_degree(self) -> int:
        if not self._terms:
            return -1
        return max(self._terms) >> _DEGREE_SHIFT

    def position_degree(self) -> int:
        """Degree in the position variables a..d alone (-1 for the zero polynomial),
        read off the highest monomial, with no pass, when it has no nu or Theta."""
        if not self._terms:
            return -1
        if not (top := max(self._terms)) & _PARAMETER_FIELDS:
            return top >> _DEGREE_SHIFT
        a, b, c, d = _SHIFTS[:4]
        return max((m >> a & FIELD_MASK) + (m >> b & FIELD_MASK) + (m >> c & FIELD_MASK)
                   + (m >> d & FIELD_MASK) for m in self._terms)

    def nu_degree(self) -> int:
        if not self._terms:
            return -1
        return max(m >> _SHIFTS[NU] & FIELD_MASK for m in self._terms)

    def rows(self) -> tuple:
        """(rows, den): the terms as integer rows {mono: (n0, n1, n2, n3)}
        over den, the lcm of the coefficient denominators (1 for the zero
        polynomial)."""
        den = lcm(*(c.den for c in self._terms.values()))
        return {m: (c.n0 * (k := den // c.den), c.n1 * k, c.n2 * k, c.n3 * k)
                for m, c in self._terms.items()}, den

    def unit_rows(self):
        """(rows, den) as `rows()` gives them, but as signed-unit rows
        {mono << 2 | unit: n}, unit 0..3 for 1, i, j, k; None when a
        coefficient has more than one nonzero component."""
        den = lcm(*(c.den for c in self._terms.values()))
        rows = {}
        for m, c in self._terms.items():
            if (unit := _signed_unit(c)) is None:
                return None
            rows[m << 2 | unit[0]] = unit[1] * (den // c.den)
        return rows, den

    def variables_used(self) -> set:
        return {VARIABLES[idx] for m in self._terms for idx, exp in enumerate(_unpack(m)) if exp}

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
        if isinstance(other, (int, Fraction, Quaternion)):
            # A constant is a polynomial of one term, at the unit monomial.
            other = QPolynomial.constant(other)
        elif not isinstance(other, QPolynomial):
            return NotImplemented
        data, right = {}, other._terms.items()
        for m1, c1 in self._terms.items():
            for m2, c2 in right:
                # Coefficients multiply left to right (order matters) into a nonzero
                # product; mono_mul checks only a product of degree over the limit.
                mono = m1 + m2
                if mono >= DEGREE_GUARD:
                    mono_mul(m1, m2)
                add_term(data, mono, c1 * c2)
        return QPolynomial.from_terms(data)

    def __rmul__(self, other):
        if not isinstance(other, (int, Fraction, Quaternion)):
            return NotImplemented
        return QPolynomial.constant(other) * self

    def __pow__(self, n):
        """A single term is raised directly.  A multi-term base p = t + r, t its
        highest real-coefficient term (0 if none), gives p^n = sum_k C(n, k)
        t^(n-k) r^k, exact as t (central variables, rational coefficient)
        commutes with r.  The r^k come by repeated multiplication, which beats
        squaring on sparse bases (Fateman 1974)."""
        if not isinstance(n, int):
            raise TypeError(f"a polynomial power needs an int exponent, got {type(n).__name__}")
        if n < 0:
            raise DomainError("negative powers are not defined for polynomials")
        if n > EXPONENT_LIMIT:
            raise DomainError(f"exponent overflow: power {n} exceeds {EXPONENT_LIMIT}")
        if n == 0:
            return QPolynomial.constant(1)
        # No exponent of p^n exceeds n times the base's largest, and p^n reaches that
        # bound (a leading term never cancels): the one overflow check of either branch.
        if self.total_degree() * n > EXPONENT_LIMIT and any(
                max(_unpack(m)) * n > EXPONENT_LIMIT for m in self._terms):
            raise DomainError(_OVERFLOW)
        if len(self._terms) <= 1:
            return QPolynomial.from_terms({m * n: _quat_pow(c, n) for m, c in self._terms.items()})
        rows, den = self.rows()
        real = [m for m, (_, n1, n2, n3) in rows.items() if not (n1 or n2 or n3)]
        t = max(real, default=ZERO_MONO)
        tc = rows.pop(t)[0] if real else 0
        rest, power, acc = rows.items(), [(ZERO_MONO, (1, 0, 0, 0))], {}
        get = acc.get
        for k in range(n):
            if w := comb(n, k) * tc ** (n - k):
                shift = t * (n - k)
                for m, (n0, n1, n2, n3) in power:
                    p0, p1, p2, p3 = get(mono := m + shift, (0, 0, 0, 0))
                    acc[mono] = (p0 + w * n0, p1 + w * n1, p2 + w * n2, p3 + w * n3)
            if k == n - 1:
                mul_rows(acc, power, rest)  # r^n, of weight 1 and shift 0
            elif k:
                step = {}
                mul_rows(step, power, rest)
                power = [(m, c) for m, c in step.items() if any(c)]
            else:
                power = rest
        return QPolynomial.from_terms(add_rows({}, acc.items(), den ** n))

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
        shift, unit = _SHIFTS[idx], _UNITS[idx]
        data = {}
        for mono, coeff in self._terms.items():
            exp = mono >> shift & FIELD_MASK
            if exp:
                # Lowering one exponent maps distinct monomials to distinct ones.
                data[mono - unit] = coeff.scale(exp)
        return QPolynomial.from_terms(data)

    def conjugate(self) -> "QPolynomial":
        """Quaternionic conjugation of every coefficient (variables stay fixed)."""
        return QPolynomial.from_terms({m: c.conj() for m, c in self._terms.items()})

    def evaluate(self, assignment: dict) -> Quaternion:
        """Evaluate at rational values for every variable that occurs.

        `assignment` maps variable names to ints or Fractions.  A variable
        that occurs in the polynomial but not in the assignment is a domain
        error.
        """
        values = {var_index(name): exact_rational(value, name)
                  for name, value in assignment.items()}
        total = Quaternion()
        for mono, coeff in self._terms.items():
            factor = Fraction(1)
            for idx, exp in enumerate(_unpack(mono)):
                if not exp:
                    continue
                if idx not in values:
                    raise DomainError(f"no value assigned to variable {VARIABLES[idx]!r}")
                factor *= values[idx] ** exp
            total = total + coeff.scale(factor)
        return total

    def coefficient_of_nu_power(self, s: int) -> "QPolynomial":
        """The polynomial multiplying nu^s (with that nu power removed)."""
        shift, unit = _SHIFTS[NU], _UNITS[NU]
        return QPolynomial.from_terms({m - s * unit: c for m, c in self._terms.items()
                                       if m >> shift & FIELD_MASK == s})

    # --- text ---

    def canonical_text(self) -> str:
        pieces = []
        for mono, coeff in self.terms():
            ctext, mtext = quat_text(coeff), mono_text(mono)
            sign = " - " if ctext[0] == "-" else " + "
            ctext = ctext.lstrip("-")
            body = mtext if ctext == "1" and mtext else f"{ctext} {mtext}".rstrip()
            pieces.append(sign + body)
        if not pieces:
            return "0"
        text = "".join(pieces)
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def __str__(self):
        return self.canonical_text()

    def __repr__(self):
        return f"QPolynomial<{self.canonical_text()}>"


def gen_q() -> QPolynomial:
    """The coordinate quaternion q = a + i b + j c + k d."""
    from .quat import I, J, K
    return QPolynomial.from_terms({var_mono(idx): unit for idx, unit in enumerate((ONE, I, J, K))})


def gen_qbar() -> QPolynomial:
    """The conjugate coordinate qbar = a - i b - j c - k d."""
    return gen_q().conjugate()
