"""Identity verifier: every displayed relation is encoded and checked.

Each record carries a claim exactly as printed at its source location —
including claims that direct computation contradicts — and a status
computed from the engine value:

    MATCH           engine value equals the claimed value exactly
    MISMATCH        it does not (a witness point or subterm is attached)
    NOT_COMPARABLE  reserved for claims with no well-defined encoded value

A polynomial (in)equation is evaluated through the star engine and through
the independent oracle, in one walk: every star call runs on each route, and
each node above none is formed once for both.  The two must agree or the run
aborts (OracleDivergenceError), an internal bug, never a statement about the
source material.  The 15 quaternion-level records (V1-V3, the V4 algebra
laws and V4.fn_assoc) use `Quaternion`/`QPolynomial` arithmetic alone and
never reach the oracle.  An existential claim searches fixed candidates
built from the source's own operands, screening each with the engine alone;
MATCH means a witness was found, and only that witness is re-checked through
both routes, so a search that ends in MISMATCH (V11.4) rests on the engine
here; the test suite's third route re-derives a seeded sample of its
candidates.  V11.4 lowers its pool once and forms the 25 products star(f, g)
once, so each candidate (f, g, h) is screened by one `star_difference`.

The registry is data: each id maps to a `functools.partial` of a
module-level record builder with the record's arguments, so a claim's texts
and a search's candidates (V11.4's through `_assoc_candidates`) can be read
off `.args` and `.keywords`.

Chain equations are split into one record per consecutive pairwise
equality (plus a head-equals-closed-form record per chain), so one wrong
link cannot poison its neighbours.
"""

from __future__ import annotations

import functools
import itertools
import json
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from .errors import OracleDivergenceError, UnknownIdentityError
from .quat import Quaternion, GROUP_ELEMENTS, ONE, quat_text
from .poly import QPolynomial, VARIABLES
from .star import PAIRS, star, star_difference
from . import oracle as _oracle
from .expr import evaluate_text, lower_routes, parse_expression

ENGINE_VERSION = "quatstar 0.1.0"

MATCH = "MATCH"
MISMATCH = "MISMATCH"
NOT_COMPARABLE = "NOT_COMPARABLE"


@dataclass
class IdentityRecord:
    id: str
    paper_location: str
    claim_text: str
    engine_value: str
    status: str
    witness: str | None = None

    def to_dict(self) -> dict:
        return {key: value for key, value in vars(self).items() if value is not None}


@dataclass
class DiscrepancyReport:
    engine_version: str
    records: list = field(default_factory=list)

    def summary(self) -> dict:
        counts = {"match": 0, "mismatch": 0, "not_comparable": 0}
        for record in self.records:
            counts[record.status.lower()] += 1
        return counts

    def to_dict(self) -> dict:
        return {
            "engine_version": self.engine_version,
            "summary": self.summary(),
            "records": [record.to_dict() for record in self.records],
        }


# --- shared evaluation plumbing ----------------------------------------------

def _checked_eval(text: str) -> QPolynomial:
    """Evaluate expression text through both routes, in one walk; they must agree."""
    engine, oracle = lower_routes(parse_expression(text))
    if engine != oracle:
        raise OracleDivergenceError(
            f"engine and oracle disagree on {text!r}: "
            f"engine {engine.canonical_text()}, oracle {oracle.canonical_text()}")
    return engine


# a, b, c, d = 1, 2, 3, 5; nu and every Theta_mn = 1.
_CANONICAL_POINT = {name: Fraction(value) for name, value
                    in itertools.zip_longest(VARIABLES, (1, 2, 3, 5), fillvalue=1)}


def _point_witness(lhs_val, rhs_val, lhs_label, rhs_label):
    """A rational point separating the two sides, rendered as text: the
    canonical point, else the first separating one of 40 seeded random
    points, else the difference itself."""
    names = sorted(lhs_val.variables_used() | rhs_val.variables_used(),
                   key=VARIABLES.index)
    if not names:
        return (f"values differ everywhere: {lhs_label} = "
                f"{lhs_val.canonical_text()}, {rhs_label} = "
                f"{rhs_val.canonical_text()}")
    rng = Random(99)
    random_points = ({n: _oracle.random_rational(rng) for n in names}
                     for _ in range(40))
    for point in itertools.chain([{n: _CANONICAL_POINT[n] for n in names}], random_points):
        lv, rv = lhs_val.evaluate(point), rhs_val.evaluate(point)
        if lv != rv:
            assign = ", ".join(f"{n} = {point[n]}" for n in names)
            return (f"at {assign}: {lhs_label} = {quat_text(lv)}, "
                    f"{rhs_label} = {quat_text(rv)}")
    return f"difference = {(lhs_val - rhs_val).canonical_text()}"


def _seed_for(rid: str) -> int:
    return zlib.crc32(rid.encode("ascii"))


# --- record builders ----------------------------------------------------------

def _poly_claim(rid, loc, lhs, rhs, claim=None, equal=True):
    """lhs = rhs, or lhs != rhs when not `equal`.  The engine value is lhs
    (its difference with rhs for an inequation); whenever the two sides
    differ a separating point is the witness."""
    lv = _checked_eval(lhs)
    rv = _checked_eval(rhs)
    differ = lv != rv
    relation = "=" if equal else "!="
    record = IdentityRecord(rid, loc, claim or f"{lhs} {relation} {rhs}",
                            (lv if equal else lv - rv).canonical_text(),
                            MATCH if differ != equal else MISMATCH)
    if differ:
        record.witness = _point_witness(lv, rv, lhs, rhs)
    elif not equal:
        record.witness = (f"{lhs} and {rhs} are identical as polynomials; "
                          f"the difference is 0 everywhere")
    return record


def _search_record(rid, loc, claim, separating, count):
    """A search's record: the first (desc, lhs, rhs) that `separating` yields
    is recorded as lhs != rhs through both routes, desc prefixed to its
    witness; MISMATCH if none of the `count` candidates separates."""
    for desc, lhs, rhs in separating:
        record = _poly_claim(rid, loc, lhs, rhs, claim, equal=False)
        record.witness = f"{desc}: {record.witness}"
        return record
    return IdentityRecord(rid, loc, claim, f"both sides equal on all {count} candidate substitutions",
                          MISMATCH, f"exhausted {count} candidate substitutions without finding a "
                          "separating one")


def _exists_search(rid, loc, claim, candidates):
    """Existential inequality over (description, lhs, rhs) texts, screened by
    the engine alone in fixed order: MATCH iff some candidate's sides differ."""
    separating = (c for c in candidates if evaluate_text(c[1]) != evaluate_text(c[2]))
    return _search_record(rid, loc, claim, separating, len(candidates))


def _assoc_candidates(pool):
    """V11.4's (description, lhs, rhs) texts, in `itertools.product` order."""
    return [(f"f = {f}, g = {g}, h = {h}", f"assoc({f}, {g}, {h})", "0")
            for f, g, h in itertools.product(pool, repeat=3)]


def _assoc_search(rid, loc, claim, pool):
    """`_exists_search` over `_assoc_candidates(pool)`, with each pool text lowered
    and each star(f, g) formed once: a screen is one outer `star_difference`."""
    values = [evaluate_text(text) for text in pool]
    stars = [[star(f, g) for g in values] for f in values]
    indices = itertools.product(range(len(pool)), repeat=3)
    separating = (c for (x, y, z), c in zip(indices, _assoc_candidates(pool))
                  if not star_difference((stars[x][y], values[z]), (values[x], stars[y][z])).is_zero())
    return _search_record(rid, loc, claim, separating, len(pool) ** 3)


def _fmt_value(value) -> str:
    return quat_text(value) if isinstance(value, Quaternion) else str(value)


def _tuple_witness(args, lhs_label, lv, rhs_label, rv) -> str:
    names = ", ".join(f"q{idx + 1} = {quat_text(x)}" for idx, x in enumerate(args))
    return f"{names}: {lhs_label} = {_fmt_value(lv)}, {rhs_label} = {_fmt_value(rv)}"


_RANDOM_TUPLES = 24


def _arg_tuples(rid, arity, reals_only=False):
    """The argument tuples of a quaternion-level claim: the unit group's
    `arity`-tuples, or five fixed reals as 1-tuples when `reals_only`, then
    seeded random ones of the same kind."""
    rng = Random(_seed_for(rid))
    if reals_only:
        pool = [Quaternion(v) for v in (1, -1, 2, Fraction(-3, 2), 0)]
        pool += [Quaternion(_oracle.random_rational(rng)) for _ in range(_RANDOM_TUPLES)]
        return [(x,) for x in pool]
    tuples = list(itertools.product(GROUP_ELEMENTS, repeat=arity))
    tuples += [tuple(_oracle.random_quaternion(rng) for _ in range(arity))
               for _ in range(_RANDOM_TUPLES)]
    return tuples


def _quat_forall(rid, loc, claim, arity, check, reals_only=False):
    """Universal quaternion-level claim; `check(args)` returns None or a
    witness string."""
    tuples = _arg_tuples(rid, arity, reals_only)
    for args in tuples:
        witness = check(args)
        if witness is not None:
            return IdentityRecord(rid, loc, claim, "fails on a sampled argument tuple",
                                  MISMATCH, witness)
    return IdentityRecord(rid, loc, claim,
                          f"holds on all {len(tuples)} sampled argument tuples", MATCH)


def _quat_exists(rid, loc, claim, arity, differ):
    """Existential quaternion-level claim; `differ(args)` returns a pair of
    unequal values (rendered into the witness) or None."""
    for args in _arg_tuples(rid, arity):
        outcome = differ(args)
        if outcome is not None:
            return IdentityRecord(rid, loc, claim, _fmt_value(outcome[1]), MATCH,
                                  _tuple_witness(args, *outcome))
    return IdentityRecord(rid, loc, claim,
                          "no counterexample among sampled tuples", MISMATCH,
                          witness="every sampled argument tuple satisfies equality")


def _fn_assoc(rid, loc, claim):
    """(f g) h = f (g h) on seeded random polynomial triples; the first
    failing triple is both the engine value and the witness."""
    rng = Random(_seed_for(rid))
    trials = 30
    for _ in range(trials):
        f, g, h = (_oracle.random_qpoly(rng, max_position_degree=2, max_terms=3)
                   for _ in range(3))
        if (f * g) * h != f * (g * h):
            witness = f"f = {f}, g = {g}, h = {h}"
            return IdentityRecord(rid, loc, claim, witness, MISMATCH, witness)
    return IdentityRecord(rid, loc, claim,
                          f"holds on all {trials} random polynomial triples", MATCH)


def _eq_check(lhs_fn, rhs_fn, lhs_label, rhs_label):
    def check(args):
        lv = lhs_fn(*args)
        rv = rhs_fn(*args)
        return None if lv == rv else _tuple_witness(args, lhs_label, lv, rhs_label, rv)
    return check


# --- the encoded identity registry -------------------------------------------

@functools.cache
def _registry() -> dict:
    """Identity id -> its record builder with the arguments bound, in
    catalogue order."""
    entries = {}

    def add(builder, rid, *args, **kwargs):
        entries[rid] = functools.partial(builder, rid, *args, **kwargs)

    # V1: conjugation rules, encoded as recorded (no product reversal).
    add(_quat_forall, "V1.sum", "Eq. (3)", "conj(q1 + q2) = conj(q1) + conj(q2)", 2,
        _eq_check(lambda x, y: (x + y).conj(), lambda x, y: x.conj() + y.conj(),
                  "conj(q1 + q2)", "conj(q1) + conj(q2)"))
    add(_quat_forall, "V1.product", "Eq. (3)", "conj(q1 q2) = conj(q1) conj(q2)", 2,
        _eq_check(lambda x, y: (x * y).conj(), lambda x, y: x.conj() * y.conj(),
                  "conj(q1 q2)", "conj(q1) conj(q2)"))
    add(_quat_forall, "V1.involution", "Eq. (3)", "conj(conj(q1)) = q1", 1,
        _eq_check(lambda x: x.conj().conj(), lambda x: x, "conj(conj(q1))", "q1"))
    add(_quat_forall, "V1.real", "Eq. (3)", "conj(q1) = q1 for real q1", 1,
        _eq_check(lambda x: x.conj(), lambda x: x, "conj(q1)", "q1"),
        reals_only=True)

    # V2: norm laws.
    add(_poly_claim, "V2.norm_qqbar", "Eq. (4)", "q qbar", "a^2 + b^2 + c^2 + d^2",
        claim="|q|^2 = q qbar")
    add(_poly_claim, "V2.norm_qbarq", "Eq. (4)", "qbar q", "a^2 + b^2 + c^2 + d^2",
        claim="|q|^2 = qbar q")
    add(_quat_forall, "V2.norm_conj", "Eq. (4)", "|q1| = |conj(q1)|", 1,
        _eq_check(lambda x: x.norm_sq(), lambda x: x.conj().norm_sq(),
                  "|q1|^2", "|conj(q1)|^2"))

    def triangle_check(args):
        x, y = args
        gap = (x + y).norm_sq() - x.norm_sq() - y.norm_sq()
        if gap <= 0 or gap * gap <= 4 * x.norm_sq() * y.norm_sq():
            return None
        return (f"q1 = {quat_text(x)}, q2 = {quat_text(y)}: "
                f"|q1 + q2| exceeds |q1| + |q2|")

    add(_quat_forall, "V2.triangle", "Eq. (4)", "|q1 + q2| <= |q1| + |q2|", 2, triangle_check)
    add(_quat_forall, "V2.multiplicative", "Eq. (4)", "|q1 q2| = |q1| |q2|", 2,
        _eq_check(lambda x, y: (x * y).norm_sq(),
                  lambda x, y: x.norm_sq() * y.norm_sq(),
                  "|q1 q2|^2", "|q1|^2 |q2|^2"))

    # V3: the inverse.
    add(_quat_forall, "V3.unit", "Eq. (5)", "q1 conj(q1) / |q1|^2 = 1 (q1 != 0)", 1,
        _eq_check(lambda x: x * x.conj().scale(1 / x.norm_sq()),
                  lambda x: ONE, "q1 conj(q1)/|q1|^2", "1"))

    def inverse_check(args):
        (x,) = args
        inv = x.inverse()
        left = inv * x
        right = x * inv
        if left == ONE and right == ONE:
            return None
        return (f"q1 = {quat_text(x)}: q1^-1 q1 = {quat_text(left)}, "
                f"q1 q1^-1 = {quat_text(right)}")

    add(_quat_forall, "V3.inverse", "Eq. (5)",
        "q1^-1 = conj(q1)/|q1|^2 is a two-sided inverse (q1 != 0)", 1,
        inverse_check)

    # V4: algebra laws and (non)commutativity.
    add(_quat_forall, "V4.add_comm", "Eq. (6)", "q1 + q2 = q2 + q1", 2,
        _eq_check(lambda x, y: x + y, lambda x, y: y + x,
                  "q1 + q2", "q2 + q1"))
    add(_quat_forall, "V4.add_assoc", "Eq. (6)", "q1 + (q2 + q3) = (q1 + q2) + q3", 3,
        _eq_check(lambda x, y, z: x + (y + z), lambda x, y, z: (x + y) + z,
                  "q1 + (q2 + q3)", "(q1 + q2) + q3"))
    add(_quat_exists, "V4.noncomm", "Eq. (6)", "q1 q2 != q2 q1 for some q1, q2", 2,
        lambda args: None if args[0] * args[1] == args[1] * args[0]
        else ("q1 q2", args[0] * args[1], "q2 q1", args[1] * args[0]))
    add(_quat_forall, "V4.mul_assoc", "Eq. (6)", "q1 (q2 q3) = (q1 q2) q3", 3,
        _eq_check(lambda x, y, z: x * (y * z), lambda x, y, z: (x * y) * z,
                  "q1 (q2 q3)", "(q1 q2) q3"))
    add(_quat_forall, "V4.distributive", "Eq. (6)", "q1 (q2 + q3) = q1 q2 + q1 q3", 3,
        _eq_check(lambda x, y, z: x * (y + z), lambda x, y, z: x * y + x * z,
                  "q1 (q2 + q3)", "q1 q2 + q1 q3"))

    fn_pool = ("q", "qbar", "q^2", "i q", "j q", "i", "j")
    add(_exists_search, "V4.fn_noncomm", "Eq. (7)", "f g != g f for some functions f, g",
        [(f"f = {f}, g = {g}", f"({f}) ({g})", f"({g}) ({f})")
         for f, g in itertools.permutations(fn_pool, 2)])

    add(_fn_assoc, "V4.fn_assoc", "Eq. (7)", "(f g) h = f (g h) for functions f, g, h")

    # V5: the bracket value table, one record per recorded entry.
    claimed_values = {
        ("q", "q"): {"ab": "0", "ac": "0", "ad": "0",
                     "bc": "2 k", "bd": "-2 j", "cd": "2 i"},
        ("qbar", "qbar"): {"ab": "0", "ac": "0", "ad": "0",
                           "bc": "2 k", "bd": "-2 j", "cd": "2 i"},
        ("q", "qbar"): {"ab": "-2 i", "ac": "-2 j", "ad": "-2 k",
                        "bc": "0", "bd": "0", "cd": "0"},
        ("qbar", "q"): {"ab": "2 i", "ac": "2 j", "ad": "2 k",
                        "bc": "0", "bd": "0", "cd": "0"},
    }
    for (x, y), table in claimed_values.items():
        key = f"{x}{y}"
        for pair in PAIRS:
            add(_poly_claim, f"V5.{key}_{pair}", "Eq. (14)", f"pb_{pair}({x}, {y})", table[pair])

    # V6: the symplectic remark ("the pair of q and qbar ... shows the
    # symplectic structure"): {q,qbar}_mn = -{qbar,q}_mn.
    for pair in PAIRS:
        add(_poly_claim, f"V6.{pair}", "Eq. (14), symplectic remark",
            f"pb_{pair}(q, qbar)", f"-pb_{pair}(qbar, q)")

    # V7: three long chains, split into consecutive pairwise links plus
    # one head-equals-closed-form record per chain.
    chains = {
        "ab": [
            "pb_ab(q, q^2)",
            "pb_ab(q^2, q)",
            "-pb_cd(q, q^2) + 4 i a",
            "pb_cd(q^2, q) - 4 i a",
            "-pb_ab(q, qbar^2) - 4 i a - 4 b",
            "-pb_ab(qbar^2, q) + 4 i a + 4 b",
            "-pb_cd(q, qbar^2) - 4 i a",
            "pb_cd(qbar^2, q) + 4 i a",
            "-pb_ab(qbar, q^2) + 4 i a - 4 b",
            "-pb_ab(q^2, qbar) - 4 i a + 4 b",
            "pb_cd(qbar, q^2) + 4 i a",
            "-pb_cd(q^2, qbar) - 4 i a",
            "pb_ab(qbar, qbar^2)",
            "pb_ab(qbar^2, qbar)",
            "pb_cd(qbar, qbar^2) - 4 i a",
            "-pb_cd(qbar^2, qbar) + 4 i a",
            "-2 b + 2 i a - 2 i q",
            "-2 k c + 2 j d",
        ],
        "ac": [
            "pb_ac(q, q^2)",
            "-pb_ac(q^2, q)",
            "-pb_bd(q, q^2) - 4 j a",
            "pb_bd(q^2, q) + 4 j a",
            "pb_ac(q, qbar^2) + 4 j a + 4 c",
            "-pb_ac(qbar^2, q) + 4 j a + 4 c",
            "-pb_bd(q, qbar^2) + 4 j a",
            "pb_bd(qbar^2, q) - 4 j a",
            "pb_ac(qbar, q^2) - 4 j a + 4 c",
            "pb_ac(q^2, qbar) + 4 j a - 4 c",
            "pb_bd(qbar, q^2) - 4 j a",
            "-pb_bd(q^2, qbar) + 4 j a",
            "-pb_ac(qbar, qbar^2)",
            "-pb_ac(qbar^2, qbar)",
            "pb_bd(qbar, qbar^2) + 4 j a",
            "-pb_bd(qbar^2, qbar) - 4 j a",
            "-2 c + 2 j a - 2 j q",
            "-2 k b + 2 i d",
        ],
        "ad": [
            "pb_ad(q, q^2)",
            "-pb_ad(q^2, q)",
            "pb_bc(q, q^2) - 4 k a",
            "-pb_bc(q^2, q) + 4 k a",
            "pb_ad(q, qbar^2) + 4 k a + 4 d",
            "pb_ad(qbar^2, q) - 4 k a - 4 d",
            "pb_bc(q, qbar^2) + 4 k a",
            "-pb_bc(qbar^2, q) - 4 k a",
            "pb_ad(qbar, q^2) - 4 k a + 4 d",
            "pb_ad(q^2, qbar) + 4 k a - 4 d",
            "-pb_bc(qbar, q^2) - 4 k a",
            "pb_bc(q^2, qbar) + 4 k a",
            "-pb_ad(qbar, qbar^2)",
            "-pb_ad(qbar^2, qbar)",
            "-pb_bc(qbar, qbar^2) + 4 k a",
            "pb_bc(qbar^2, qbar) - 4 k a",
            "-2 d + 2 k a - 2 k q",
            "2 j b - 2 i c",
        ],
    }
    for pair, exprs in chains.items():
        loc = f"Eq. (15), {pair} chain"
        for idx in range(len(exprs) - 1):
            add(_poly_claim, f"V7.{pair}.{idx + 1}", loc, exprs[idx], exprs[idx + 1])
        add(_poly_claim, f"V7.{pair}.value", loc, exprs[0], exprs[-1])

    # V8: the four basic star products.
    add(_poly_claim, "V8.1", "Eq. (16)", "star(q, q)",
        "q^2 + nu (k Theta_bc - j Theta_bd + i Theta_cd)")
    add(_poly_claim, "V8.2", "Eq. (16)", "star(q, qbar)",
        "q qbar - nu (i Theta_ab + j Theta_ac + k Theta_ad)")
    add(_poly_claim, "V8.3", "Eq. (16)", "star(qbar, q)",
        "qbar q + nu (i Theta_ab + j Theta_ac + k Theta_ad)")
    add(_poly_claim, "V8.4", "Eq. (16)", "star(qbar, qbar)",
        "qbar^2 + nu (k Theta_bc - j Theta_bd + i Theta_cd)")

    # V9: conjugation behavior of star products.
    add(_poly_claim, "V9.1", "Eq. (17)", "conj(star(q, q))", "star(qbar, qbar)", equal=False)
    add(_poly_claim, "V9.2", "Eq. (17)", "conj(star(q, qbar))", "star(qbar, q)")
    star_pool = ("q", "qbar", "q^2", "qbar^2")
    add(_exists_search, "V9.3", "Eq. (17)", "star(f, g) != star(g, f) for some f, g",
        [(f"f = {f}, g = {g}", f"star({f}, {g})", f"star({g}, {f})")
         for f, g in itertools.permutations(star_pool, 2)])
    add(_exists_search, "V9.4", "Eq. (17)",
        "conj(star(f, g)) != star(conj(f), conj(g)) for some f, g",
        [(f"f = {f}, g = {g}", f"conj(star({f}, {g}))", f"star(conj({f}), conj({g}))")
         for f, g in itertools.product(star_pool, repeat=2)])

    # V10: eight star expansions, encoded as recorded (including the
    # q^2 * qbar line's "j d" term), plus the q^2*q != q*q^2 observation.
    eq18 = [
        ("V10.1", "star(q, q^2)",
         "q^3 + nu (Theta_ab (-k c + j d) + Theta_ac (-k b + i d)"
         " + Theta_ad (j b - i c) + Theta_bc (2 k a + j b - i c)"
         " + Theta_bd (-2 j a + k b - i d) + Theta_cd (2 i a + k c - j d))"),
        ("V10.2", "star(q^2, q)",
         "q^3 + nu (Theta_ab (-k c + j d) + Theta_ac (k b - i d)"
         " + Theta_ad (-j b + i c) + Theta_bc (2 k a - j b + i c)"
         " + Theta_bd (-2 j a - k b + i d) + Theta_cd (2 i a - k c + j d))"),
        ("V10.3", "star(q, qbar^2)",
         "q qbar^2 + nu (Theta_ab (-2 i a - 2 b + k c - j d)"
         " + Theta_ac (-2 j a - k b - 2 c + i d)"
         " + Theta_ad (-2 k a + j b - i c - 2 d)"
         " + Theta_bc (-2 k a + j b - i c) + Theta_bd (2 j a + k b - i d)"
         " + Theta_cd (-2 i a + k c - j d))"),
        ("V10.4", "star(qbar^2, q)",
         "qbar^2 q + nu (Theta_ab (2 i a + 2 b + k c - j d)"
         " + Theta_ac (2 j a + k b + 2 c - i d)"
         " + Theta_ad (2 k a + j b - i c + 2 d)"
         " + Theta_bc (-2 k a - j b + i c) + Theta_bd (2 j a - k b + i d)"
         " + Theta_cd (-2 i a - k c + j d))"),
        ("V10.5", "star(qbar, q^2)",
         "qbar q^2 + nu (Theta_ab (2 i a - 2 b + k c - j d)"
         " + Theta_ac (2 j a - k b - 2 c + i d)"
         " + Theta_ad (2 k a + j b - i c - 2 d)"
         " + Theta_bc (-2 k a - j b + i c) + Theta_bd (2 j a - k b + i d)"
         " + Theta_cd (-2 i a - k c + j d))"),
        ("V10.6", "star(q^2, qbar)",
         "q^2 qbar + nu (Theta_ab (-2 i a + 2 b + k c - j d)"
         " + Theta_ac (-2 j a - k b + 2 c + i d)"
         " + Theta_ad (-2 k a + j d - i c + 2 d)"
         " + Theta_bc (-2 k a + j b - i c) + Theta_bd (2 j a + k b - i d)"
         " + Theta_cd (-2 i a + k c - j d))"),
        ("V10.7", "star(qbar, qbar^2)",
         "qbar^3 + nu (Theta_ab (-k c + j d) + Theta_ac (k b - i d)"
         " + Theta_ad (-j b + i c) + Theta_bc (2 k a - j b + i c)"
         " + Theta_bd (-2 j a - k b + i d) + Theta_cd (2 i a - k c + j d))"),
        ("V10.8", "star(qbar^2, qbar)",
         "qbar^3 + nu (Theta_ab (-k c + j d) + Theta_ac (k b - i d)"
         " + Theta_ad (-j b + i c) + Theta_bc (2 k a + j b - i c)"
         " + Theta_bd (-2 j a + k b - i d) + Theta_cd (2 i a + k c - j d))"),
    ]
    for rid, lhs, rhs in eq18:
        add(_poly_claim, rid, "Eq. (18)", lhs, rhs)
    add(_poly_claim, "V10.9", "Eq. (18), remark", "star(q^2, q)", "star(q, q^2)", equal=False)

    # V11: broken associativity, plus the Jacobi remark.
    add(_poly_claim, "V11.1", "Eq. (19)", "assoc(q, q, q)", "0", equal=False)
    add(_poly_claim, "V11.2", "Eq. (19)", "assoc(q, q, qbar)", "0", equal=False)
    add(_poly_claim, "V11.3", "Eq. (19)", "assoc(q, qbar, q)", "0", equal=False)
    add(_assoc_search, "V11.4", "Eq. (19)", "assoc(f, g, h) != 0 for some f, g, h",
        ("q", "qbar", "q^2", "i q", "j q"))
    jacobi_pool = ("q", "qbar", "q^2", "i b", "j b c", "i c")
    jacobi_candidates = []
    for pair in PAIRS:
        for f, g, h in itertools.product(jacobi_pool, repeat=3):
            jacobi_candidates.append((
                f"mn = {pair}, f = {f}, g = {g}, h = {h}",
                f"pb_{pair}({f}, pb_{pair}({g}, {h}))"
                f" + pb_{pair}({g}, pb_{pair}({h}, {f}))"
                f" + pb_{pair}({h}, pb_{pair}({f}, {g}))",
                "0"))
    add(_exists_search, "V11.5", "remark after Eq. (15)",
        "the Jacobi identity fails for some f, g, h and pair mn",
        jacobi_candidates)

    return entries


# Expected record count per group; the test suite asserts this coverage.
COVERAGE = {
    "V1": 4, "V2": 5, "V3": 2, "V4": 7, "V5": 24, "V6": 6,
    "V7": 54, "V8": 4, "V9": 4, "V10": 9, "V11": 5,
}


def identity_ids() -> list:
    return list(_registry())


def _unknown_id(token: str) -> UnknownIdentityError:
    return UnknownIdentityError(
        f"unknown identity id {token!r}; valid ids: {', '.join(_registry())}")


def run_identity(rid: str) -> IdentityRecord:
    build = _registry().get(rid)
    if build is None:
        raise _unknown_id(rid)
    return build()


def run_matching(token: str) -> list:
    """Records whose id equals the token or falls under it as a group prefix."""
    matches = [build for rid, build in _registry().items()
               if rid == token or rid.startswith(token + ".")]
    if not matches:
        raise _unknown_id(token)
    return [build() for build in matches]


def run_all() -> DiscrepancyReport:
    return DiscrepancyReport(ENGINE_VERSION,
                             [build() for build in _registry().values()])


# --- rendering ----------------------------------------------------------------

_STATUS_RANK = {MISMATCH: 0, NOT_COMPARABLE: 1, MATCH: 2}


def render_report(report: DiscrepancyReport, format: str = "text") -> str:
    if format == "json":
        return json.dumps(report.to_dict(), indent=2)
    if format != "text":
        raise ValueError(f"unknown report format {format!r}")
    summary = report.summary()
    lines = [
        f"identity report (engine {report.engine_version})",
        f"summary: {summary['match']} MATCH, {summary['mismatch']} MISMATCH, "
        f"{summary['not_comparable']} NOT_COMPARABLE",
    ]
    grouped = {}
    for record in report.records:
        grouped.setdefault(record.id.split(".")[0], []).append(record)
    for group, records in grouped.items():
        lines.append("")
        lines.append(f"== {group} ==")
        for record in sorted(records, key=lambda r: _STATUS_RANK[r.status]):
            lines.append(f"{record.status:<9} {record.id}  [{record.paper_location}]")
            lines.append(f"    claim:  {record.claim_text}")
            lines.append(f"    engine: {record.engine_value}")
            if record.witness is not None:
                lines.append(f"    witness: {record.witness}")
    lines.append("")
    return "\n".join(lines)
