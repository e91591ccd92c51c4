"""The identity verifier: record statuses, reports, rendering, round trips."""

import functools
import importlib
import itertools
import json
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
import sympy
from sympy.algebras.quaternion import Quaternion as SympyQuaternion

from quatstar.errors import OracleDivergenceError, UnknownIdentityError
import quatstar.oracle
import quatstar.verify as verify
from quatstar.expr import Call, evaluate_text, lower, lower_routes, parse_expression
from quatstar.oracle import random_qpoly, star_oracle
from quatstar.poly import QPolynomial, gen_q, gen_qbar
from quatstar.quat import UNITS, Quaternion
from quatstar.verify import (
    _arg_tuples,
    _point_witness,
    _quat_exists,
    _seed_for,
    COVERAGE,
    ENGINE_VERSION,
    MATCH,
    MISMATCH,
    NOT_COMPARABLE,
    DiscrepancyReport,
    identity_ids,
    render_report,
    run_identity,
    run_matching,
)

EXPECTED_STATUS = {
    "V1.sum": MATCH,
    "V1.product": MISMATCH,
    "V1.involution": MATCH,
    "V2.norm_qqbar": MATCH,
    "V3.inverse": MATCH,
    "V4.noncomm": MATCH,
    "V5.qq_ab": MATCH,
    "V5.qq_bc": MATCH,
    "V5.qbarqbar_cd": MATCH,
    "V5.qqbar_ab": MATCH,
    "V5.qqbar_bc": MISMATCH,
    "V5.qbarq_cd": MISMATCH,
    "V6.ab": MATCH,
    "V6.bc": MISMATCH,
    "V7.ab.1": MATCH,
    "V7.ab.value": MATCH,
    "V7.ac.1": MISMATCH,
    "V7.ac.5": MISMATCH,
    "V7.ac.9": MATCH,
    "V7.ac.value": MISMATCH,
    "V7.ad.1": MISMATCH,
    "V7.ad.5": MATCH,
    "V7.ad.16": MISMATCH,
    "V8.1": MATCH,
    "V8.2": MISMATCH,
    "V8.3": MISMATCH,
    "V8.4": MATCH,
    "V9.1": MATCH,
    "V9.2": MISMATCH,
    "V9.3": MATCH,
    "V9.4": MATCH,
    "V10.1": MISMATCH,
    "V10.2": MATCH,
    "V10.4": MISMATCH,
    "V10.6": MISMATCH,
    "V10.9": MATCH,
    "V11.1": MISMATCH,
    "V11.2": MISMATCH,
    "V11.3": MISMATCH,
    "V11.4": MISMATCH,
    "V11.5": MATCH,
}


def test_identity_ids_cover_registry():
    ids = identity_ids()
    assert len(ids) == sum(COVERAGE.values()) == 124
    assert len(set(ids)) == len(ids)
    for rid in ids:
        group = rid.split(".", 1)[0]
        assert group in COVERAGE


def test_registry_holds_module_level_builders_with_their_arguments():
    builders = {verify._poly_claim, verify._exists_search, verify._assoc_search,
                verify._quat_forall, verify._quat_exists, verify._fn_assoc}
    for rid, entry in verify._registry().items():
        assert isinstance(entry, functools.partial) and entry.func in builders, rid
        assert entry.args[0] == rid
        assert getattr(verify, entry.func.__name__) is entry.func


def test_individual_statuses(full_report):
    by_id = {record.id: record for record in full_report.records}
    for rid, status in EXPECTED_STATUS.items():
        assert by_id[rid].status == status, (rid, by_id[rid].status)
    # Single-record runs agree with the batch run.
    for rid in ("V1.product", "V7.ab.value", "V11.5"):
        assert run_identity(rid).to_dict() == by_id[rid].to_dict()


def test_full_report_counts(full_report):
    assert len(full_report.records) == 124
    seen = {}
    for record in full_report.records:
        group = record.id.split(".", 1)[0]
        seen[group] = seen.get(group, 0) + 1
    assert seen == COVERAGE
    assert full_report.summary() == {
        "match": 94, "mismatch": 30, "not_comparable": 0}


def test_every_mismatch_carries_a_witness(full_report):
    for record in full_report.records:
        if record.status == MISMATCH:
            assert record.witness, record.id
        assert record.paper_location
        assert record.claim_text
        assert record.engine_value is not None


def test_product_conjugation_witness():
    record = run_identity("V1.product")
    assert record.status == MISMATCH
    assert "q1 = i, q2 = j" in record.witness


def test_jacobi_witness_names_the_triple():
    record = run_identity("V11.5")
    assert record.status == MATCH
    assert "mn = ab" in record.witness
    assert "f = q, g = q^2, h = q^2" in record.witness


def test_point_witness_searches_when_the_canonical_point_agrees():
    # a - 1 and 0 take the same value at the canonical point a = 1.
    witness = _point_witness(evaluate_text("a - 1"), evaluate_text("0"), "a - 1", "0")
    assert witness == "at a = 3/4: a - 1 = -1/4, 0 = 0"


def test_point_witness_of_equal_sides_is_the_zero_difference():
    # No point separates q q from itself, so the canonical point and the
    # 40 seeded random points all fail and the difference is the witness.
    qq = evaluate_text("q q")
    assert _point_witness(qq, qq, "q q", "q q") == "difference = 0"


def test_checked_eval_forms_a_node_above_no_star_call_once(monkeypatch):
    expected, powers = evaluate_text("q^3 + star(q, qbar)"), []
    power = QPolynomial.__pow__
    monkeypatch.setattr(QPolynomial, "__pow__", lambda self, n: powers.append(n) or power(self, n))
    assert verify._checked_eval("q^3 + star(q, qbar)") == expected
    assert powers == [3]


def test_a_patched_oracle_star_still_diverges_above_the_star_call(monkeypatch):
    # The square and the sum over a star call are formed on each route, so an
    # oracle product off by one term reaches the comparison, squared.
    extra = QPolynomial.variable("Theta_ab")
    patched = star_oracle(gen_q(), gen_qbar()) + extra
    monkeypatch.setattr(quatstar.oracle, "star_oracle",
                        lambda f, g, config: star_oracle(f, g, config) + extra)
    text = "star(q, qbar)^2 + q"
    engine, oracle = lower_routes(parse_expression(text))
    assert oracle == patched ** 2 + gen_q()
    assert engine == evaluate_text(text) != oracle
    with pytest.raises(OracleDivergenceError, match="engine and oracle disagree") as err:
        verify._checked_eval(text)
    assert str(err.value).endswith(f"oracle {oracle.canonical_text()}")


def test_triangle_check_accepts_equality_in_the_squared_condition():
    # At q1 = q2 = 1/4, gap = 1/8 and gap * gap = 1/64 = 4 |q1|^2 |q2|^2, while
    # gap + gap = 1/4 exceeds it: the check must compare the square.
    check = verify._registry()["V2.triangle"].args[4]
    quarter = Quaternion(Fraction(1, 4))
    assert check((quarter, quarter)) is None


@pytest.mark.parametrize("rid", ["V3.unit", "V3.inverse"])
def test_inverse_claims_sample_no_zero_quaternion(rid):
    # Both claims are stated for q1 != 0, so no sampled argument may be zero.
    tuples = _arg_tuples(rid, 1)
    assert len(tuples) == 32
    assert not any(x.is_zero() for (x,) in tuples)


def test_quat_exists_without_a_counterexample_is_mismatch():
    record = _quat_exists("X.none", "nowhere", "q1 != q2 for some q1, q2", 2,
                          lambda args: None)
    assert (record.id, record.status) == ("X.none", MISMATCH)
    assert record.engine_value == "no counterexample among sampled tuples"
    assert record.witness == "every sampled argument tuple satisfies equality"


def test_inverse_witness_names_the_failing_argument(monkeypatch):
    monkeypatch.setattr(Quaternion, "inverse", lambda self: self.scale(2))
    record = run_identity("V3.inverse")
    assert (record.status, record.engine_value) == (MISMATCH, "fails on a sampled argument tuple")
    assert record.witness == "q1 = 1: q1^-1 q1 = 2, q1 q1^-1 = 2"


def test_triangle_witness_names_the_failing_pair(monkeypatch):
    # Squaring the norm squared breaks the triangle inequality already at q1 = q2 = 1.
    norm_sq = Quaternion.norm_sq
    monkeypatch.setattr(Quaternion, "norm_sq", lambda self: norm_sq(self) ** 2)
    record = run_identity("V2.triangle")
    assert (record.status, record.engine_value) == (MISMATCH, "fails on a sampled argument tuple")
    assert record.witness == "q1 = 1, q2 = 1: |q1 + q2| exceeds |q1| + |q2|"


def test_fn_assoc_mismatch_records_the_first_triple(monkeypatch):
    # With subtraction as the product, (f g) h - f (g h) = -2 h, nonzero on the first triple.
    rng = Random(_seed_for("V4.fn_assoc"))
    f, g, h = (random_qpoly(rng, max_position_degree=2, max_terms=3) for _ in range(3))
    monkeypatch.setattr(QPolynomial, "__mul__", QPolynomial.__sub__)
    record = run_identity("V4.fn_assoc")
    witness = f"f = {f}, g = {g}, h = {h}"
    assert (record.status, record.engine_value, record.witness) == (MISMATCH, witness, witness)


def test_v11_4_records_the_first_candidate_its_screen_separates(monkeypatch):
    # An altered star(j q, j q) moves the outer difference of every candidate
    # that uses it as an inner product; the first of them in fixed order is
    # the 25th, (q, j q, j q), and the screen stops there.  Its texts are
    # re-checked through both routes, where assoc is zero, as an inequation.
    # The batch draws a candidate only when its next screen is asked for.
    jq = evaluate_text("j q")
    real_star, real_differences, screened = verify.star, verify.star_differences, []
    monkeypatch.setattr(verify, "star", lambda f, g: real_star(f, g) + jq * jq
                        if f == g == jq else real_star(f, g))
    monkeypatch.setattr(verify, "star_differences", lambda candidates: real_differences(
        screened.append(candidate) or candidate for candidate in candidates))
    record = run_identity("V11.4")
    desc, lhs, rhs = verify._assoc_candidates(verify._registry()["V11.4"].args[3])[24]
    assert (desc, len(screened)) == ("f = q, g = j q, h = j q", 25)
    expected = verify._poly_claim("V11.4", "Eq. (19)", lhs, rhs,
                                  "assoc(f, g, h) != 0 for some f, g, h", equal=False)
    expected.witness = f"{desc}: {expected.witness}"
    assert record == expected
    assert record.witness == ("f = q, g = j q, h = j q: assoc(q, j q, j q) and 0 are identical "
                              "as polynomials; the difference is 0 everywhere")


def test_v11_4_converts_and_differentiates_each_screen_operand_once(monkeypatch):
    # The 125 screens have 30 distinct operands (the 5 pool values and the 25
    # inner products), all on signed-unit rows.  The batch converts each once
    # and forms each derivative once.  Conversions are counted after the last
    # inner product.
    star_module = importlib.import_module("quatstar.star")
    converted, partials, real_star = [], [], verify.star
    for name in ("unit_rows", "rows"):
        monkeypatch.setattr(QPolynomial, name, lambda self, name=name, real=getattr(
            QPolynomial, name): converted.append((self, name)) or real(self))
    real_partial = star_module.add_partial_unit_rows
    monkeypatch.setattr(star_module, "add_partial_unit_rows",
                        lambda *args: partials.append(args) or real_partial(*args))
    monkeypatch.setattr(verify, "star", lambda f, g: (real_star(f, g), converted.clear())[0])
    assert run_identity("V11.4").status == "MISMATCH"
    assert {name for _, name in converted} == {"unit_rows"}
    assert len(converted) == len({id(x) for x, _ in converted}) == 30
    assert len(partials) <= 2000


def test_v11_operands_lie_inside_the_associativity_proof():
    """V11.1-V11.4 are MISMATCH because the star product is associative:
    every operand they pass to assoc has position degree <= 2, so
    test_star.py's test_associativity_through_position_degree_two, with
    trilinearity, covers each of their verdicts."""
    registry = verify._registry()
    texts = [registry[rid].args[2] for rid in ("V11.1", "V11.2", "V11.3")]
    texts += [lhs for _, lhs, _ in verify._assoc_candidates(registry["V11.4"].args[3])]
    assert len(texts) == 3 + 125
    degrees = set()
    for text in texts:
        node = parse_expression(text)
        assert isinstance(node, Call) and node.func == "assoc", text
        degrees.update(lower(arg).position_degree() for arg in node.args)
    assert max(degrees) <= 2, degrees


def test_run_matching_prefixes():
    assert len(run_matching("V5")) == 24
    assert [r.id for r in run_matching("V8.1")] == ["V8.1"]
    with pytest.raises(UnknownIdentityError):
        run_identity("V99.bogus")
    with pytest.raises(UnknownIdentityError):
        run_matching("W1")


def test_unknown_identity_error_lists_valid_ids():
    with pytest.raises(UnknownIdentityError) as err:
        run_identity("V5.xx")
    assert "V5.qq_ab" in str(err.value)


def test_runs_are_deterministic():
    first = DiscrepancyReport(ENGINE_VERSION, run_matching("V5"))
    second = DiscrepancyReport(ENGINE_VERSION, run_matching("V5"))
    assert render_report(first) == render_report(second)
    assert run_identity("V11.5").to_dict() == run_identity("V11.5").to_dict()


def test_text_render_layout(full_report):
    text = render_report(full_report, format="text")
    lines = text.splitlines()
    assert lines[0] == "identity report (engine quatstar 0.1.0)"
    assert lines[1] == "summary: 94 MATCH, 30 MISMATCH, 0 NOT_COMPARABLE"
    assert "== V5 ==" in text
    # Within each group the mismatches are listed before the matches.
    v5 = text.split("== V5 ==")[1].split("== V6 ==")[0]
    statuses = [line.split()[0] for line in v5.splitlines()
                if line.startswith(("MATCH", "MISMATCH"))]
    assert statuses == sorted(
        statuses, key=lambda s: 0 if s == "MISMATCH" else 1)
    assert not any(line.startswith(NOT_COMPARABLE) for line in lines[2:])


def test_json_render_and_round_trip(full_report):
    blob = render_report(full_report, format="json")
    data = json.loads(blob)
    assert list(data) == ["engine_version", "summary", "records"]
    assert data["summary"] == {
        "match": 94, "mismatch": 30, "not_comparable": 0}
    assert len(data["records"]) == 124
    first = data["records"][0]
    assert list(first)[:5] == [
        "id", "paper_location", "claim_text", "engine_value", "status"]
    mismatch = next(r for r in data["records"] if r["status"] == MISMATCH)
    assert list(mismatch)[-1] == "witness"
    with pytest.raises(ValueError):
        render_report(full_report, format="yaml")


def test_location_labels_present(full_report):
    locations = {r.id: r.paper_location for r in full_report.records}
    assert locations["V1.sum"] == "Eq. (3)"
    assert locations["V5.qq_ab"] == "Eq. (14)"
    assert locations["V7.ab.1"] == "Eq. (15), ab chain"
    assert locations["V8.1"] == "Eq. (16)"
    assert locations["V11.5"] == "remark after Eq. (15)"


def test_cli_run_reproduces_library_run(full_report, verify_cli_json):
    # The report written by the command line equals an in-process run byte
    # for byte once parsed, so independent runs reproduce each other.
    assert verify_cli_json[2] == full_report.to_dict()


def test_cli_report_equals_the_reference_catalogue(verify_cli_json):
    # `--out` ends the file with a newline; the reference is stored without one
    ref = Path(__file__).resolve().parents[1] / "bench" / "ref" / "catalogue.json"
    assert verify_cli_json[1] == ref.read_text(encoding="utf-8") + "\n"


# --- the sampled V1-V4 verdicts as theorems ------------------------------------
# sympy quaternions over real symbols do the algebra, so these proofs share no
# arithmetic with quatstar; they read only the report's statuses and witness.

X_PARTS = sympy.symbols("x0:4", real=True)
Y_PARTS = sympy.symbols("y0:4", real=True)
X, Y, Z = (SympyQuaternion(*parts) for parts in
           (X_PARTS, Y_PARTS, sympy.symbols("z0:4", real=True)))


def _parts(q):
    return (q.a, q.b, q.c, q.d)


def _conj(q):
    return SympyQuaternion(q.a, -q.b, -q.c, -q.d)


def _real(r):
    return SympyQuaternion(r, 0, 0, 0)


def _norm_sq(q):
    return sum(part ** 2 for part in _parts(q))


def _identical(lhs, rhs):
    return all(sympy.expand(left - right) == 0 for left, right in zip(_parts(lhs), _parts(rhs)))


def _record(report, rid):
    return next(record for record in report.records if record.id == rid)


# x conj(x) = conj(x) x = |x|^2: q1 conj(q1) / |q1|^2 = 1, and conj(q1)/|q1|^2 is
# a two-sided inverse, wherever |q1|^2 != 0.
_NORM_PRODUCTS = [(X * _conj(X), _real(_norm_sq(X))), (_conj(X) * X, _real(_norm_sq(X)))]

SYMBOLIC_LAWS = {
    "V1.sum": [(_conj(X + Y), _conj(X) + _conj(Y))],
    "V1.involution": [(_conj(_conj(X)), X)],
    "V1.real": [(_conj(_real(X.a)), _real(X.a))],
    "V2.norm_conj": [(_real(_norm_sq(_conj(X))), _real(_norm_sq(X)))],
    "V2.multiplicative": [(_real(_norm_sq(X * Y)), _real(_norm_sq(X) * _norm_sq(Y)))],
    "V3.unit": _NORM_PRODUCTS,
    "V3.inverse": _NORM_PRODUCTS,
    "V4.add_comm": [(X + Y, Y + X)],
    "V4.add_assoc": [(X + (Y + Z), (X + Y) + Z)],
    "V4.mul_assoc": [(X * (Y * Z), (X * Y) * Z)],
    "V4.distributive": [(X * (Y + Z), X * Y + X * Z)],
}


@pytest.mark.parametrize("rid", SYMBOLIC_LAWS)
def test_sampled_law_is_an_identity(full_report, rid):
    for lhs, rhs in SYMBOLIC_LAWS[rid]:
        assert _identical(lhs, rhs), (lhs, rhs)
    assert _record(full_report, rid).status == MATCH


def test_triangle_law_follows_from_lagrange_identity(full_report):
    dot = sum(x * y for x, y in zip(X_PARTS, Y_PARTS))
    squares = sum((X_PARTS[m] * Y_PARTS[n] - X_PARTS[n] * Y_PARTS[m]) ** 2
                  for m, n in itertools.combinations(range(4), 2))
    assert sympy.expand(_norm_sq(X) * _norm_sq(Y) - dot ** 2 - squares) == 0
    # triangle_check's gap is 2 <x, y>, so 4 |x|^2 |y|^2 - gap^2 is 4 times a
    # sum of squares: gap^2 <= 4 |x|^2 |y|^2 for every pair.
    gap = _norm_sq(X + Y) - _norm_sq(X) - _norm_sq(Y)
    assert sympy.expand(gap - 2 * dot) == 0
    assert _record(full_report, "V2.triangle").status == MATCH


def test_product_conjugation_is_refuted_and_reversed_holds(full_report):
    # The difference is a nonzero polynomial: it is -2k at the report's witness.
    difference = [sympy.expand(part) for part in _parts(_conj(X * Y) - _conj(X) * _conj(Y))]
    at_i_j = dict(zip(X_PARTS + Y_PARTS, (0, 1, 0, 0, 0, 0, 1, 0)))
    assert [part.subs(at_i_j) for part in difference] == [0, 0, 0, -2]
    assert _identical(_conj(X * Y), _conj(Y) * _conj(X))
    record = _record(full_report, "V1.product")
    assert (record.status, record.witness) == (
        MISMATCH, "q1 = i, q2 = j: conj(q1 q2) = -k, conj(q1) conj(q2) = k")


def test_fn_assoc_reduces_to_unit_triples_on_central_monomials(full_report):
    # Polynomial products are bilinear, so (f g) h = f (g h) for all f, g, h
    # once it holds on e_u m1, e_v m2, e_w m3 for units e and monomials m.
    # Monomials are central and multiply by adding exponents, so both sides
    # are (e_u e_v e_w) m1 m2 m3, and V4.mul_assoc proves e_u e_v e_w
    # independent of the bracketing.
    rng = Random(43)
    for u, v, w in itertools.product(UNITS, repeat=3):
        for _ in range(3):
            monos = [tuple(rng.randint(0, 3) for _ in range(11)) for _ in range(3)]
            f, g, h = (QPolynomial({mono: unit}) for mono, unit in zip(monos, (u, v, w)))
            expected = QPolynomial({tuple(map(sum, zip(*monos))): u * v * w})
            assert (f * g) * h == f * (g * h) == expected, (u, v, w, monos)
    assert _record(full_report, "V4.fn_assoc").status == MATCH
