"""Acceptance gate: one test and one printed pass/fail line per criterion.

Every check is exact (zero tolerance); randomness is seeded. Criterion 1
holds the catalogue to what the computation shows: the whitelisted records
report MATCH, and the two Eq. (15) chain links V7.ac.1 and V7.ad.1, whose
printed claims the engine, the oracle and a hand derivation all refute,
report a witnessed MISMATCH (README, "Refuted chain links").
"""

import ast
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

import quatstar.cli as cli
import quatstar.oracle as oracle
from quatstar.expr import evaluate_text
from quatstar.poly import QPolynomial, gen_q
from quatstar.quat import ONE, Quaternion
from quatstar.star import PAIRS, associator, poisson_bracket, star
from quatstar.verify import COVERAGE, MATCH, MISMATCH, identity_ids
import jet
from refimpl import c2

POSITIONS = ("a", "b", "c", "d")


def _announce(capsys, number, ok, text, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number}: {status} - {text}"
    if detail:
        line += f" [{detail}]"
    with capsys.disabled():
        print(line)


def _rand_quat(rng):
    return Quaternion(*(oracle.random_rational(rng) for _ in range(4)))


def _rand_real_poly(rng, max_degree=3, max_terms=3):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        mono = oracle.random_monomial(rng, max_degree, False)
        terms.append((mono, Quaternion(oracle.random_rational(rng))))
    return QPolynomial(terms)


# --- criterion 1 -----------------------------------------------------------

_UNIT_TABLE = {
    ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
    ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
    ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
    ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
}

_UNIT_QUATS = {
    "1": ONE,
    "i": Quaternion(0, 1, 0, 0),
    "j": Quaternion(0, 0, 1, 0),
    "k": Quaternion(0, 0, 0, 1),
}


def _unit_mul(x, y):
    sx, ex = x
    sy, ey = y
    if ex == "1":
        return (sx * sy, ey)
    if ey == "1":
        return (sx * sy, ex)
    sign, basis = _UNIT_TABLE[(ex, ey)]
    return (sx * sy * sign, basis)


def _group_table_ok():
    group = [(sign, unit) for sign in (1, -1) for unit in "1ijk"]
    for x in group:
        for y in group:
            sign, basis = _unit_mul(x, y)
            expected = _UNIT_QUATS[basis] * sign
            qx = _UNIT_QUATS[x[1]] * x[0]
            qy = _UNIT_QUATS[y[1]] * y[0]
            if qx * qy != expected:
                return False
            # Independent model: the product must commute with the faithful
            # 2x2 complex representation, multiplied by sympy.
            if c2(qx * qy) != (c2(qx) * c2(qy)).expand():
                return False
    return True


WHITELIST = (
    ["V5.qq_" + p for p in PAIRS]
    + ["V5.qbarqbar_" + p for p in PAIRS]
    + ["V5.qqbar_" + p for p in ("ab", "ac", "ad")]
    + ["V5.qbarq_" + p for p in ("ab", "ac", "ad")]
    + ["V7.ab.value", "V7.ab.1"]
    + ["V8.1", "V8.4"]
)

# Eq. (15) chain links claiming pb_mn(q, q^2) = -pb_mn(q^2, q), with the unit
# that is the coefficient of the second position variable of the pair.
REFUTED = (("V7.ac.1", "ac", "j"), ("V7.ad.1", "ad", "k"))


def _refuted_link_problem(pair, unit, rng):
    """Check pb_mn(q, q^2) and pb_mn(q^2, q) against a hand derivation.

    With m = a, dq/da = 1 and dq/dn = u, so d(q^2)/da = 2q and, by the
    product rule with coefficients kept in order, d(q^2)/dn = uq + qu.
    Both brackets then reduce to q u - u q: the two sides of the printed
    link are equal, and nonzero wherever the commutator is, so they are not
    opposite. The expected values use plain Quaternion arithmetic only.
    """
    u = _UNIT_QUATS[unit]
    forward = evaluate_text(f"pb_{pair}(q, q^2)")
    backward = evaluate_text(f"pb_{pair}(q^2, q)")
    nonzero = False
    for _ in range(10):
        point = {name: oracle.random_rational(rng) for name in POSITIONS}
        qv = Quaternion(*(point[name] for name in POSITIONS))
        dq_m, dq_n = ONE, u
        dq2_m, dq2_n = qv * 2, u * qv + qv * u
        commutator = qv * u - u * qv
        if (dq_m * dq2_n - dq_n * dq2_m != commutator
                or dq2_m * dq_n - dq2_n * dq_m != commutator):
            return f"pb_{pair} hand derivation at {point}"
        if (forward.evaluate(point) != commutator
                or backward.evaluate(point) != commutator):
            return f"pb_{pair} engine value differs from [q, {unit}] at {point}"
        nonzero = nonzero or not commutator.is_zero()
    return None if nonzero else f"[q, {unit}] vanished at every sampled point"


def test_criterion_1_verified_match_whitelist(full_report, capsys):
    failures = []
    if not _group_table_ok():
        failures.append("group table")
    by_id = {record.id: record for record in full_report.records}
    for rid in WHITELIST:
        if by_id[rid].status != MATCH:
            failures.append(f"{rid} not MATCH")
    rng = Random(1001)
    for rid, pair, unit in REFUTED:
        if by_id[rid].status != MISMATCH or not by_id[rid].witness:
            failures.append(f"{rid} not a witnessed MISMATCH")
        problem = _refuted_link_problem(pair, unit, rng)
        if problem:
            failures.append(problem)
    ok = not failures
    _announce(capsys, 1, ok,
              "verified-match whitelist reports MATCH, "
              "refuted V7 links report witnessed MISMATCH",
              detail="; ".join(failures))
    assert ok, ("; ".join(failures)
                + " (see the README, 'Refuted chain links')")


# --- criterion 2 -----------------------------------------------------------

EXPECTED_MISMATCHES = [
    "V1.product",
    "V5.qqbar_bc", "V5.qqbar_bd", "V5.qqbar_cd",
    "V5.qbarq_bc", "V5.qbarq_bd", "V5.qbarq_cd",
]

COMPUTED_CONCLUSIONS = {
    "V9.1": MATCH, "V9.2": MISMATCH, "V9.3": MATCH, "V9.4": MATCH,
    "V10.1": MISMATCH, "V10.2": MATCH, "V10.3": MATCH, "V10.4": MISMATCH,
    "V10.5": MATCH, "V10.6": MISMATCH, "V10.7": MATCH, "V10.8": MATCH,
    "V10.9": MATCH,
    "V11.1": MISMATCH, "V11.2": MISMATCH, "V11.3": MISMATCH,
    "V11.4": MISMATCH, "V11.5": MATCH,
}


def test_criterion_2_discrepancy_documentation(verify_cli_json, capsys):
    code, _, data = verify_cli_json
    problems = []
    if code != 0:
        problems.append(f"verify exited {code}")
    records = {r["id"]: r for r in data["records"]}
    if set(records) != set(identity_ids()):
        problems.append("coverage gap")
    counts = {}
    for rid in records:
        group = rid.split(".", 1)[0]
        counts[group] = counts.get(group, 0) + 1
    if counts != COVERAGE:
        problems.append("group counts off")
    for rid in EXPECTED_MISMATCHES:
        if records[rid]["status"] != MISMATCH or not records[rid].get("witness"):
            problems.append(f"{rid} not a witnessed MISMATCH")
    for rid, status in COMPUTED_CONCLUSIONS.items():
        if records[rid]["status"] != status:
            problems.append(f"{rid} reported {records[rid]['status']}")
    # Every record was evaluated through both backends; a disagreement
    # anywhere aborts the run with a divergence error instead of a report.
    if data["summary"]["not_comparable"] != 0:
        problems.append("not-comparable records present")
    ok = not problems
    _announce(capsys, 2, ok, "full verify run documents all discrepancies",
              detail="; ".join(problems))
    assert ok, problems


# --- criterion 3 -----------------------------------------------------------

def test_criterion_3_oracle_equivalence(capsys):
    rng = Random(20031)
    bad = None
    for trial in range(200):
        f = oracle.random_qpoly(rng, max_position_degree=4, max_terms=4)
        g = oracle.random_qpoly(rng, max_position_degree=4, max_terms=4)
        if star(f, g) != oracle.star_oracle(f, g):
            bad = trial
            break
    ok = bad is None
    _announce(capsys, 3, ok, "star equals the independent oracle on 200 pairs",
              detail="" if ok else f"disagreement at trial {bad}")
    assert ok


# --- criterion 4 -----------------------------------------------------------

def test_criterion_4_deformation_structure(capsys):
    rng = Random(4004)
    half = QPolynomial.constant(Fraction(1, 2))
    bad = None
    for trial in range(100):
        f = oracle.random_qpoly(rng, max_position_degree=3, max_terms=3)
        g = oracle.random_qpoly(rng, max_position_degree=3, max_terms=3)
        product = star(f, g)
        if product.coefficient_of_nu_power(0) != f * g:
            bad = f"order 0 at trial {trial}"
            break
        first = QPolynomial.constant(0)
        for pair in PAIRS:
            theta = QPolynomial.variable("Theta_" + pair)
            first = first + half * theta * poisson_bracket(f, g, pair)
        if product.coefficient_of_nu_power(1) != first:
            bad = f"order 1 at trial {trial}"
            break
    ok = bad is None
    _announce(capsys, 4, ok,
              "nu^0 term is the point product, nu^1 term is the half bracket",
              detail=bad or "")
    assert ok, bad


# --- criterion 5 -----------------------------------------------------------

def test_criterion_5_classical_limit(capsys):
    rng = Random(5005)
    bad = None
    for trial in range(100):
        f = _rand_real_poly(rng)
        g = _rand_real_poly(rng)
        h = _rand_real_poly(rng)
        if not associator(f, g, h).is_zero():
            bad = f"nonzero associator at trial {trial}"
            break
        if any(poisson_bracket(f, g, p) != -poisson_bracket(g, f, p)
               for p in PAIRS):
            bad = f"bracket not antisymmetric at trial {trial}"
            break
    ok = bad is None
    _announce(capsys, 5, ok,
              "real-subfield triples: zero associator, antisymmetric bracket",
              detail=bad or "")
    assert ok, bad


# --- criterion 6 -----------------------------------------------------------

def test_criterion_6_algebraic_laws(capsys):
    rng = Random(6006)
    problems = []

    for _ in range(100):
        q1, q2, q3 = (_rand_quat(rng) for _ in range(3))
        if (q1 * q2) * q3 != q1 * (q2 * q3):
            problems.append("quaternion associativity")
            break
    for _ in range(100):
        q1, q2 = _rand_quat(rng), _rand_quat(rng)
        if (q1 * q2).norm_sq() != q1.norm_sq() * q2.norm_sq():
            problems.append("norm multiplicativity")
            break
    for _ in range(100):
        q1, q2 = _rand_quat(rng), _rand_quat(rng)
        if (q1 * q2).conj() != q2.conj() * q1.conj():
            problems.append("conjugation anti-automorphism")
            break
    for _ in range(100):
        q = _rand_quat(rng)
        while q.is_zero():
            q = _rand_quat(rng)
        if q * q.inverse() != ONE or q.inverse() * q != ONE:
            problems.append("inverse law")
            break

    one = QPolynomial.constant(1)
    zero = QPolynomial.constant(0)
    for _ in range(100):
        f, g, h = (oracle.random_qpoly(rng, 2, 3, include_params=True)
                   for _ in range(3))
        ring_ok = (
            f + g == g + f
            and (f + g) + h == f + (g + h)
            and (f * g) * h == f * (g * h)
            and f * (g + h) == f * g + f * h
            and (f + g) * h == f * h + g * h
            and f * one == f and one * f == f
            and f + zero == f and f * zero == zero
        )
        if not ring_ok:
            problems.append("polynomial ring axioms")
            break
    for trial in range(100):
        f, g = (oracle.random_qpoly(rng, 3, 3) for _ in range(2))
        var = POSITIONS[trial % 4]
        if (f * g).partial(var) != f.partial(var) * g + f * g.partial(var):
            problems.append("Leibniz rule")
            break
    for trial in range(100):
        f = oracle.random_qpoly(rng, 4, 4, include_params=True)
        m = POSITIONS[trial % 4]
        n = POSITIONS[(trial // 4 + 1 + trial) % 4]
        if f.partial(m).partial(n) != f.partial(n).partial(m):
            problems.append("mixed-partial commutation")
            break

    ok = not problems
    _announce(capsys, 6, ok,
              "algebraic law suite holds on 100 seeded instances per law",
              detail="; ".join(problems))
    assert ok, problems


# --- criterion 7 -----------------------------------------------------------

def test_criterion_7_termination_and_performance(capsys):
    rng = Random(7007)

    def degree_six(seed_poly):
        forced = (QPolynomial.variable("a") ** 2
                  * QPolynomial.variable("b") ** 2
                  * QPolynomial.variable("c")
                  * QPolynomial.variable("d"))
        return seed_poly + forced

    f = degree_six(oracle.random_qpoly(rng, max_position_degree=6, max_terms=5))
    g = degree_six(oracle.random_qpoly(rng, max_position_degree=6, max_terms=5))
    assert f.position_degree() == 6 and g.position_degree() == 6
    start = time.perf_counter()
    product = star(f, g)
    elapsed = time.perf_counter() - start
    ok = elapsed < 1.0 and product.nu_degree() <= 6
    _announce(capsys, 7, ok,
              "degree-6 star terminates under 1 s with nu-degree <= 6",
              detail=f"{elapsed:.3f} s, nu-degree {product.nu_degree()}")
    assert ok, (elapsed, product.nu_degree())


def test_worst_case_power_under_one_second():
    """q^60, with 20,336 terms, is the worst-case polynomial power."""
    q = gen_q()
    start = time.perf_counter()
    power = q ** 60
    elapsed = time.perf_counter() - start
    assert len(power) == 20336 and elapsed < 1.0, elapsed


def test_worst_case_star_under_two_seconds():
    """star(q^8, qbar^8), with 38,336 terms, is the worst-case star product;
    every coefficient of both operands has one nonzero component.  Outside
    the timed region, its value at one seeded point is checked by jets."""
    f, g = gen_q() ** 8, gen_q().conjugate() ** 8
    start = time.perf_counter()
    product = star(f, g)
    elapsed = time.perf_counter() - start
    assert len(product) == 38336 and elapsed < 2.0, elapsed
    point = jet.random_point(Random(8))
    assert [jet.star_at(f, g, point, point[5:], point[4])] == jet.values_at(product, [point])


def test_oracle_degree_six_star_under_three_seconds():
    """The oracle's worst case in tier-1 terms: star_oracle(q^6, qbar^6)
    equals the engine's product in under 3 s."""
    f, g = gen_q() ** 6, gen_q().conjugate() ** 6
    start = time.perf_counter()
    product = oracle.star_oracle(f, g)
    elapsed = time.perf_counter() - start
    assert elapsed < 3.0, elapsed
    assert product == star(f, g)


def test_oracle_degree_seven_star_equals_the_engine():
    """star_oracle(q^7, qbar^7) equals the engine's product: both routes at
    degree 7, 18,008 terms, with no timing bound."""
    f, g = gen_q() ** 7, gen_q().conjugate() ** 7
    product = oracle.star_oracle(f, g)
    assert len(product) == 18008 and product == star(f, g)


# --- criterion 8 -----------------------------------------------------------

def _validate_report_schema(data):
    if list(data) != ["engine_version", "summary", "records"]:
        return "top-level keys"
    if not isinstance(data["engine_version"], str):
        return "engine_version type"
    if list(data["summary"]) != ["match", "mismatch", "not_comparable"]:
        return "summary keys"
    tally = {"MATCH": 0, "MISMATCH": 0, "NOT_COMPARABLE": 0}
    seen = set()
    for record in data["records"]:
        keys = list(record)
        if keys[:5] != ["id", "paper_location", "claim_text",
                        "engine_value", "status"]:
            return f"record keys for {record.get('id')}"
        if keys[5:] not in ([], ["witness"]):
            return f"extra keys for {record['id']}"
        if record["status"] not in tally:
            return f"bad status for {record['id']}"
        if not all(isinstance(record[k], str) for k in keys):
            return f"non-string field for {record['id']}"
        if record["id"] in seen:
            return f"duplicate id {record['id']}"
        seen.add(record["id"])
        tally[record["status"]] += 1
    if data["summary"] != {"match": tally["MATCH"],
                           "mismatch": tally["MISMATCH"],
                           "not_comparable": tally["NOT_COMPARABLE"]}:
        return "summary does not match the records"
    return None


def test_criterion_8_cli_round_trip_and_exit_codes(
        verify_cli_json, capsys, monkeypatch):
    problems = []

    rng = Random(8008)
    for trial in range(100):
        poly = oracle.random_qpoly(rng, max_position_degree=3, max_terms=4,
                                   include_params=trial % 2 == 0)
        if evaluate_text(poly.canonical_text()) != poly:
            problems.append(f"round trip failed at trial {trial}")
            break

    observed = set()
    observed.add(cli.main(["eval", "star(q, qbar)"]))
    observed.add(cli.main(["eval", "q +"]))
    observed.add(cli.main(["eval", "a^2000000"]))
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "star_oracle",
                      lambda f, g, config=None: QPolynomial.constant(0))
        observed.add(cli.main(["verify", "--id", "V8.1"]))
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_engine_star",
                      lambda f, g, config: star(f, g, config)
                      + QPolynomial.variable("nu"))
        observed.add(cli.main(["fuzz", "--trials", "2", "--seed", "0"]))
    capsys.readouterr()
    if observed != {0, 2, 3, 4, 5}:
        problems.append(f"exit codes observed: {sorted(observed)}")

    code, _, data = verify_cli_json
    if code != 0:
        problems.append("verify --format json did not exit 0")
    schema_problem = _validate_report_schema(data)
    if schema_problem:
        problems.append(f"schema: {schema_problem}")

    ok = not problems
    _announce(capsys, 8, ok,
              "CLI round trip, exit codes 0/2/3/4/5, JSON report schema",
              detail="; ".join(problems))
    assert ok, problems


def test_the_package_imports_only_the_standard_library():
    """The runtime needs nothing beyond Python itself: every absolute import
    in `src/quatstar` names a standard-library module."""
    paths = sorted(Path(cli.__file__).parent.glob("*.py"))
    assert len(paths) >= 9
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in sys.stdlib_module_names, (path.name, name)


def _unused_imports(source: str) -> list:
    """The names that `source` imports and never reads, `__future__` aside."""
    tree = ast.parse(source)
    imported = {(alias.asname or alias.name).partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_every_module_uses_the_names_it_imports():
    """A deletion leaves no stale import behind: each module of
    `src/quatstar` but `__init__.py`, which re-exports, uses every name it
    imports."""
    stale = "from fractions import Fraction\nfrom .poly import a, b\nb()\n"
    assert _unused_imports(stale) == ["Fraction", "a"]
    paths = [path for path in sorted(Path(cli.__file__).parent.glob("*.py"))
             if path.name != "__init__.py"]
    assert len(paths) >= 8
    for path in paths:
        assert _unused_imports(path.read_text(encoding="utf-8")) == [], path.name
