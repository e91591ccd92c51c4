"""The catalogue's 109 polynomial records re-derived on `refimpl`'s third route.

`refimpl.text_parts` walks the syntax tree of quatstar's parser over four
real component dicts, so the route shares the parser with quatstar and no
arithmetic.  Each claim's texts and each search's candidates are read off
the registry, where every record is its builder with the arguments bound.
The status must equal the route's, and the engine value must re-parse to
the route's value: lhs for an equation, lhs - rhs for an inequation.
"""

import inspect
from random import Random

import pytest

import refimpl
from quatstar import verify
from quatstar.verify import MATCH, MISMATCH

SEARCHES = ("V4.fn_noncomm", "V9.3", "V9.4", "V11.5")
V11_4_SAMPLE = 12


def _bound(builder):
    """{id: the builder's arguments by name} for the records it builds."""
    return {rid: inspect.signature(builder).bind(*entry.args, **entry.keywords).arguments
            for rid, entry in verify._registry().items() if entry.func is builder}


def _v11_4_candidates():
    """V11.4's (desc, lhs, rhs) triples, in the order its search screens them."""
    candidates = verify._assoc_candidates(_bound(verify._assoc_search)["V11.4"]["pool"])
    assert len(candidates) == 125
    assert candidates[0] == ("f = q, g = q, h = q", "assoc(q, q, q)", "0")
    assert candidates[-1] == ("f = j q, g = j q, h = j q", "assoc(j q, j q, j q)", "0")
    return candidates


def _records(full_report):
    return {record.id: record for record in full_report.records}


@pytest.fixture(scope="module")
def parts():
    """Expression text -> components on the third route, sharing one memo."""
    memo = {}
    return lambda text: refimpl.text_parts(text, memo)


def test_polynomial_claims_on_the_third_route(full_report, parts):
    records = _records(full_report)
    claims = _bound(verify._poly_claim)
    assert len(claims) == 104
    for rid, args in claims.items():
        equal = args.get("equal", True)
        lv, rv = parts(args["lhs"]), parts(args["rhs"])
        record = records[rid]
        assert record.status == (MATCH if (lv != rv) != equal else MISMATCH), rid
        value = lv if equal else refimpl.difference(lv, rv)
        assert parts(record.engine_value) == value, rid


def test_separating_searches_on_the_third_route(full_report, parts):
    # Each search records the first candidate whose sides differ, as lhs != rhs.
    records = _records(full_report)
    searches = _bound(verify._exists_search)
    assert sorted(searches) == sorted(SEARCHES)
    assert list(_bound(verify._assoc_search)) == ["V11.4"]
    for rid in SEARCHES:
        for desc, lhs, rhs in searches[rid]["candidates"]:
            lv, rv = parts(lhs), parts(rhs)
            if lv != rv:
                break
        else:
            raise AssertionError(f"{rid}: no candidate separates on the third route")
        record = records[rid]
        assert record.status == MATCH and record.witness.startswith(f"{desc}: "), rid
        assert parts(record.engine_value) == refimpl.difference(lv, rv), rid


def test_v11_4_associators_vanish_on_a_seeded_sample(full_report, parts):
    # All 125 are checked by tests/v11_4_full.py, outside tier-1.
    record = _records(full_report)["V11.4"]
    candidates = _v11_4_candidates()
    assert record.status == MISMATCH
    assert record.engine_value == \
        f"both sides equal on all {len(candidates)} candidate substitutions"
    for desc, lhs, rhs in Random(1104).sample(candidates, V11_4_SAMPLE):
        assert rhs == "0" and parts(lhs) == ({}, {}, {}, {}), desc
