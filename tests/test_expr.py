"""Expression grammar: tokens, precedence, calls, errors, round trips."""

import importlib
import inspect
from fractions import Fraction

import pytest

import quatstar.oracle
from quatstar import cli, verify
from quatstar.errors import DomainError, ParseError
from quatstar.expr import evaluate_text, lower, lower_routes, parse_expression, tokenize
from quatstar.poly import QPolynomial, gen_q, gen_qbar
from quatstar.quat import I, K
from quatstar.star import StarConfig, ThetaSpec, star
from test_golden import CONFIGS

A = QPolynomial.variable("a")
B = QPolynomial.variable("b")
C = QPolynomial.variable("c")


def test_atoms():
    assert evaluate_text("q") == gen_q()
    assert evaluate_text("qbar") == gen_qbar()
    assert evaluate_text("a") == A
    assert evaluate_text("i") == QPolynomial.constant(I)
    assert evaluate_text("nu") == QPolynomial.variable("nu")
    assert evaluate_text("Theta_bc") == QPolynomial.variable("Theta_bc")
    assert evaluate_text("7") == QPolynomial.constant(7)
    assert evaluate_text("3/2") == QPolynomial.constant(Fraction(3, 2))


def test_juxtaposition_is_multiplication():
    assert evaluate_text("2 i a") == QPolynomial.constant(I * 2) * A
    assert evaluate_text("a b") == A * B
    assert evaluate_text("2a") == 2 * A
    assert evaluate_text("i j") == QPolynomial.constant(K)
    assert evaluate_text("nu (a + b)") == QPolynomial.variable("nu") * (A + B)


def test_explicit_star_operator_matches_juxtaposition():
    assert evaluate_text("a * b") == evaluate_text("a b")
    assert evaluate_text("2 * i * a") == evaluate_text("2 i a")


def test_power_binds_tighter_than_juxtaposition():
    assert evaluate_text("a b^2") == A * B * B
    assert evaluate_text("(a b)^2") == (A * B) ** 2
    assert evaluate_text("q^2") == gen_q() * gen_q()
    assert evaluate_text("a^0") == QPolynomial.constant(1)


def test_unary_minus_and_subtraction():
    assert evaluate_text("-a") == -A
    assert evaluate_text("-a b") == -(A * B)
    assert evaluate_text("a -b") == A - B
    assert evaluate_text("a - -b") == A + B
    assert evaluate_text("-2 k c") == QPolynomial.constant(K * -2) * C


def test_precedence_of_sum_and_product():
    assert evaluate_text("a + b c^2") == A + B * C * C
    assert evaluate_text("(a + b) c") == (A + B) * C


def test_calls():
    q = gen_q()
    qbar = gen_qbar()
    assert evaluate_text("conj(q)") == qbar
    assert evaluate_text("star(q, qbar)") == star(q, qbar)
    assert evaluate_text("comm(q, qbar)") == star(q, qbar) - star(qbar, q)
    assert evaluate_text("assoc(q, q, q)").is_zero()
    assert evaluate_text("pb_cd(q, q)") == QPolynomial.constant(I * 2)
    assert str(evaluate_text("pb_cd(q, q)")) == "2 i"


def test_oracle_backend_agrees():
    for text in ("star(q, qbar)", "pb_bc(q, q^2)", "comm(q, q^2)",
                 "assoc(q, qbar, q)"):
        assert evaluate_text(text, backend="oracle") == evaluate_text(text)
    with pytest.raises(ValueError):
        evaluate_text("q", backend="guess")


def test_oracle_route_is_read_at_call_time(monkeypatch, capsys):
    # Patching the oracle module reaches expression lowering and `eval
    # --backend oracle`, and leaves the engine route alone.
    marker = QPolynomial.variable("nu")
    monkeypatch.setattr(quatstar.oracle, "star_oracle", lambda f, g, config=None: marker)
    monkeypatch.setattr(quatstar.oracle, "poisson_bracket_oracle", lambda f, g, pair: marker)
    assert evaluate_text("star(q, q)", backend="oracle") == marker
    assert evaluate_text("pb_ab(q, q)", backend="oracle") == marker
    assert cli.main(["eval", "--backend", "oracle", "star(q, q)"]) == 0
    assert capsys.readouterr().out == "nu\n"
    assert evaluate_text("star(q, q)") != marker
    assert evaluate_text("pb_ab(q, q)") != marker


def test_oracle_route_takes_no_star_kernel(monkeypatch):
    # The oracle route composes comm and assoc from star_oracle, so with the
    # engine's row products and partials made to raise it still evaluates
    # them, to the engine's values, while the engine route cannot.
    texts = ("assoc(q, qbar, q^2)", "comm((1 + i) q, qbar)")
    expected = [evaluate_text(text) for text in texts]

    def kernel(*args):
        raise AssertionError("an engine row kernel was reached")

    star_module = importlib.import_module("quatstar.star")
    for name in ("mul_rows", "mul_unit_rows", "add_partial_rows", "add_partial_unit_rows"):
        monkeypatch.setattr(star_module, name, kernel)
    assert [evaluate_text(text, backend="oracle") for text in texts] == expected
    for text in texts:
        with pytest.raises(AssertionError, match="row kernel"):
            evaluate_text(text)


def _claim_texts():
    """Both sides of every polynomial claim in the catalogue, and V11.4's pool."""
    texts = set()
    for entry in verify._registry().values():
        bound = inspect.signature(entry.func).bind(*entry.args, **entry.keywords).arguments
        if entry.func is verify._poly_claim:
            texts |= {bound["lhs"], bound["rhs"]}
        elif entry.func is verify._assoc_search:
            texts |= set(bound["pool"])
    return sorted(texts)


def test_one_walk_equals_a_lower_per_route():
    nodes = [parse_expression(text) for text in _claim_texts()]
    assert len(nodes) == 128
    for config in CONFIGS:
        for node in nodes:
            assert lower_routes(node, config) == (lower(node, config, "engine"),
                                                  lower(node, config, "oracle"))


def test_one_walk_shares_only_what_no_star_call_reaches():
    engine, oracle = lower_routes(parse_expression("q^2 qbar - conj(3 i a)"))
    assert engine is oracle
    engine, oracle = lower_routes(parse_expression("star(q, qbar) + q^2"))
    assert engine is not oracle and engine == oracle


def test_config_threads_through_calls():
    cfg = StarConfig(theta=ThetaSpec.zero())
    assert evaluate_text("star(q, q)", config=cfg) == gen_q() * gen_q()
    cfg_nu = StarConfig(nu=0)
    assert evaluate_text("star(q, qbar)", config=cfg_nu) == gen_q() * gen_qbar()


def test_nested_expression():
    text = "star(q, q) - q^2 - nu (k Theta_bc - j Theta_bd + i Theta_cd)"
    assert evaluate_text(text).is_zero()


def test_tokenizer_columns_and_rationals():
    tokens = tokenize("ab + 3/4")
    assert [(t.kind, t.text, t.column) for t in tokens[:-1]] == [
        ("name", "ab", 1), ("+", "+", 4), ("number", "3/4", 6)]
    with pytest.raises(ParseError) as err:
        tokenize("a $ b")
    assert err.value.column == 3


@pytest.mark.parametrize("text, expected", [
    ("2\u00b2", 2),                  # superscript two: a digit, no decimal
    ("\u00bd", 1),                   # vulgar half: numeric, no digit
    ("\u2167", 1),                   # Roman numeral eight: a letter number
    ("\u0661\u0662 a", [("number", "\u0661\u0662", 1), ("name", "a", 4)]),
    ("\u00e92", [("name", "\u00e92", 1)]),
    ("_x", [("name", "_x", 1)]),
    ("a\u00a0b", [("name", "a", 1), ("name", "b", 3)]),   # no-break space
    ("a\u200bb", 2),                 # zero-width space is no whitespace
    ("1/", 2),
    ("1/2/3", 4)])
def test_tokenizer_character_classes(text, expected):
    # An int is the column of the "unexpected character" error.
    if isinstance(expected, int):
        with pytest.raises(ParseError, match="unexpected character") as err:
            tokenize(text)
        assert (err.value.column, err.value.token) == (expected, text[expected - 1])
    else:
        tokens = tokenize(text)
        assert [(t.kind, t.text, t.column) for t in tokens] == expected + [("end", "", len(text) + 1)]


def test_parse_error_unknown_name():
    with pytest.raises(ParseError) as err:
        evaluate_text("zz + 1")
    assert "unknown name" in str(err.value)
    assert err.value.column == 1


def test_parse_error_unknown_function():
    with pytest.raises(ParseError) as err:
        evaluate_text("sin(a)")
    assert "unknown name 'sin'" in str(err.value)


def test_parse_error_function_without_arguments():
    with pytest.raises(ParseError) as err:
        evaluate_text("star + 1")
    assert "needs arguments" in str(err.value)


def test_parse_error_function_without_arguments_names_the_token():
    with pytest.raises(ParseError) as err:
        parse_expression("conj + q")
    assert "(got '+')" in str(err.value)


def test_exactly_one_hundred_nesting_levels_parse():
    assert parse_expression("(" * 100 + "a" + ")" * 100) == parse_expression("a")
    with pytest.raises(ParseError) as err:
        parse_expression("(" * 101 + "a" + ")" * 101)
    assert "nested deeper than 100 levels" in str(err.value)
    # The depth a closed group reached is given back: a sibling group after it
    # starts again from the top level.
    assert parse_expression("(a) + " + "(" * 100 + "a" + ")" * 100) == parse_expression("a + a")
    with pytest.raises(ParseError, match="nested deeper than 100 levels") as err:
        parse_expression("(a) + " + "(" * 101 + "a" + ")" * 101)
    assert err.value.column == 107


def test_parse_error_wrong_arity():
    with pytest.raises(ParseError) as err:
        evaluate_text("star(q)")
    assert "expects 2 arguments" in str(err.value)
    with pytest.raises(ParseError):
        evaluate_text("conj(q, q)")


def test_parse_error_trailing_and_missing_tokens():
    with pytest.raises(ParseError) as err:
        evaluate_text("a b )")
    assert "trailing" in str(err.value)
    with pytest.raises(ParseError):
        evaluate_text("(a + b")
    with pytest.raises(ParseError):
        evaluate_text("a +")
    with pytest.raises(ParseError):
        evaluate_text("")


def test_parse_error_bad_exponent():
    with pytest.raises(ParseError) as err:
        evaluate_text("a^b")
    assert "natural number" in str(err.value)
    with pytest.raises(ParseError):
        evaluate_text("a^3/2")
    with pytest.raises(ParseError):
        evaluate_text("a^(2)")


@pytest.mark.parametrize("text, column", [("1/0", 1), ("0/0", 1), ("3/0 a", 1),
                                          ("a + 2/00", 5)])
def test_zero_denominator_is_parse_error(text, column):
    with pytest.raises(ParseError, match="zero denominator") as err:
        evaluate_text(text)
    assert err.value.column == column


def test_numbers_are_decimal_digits_only():
    # "²" is a digit to str.isdigit but no decimal digit to int() or Fraction().
    for text, column in (("a^²", 3), ("a ²", 3), ("²", 1)):
        with pytest.raises(ParseError, match="unexpected character") as err:
            evaluate_text(text)
        assert err.value.column == column


@pytest.mark.parametrize("prefix, column", [("", 1), ("a^", 3), ("a + 1/", 5)])
def test_number_past_the_digit_limit_is_parse_error(prefix, column):
    # 4,401 digits, past Python's default int/str limit of 4,300.
    with pytest.raises(ParseError, match="integer over 4300 digits") as err:
        evaluate_text(prefix + "7" * 4401)
    assert err.value.column == column


def test_fraction_token_requires_tight_slash():
    with pytest.raises(ParseError):
        evaluate_text("3 / 2")


def test_evaluation_domain_error_propagates():
    with pytest.raises(DomainError):
        evaluate_text("a^2000000")


def test_round_trip_through_canonical_text():
    texts = [
        "q^2", "star(q, q)", "pb_ab(q, qbar)", "qbar^3",
        "(1 + i) a b - 3/2 c", "comm(q, qbar)", "nu Theta_ab a",
        "star(q, star(q, qbar))", "-a + 2 b c^2", "0",
    ]
    for text in texts:
        value = evaluate_text(text)
        assert evaluate_text(value.canonical_text()) == value


def test_lower_rejects_a_node_it_does_not_know():
    with pytest.raises(TypeError, match="unexpected node"):
        lower(object())
