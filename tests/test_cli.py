"""Command line interface: subcommands, outputs, and exit codes."""

import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import quatstar.cli as cli
import quatstar.errors
import quatstar.oracle
from quatstar.errors import DomainError
from quatstar.expr import evaluate_text
from quatstar.poly import QPolynomial
from quatstar.star import star


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_arguments_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2
    assert err


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "eval" in out and "verify" in out and "fuzz" in out


def test_eval_prints_canonical_text(capsys):
    code, out, _ = run_cli(capsys, "eval", "pb_cd(q, q)")
    assert code == 0
    assert out.strip() == "2 i"


def test_eval_star_expansion(capsys):
    code, out, _ = run_cli(capsys, "eval", "star(q, q) - q^2")
    assert code == 0
    assert out.strip() == "k nu Theta_bc - j nu Theta_bd + i nu Theta_cd"


def test_eval_oracle_backend(capsys):
    code, out, _ = run_cli(capsys, "eval", "--backend", "oracle",
                           "star(q, q) - q^2")
    assert code == 0
    assert out.strip() == "k nu Theta_bc - j nu Theta_bd + i nu Theta_cd"


def test_oracle_runs_past_the_recursion_limit(capsys):
    """1,100 nested orders, more than Python's default recursion limit."""
    f, g = QPolynomial.variable("a") ** 1100, QPolynomial.variable("b") ** 1100
    engine = star(f, g)
    assert quatstar.oracle.star_oracle(f, g) == engine
    code, out, _ = run_cli(capsys, "eval", "--backend", "oracle", "star(a^1100, b^1100)")
    assert code == 0
    assert out.strip() == engine.canonical_text()


def test_eval_parse_error_reports_column(capsys):
    code, _, err = run_cli(capsys, "eval", "q +")
    assert code == 2
    assert "column 4" in err


@pytest.mark.parametrize("text", ["1/0", "0/0", "3/0 a", "a^²"])
def test_eval_bad_number_is_parse_error(capsys, text):
    code, out, err = run_cli(capsys, "eval", text)
    assert (code, out) == (2, "")
    assert err.startswith("parse error: column ") and err.count("\n") == 1


def test_eval_unknown_name(capsys):
    code, _, err = run_cli(capsys, "eval", "frob(q)")
    assert code == 2
    assert "unknown name" in err


def test_eval_exponent_overflow_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "eval", "a^2000000")
    assert code == 3
    assert "exponent overflow" in err


@pytest.mark.parametrize("text", ["(a + nu^500000 b)^3", "(nu^700000 b + nu^700000 c)^3",
                                  "star(Theta_ab^1000000 a, b)", "star(a, Theta_ab^1000000 b)",
                                  "star(nu^1000000 a, b)"])
def test_exponent_guard_holds_inside_the_kernels(capsys, text):
    # A multi-term power, a Theta factor on either operand and the nu^s shift
    # each overflow; the star kernel shifts Theta into the right operand's
    # derivatives.  The running power's nu^1400000 must be caught before a
    # third factor carries it out of its exponent field.
    with pytest.raises(DomainError, match="exponent overflow"):
        evaluate_text(text)
    code, _, err = run_cli(capsys, "eval", text)
    assert code == 3
    assert "exponent overflow" in err


@pytest.mark.parametrize("text", ["(" * 3000 + "a" + ")" * 3000,
                                  "0" + "-" * 3000 + "a"],
                         ids=["parentheses", "unary-minus"])
def test_eval_deep_nesting_is_parse_error(capsys, text):
    code, _, err = run_cli(capsys, "eval", text)
    assert code == 2
    assert err.count("\n") == 1
    assert "nested deeper than 100 levels" in err


@pytest.mark.parametrize("flags, text", [((), "star(Theta_ab^1000000 a, b)"),
                                         ((), "star(nu^1000000 a, b)"),
                                         (("--nu", "1"), "star(Theta_ab^1000000 a, b)")])
def test_oracle_backend_keeps_the_exponent_guard(capsys, flags, text):
    # The oracle's path weights meet the product terms as packed monomials,
    # so the Theta and nu exponents must still pass the guarded product.  With
    # a numeric nu no later product would catch an unguarded Theta exponent.
    code, _, err = run_cli(capsys, "eval", "--backend", "oracle", *flags, text)
    assert code == 3
    assert "exponent overflow" in err


@pytest.mark.parametrize("backend", ["engine", "oracle"])
def test_capped_order_that_cancels_still_overflows_on_both_backends(capsys, backend):
    # Order 1 forms nu^1000001 terms that cancel; both routes guard them.
    code, out, err = run_cli(capsys, "eval", "--backend", backend, "--order-cap", "1",
                             "star(nu^500000 a b, nu^500000 a b)")
    assert (code, out) == (3, "")
    assert "exponent overflow" in err


@pytest.mark.parametrize("text, expected", [("+".join(["a"] * 3000), "3000 a"),
                                            ("-".join(["a"] * 3000), "-2998 a"),
                                            (" ".join(["a"] * 3000), "a^3000")],
                         ids=["sum", "difference", "juxtaposition"])
def test_eval_long_flat_chain(capsys, text, expected):
    # flat chains do not nest, so they are not capped and must not overflow the stack
    code, out, err = run_cli(capsys, "eval", text)
    assert (code, out.strip(), err) == (0, expected, "")


def test_eval_theta_and_nu_flags(capsys):
    code, out, _ = run_cli(capsys, "eval", "--theta", "zero", "star(q, q)")
    assert code == 0
    assert "Theta" not in out
    code, out, _ = run_cli(capsys, "eval", "--theta", "cd=1", "--nu", "1",
                           "star(q, q) - q^2")
    assert code == 0
    assert out.strip() == "i"
    code, out, _ = run_cli(capsys, "eval", "--nu", "0", "star(q, q) - q^2")
    assert code == 0
    assert out.strip() == "0"


def test_bad_theta_and_nu_flags(capsys):
    assert run_cli(capsys, "eval", "--theta", "zz=1", "q")[0] == 2
    assert run_cli(capsys, "eval", "--theta", "ab", "q")[0] == 2
    assert run_cli(capsys, "eval", "--nu", "half", "q")[0] == 2
    assert run_cli(capsys, "eval", "--order-cap", "-1", "q")[0] == 2


@pytest.mark.parametrize("flag, value", [("--theta", "ab=x"), ("--theta", "ab=1=2"),
                                         ("--theta", "=1"), ("--theta", "zz=1"),
                                         ("--theta", "ab"), ("--nu", "half"), ("--nu", "1/0"),
                                         ("--nu", "0.5"), ("--nu", "1e3"), ("--nu", "1_000"),
                                         ("--order-cap", "-1"), ("--order-cap", "1_0"),
                                         ("--order-cap", "2.0")])
def test_bad_flag_value_is_one_argparse_error(capsys, flag, value):
    # Flag rationals are read with the expression grammar: p/q, no decimals or exponents;
    # --order-cap takes decimal digits only, as the fuzz counts do.
    code, out, err = run_cli(capsys, "eval", flag, value, "q")
    assert (code, out) == (2, "")
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith(f"quatstar eval: error: argument {flag}: ")


@pytest.mark.parametrize("argv", [("--nu", "a"), ("--nu=--1",)], ids=["name", "double-minus"])
def test_nu_that_parses_to_no_rational(capsys, argv):
    code, out, err = run_cli(capsys, "eval", *argv, "q")
    assert (code, out) == (2, "")
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "argument --nu: expected a rational like 2/3" in errors[0]


@pytest.mark.parametrize("value", ["", ",", " , "])
def test_theta_without_an_assignment_is_usage_error(capsys, value):
    # Theta = 0 is spelled "zero"; an empty assignment list is no second spelling.
    code, out, err = run_cli(capsys, "eval", "--theta", value, "star(a, b)")
    assert (code, out) == (2, "")
    assert "argument --theta: no pair=value assignment" in err


@pytest.mark.parametrize("value", ["ab=1,ab=2", "ab=1, ab =1", "cd=1,,ab=0,ab=0"])
def test_theta_pair_assigned_twice_is_usage_error(capsys, value):
    # One value per pair: a repeated pair is refused, not silently overwritten.
    code, out, err = run_cli(capsys, "eval", "--theta", value, "star(q, q)")
    assert (code, out) == (2, "")
    assert "argument --theta: Theta pair 'ab' is assigned twice" in err


def test_nu_with_a_huge_exponent_is_rejected_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "eval", "--nu", "1e10000000", "star(a, b)")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "argument --nu: " in err


@pytest.mark.parametrize("argv, expected", [
    (("--theta", "ab=1/2,cd=-2", "--nu", "1", "star(q, q) - q^2"), "-2 i"),
    (("--nu=-2/3", "star(a, b)"), "a b - 1/3 Theta_ab"),
    (("--theta", "ab=1,,cd=2", "star(a, b)"), "a b + 1/2 nu"),
    (("--theta", " ab = 1 , cd=2/4", "--nu", " 2 ", "star(a, b)"), "a b + 1")],
    ids=["negative-theta", "negative-nu", "empty-chunk", "spaces"])
def test_flag_rationals_that_stay_accepted(capsys, argv, expected):
    # A leading minus needs the '=' form (--nu=-2/3), as argparse reads "-2/3" as an option.
    code, out, err = run_cli(capsys, "eval", *argv)
    assert (code, out, err) == (0, expected + "\n", "")


def test_result_past_the_digit_limit_is_domain_error(capsys):
    # 10^4300 has 4,301 digits, one more than Python's default int/str limit.
    code, out, err = run_cli(capsys, "eval", "(10^430)^10")
    assert (code, out) == (3, "")
    assert err.startswith("evaluation error: coefficient over ") and err.count("\n") == 1


@pytest.mark.parametrize("prefix, column", [("", 1), ("a^", 3)])
def test_literal_past_the_digit_limit_is_parse_error(capsys, prefix, column):
    code, out, err = run_cli(capsys, "eval", prefix + "7" * 4401)
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: column {column}: ") and err.count("\n") == 1


def test_main_catches_only_package_errors():
    # A builtin such as ValueError in main's handlers would turn a fault anywhere
    # below it into a usage exit; SystemExit is caught around parse_args only.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    tries = [node for node in ast.walk(main) if isinstance(node, ast.Try)]
    assert len(tries) == 2
    for node in tries:
        parses_args = any(isinstance(sub, ast.Attribute) and sub.attr == "parse_args"
                          for stmt in node.body for sub in ast.walk(stmt))
        for handler in node.handlers:
            names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            for name in names:
                assert isinstance(name, ast.Name), ast.dump(handler)
                if name.id == "SystemExit":
                    assert parses_args
                    continue
                cls = vars(quatstar.errors).get(name.id)
                assert isinstance(cls, type) and issubclass(cls, quatstar.errors.QuatstarError), name.id


def test_module_entry_point_exit_codes():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for argv, code in ((("eval", "star(q, qbar)"), 0), (("eval", "q +"), 2),
                       (("eval", "--nu", "0.5", "q"), 2), (("eval", "a^2000000"), 3)):
        proc = subprocess.run([sys.executable, "-m", "quatstar.cli", *argv], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr
        assert bool(proc.stdout) == (code == 0) and bool(proc.stderr) == (code != 0)


def test_verify_single_identity(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "V8.1")
    assert code == 0
    assert "MATCH" in out and "V8.1" in out


def test_verify_unknown_identity(capsys):
    code, _, err = run_cli(capsys, "verify", "--id", "bogus")
    assert code == 2
    assert "valid ids" in err and "V8.1" in err


def test_verify_json_to_file(verify_cli_json):
    code, raw, data = verify_cli_json
    assert code == 0
    assert list(data) == ["engine_version", "summary", "records"]
    assert data["summary"] == {
        "match": 94, "mismatch": 30, "not_comparable": 0}
    assert len(data["records"]) == 124
    assert raw.index('"engine_version"') < raw.index('"summary"')
    assert raw.index('"summary"') < raw.index('"records"')


def test_verify_unwritable_out_path(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "verify", "--id", "V8.1", "--out", str(target))
    assert code == 2
    assert not out
    assert err.count("\n") == 1
    assert str(target) in err and "No such file or directory" in err


def test_verify_out_path_with_a_nul_byte(capsys, tmp_path):
    # The command line cannot pass a NUL byte, but cli.main can; open() raises ValueError.
    code, out, err = run_cli(capsys, "verify", "--id", "V8.1", "--out", f"{tmp_path}/a\0b")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.endswith(": embedded null byte\n")


def test_verify_group_json_stdout(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "V6",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [r["id"] for r in data["records"]] == [
        "V6.ab", "V6.ac", "V6.ad", "V6.bc", "V6.bd", "V6.cd"]


def test_verify_divergence_exit_code(capsys, monkeypatch):
    def lying_oracle(f, g, config=None):
        return QPolynomial.constant(0)

    monkeypatch.setattr(quatstar.oracle, "star_oracle", lying_oracle)
    code, _, err = run_cli(capsys, "verify", "--id", "V8.1")
    assert code == 4
    assert "diverge" in err


def test_fuzz_agreement(capsys):
    code, out, _ = run_cli(capsys, "fuzz", "--trials", "20", "--seed", "7")
    assert code == 0
    assert out.strip() == "ok: 20 trials, engine and oracle agree"


def test_fuzz_params_and_degree_flags(capsys):
    code, out, _ = run_cli(capsys, "fuzz", "--trials", "5", "--seed", "1",
                           "--max-degree", "2", "--params")
    assert code == 0
    assert "ok: 5 trials" in out


@pytest.mark.parametrize("flag", ["--trials", "--max-degree"])
def test_fuzz_rejects_negative_counts(capsys, flag):
    code, out, err = run_cli(capsys, "fuzz", flag, "-5")
    assert code == 2
    assert not out
    assert f"argument {flag}: expected a non-negative int, got '-5'" in err


def test_fuzz_counterexample_exit_code(capsys, monkeypatch):
    def skewed(f, g, config):
        return star(f, g, config) + QPolynomial.variable("nu")

    monkeypatch.setattr(cli, "_engine_star", skewed)
    code, out, _ = run_cli(capsys, "fuzz", "--trials", "3", "--seed", "0")
    assert code == 5
    assert "counterexample at trial 0" in out
    assert "f =" in out and "g =" in out
    assert "engine:" in out and "oracle:" in out


def test_fuzz_prints_the_products_that_decided_it(capsys, monkeypatch):
    """An engine skewed only while f has two or more terms: the shrinker
    keeps the last pair that disagrees, and the report prints it with the
    two products of that pair's verdict."""
    def skewed(f, g, config):
        product = star(f, g, config)
        return product + QPolynomial.variable("nu") if len(f) >= 2 else product

    monkeypatch.setattr(cli, "_engine_star", skewed)
    code, out, _ = run_cli(capsys, "fuzz", "--trials", "50", "--seed", "3", "--params",
                           "--theta", "ab=1,cd=-2")
    assert code == 5
    assert out == ("counterexample at trial 0:\n"
                   "  f = (2 + 4 i - 3/4 j + 2 k) a b c d + (-9 - 4 i - 1/4 k) b^3\n"
                   "  g = 0\n"
                   "  engine: nu\n"
                   "  oracle: 0\n")


def test_table_brackets(capsys):
    code, out, _ = run_cli(capsys, "table", "--brackets")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 24
    assert any("{q, q}_bc" in line and "2 k" in line for line in lines)
    assert any("{qbar, q}_ab" in line for line in lines)
    cells = [line.split("=")[0] for line in lines]
    assert len({len(cell) for cell in cells}) == 1


def test_table_without_flag(capsys):
    code, _, err = run_cli(capsys, "table")
    assert code == 2
    assert "--brackets" in err
