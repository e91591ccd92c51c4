"""Command-line front end.

Subcommands:

    eval    evaluate an expression and print its canonical form
    verify  run encoded identity checks and print a report
    fuzz    random differential testing of the star engine vs. the oracle
    table   print reference tables (currently: --brackets)

Exit codes: 0 success, 2 usage/parse/unknown-id errors and unwritable
output files, 3 evaluation domain errors, 4 engine/oracle divergence,
5 fuzz counterexample found.
"""

from __future__ import annotations

import argparse
import sys
from random import Random

from .errors import (DomainError, OracleDivergenceError, ParseError,
                     UnknownIdentityError)
from . import oracle as _oracle
from . import verify as _verify
from .expr import Neg, Num, evaluate_text, parse_expression
from .poly import QPolynomial
from .star import PAIRS, StarConfig, ThetaSpec
from .star import star as _engine_star

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_DIVERGENCE = 4
EXIT_COUNTEREXAMPLE = 5


def _rational(text: str):
    """A rational written as in expressions ('3', '2/3'), optionally negated."""
    try:
        node = parse_expression(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(f"bad rational: {exc}") from None
    value = node.operand if isinstance(node, Neg) else node
    if not isinstance(value, Num):
        raise argparse.ArgumentTypeError(f"expected a rational like 2/3, got {text!r}")
    return value.value if value is node else -value.value


def _theta(text: str) -> ThetaSpec:
    """argparse type of --theta: 'formal', 'zero' or pair=value assignments."""
    if text == "formal":
        return ThetaSpec.formal()
    if text == "zero":
        return ThetaSpec.zero()
    values = {}
    for chunk in filter(str.strip, text.split(",")):
        name, eq, value = chunk.partition("=")
        if not eq:
            raise argparse.ArgumentTypeError(
                f"bad theta assignment {chunk.strip()!r}; expected pair=value")
        if name.strip() in values:
            raise argparse.ArgumentTypeError(f"Theta pair {name.strip()!r} is assigned twice")
        values[name.strip()] = _rational(value)
    if not values:
        raise argparse.ArgumentTypeError(
            f"no pair=value assignment in {text!r}; Theta = 0 is spelled 'zero'")
    try:
        return ThetaSpec.numeric(values)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _nu(text: str):
    """argparse type of --nu: 'formal' or a rational."""
    return text if text == "formal" else _rational(text)


def _count(text: str) -> int:
    """argparse type of the fuzz counts and --order-cap: a non-negative int."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative int, got {text!r}")
    return int(text)


def _config_from_args(args) -> StarConfig:
    return StarConfig(theta=args.theta, nu=args.nu, order_cap=args.order_cap)


def _add_config_flags(parser):
    parser.add_argument("--theta", type=_theta, default="formal",
                        help="'formal', 'zero', or assignments like 'ab=1,cd=-2'")
    parser.add_argument("--nu", type=_nu, default="formal",
                        help="'formal' or a rational value like 1/2")
    parser.add_argument("--order-cap", type=_count, default=None,
                        help="truncate star corrections above this order")


def _cmd_eval(args) -> int:
    config = _config_from_args(args)
    value = evaluate_text(args.expression, config=config, backend=args.backend)
    print(value.canonical_text())
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.id is not None:
        records = _verify.run_matching(args.id)
        report = _verify.DiscrepancyReport(_verify.ENGINE_VERSION, records)
    else:
        report = _verify.run_all()
    rendered = _verify.render_report(report, format=args.format)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered if rendered.endswith("\n") else rendered + "\n")
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
            print(f"error: cannot write {args.out}: {getattr(exc, 'strerror', 0) or exc}",
                  file=sys.stderr)
            return EXIT_USAGE
    else:
        print(rendered)
    return EXIT_OK


def _disagrees(f, g, config):
    """The fuzz verdict: the engine and oracle products if they differ, else None."""
    engine, oracle = _engine_star(f, g, config), _oracle.star_oracle(f, g, config)
    return None if engine == oracle else (engine, oracle)


def _shrink_counterexample(f, g, products, config):
    """Each round keeps the first one-term-smaller pair that still disagrees,
    f's terms tried before g's; returns the last such pair and its products."""
    while True:
        smaller = [(f - QPolynomial([term]), g) for term in f.terms()]
        smaller += [(f, g - QPolynomial([term])) for term in g.terms()]
        for pair in smaller:
            verdict = _disagrees(*pair, config)
            if verdict:
                (f, g), products = pair, verdict
                break
        else:
            return f, g, products


def _cmd_fuzz(args) -> int:
    config = _config_from_args(args)
    rng = Random(args.seed)
    for trial in range(args.trials):
        f = _oracle.random_qpoly(rng, max_position_degree=args.max_degree,
                                 max_terms=4, include_params=args.params)
        g = _oracle.random_qpoly(rng, max_position_degree=args.max_degree,
                                 max_terms=4, include_params=args.params)
        verdict = _disagrees(f, g, config)
        if verdict:
            f, g, (engine, oracle) = _shrink_counterexample(f, g, verdict, config)
            print(f"counterexample at trial {trial}:")
            print(f"  f = {f.canonical_text()}")
            print(f"  g = {g.canonical_text()}")
            print(f"  engine: {engine.canonical_text()}")
            print(f"  oracle: {oracle.canonical_text()}")
            return EXIT_COUNTEREXAMPLE
    print(f"ok: {args.trials} trials, engine and oracle agree")
    return EXIT_OK


def _cmd_table(args) -> int:
    if not args.brackets:
        print("nothing to print; try --brackets", file=sys.stderr)
        return EXIT_USAGE
    operands = (("q", "q"), ("qbar", "qbar"), ("q", "qbar"), ("qbar", "q"))
    rows = []
    for x, y in operands:
        for pair in PAIRS:
            value = evaluate_text(f"pb_{pair}({x}, {y})")
            rows.append((f"{{{x}, {y}}}_{pair}", value.canonical_text()))
    width = max(len(label) for label, _ in rows)
    for label, text in rows:
        print(f"{label:<{width}}  =  {text}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatstar",
        description="Exact star products and Poisson brackets for "
                    "quaternion-valued polynomials.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression")
    p_eval.add_argument("expression")
    p_eval.add_argument("--backend", choices=("engine", "oracle"),
                        default="engine")
    _add_config_flags(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify", help="run encoded identity checks")
    p_verify.add_argument("--id", default=None,
                          help="run one identity or one group prefix (e.g. V8.1 or V5)")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--out", default=None,
                          help="write the report to a file instead of stdout")
    p_verify.set_defaults(func=_cmd_verify)

    p_fuzz = sub.add_parser("fuzz", help="differential-test the star engine")
    p_fuzz.add_argument("--trials", type=_count, default=200)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--max-degree", type=_count, default=4)
    p_fuzz.add_argument("--params", action="store_true",
                        help="let random operands include nu and Theta factors")
    _add_config_flags(p_fuzz)
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_table = sub.add_parser("table", help="print reference tables")
    p_table.add_argument("--brackets", action="store_true",
                         help="print all brackets of q and qbar")
    p_table.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnknownIdentityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OracleDivergenceError as exc:
        print(f"internal divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
