"""Expression text for the CLI and the verifier.

Grammar (whitespace separates tokens but is otherwise ignored):

    expr    := term (('+' | '-') term)*
    term    := '-' term
             | factor (('*' factor) | factor)*      juxtaposition multiplies
    factor  := primary ('^' NATURAL)?
    primary := RATIONAL | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

A RATIONAL is digits optionally followed immediately by '/' and digits
("3", "2/3"), over a nonzero denominator, with no more digits in either
integer than Python's int/str limit; there is no division operator.  '^'
binds tighter than juxtaposition, juxtaposition binds exactly like '*', and
a juxtaposed factor may not start with '-' (so "a -b" is a subtraction).
Names are the generators q and qbar, the units i, j, k, the eleven
variables, and the call forms star(f,g), comm(f,g), assoc(f,g,h), conj(f),
pb_mn(f,g) with mn one of the six `PAIRS`, ab .. cd.  Call arity is checked at
parse time, and so is nesting: parentheses, call arguments and unary minus
signs nest at most MAX_NESTING deep.
"""

from __future__ import annotations

import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .poly import PAIRS, QPolynomial, VARIABLES, gen_q, gen_qbar
from . import oracle as _oracle
from . import quat as _quat
from .star import DEFAULT_CONFIG, StarConfig, associator as _engine_assoc, star as _engine_star
from .star import poisson_bracket as _engine_bracket, star_commutator as _engine_comm

# --- tokens -----------------------------------------------------------------

_SYMBOLS = "+-*^(),"


@dataclass(frozen=True)
class Token:
    kind: str   # "number", "name", one of _SYMBOLS, "end"
    text: str
    column: int  # 1-based


# A number, a run of word characters, or any other single character; only
# whitespace matches none of them, so finditer steps over it.
_TOKEN = re.compile(r"(\d+(?:/\d+)?)|(\w+)|\S")


def tokenize(text: str) -> list:
    tokens = []
    for match in _TOKEN.finditer(text):
        number, word = match.groups()
        tok, col = match.group(), match.start() + 1
        if number:
            kind = "number"
        elif word and (tok[0].isalpha() or tok[0] == "_"):
            kind = "name"
        elif tok in _SYMBOLS:
            kind = tok
        else:
            raise ParseError("unexpected character", col, token=tok[0])
        tokens.append(Token(kind, tok, col))
    tokens.append(Token("end", "", len(text) + 1))
    return tokens


# --- syntax tree ------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str     # "+", "-" or "*"
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


_CALLS = {"star": 2, "comm": 2, "assoc": 3, "conj": 1,
          **{"pb_" + pair: 2 for pair in PAIRS}}
_ATOMS = ("q", "qbar", "i", "j", "k") + VARIABLES

_PRIMARY_STARTS = ("number", "name", "(")

# The parser recurses a few frames per nesting level and lowering one or two,
# so this keeps both well inside Python's default recursion limit of 1000.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def close(self) -> Token:
        """Take the ')' that ends a group or an argument list."""
        tok = self.peek()
        if tok.kind != ")":
            raise ParseError("unexpected token", tok.column,
                             token=tok.text or "end of input", expected=("')'",))
        return self.advance()

    def number(self) -> Fraction:
        """Take a number token: its value, or a ParseError at its column."""
        tok = self.advance()
        try:
            return Fraction(*map(int, tok.text.split("/")))
        except ZeroDivisionError:
            raise ParseError("zero denominator", tok.column, token=tok.text) from None
        except ValueError:  # a part past Python's int/str digit limit
            raise ParseError(f"integer over {sys.get_int_max_str_digits()} digits",
                             tok.column) from None

    def nested(self, parse, tok):
        """parse() one nesting level below `tok`, the token that opened it."""
        if self.depth >= MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels",
                             tok.column, token=tok.text)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError("unexpected trailing input", tok.column,
                             token=tok.text, expected=("'+'", "'-'", "end of input"))
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            node = BinOp(self.advance().kind, node, self.term())
        return node

    def term(self):
        if self.peek().kind == "-":
            return Neg(self.nested(self.term, self.advance()))
        node = self.factor()
        while True:
            kind = self.peek().kind
            if kind == "*":
                self.advance()
            elif kind not in _PRIMARY_STARTS:
                return node
            node = BinOp("*", node, self.factor())

    def factor(self):
        node = self.primary()
        if self.peek().kind == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "number" or "/" in tok.text:
                raise ParseError("exponent must be a natural number", tok.column,
                                 token=tok.text or "end of input",
                                 expected=("natural number",))
            node = Pow(node, self.number().numerator)
        return node

    def primary(self):
        tok = self.peek()
        if tok.kind == "number":
            return Num(self.number())
        if tok.kind == "(":
            node = self.nested(self.expr, self.advance())
            self.close()
            return node
        if tok.kind == "name":
            self.advance()
            if tok.text in _CALLS:
                opener = self.peek()
                if opener.kind != "(":
                    raise ParseError(
                        f"{tok.text} is a function and needs arguments",
                        opener.column, token=opener.text or "end of input",
                        expected=("'('",))
                self.advance()
                args = [self.nested(self.expr, opener)]
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.nested(self.expr, opener))
                closer = self.close()
                want = _CALLS[tok.text]
                if len(args) != want:
                    raise ParseError(
                        f"{tok.text} expects {want} argument{'s' if want != 1 else ''}, got {len(args)}",
                        closer.column, token=")")
                return Call(tok.text, tuple(args))
            if tok.text not in _ATOMS:
                raise ParseError(f"unknown name {tok.text!r}", tok.column,
                                 token=tok.text)
            return Name(tok.text)
        raise ParseError("unexpected token", tok.column,
                         token=tok.text or "end of input",
                         expected=("number", "name", "'('", "'-'"))


def parse_expression(text: str):
    """Parse expression text to a syntax tree (raises ParseError)."""
    return _Parser(tokenize(text)).parse()


# --- lowering to polynomials ------------------------------------------------

def _atom_poly(ident: str) -> QPolynomial:
    if ident == "q":
        return gen_q()
    if ident == "qbar":
        return gen_qbar()
    if ident == "i":
        return QPolynomial.constant(_quat.I)
    if ident == "j":
        return QPolynomial.constant(_quat.J)
    if ident == "k":
        return QPolynomial.constant(_quat.K)
    return QPolynomial.variable(ident)


_CHAIN_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def lower(node, config: StarConfig = DEFAULT_CONFIG,
          backend: str = "engine") -> QPolynomial:
    """Evaluate a syntax tree to a polynomial.

    Star products (star, comm, assoc) are computed by the chosen backend
    under `config`; bare nu/Theta atoms always denote the formal variables.
    """
    if backend == "engine":
        star_fn, bracket_fn = _engine_star, _engine_bracket
        comm_fn, assoc_fn = _engine_comm, _engine_assoc
    elif backend == "oracle":
        star_fn, bracket_fn = _oracle.star_oracle, _oracle.poisson_bracket_oracle
        comm_fn = lambda f, g, c: star_fn(f, g, c) - star_fn(g, f, c)
        assoc_fn = lambda f, g, h, c: star_fn(star_fn(f, g, c), h, c) - star_fn(f, star_fn(g, h, c), c)
    else:
        raise ValueError(f"unknown backend {backend!r}")

    def go(n):
        if isinstance(n, Num):
            return QPolynomial.constant(n.value)
        if isinstance(n, Name):
            return _atom_poly(n.ident)
        if isinstance(n, Neg):
            return -go(n.operand)
        if isinstance(n, BinOp):
            # The parser builds flat sums and products as left-deep chains:
            # walk the left spine without recursion, then fold left to right.
            spine = []
            while isinstance(n, BinOp):
                spine.append(n)
                n = n.left
            acc = go(n)
            for link in reversed(spine):
                acc = _CHAIN_OPS[link.op](acc, go(link.right))
            return acc
        if isinstance(n, Pow):
            return go(n.base) ** n.exponent
        if isinstance(n, Call):
            args = [go(arg) for arg in n.args]
            if n.func == "conj":
                return args[0].conjugate()
            if n.func == "star":
                return star_fn(args[0], args[1], config)
            if n.func == "comm":
                return comm_fn(*args, config)
            if n.func == "assoc":
                return assoc_fn(*args, config)
            # pb_mn
            return bracket_fn(args[0], args[1], n.func[3:])
        raise TypeError(f"unexpected node {n!r}")

    return go(node)


def evaluate_text(text: str, config: StarConfig = DEFAULT_CONFIG,
                  backend: str = "engine") -> QPolynomial:
    return lower(parse_expression(text), config, backend)
