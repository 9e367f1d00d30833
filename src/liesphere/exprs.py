"""Expression language for scalar fields on the parameter domain.

Grammar (documented in the README)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' base)?
    base   := number | 'u' | 'v' | fn '(' expr ')' | '(' expr ')' | '-' base
    fn     := sin | cos | exp | ln

Binary +, -, *, / are left associative; '^' binds tighter than unary minus
(so ``-u^2`` is ``-(u^2)``) and does not chain.  Parsing is total: any grammar-valid
string nesting at most :data:`MAX_DEPTH` levels produces an AST, and ``parse(print(ast)) == ast``.
Evaluation happens in jet arithmetic, so every expression yields exact
derivatives through order two, or three when asked.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import jets as J
from .errors import DomainErrorJet, ParseError

# ---------- AST ----------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "TauExpr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "TauExpr"
    right: "TauExpr"


@dataclass(frozen=True)
class Call:
    fn: str  # sin | cos | exp | ln
    arg: "TauExpr"


TauExpr = Union[Num, Var, Neg, BinOp, Call]

VARIABLES = ("u", "v")
FUNCTIONS = ("sin", "cos", "exp", "ln")

# Levels an expression may nest: a parenthesis, call or unary minus opens one, and so
# does each node of its tree.  Parsing, printing and evaluation recurse once a level
# or more, so deeper input is refused before it meets Python's recursion limit.
MAX_DEPTH = 100

# ---------- tokenizer ----------

_WS_RE = re.compile(r"\s*")
_NUM_RE = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(src)
    while pos < n:
        pos = _WS_RE.match(src, pos).end()
        if pos >= n:
            break
        mnum = _NUM_RE.match(src, pos)
        if mnum:
            tokens.append(("num", mnum.group(0), pos))
            pos = mnum.end()
            continue
        mid = _IDENT_RE.match(src, pos)
        if mid:
            tokens.append(("ident", mid.group(0), pos))
            pos = mid.end()
            continue
        ch = src[pos]
        if ch in "+-*/^()":
            tokens.append(("op", ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos, expected=("token",))
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0  # open parentheses, calls and unary minus signs

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos, expected=(op,))
        return self.advance()

    def parse(self) -> TauExpr:
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos, expected=("end of input",))
        level, depth = [node], 0
        while level:  # the tree's depth, level by level, without recursion
            level = [getattr(n, f) for n in level
                     for f in ("arg", "left", "right") if hasattr(n, f)]
            depth += 1
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nests more than {MAX_DEPTH} levels", 0)
        return node

    def nested(self, parse):
        """``parse()`` one level further in, refused beyond :data:`MAX_DEPTH`."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"expression nests more than {MAX_DEPTH} levels", self.peek()[2])
        node = parse()
        self.depth -= 1
        return node

    def expr(self) -> TauExpr:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> TauExpr:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.factor())
            else:
                return node

    def factor(self) -> TauExpr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.nested(self.factor))
        node = self.base()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            node = BinOp("^", node, self.base())
        return node

    def base(self) -> TauExpr:
        kind, text, pos = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            if text in VARIABLES:
                return Var(text)
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.nested(self.expr)
                self.expect_op(")")
                return Call(text, arg)
            raise ParseError(
                f"unknown identifier {text!r}", pos, expected=VARIABLES + FUNCTIONS
            )
        if kind == "op" and text == "(":
            node = self.nested(self.expr)
            self.expect_op(")")
            return node
        if kind == "op" and text == "-":
            return Neg(self.nested(self.base))
        raise ParseError(
            f"unexpected {text or 'end of input'!r}",
            pos,
            expected=("number", "u", "v", "function", "(", "-"),
        )


def parse_tau(src: str) -> TauExpr:
    """Parse an expression in u, v into its AST."""
    if not isinstance(src, str):
        raise ParseError(f"expected an expression string, got {src!r}", 0)
    if not src.strip():
        raise ParseError("empty expression", 0, expected=("expression",))
    return _Parser(src).parse()


# ---------- printer ----------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _is_base(node: TauExpr) -> bool:
    return isinstance(node, (Num, Var, Call))


def to_source(node: TauExpr) -> str:
    """Render an AST back to text; the result reparses to an equal AST."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({to_source(node.arg)})"
    if isinstance(node, Neg):
        inner = to_source(node.arg)
        # '-' takes a whole factor: only powers and atoms survive unbracketed.
        if isinstance(node.arg, BinOp) and node.arg.op != "^":
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, BinOp):
        if node.op == "^":
            lhs = to_source(node.left)
            rhs = to_source(node.right)
            if not _is_base(node.left):
                lhs = f"({lhs})"
            if not (_is_base(node.right) or isinstance(node.right, Neg)):
                rhs = f"({rhs})"
            if isinstance(node.right, Neg) and not _is_base(node.right.arg):
                rhs = f"({rhs})"
            return f"{lhs}^{rhs}"
        lhs = to_source(node.left)
        rhs = to_source(node.right)
        p = _PREC[node.op]
        if _prec_of(node.left) < p:
            lhs = f"({lhs})"
        # left associativity: right child needs parens at equal precedence
        if _prec_of(node.right) < p or (
            _prec_of(node.right) == p and node.op in ("-", "/", "+", "*")
        ):
            rhs = f"({rhs})"
        return f"{lhs} {node.op} {rhs}"
    raise TypeError(f"not an expression node: {node!r}")


def _prec_of(node: TauExpr) -> int:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _PREC["neg"]
    return 5


# ---------- evaluation ----------


def eval_jet(node: TauExpr, env: dict[str, J.Jet2]) -> J.Jet2:
    """Evaluate an AST in jet arithmetic; env maps variable names to jets."""
    sample = next(iter(env.values()))
    return _as_jet(_eval(node, env, sample), sample)


def _as_jet(x: J.Jet2 | float, sample: J.Jet2) -> J.Jet2:
    """``x``, a number made a constant jet at the sample's shape and order."""
    if isinstance(x, J.Jet2):
        return x
    return J.Jet2.constant(np.full_like(sample.value, x), sample.m, sample.order)


def _eval(node: TauExpr, env: dict[str, J.Jet2], sample: J.Jet2) -> J.Jet2 | float:
    """A jet, or a float for a literal; functions, powers and two numbers take jets."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise ParseError(f"unbound variable {node.name!r}", 0) from None
    if isinstance(node, Neg):
        return -_eval(node.arg, env, sample)
    if isinstance(node, Call):
        return J.apply(node.fn, _as_jet(_eval(node.arg, env, sample), sample))
    if isinstance(node, BinOp):
        lhs = _eval(node.left, env, sample)
        rhs = _eval(node.right, env, sample)
        if node.op == "^":  # a number exponent is a literal, a jet one goes through exp and ln
            return _as_jet(lhs, sample) ** rhs
        lhs = lhs if isinstance(rhs, J.Jet2) else _as_jet(lhs, sample)
        if node.op == "+":
            return lhs + rhs
        if node.op == "-":
            return lhs - rhs
        if node.op == "*":
            return lhs * rhs
        if node.op == "/":
            return lhs / rhs
    raise TypeError(f"not an expression node: {node!r}")


def eval_at(node: TauExpr, points: np.ndarray, order: int = 2) -> J.Jet2:
    """Evaluate at parameter points of shape ``(..., 2)`` as jets of ``order``.

    Raises :class:`DomainErrorJet` at the first point where the value or a
    derivative slot is not finite (1/0, overflow or an invalid operation).
    """
    return eval_all((node,), points, order)[0]


def eval_all(nodes: Sequence[TauExpr], points: np.ndarray, order: int = 2) -> list[J.Jet2]:
    """:func:`eval_at` for several expressions at the same points.

    The :class:`DomainErrorJet` names the first point (in batch order) where
    any of them is not finite, and the first expression failing there, so a
    batch split into blocks reports what the whole batch would.  It carries that
    ``point``, and no ``index``: an index into a block is not one into the batch.
    """
    pts = np.asarray(points, dtype=float)
    u, v = J.seed(pts, order=order)
    with np.errstate(all="ignore"):
        jets = [eval_jet(node, {"u": u, "v": v}) for node in nodes]
    bad = np.stack([_not_finite(jet) for jet in jets])
    if bad.any():
        first = tuple(np.argwhere(bad.any(axis=0))[0])
        node = nodes[int(np.argmax(bad[(slice(None),) + first]))]
        raise DomainErrorJet(
            f"{to_source(node)} is not finite at parameter point "
            f"{np.round(pts[first], 6).tolist()}",
            point=pts[first],
        )
    return jets


def _not_finite(jet: J.Jet2) -> np.ndarray:
    finite = np.isfinite(jet.value)
    for slot in (jet.grad, jet.hess, jet.third)[: jet.order]:
        finite &= np.isfinite(slot).all(axis=0)
    return ~finite
