"""Recursive-descent parser for the concrete formula grammar.

Binders are alpha-renamed to globally unique internal names during parsing.
Identifier occurrences are classified as integer or predicate variables from
the (mandatory) binder type annotations, so no separate elaboration pass is
needed.  `tokenize` and `TokenStream` also serve the program parser in
`programs.py`, with its own token pattern, keywords and error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .syntax import (
    Add, App, Arrow, Atom, And, Box, CMP_OPS, Diamond, Exists, FALSE, Forall,
    HflError, IConst, INT, INeg, IVar, IntExpr, IntType, KEYWORDS, Lambda, Mu,
    Nu, Or, PROP, Sub, TRUE, Var, Formula, SimpleType, fresh_name,
    is_predicate_type,
)


class HflSyntaxError(HflError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass
class Token:
    kind: str
    text: str
    line: int
    col: int


_TOKEN = re.compile(
    r"(?P<skip>[ \t\r\n]+|#[^\n]*)"
    r"|(?P<num>[0-9]+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<sym>\\/|/\\|->|<=|>=|!=|[()\[\]<>=+\-.,:\\*])"
    r"|(?P<bad>.)")


def tokenize(text: str, pattern: re.Pattern = _TOKEN,
             keywords: set[str] = KEYWORDS,
             error=HflSyntaxError) -> list[Token]:
    """Split text by `pattern`, whose groups are skip, num, ident, sym and
    bad; keywords and symbols are their own token kinds.  A bad character
    raises `error(message, line, col)`; a column counts characters, a tab
    as one."""
    toks: list[Token] = []
    line, line_start, end = 1, 0, 0
    for m in pattern.finditer(text):
        kind, word = m.lastgroup, m.group()
        if kind == "skip":
            if word[0] == "#":
                continue  # so the end of input stays before a last comment
            if "\n" in word:
                line += word.count("\n")
                line_start = m.start() + word.rindex("\n") + 1
        elif kind == "bad":
            raise error(f"unexpected character {word!r}",
                        line, m.start() - line_start + 1)
        else:
            toks.append(Token(
                word if kind == "sym" or word in keywords else kind,
                word, line, m.start() - line_start + 1))
        end = m.end()
    toks.append(Token("eof", "", line, end - line_start + 1))
    return toks


class TokenStream:
    """The token plumbing of a recursive-descent parser; `error(message,
    line, col)` makes the exception that `err` raises."""
    error = HflSyntaxError

    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            self.err(f"expected {kind!r}, found {t.text or 'end of input'!r}")
        return self.next()

    def err(self, message: str, at: Token | None = None):
        """Raise at token `at`, by default the next one."""
        t = at or self.peek()
        raise self.error(message, t.line, t.col)


_ATOM_START = {"ident", "num", "true", "false", "("}


class _Parser(TokenStream):
    # -- types

    def parse_type(self) -> SimpleType:
        t = self.parse_type_atom()
        if self.peek().kind == "->":
            self.next()
            res = self.parse_type()
            if isinstance(res, IntType):
                self.err("arrow result type must be a predicate type")
            return Arrow(t, res)
        return t

    def parse_type_atom(self) -> SimpleType:
        t = self.peek()
        if t.kind == "prop":
            self.next()
            return PROP
        if t.kind == "int":
            self.next()
            return INT
        if t.kind == "(":
            self.next()
            inner = self.parse_type()
            self.expect(")")
            return inner
        self.err(f"expected a type, found {t.text!r}")

    # -- formulas

    def parse_term(self, env: dict) -> Formula | IntExpr:
        t = self.peek()
        if t.kind in ("mu", "nu"):
            self.next()
            name, ty = self.parse_binding()
            if not is_predicate_type(ty):
                self.err(f"fixpoint binder {name!r} must have a predicate type")
            self.expect(".")
            internal = fresh_name(name)
            body = self.to_formula(
                self.parse_term({**env, name: (internal, ty)}))
            return (Mu if t.kind == "mu" else Nu)(internal, ty, body)
        if t.kind == "\\":
            self.next()
            binds = self.parse_bind_group()
            self.expect(".")
            env2 = dict(env)
            internals = []
            for name, ty in binds:
                internal = fresh_name(name)
                env2[name] = (internal, ty)
                internals.append((internal, ty))
            body = self.to_formula(self.parse_term(env2))
            for internal, ty in reversed(internals):
                body = Lambda(internal, ty, body)
            return body
        if t.kind in ("exists", "forall"):
            self.next()
            name = self.expect("ident").text
            pieces: tuple[IntExpr, ...] = ()
            if self.peek().kind == ">=":
                self.next()
                pieces = self.parse_bound(env)
            self.expect(".")
            internal = fresh_name(name)
            body = self.to_formula(
                self.parse_term({**env, name: (internal, INT)}))
            ctor = Exists if t.kind == "exists" else Forall
            return ctor(internal, body, pieces)
        return self.parse_or(env)

    def parse_bind_group(self) -> list[tuple[str, SimpleType]]:
        if self.peek().kind == "(":
            self.next()
            binds = [self.parse_binding()]
            while self.peek().kind == ",":
                self.next()
                binds.append(self.parse_binding())
            self.expect(")")
            return binds
        return [self.parse_binding()]

    def parse_binding(self) -> tuple[str, SimpleType]:
        name = self.expect("ident").text
        if self.peek().kind != ":":
            self.err(f"type annotation missing on binder {name!r}")
        self.next()
        return name, self.parse_type()

    def parse_bound(self, env: dict) -> tuple[IntExpr, ...]:
        t = self.peek()
        if t.kind == "ident" and t.text == "max" \
                and self.toks[self.pos + 1].kind == "(":
            self.next()
            self.next()
            pieces = [self.to_int(self.parse_term(env))]
            while self.peek().kind == ",":
                self.next()
                pieces.append(self.to_int(self.parse_term(env)))
            self.expect(")")
            return tuple(pieces)
        return (self.to_int(self.parse_sum(env)),)

    def parse_or(self, env: dict) -> Formula | IntExpr:
        v = self.parse_and(env)
        while self.peek().kind == "\\/":
            self.next()
            v = Or(self.to_formula(v), self.to_formula(self.parse_and(env)))
        return v

    def parse_and(self, env: dict) -> Formula | IntExpr:
        v = self.parse_cmp(env)
        while self.peek().kind == "/\\":
            self.next()
            v = And(self.to_formula(v), self.to_formula(self.parse_cmp(env)))
        return v

    def parse_cmp(self, env: dict) -> Formula | IntExpr:
        v = self.parse_sum(env)
        if self.peek().kind in CMP_OPS:
            op = self.next().kind
            rhs = self.parse_sum(env)
            return Atom(op, self.to_int(v), self.to_int(rhs))
        return v

    def parse_sum(self, env: dict) -> Formula | IntExpr:
        v = self.parse_unary(env)
        while self.peek().kind in ("+", "-", "*"):
            op = self.next()
            if op.kind == "*":
                self.err(
                    "multiplication is not part of linear arithmetic; encode "
                    "it as a ternary predicate (mult x y z meaning x*y=z)", op)
            rhs = self.to_int(self.parse_unary(env))
            ctor = Add if op.kind == "+" else Sub
            v = ctor(self.to_int(v), rhs)
        return v

    def parse_unary(self, env: dict) -> Formula | IntExpr:
        if self.peek().kind == "-":
            self.next()
            return INeg(self.to_int(self.parse_unary(env)))
        return self.parse_modal(env)

    def parse_modal(self, env: dict) -> Formula | IntExpr:
        t = self.peek()
        if t.kind == "<":
            self.next()
            label = self.expect("ident").text
            self.expect(">")
            return Diamond(label, self.to_formula(self.parse_modal(env)))
        if t.kind == "[":
            self.next()
            label = self.expect("ident").text
            self.expect("]")
            return Box(label, self.to_formula(self.parse_modal(env)))
        if t.kind in ("mu", "nu", "exists", "forall", "\\"):
            # binder directly under a modal operator
            return self.parse_term(env)
        return self.parse_app(env)

    def parse_app(self, env: dict) -> Formula | IntExpr:
        v = self.parse_atom(env)
        while self.peek().kind in _ATOM_START:
            args = self.parse_atom(env, splice=True)
            fun = self.to_formula(v)
            for a in args if isinstance(args, list) else [args]:
                fun = App(fun, a)
            v = fun
        return v

    def parse_atom(self, env: dict, splice: bool = False):
        t = self.peek()
        if t.kind == "true":
            self.next()
            return TRUE
        if t.kind == "false":
            self.next()
            return FALSE
        if t.kind == "num":
            self.next()
            return IConst(int(t.text))
        if t.kind == "ident":
            self.next()
            if t.text not in env:
                self.err(f"unbound variable {t.text!r}", t)
            internal, ty = env[t.text]
            return IVar(internal) if isinstance(ty, IntType) \
                else Var(internal, ty)
        if t.kind == "(":
            self.next()
            items = [self.parse_term(env)]
            while self.peek().kind == ",":
                self.next()
                items.append(self.parse_term(env))
            self.expect(")")
            if len(items) > 1:
                if not splice:
                    self.err("tuple is only allowed as application arguments")
                return items
            return items[0]
        self.err(f"unexpected {t.text or 'end of input'!r}")

    # -- coercions

    def to_formula(self, v) -> Formula:
        if isinstance(v, IntExpr):
            self.err("integer expression where a formula was expected")
        if isinstance(v, list):
            self.err("tuple is only allowed as application arguments")
        return v

    def to_int(self, v) -> IntExpr:
        if not isinstance(v, IntExpr):
            self.err("formula where an integer expression was expected")
        return v


def parse_formula(text: str,
                  env: dict[str, SimpleType] | None = None) -> Formula:
    """Parse a formula; free variables must be declared in env."""
    p = _Parser(tokenize(text))
    penv = {name: (name, ty) for name, ty in (env or {}).items()}
    v = p.to_formula(p.parse_term(penv))
    p.expect("eof")
    return v


def parse_bound(text: str) -> tuple[IntExpr, ...]:
    """The pieces of a bound `e` or `max(e, ...)`; every name in it is a
    free integer variable, kept by its source name."""
    p = _Parser(tokenize(text))
    v = p.parse_bound({t.text: (t.text, INT)
                       for t in p.toks if t.kind == "ident"})
    p.expect("eof")
    return v

