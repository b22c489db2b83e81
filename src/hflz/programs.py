"""Frontend for a mini CPS-style functional language with event actions.

Programs are reduced to formulas by replacing events with diamond
modalities, conditionals with their logical reading, and recursion with a
fixpoint binder; the verification obligation becomes M |= [[program]].

`parse_program` builds the parse tree and gives every parameter a kind,
integer or continuation; `translate_program` resolves the names of the
tree and translates it in one walk.  File-handle arguments (bare
identifiers that are neither parameters nor functions nor events) are
ignored, as in single-handle protocol examples.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .parser import Token, TokenStream, tokenize
from .syntax import (
    Add, And, Atom, CMP_OPS, Diamond, HflError, IConst, INT, INeg, IVar,
    IntExpr, Mu, Nu, Or, PROP, Sub, TRUE, Var, Formula, SimpleType, app,
    arrow, dual_int_atom, fresh_name, int_vars, lam, subst_ints,
)


class ProgramError(HflError):
    pass


# ---------------------------------------------------------------------------
# Parse tree


# Arithmetic and comparisons are IntExpr and Atom nodes over the source
# names; a bare name anywhere else is a _UVar, whose meaning the
# translation resolves.


@dataclass(frozen=True)
class _UVar:
    name: str


@dataclass(frozen=True)
class _UApp:
    head: str
    args: tuple


@dataclass(frozen=True)
class _USeq:
    first: "_UApp"
    cont: object


@dataclass(frozen=True)
class _UIf:
    cond: object
    then: object
    els: object


@dataclass(frozen=True)
class _UUnit:
    pass


@dataclass(frozen=True)
class Definition:
    name: str
    params: tuple[tuple[str, SimpleType], ...]
    body: object  # parse tree


@dataclass(frozen=True)
class Program:
    events: tuple[str, ...]
    definitions: tuple[Definition, ...]
    main: object  # parse tree


def _is_handle(u, bound) -> bool:
    """A bare identifier that names no parameter, function or event."""
    return isinstance(u, _UVar) and u.name not in bound


def _describe(u) -> str:
    """The form of a parse tree, for an error message."""
    if isinstance(u, _UApp):
        return f"a call of {u.head}"
    return {_UUnit: "()", _USeq: "a sequence", _UIf: "a conditional",
            Atom: "a comparison"}.get(type(u), "an integer expression")


def _syntax_error(message: str, line: int, col: int) -> ProgramError:
    return ProgramError(f"{line}:{col}: {message}")


_TOKEN = re.compile(
    r"(?P<skip>\s+|#[^\n]*)"
    r"|(?P<num>[0-9]+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<sym><=|>=|!=|\(\)|[()+\-*;=:<>])"
    r"|(?P<bad>.)")
_KEYWORDS = {"let", "rec", "main", "if", "then", "else", "events"}
_ATOM_START = {"(", "()", "num", "ident"}


class _ProgParser(TokenStream):
    error = staticmethod(_syntax_error)

    def parse(self):
        events: list[str] = []
        if self.peek().kind == "events":
            self.next()
            self.expect(":")
            while self.peek().kind not in ("let", "main", "eof"):
                events.append(self.expect("ident").text)
        defs = []
        while self.peek().kind == "let":
            at = self.next()
            if self.peek().kind == "rec":
                self.next()
            name = self.expect("ident")
            if any(name.text == d for d, _, _, _ in defs):
                self.err(f"duplicate definition {name.text!r}", name)
            params = []
            while self.peek().kind != "=":
                params.append(self.expect("ident").text)
            self.next()
            defs.append((name.text, params, self.parse_expr(), at))
        at = self.expect("main")
        self.expect("=")
        main = self.parse_expr()
        self.expect("eof")
        return events, defs, main, at

    def parse_expr(self):
        if self.peek().kind == "if":
            self.next()
            cond = self.parse_cmp()
            self.expect("then")
            then = self.parse_expr()
            self.expect("else")
            return _UIf(cond, then, self.parse_expr())
        return self.parse_cmp()

    def parse_cmp(self):
        v = self.parse_sum()
        if self.peek().kind in CMP_OPS:
            op = self.next()
            return Atom(op.kind, self.operand(v, op),
                        self.operand(self.parse_sum(), op))
        return v

    def parse_sum(self):
        v = self.parse_app()
        while self.peek().kind in ("+", "-"):
            op = self.next()
            ctor = Add if op.kind == "+" else Sub
            v = ctor(self.operand(v, op), self.operand(self.parse_app(), op))
        if self.peek().kind == "*":
            self.err("non-linear condition: multiplication is not allowed")
        return v

    def parse_app(self):
        if self.peek().kind == "-":
            op = self.next()
            return INeg(self.operand(self.parse_app(), op))
        head = self.parse_atom()
        if isinstance(head, _UVar):
            args = []
            while self.peek().kind in _ATOM_START:
                args.append(self.parse_atom())
            if self.peek().kind == ";":
                self.next()
                return _USeq(_UApp(head.name, tuple(args)),
                             self.parse_expr())
            if args:
                return _UApp(head.name, tuple(args))
        return head

    def parse_atom(self):
        t = self.next()
        if t.kind == "()":
            return _UUnit()
        if t.kind == "(":
            if self.peek().kind == ")":
                self.next()
                return _UUnit()
            v = self.parse_expr()
            self.expect(")")
            return v
        if t.kind == "num":
            return IConst(int(t.text))
        if t.kind == "ident":
            return _UVar(t.text)
        self.err(f"unexpected {t.text or 'end of input'!r}", t)

    def operand(self, u, op) -> IntExpr:
        """u as an operand of the arithmetic or comparison `op`"""
        if isinstance(u, _UVar):
            return IVar(u.name)
        if not isinstance(u, IntExpr):
            self.err("expected an integer expression, got "
                     f"{_describe(u)}", op)
        return u


# ---------------------------------------------------------------------------
# Parameter kinds


def parse_program(text: str) -> Program:
    """Parse a program and give each parameter its kind in one walk.  A
    parameter used in arithmetic or a condition is an integer, one used as
    an expression a continuation.  A bare parameter passed to a definition
    shares the kind of that parameter slot; any other argument fixes the
    slot's kind (an integer for a number or arithmetic).  A parameter that
    nothing constrains is a continuation."""
    events, raw_defs, main, main_at = _ProgParser(
        tokenize(text, _TOKEN, _KEYWORDS, _syntax_error)).parse()
    if not events:
        events = ["read", "close", "end"]
    if "end" not in events:
        events = events + ["end"]
    slots = {name: params for name, params, _, _ in raw_defs}
    kinds = _Kinds(events, slots)
    for d in raw_defs + [("main", [], main, main_at)]:
        kinds.definition(*d)
    defs = tuple(
        Definition(name, tuple(
            (p, INT if kinds.find((name, p)) is INT else PROP)
            for p in params), body)
        for name, params, body, _ in raw_defs)
    return Program(events=tuple(events), definitions=defs, main=main)


class _Kinds:
    """Union-find over (definition, parameter) keys and the kinds INT and
    PROP, which are always roots; roots are not keys of `parent`.  The walk
    is a method, not a closure that calls itself through its own cell, so a
    parse leaves no cyclic garbage."""

    def __init__(self, events: list[str], slots: dict[str, list[str]]):
        self.events, self.slots = events, slots
        self.names = set(slots) | set(events)
        self.parent: dict = {}

    def find(self, x):
        while x in self.parent:
            x = self.parent[x]
        return x

    def unify(self, key: tuple[str, str], other):
        a, b = self.find(key), self.find(other)
        if a in (INT, PROP):
            a, b = b, a
        if a in (INT, PROP) and a != b:
            raise _syntax_error(
                f"parameter {key[1]} of {key[0]} used both as an integer and "
                "as a continuation", self.at.line, self.at.col)
        if a != b:
            self.parent[a] = b

    def definition(self, dname: str, params: list[str], body, at: Token):
        """Walk a definition's body; a kind conflict is reported at `at`."""
        self.dname, self.params, self.at = dname, params, at
        self.bound = self.names.union(params)
        self.walk(body, PROP)

    def walk(self, u, kind):
        dname, params, slots = self.dname, self.params, self.slots
        match u:
            case _UVar(n) if n in params:
                self.unify((dname, n), kind)
            case IConst() | IVar() | Add() | Sub() | INeg():
                for n in int_vars(u):
                    if n in params:
                        self.unify((dname, n), INT)
            case Atom(_, l, r):
                self.walk(l, INT)
                self.walk(r, INT)
            case _UIf(c, t, e):
                self.walk(c, INT)
                self.walk(t, PROP)
                self.walk(e, PROP)
            case _USeq(first, cont):
                self.walk(first, PROP)
                self.walk(cont, PROP)
            case _UApp(head, args) if head in self.events:
                # the last argument is the continuation; the bare names
                # before it get no kind: they are handles or are refused
                # by the translation
                for a in args[:-1]:
                    if not isinstance(a, _UVar):
                        self.walk(a, PROP)
                if args:
                    self.walk(args[-1], PROP)
            case _UApp(head, args) if head not in slots:
                for a in args:
                    self.walk(a, PROP)
            case _UApp(head, args):
                real = [a for a in args if not _is_handle(a, self.bound)]
                for a, p in zip(real, slots[head]):
                    if isinstance(a, _UVar) and a.name in params:
                        self.unify((dname, a.name), (head, p))
                    else:
                        k = INT if isinstance(a, IntExpr) else PROP
                        self.unify((head, p), k)
                        self.walk(a, k)


# ---------------------------------------------------------------------------
# Translation to formulas


_END = Diamond("end", TRUE)


def translate_program(program: Program, polarity: str = "mu") -> Formula:
    """Events become diamonds, () becomes <end> true, conditionals their
    logical reading, recursion a fixpoint of the chosen polarity (mu demands
    termination)."""
    if polarity not in ("mu", "nu"):
        raise ProgramError(f"polarity must be 'mu' or 'nu', got {polarity!r}")
    fix = Mu if polarity == "mu" else Nu
    tr = _Translation(program)
    for d in program.definitions:
        ftype = arrow(*[t for _, t in d.params], PROP)
        binder = fresh_name(d.name)
        # a parameter hides the definition's own name
        env = {d.name: (binder, ftype)}
        env.update((p, (fresh_name(p), t)) for p, t in d.params)
        body = tr.translate(d.body, dict(d.params), env)
        tr.denot[d.name] = fix(binder, ftype, lam(
            [(env[p][0], t) for p, t in d.params], body))
    return tr.translate(program.main, {}, {})


class _Translation:
    """The walk of translate_program: methods, not closures that call each
    other through their cells, so a translation leaves no cyclic garbage."""

    def __init__(self, program: Program):
        self.program = program
        self.arity = {d.name: len(d.params) for d in program.definitions}
        self.names = set(self.arity) | set(program.events)
        self.denot: dict[str, Formula] = {}

    def translate(self, body, kinds: dict[str, SimpleType],
                  env: dict[str, tuple[str, SimpleType]]) -> Formula:
        """kinds: the parameters of the enclosing definition; env: the
        internal name and type of each parameter and of the definition."""
        self.kinds, self.env = kinds, env
        self.bound = self.names.union(kinds)
        return self.expr(body)

    def integer(self, e) -> IntExpr:
        """e, an integer expression or a bare name, over internal names;
        each name must be an integer parameter."""
        if isinstance(e, _UVar):
            e = IVar(e.name)
        names = int_vars(e)
        for n in names:
            if self.kinds.get(n) != INT:
                raise ProgramError(f"{n!r} is not an integer parameter here")
        return subst_ints(e, {n: IVar(self.env[n][0]) for n in names})

    def call(self, head: str, args) -> Formula:
        program, arity, kinds = self.program, self.arity, self.kinds
        real = [a for a in args if not _is_handle(a, self.bound)]
        f = Var(*self.env[head]) if head in self.env else self.denot.get(head)
        if f is None and head in arity:
            # definitions are translated top down, so denot holds exactly
            # the ones above the caller
            caller = program.definitions[len(self.denot)].name
            raise ProgramError(
                f"{head!r} is defined below {caller!r}: a definition may "
                "call only itself and the definitions above it")
        if f is None:
            raise ProgramError(f"unknown function {head!r}")
        if head in kinds and (kinds[head] != PROP or real):
            raise ProgramError(f"parameter {head} used as a function")
        # a parameter takes no arguments; one that hides a definition also
        # takes that definition's arity
        if len(real) != arity.get(head, 0):
            raise ProgramError(
                f"call of {head} with {len(real)} arguments, expected "
                f"{arity[head]}")
        return app(f, *[
            self.integer(a) if isinstance(a, IntExpr) or (
                isinstance(a, _UVar) and kinds.get(a.name) == INT)
            else self.expr(a) for a in real])

    def expr(self, u) -> Formula:
        events, bound = self.program.events, self.bound
        match u:
            case _UUnit():
                return _END
            case _UIf(Atom(op, l, r), t, e):
                c = Atom(op, self.integer(l), self.integer(r))
                return And(Or(dual_int_atom(c), self.expr(t)),
                           Or(c, self.expr(e)))
            case _UIf():
                raise ProgramError("condition must be a linear comparison")
            case _USeq(first, cont):
                if first.head not in events:
                    raise ProgramError(
                        f"';' is only allowed after an event, got "
                        f"{first.head!r}")
                if not all(_is_handle(a, bound) for a in first.args):
                    raise ProgramError(
                        f"event {first.head} before ';' takes only file "
                        "handles as arguments")
                return Diamond(first.head, self.expr(cont))
            case _UApp(head, args) if head in events:
                conts = [a for a in args if not _is_handle(a, bound)]
                if len(conts) > 1:
                    raise ProgramError(
                        f"event {head} takes one continuation, got "
                        f"{len(conts)}")
                return Diamond(head, self.expr(conts[0]) if conts else _END)
            case _UApp(head, args):
                return self.call(head, args)
            case _UVar(n):
                return self.call(n, ())
        raise ProgramError(f"expected an expression, got {_describe(u)}")
