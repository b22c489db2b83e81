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

from .syntax import (
    Add, And, Atom, Diamond, HflError, IConst, INT, INeg, IVar, IntExpr, Mu,
    Nu, Or, PROP, Sub, TRUE, Var, Formula, SimpleType, app, arrow,
    dual_int_atom, fresh_name, int_vars, lam, subst_ints,
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


def _int(u) -> IntExpr:
    """u as an operand of arithmetic or a comparison"""
    if isinstance(u, _UVar):
        return IVar(u.name)
    if not isinstance(u, IntExpr):
        raise ProgramError(f"expected an integer expression, got {u!r}")
    return u


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_TOKEN = re.compile(
    r"\s+|#[^\n]*"
    r"|(?P<int>[0-9]+)"
    rf"|(?P<ident>{_IDENT.pattern})"
    r"|(?P<sym><=|>=|!=|\(\)|[()+\-*;=:<>])")

_KEYWORDS = {"let", "rec", "main", "if", "then", "else", "events"}
_CMPS = {"<=", "<", "=", ">=", ">", "!="}


def _tokenize(text: str) -> list[str]:
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ProgramError(f"unexpected character {text[pos]!r}")
        pos = m.end()
        if m.lastgroup:
            toks.append(m.group())
    toks.append("<eof>")
    return toks


class _ProgParser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        if t != "<eof>":
            self.pos += 1
        return t

    def expect(self, tok):
        t = self.next()
        if t != tok:
            raise ProgramError(f"expected {tok!r}, found {t!r}")

    def parse(self):
        events: list[str] = []
        if self.peek() == "events":
            self.next()
            self.expect(":")
            while self.peek() not in ("let", "main", "<eof>"):
                events.append(self.next())
        raw_defs = []
        while self.peek() == "let":
            self.next()
            if self.peek() == "rec":
                self.next()
            name = self.next()
            if not _IDENT.fullmatch(name):
                raise ProgramError(f"bad definition name {name!r}")
            params = []
            while self.peek() != "=":
                p = self.next()
                if not _IDENT.fullmatch(p):
                    raise ProgramError(f"bad parameter {p!r} in {name}")
                params.append(p)
            self.expect("=")
            raw_defs.append((name, params, self.parse_expr()))
        if self.peek() != "main":
            raise ProgramError("expected 'main = <expr>'")
        self.next()
        self.expect("=")
        main = self.parse_expr()
        if self.peek() != "<eof>":
            raise ProgramError(f"trailing input after main: {self.peek()!r}")
        return events, raw_defs, main

    def parse_expr(self):
        if self.peek() == "if":
            self.next()
            cond = self.parse_cmp()
            self.expect("then")
            then = self.parse_expr()
            self.expect("else")
            return _UIf(cond, then, self.parse_expr())
        return self.parse_cmp()

    def parse_cmp(self):
        v = self.parse_sum()
        if self.peek() in _CMPS:
            op = self.next()
            return Atom(op, _int(v), _int(self.parse_sum()))
        return v

    def parse_sum(self):
        v = self.parse_app()
        while self.peek() in ("+", "-"):
            ctor = Add if self.next() == "+" else Sub
            v = ctor(_int(v), _int(self.parse_app()))
        if self.peek() == "*":
            raise ProgramError("non-linear condition: multiplication is not "
                               "allowed")
        return v

    def parse_app(self):
        t = self.peek()
        if t == "-":
            self.next()
            return INeg(_int(self.parse_app()))
        head = self.parse_atom()
        if isinstance(head, _UVar):
            args = []
            while self._at_atom():
                args.append(self.parse_atom())
            if self.peek() == ";":
                self.next()
                return _USeq(_UApp(head.name, tuple(args)),
                             self.parse_expr())
            if args:
                return _UApp(head.name, tuple(args))
        return head

    def _at_atom(self):
        t = self.peek()
        return (t == "(" or t == "()" or t.isdigit()
                or (_IDENT.fullmatch(t) and t not in _KEYWORDS))

    def parse_atom(self):
        t = self.next()
        if t == "()":
            return _UUnit()
        if t == "(":
            if self.peek() == ")":
                self.next()
                return _UUnit()
            v = self.parse_expr()
            self.expect(")")
            return v
        if t.isdigit():
            return IConst(int(t))
        if _IDENT.fullmatch(t) and t not in _KEYWORDS:
            return _UVar(t)
        raise ProgramError(f"unexpected token {t!r}")


# ---------------------------------------------------------------------------
# Parameter kinds


def parse_program(text: str) -> Program:
    """Parse a program and give each parameter its kind in one walk.  A
    parameter used in arithmetic or a condition is an integer, one used as
    an expression a continuation.  A bare parameter passed to a definition
    shares the kind of that parameter slot; any other argument fixes the
    slot's kind (an integer for a number or arithmetic).  A parameter that
    nothing constrains is a continuation."""
    events, raw_defs, main = _ProgParser(text).parse()
    if not events:
        events = ["read", "close", "end"]
    if "end" not in events:
        events = events + ["end"]
    slots = {name: params for name, params, _ in raw_defs}
    if len(slots) != len(raw_defs):
        raise ProgramError("duplicate definition name")
    kinds = _Kinds(events, slots)
    for dname, params, body in raw_defs + [("main", [], main)]:
        kinds.definition(dname, params, body)
    defs = tuple(
        Definition(name, tuple(
            (p, INT if kinds.find((name, p)) is INT else PROP)
            for p in params), body)
        for name, params, body in raw_defs)
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
            raise ProgramError(
                f"parameter {key[1]} of {key[0]} used both as an integer and "
                "as a continuation")
        if a != b:
            self.parent[a] = b

    def definition(self, dname: str, params: list[str], body):
        self.dname, self.params = dname, params
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

    def integer(self, e: IntExpr) -> IntExpr:
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
            self.integer(_int(a)) if isinstance(a, IntExpr) or (
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
        raise ProgramError(f"expected an expression, got {u!r}")
