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
    dual_int_atom, fresh_name, lam,
)


class ProgramError(HflError):
    pass


# ---------------------------------------------------------------------------
# Parse tree


@dataclass(frozen=True)
class _UNum:
    value: int


@dataclass(frozen=True)
class _UVar:
    name: str


@dataclass(frozen=True)
class _UOp:
    op: str  # + - neg
    args: tuple


@dataclass(frozen=True)
class _UCmp:
    op: str
    lhs: object
    rhs: object


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
            return _UCmp(op, v, self.parse_sum())
        return v

    def parse_sum(self):
        v = self.parse_app()
        while self.peek() in ("+", "-"):
            op = self.next()
            v = _UOp(op, (v, self.parse_app()))
        if self.peek() == "*":
            raise ProgramError("non-linear condition: multiplication is not "
                               "allowed")
        return v

    def parse_app(self):
        t = self.peek()
        if t == "-":
            self.next()
            return _UOp("neg", (self.parse_app(),))
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
            return _UNum(int(t))
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
    names = set(slots) | set(events)

    # union-find over (definition, parameter) keys and the kinds INT and
    # PROP, which are always roots; roots are not keys of `parent`
    parent: dict = {}

    def find(x):
        while x in parent:
            x = parent[x]
        return x

    def unify(key: tuple[str, str], other):
        a, b = find(key), find(other)
        if a in (INT, PROP):
            a, b = b, a
        if a in (INT, PROP) and a != b:
            raise ProgramError(
                f"parameter {key[1]} of {key[0]} used both as an integer and "
                "as a continuation")
        if a != b:
            parent[a] = b

    for dname, params, body in raw_defs + [("main", [], main)]:
        bound = names.union(params)

        def walk(u, kind):
            match u:
                case _UVar(n) if n in params:
                    unify((dname, n), kind)
                case _UOp(_, args):
                    for a in args:
                        walk(a, INT)
                case _UCmp(_, l, r):
                    walk(l, INT)
                    walk(r, INT)
                case _UIf(c, t, e):
                    walk(c, INT)
                    walk(t, PROP)
                    walk(e, PROP)
                case _USeq(first, cont):
                    walk(first, PROP)
                    walk(cont, PROP)
                case _UApp(head, args) if head in events:
                    # the last argument is the continuation; the bare
                    # names before it get no kind: they are handles or are
                    # refused by the translation
                    for a in args[:-1]:
                        if not isinstance(a, _UVar):
                            walk(a, PROP)
                    if args:
                        walk(args[-1], PROP)
                case _UApp(head, args) if head not in slots:
                    for a in args:
                        walk(a, PROP)
                case _UApp(head, args):
                    real = [a for a in args if not _is_handle(a, bound)]
                    for a, p in zip(real, slots[head]):
                        if isinstance(a, _UVar) and a.name in params:
                            unify((dname, a.name), (head, p))
                        else:
                            k = INT if isinstance(a, (_UNum, _UOp)) else PROP
                            unify((head, p), k)
                            walk(a, k)

        walk(body, PROP)

    defs = tuple(
        Definition(name, tuple((p, INT if find((name, p)) is INT else PROP)
                               for p in params), body)
        for name, params, body in raw_defs)
    return Program(events=tuple(events), definitions=defs, main=main)


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
    arity = {d.name: len(d.params) for d in program.definitions}
    names = set(arity) | set(program.events)
    denot: dict[str, Formula] = {}

    def translate(body, kinds: dict[str, SimpleType],
                  env: dict[str, tuple[str, SimpleType]]) -> Formula:
        """kinds: the parameters of the enclosing definition; env: the
        internal name and type of each parameter and of the definition."""
        bound = names.union(kinds)

        def integer(u) -> IntExpr:
            match u:
                case _UNum(n):
                    return IConst(n)
                case _UVar(n):
                    if kinds.get(n) == INT:
                        return IVar(env[n][0])
                    raise ProgramError(
                        f"{n!r} is not an integer parameter here")
                case _UOp("+", (l, r)):
                    return Add(integer(l), integer(r))
                case _UOp("-", (l, r)):
                    return Sub(integer(l), integer(r))
                case _UOp("neg", (b,)):
                    return INeg(integer(b))
            raise ProgramError(f"expected an integer expression, got {u!r}")

        def call(head: str, args) -> Formula:
            real = [a for a in args if not _is_handle(a, bound)]
            f = Var(*env[head]) if head in env else denot.get(head)
            if f is None and head in arity:
                # definitions are translated top down, so denot holds
                # exactly the ones above the caller
                caller = program.definitions[len(denot)].name
                raise ProgramError(
                    f"{head!r} is defined below {caller!r}: a definition "
                    "may call only itself and the definitions above it")
            if f is None:
                raise ProgramError(f"unknown function {head!r}")
            if head in kinds and (kinds[head] != PROP or real):
                raise ProgramError(f"parameter {head} used as a function")
            # a parameter takes no arguments; one that hides a definition
            # also takes that definition's arity
            if len(real) != arity.get(head, 0):
                raise ProgramError(
                    f"call of {head} with {len(real)} arguments, expected "
                    f"{arity[head]}")
            return app(f, *[
                integer(a) if isinstance(a, (_UNum, _UOp)) or (
                    isinstance(a, _UVar) and kinds.get(a.name) == INT)
                else expr(a) for a in real])

        def expr(u) -> Formula:
            match u:
                case _UUnit():
                    return _END
                case _UIf(_UCmp(op, l, r), t, e):
                    c = Atom(op, integer(l), integer(r))
                    return And(Or(dual_int_atom(c), expr(t)), Or(c, expr(e)))
                case _UIf():
                    raise ProgramError("condition must be a linear comparison")
                case _USeq(first, cont):
                    if first.head not in program.events:
                        raise ProgramError(
                            f"';' is only allowed after an event, got "
                            f"{first.head!r}")
                    if not all(_is_handle(a, bound) for a in first.args):
                        raise ProgramError(
                            f"event {first.head} before ';' takes only file "
                            "handles as arguments")
                    return Diamond(first.head, expr(cont))
                case _UApp(head, args) if head in program.events:
                    conts = [a for a in args if not _is_handle(a, bound)]
                    if len(conts) > 1:
                        raise ProgramError(
                            f"event {head} takes one continuation, got "
                            f"{len(conts)}")
                    return Diamond(head, expr(conts[0]) if conts else _END)
                case _UApp(head, args):
                    return call(head, args)
                case _UVar(n):
                    return call(n, ())
            raise ProgramError(f"expected an expression, got {u!r}")

        return expr(body)

    for d in program.definitions:
        ftype = arrow(*[t for _, t in d.params], PROP)
        binder = fresh_name(d.name)
        # a parameter hides the definition's own name
        env = {d.name: (binder, ftype)}
        env.update((p, (fresh_name(p), t)) for p, t in d.params)
        body = translate(d.body, dict(d.params), env)
        denot[d.name] = fix(binder, ftype,
                            lam([(env[p][0], t) for p, t in d.params], body))
    return translate(program.main, {}, {})
