"""Frontend for a mini CPS-style functional language with event actions.

Programs are reduced to formulas by replacing events with diamond
modalities, conditionals with their logical reading, and recursion with a
fixpoint binder; the verification obligation becomes M |= [[program]].

File-handle arguments (bare identifiers that are neither parameters nor
functions nor events) are ignored, as in single-handle protocol examples.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .syntax import (
    And, Atom, Diamond, HflError, IConst, INT, IVar, IntExpr, Mu, Nu, Or, PROP,
    TRUE, Var, Formula, SimpleType, app, arrow, dual_int_atom, fresh_name, lam,
    subst_ints, Add, Sub, INeg,
)


class ProgramError(HflError):
    pass


# ---------------------------------------------------------------------------
# Surface AST


@dataclass(frozen=True)
class Unit:
    pass


@dataclass(frozen=True)
class Event:
    label: str
    cont: "Expr"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["IntExpr | Expr", ...] = ()


@dataclass(frozen=True)
class If:
    cond: Atom
    then: "Expr"
    els: "Expr"


Expr = Unit | Event | Call | If


@dataclass(frozen=True)
class Definition:
    name: str
    params: tuple[tuple[str, SimpleType], ...]
    body: Expr


@dataclass(frozen=True)
class Program:
    events: tuple[str, ...]
    definitions: tuple[Definition, ...]
    main: Expr


# ---------------------------------------------------------------------------
# Untyped parse tree (resolved against the alphabet and definitions later)


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


_TOKEN = re.compile(
    r"\s+|#[^\n]*"
    r"|(?P<int>[0-9]+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_']*)"
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

    def peek(self, ahead=0):
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.pos]
        if t != "<eof>":
            self.pos += 1
        return t

    def expect(self, tok):
        t = self.next()
        if t != tok:
            raise ProgramError(f"expected {tok!r}, found {t!r}")
        return t

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
            if not name.isidentifier():
                raise ProgramError(f"bad definition name {name!r}")
            params = []
            while self.peek() != "=":
                p = self.next()
                if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", p):
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
                or (re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", t)
                    and t not in _KEYWORDS))

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
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", t) \
                and t not in _KEYWORDS:
            return _UVar(t)
        raise ProgramError(f"unexpected token {t!r}")


# ---------------------------------------------------------------------------
# Elaboration: classify parameters and resolve identifiers


def parse_program(text: str) -> Program:
    events, raw_defs, raw_main = _ProgParser(text).parse()
    if not events:
        events = ["read", "close", "end"]
    if "end" not in events:
        events = events + ["end"]
    def_names = [d[0] for d in raw_defs]
    if len(set(def_names)) != len(def_names):
        raise ProgramError("duplicate definition name")

    # parameter kinds: "int" | "prop" | None (unknown)
    kinds: dict[tuple[str, str], str | None] = {
        (name, p): None for name, params, _ in raw_defs for p in params}

    def set_kind(dname, p, kind):
        cur = kinds[(dname, p)]
        if cur is None:
            kinds[(dname, p)] = kind
        elif cur != kind:
            raise ProgramError(
                f"parameter {p} of {dname} used both as an integer and as "
                "a continuation")

    arities = {name: len(params) for name, params, _ in raw_defs}

    def scan(u, dname, params, ctx):
        """ctx: 'expr' | 'int'."""
        match u:
            case _UVar(n):
                if n in params and ctx != "arg":
                    set_kind(dname, n, "int" if ctx == "int" else "prop")
            case _UNum(_):
                pass
            case _UOp(_, args):
                for a in args:
                    scan(a, dname, params, "int")
            case _UCmp(_, l, r):
                scan(l, dname, params, "int")
                scan(r, dname, params, "int")
            case _UIf(c, t, e):
                scan(c, dname, params, "int")
                scan(t, dname, params, "expr")
                scan(e, dname, params, "expr")
            case _USeq(first, cont):
                scan(first, dname, params, "expr")
                scan(cont, dname, params, "expr")
            case _UApp(head, args):
                if head in events:
                    # last argument is the continuation; the rest are handles
                    for a in args[:-1]:
                        if not isinstance(a, _UVar):
                            scan(a, dname, params, "expr")
                    if args:
                        scan(args[-1], dname, params, "expr")
                else:
                    for a in args:
                        scan(a, dname, params, "arg")
            case _UUnit():
                pass

    for name, params, body in raw_defs:
        scan(body, name, set(params), "expr")
    # propagate kinds through call argument positions, both ways; each
    # round fixes an unknown kind, so the loop ends
    changed = True
    while changed:
        changed = False
        for name, params, body in raw_defs + [("", [], raw_main)]:
            for u in _walk(body):
                if isinstance(u, _UApp) and u.head in arities:
                    callee = u.head
                    cparams = next(p for n, p, _ in raw_defs
                                   if n == callee)
                    slot = 0
                    for a in u.args:
                        if isinstance(a, _UVar) and a.name not in \
                                set(params) and a.name not in arities \
                                and a.name not in events:
                            continue  # handle argument, dropped
                        if slot >= len(cparams):
                            break
                        slot_key = (callee, cparams[slot])
                        ck = kinds[slot_key]
                        if name and isinstance(a, _UVar) \
                                and a.name in set(params):
                            ak = kinds[(name, a.name)]
                            if (ak is None) != (ck is None):
                                kinds[(name, a.name)] = kinds[slot_key] = \
                                    ak or ck
                                changed = True
                        if ck is None and not isinstance(a, _UVar):
                            guess = "int" if isinstance(
                                a, (_UNum, _UOp)) else "prop"
                            kinds[slot_key] = guess
                            changed = True
                        slot += 1
    for key, k in kinds.items():
        if k is None:
            kinds[key] = "prop"  # unused parameters default to continuations

    defs: list[Definition] = []

    def elab_int(u, dname, params) -> IntExpr:
        match u:
            case _UNum(n):
                return IConst(n)
            case _UVar(n):
                if n in params and kinds[(dname, n)] == "int":
                    return IVar(n)
                raise ProgramError(
                    f"{n!r} is not an integer parameter here")
            case _UOp("+", (l, r)):
                return Add(elab_int(l, dname, params),
                           elab_int(r, dname, params))
            case _UOp("-", (l, r)):
                return Sub(elab_int(l, dname, params),
                           elab_int(r, dname, params))
            case _UOp("neg", (b,)):
                return INeg(elab_int(b, dname, params))
        raise ProgramError(f"expected an integer expression, got {u!r}")

    def is_handle(u, dname, params) -> bool:
        return (isinstance(u, _UVar) and u.name not in params
                and u.name not in arities and u.name not in events)

    def elab_call(head, uargs, dname, params) -> Expr:
        args: list = []
        for a in uargs:
            if is_handle(a, dname, params):
                continue
            if isinstance(a, (_UNum, _UOp)) or (
                    isinstance(a, _UVar) and a.name in params
                    and kinds[(dname, a.name)] == "int"):
                args.append(elab_int(a, dname, params))
            else:
                args.append(elab_expr(a, dname, params))
        if head in arities and len(args) != arities[head]:
            raise ProgramError(
                f"call of {head} with {len(args)} arguments, expected "
                f"{arities[head]}")
        return Call(head, tuple(args))

    def elab_expr(u, dname, params) -> Expr:
        match u:
            case _UUnit():
                return Unit()
            case _UIf(c, t, e):
                if not isinstance(c, _UCmp):
                    raise ProgramError("condition must be a linear comparison")
                cond = Atom(c.op, elab_int(c.lhs, dname, params),
                            elab_int(c.rhs, dname, params))
                return If(cond, elab_expr(t, dname, params),
                          elab_expr(e, dname, params))
            case _USeq(first, cont):
                if first.head not in events:
                    raise ProgramError(
                        f"';' is only allowed after an event, got "
                        f"{first.head!r}")
                return Event(first.head, elab_expr(cont, dname, params))
            case _UApp(head, args):
                if head in events:
                    cont_args = [a for a in args
                                 if not is_handle(a, dname, params)]
                    if len(cont_args) > 1:
                        raise ProgramError(
                            f"event {head} takes one continuation, got "
                            f"{len(cont_args)}")
                    cont = elab_expr(cont_args[0], dname, params) \
                        if cont_args else Unit()
                    return Event(head, cont)
                if head in arities or (head in params
                                       and kinds[(dname, head)] == "prop"):
                    return elab_call(head, args, dname, params)
                raise ProgramError(f"unknown function {head!r}")
            case _UVar(n):
                if n in arities:
                    return elab_call(n, (), dname, params)
                if n in params and kinds[(dname, n)] == "prop":
                    return Call(n, ())
                raise ProgramError(f"unknown function {n!r}")
        raise ProgramError(f"expected an expression, got {u!r}")

    for name, params, body in raw_defs:
        typed = tuple(
            (p, INT if kinds[(name, p)] == "int" else PROP) for p in params)
        defs.append(Definition(name=name, params=typed,
                               body=elab_expr(body, name, set(params))))
    main = elab_expr(raw_main, "", set())
    return Program(events=tuple(events), definitions=tuple(defs), main=main)


def _walk(u):
    yield u
    match u:
        case _UOp(_, args):
            for a in args:
                yield from _walk(a)
        case _UCmp(_, l, r):
            yield from _walk(l)
            yield from _walk(r)
        case _UIf(c, t, e):
            yield from _walk(c)
            yield from _walk(t)
            yield from _walk(e)
        case _USeq(first, cont):
            yield from _walk(first)
            yield from _walk(cont)
        case _UApp(_, args):
            for a in args:
                yield from _walk(a)


# ---------------------------------------------------------------------------
# Translation to formulas


def translate_program(program: Program, polarity: str = "mu") -> Formula:
    """Events become diamonds, Unit becomes <end> true, conditionals their
    logical reading, recursion a fixpoint of the chosen polarity (mu demands
    termination)."""
    if polarity not in ("mu", "nu"):
        raise ProgramError(f"polarity must be 'mu' or 'nu', got {polarity!r}")
    fix = Mu if polarity == "mu" else Nu
    denot: dict[str, Formula] = {}

    def tr(e: Expr, env: dict[str, tuple[str, SimpleType]],
           ints: dict[str, IVar]) -> Formula:
        """ints renames integer parameters to their internal names."""
        match e:
            case Unit():
                return Diamond("end", TRUE)
            case Event(label, cont):
                return Diamond(label, tr(cont, env, ints))
            case If(c, t, el):
                c = Atom(c.op, subst_ints(c.lhs, ints), subst_ints(c.rhs, ints))
                return And(Or(dual_int_atom(c), tr(t, env, ints)),
                           Or(c, tr(el, env, ints)))
            case Call(name, args):
                if name in env:
                    internal, t = env[name]
                    head: Formula = Var(internal, t)
                elif name in denot:
                    head = denot[name]
                else:
                    raise ProgramError(f"unknown function {name!r}")
                targs = [subst_ints(a, ints) if isinstance(a, IntExpr)
                         else tr(a, env, ints) for a in args]
                return app(head, *targs)
        raise ProgramError(f"cannot translate {e!r}")

    for d in program.definitions:
        ftype = arrow(*[t for _, t in d.params], PROP) if d.params else PROP
        binder = fresh_name(d.name)
        env = {p: (fresh_name(p), t) for p, t in d.params}
        env[d.name] = (binder, ftype)
        body = tr(d.body, env,
                  {x: IVar(internal) for x, (internal, _) in env.items()})
        body = lam([(env[p][0], t) for p, t in d.params], body)
        denot[d.name] = fix(binder, ftype, body)

    return tr(program.main, {}, {})

