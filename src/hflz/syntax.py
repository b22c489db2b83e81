"""Typed abstract syntax for higher-order fixpoint logic with integers.

Formulas are kept in negation normal form: there is no negation node, and
negation is only expressible through :func:`dualize`.  Every binder carries
its simple type, and binders are made globally unique at construction time
(the parser alpha-renames; :func:`substitute` renames on demand).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass


class HflError(Exception):
    """Base class for all toolkit errors."""


class HflTypeError(HflError):
    pass


# ---------------------------------------------------------------------------
# Simple types


@dataclass(frozen=True)
class PropType:
    def __str__(self) -> str:
        return "prop"


@dataclass(frozen=True)
class IntType:
    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class Arrow:
    arg: "SimpleType"
    res: "SimpleType"

    def __post_init__(self):
        # predicate types only: the result chain must end in prop
        if isinstance(self.res, IntType):
            raise HflTypeError("arrow result must be a predicate type, not int")

    def __str__(self) -> str:
        a = str(self.arg)
        if isinstance(self.arg, Arrow):
            a = f"({a})"
        return f"{a} -> {self.res}"


SimpleType = PropType | IntType | Arrow

PROP = PropType()
INT = IntType()


def arrow(*types: SimpleType) -> SimpleType:
    """arrow(a, b, c) == a -> b -> c (right associative)."""
    if not types:
        raise ValueError("arrow() needs at least one type")
    t = types[-1]
    for a in reversed(types[:-1]):
        t = Arrow(a, t)
    return t


def is_predicate_type(t: SimpleType) -> bool:
    while isinstance(t, Arrow):
        t = t.res
    return isinstance(t, PropType)


def order_of(t: SimpleType) -> int:
    """order(prop) = order(int) = 0; order(a -> b) = max(order(a)+1, order(b))."""
    if isinstance(t, (PropType, IntType)):
        return 0
    return max(order_of(t.arg) + 1, order_of(t.res))


def arg_types(t: SimpleType) -> list[SimpleType]:
    out = []
    while isinstance(t, Arrow):
        out.append(t.arg)
        t = t.res
    return out


# ---------------------------------------------------------------------------
# Integer expressions (linear only; no multiplication node)


@dataclass(frozen=True)
class IConst:
    value: int


@dataclass(frozen=True)
class IVar:
    name: str


@dataclass(frozen=True)
class Add:
    lhs: "IntExpr"
    rhs: "IntExpr"


@dataclass(frozen=True)
class Sub:
    lhs: "IntExpr"
    rhs: "IntExpr"


@dataclass(frozen=True)
class INeg:
    body: "IntExpr"


IntExpr = IConst | IVar | Add | Sub | INeg


# ---------------------------------------------------------------------------
# Formulas

CMP_OPS = ("<=", "<", "=", "!=", ">=", ">")
DUAL_OP = {"<=": ">", ">": "<=", "<": ">=", ">=": "<", "=": "!=", "!=": "="}
CMP_FN = {
    "<=": lambda a, b: a <= b,
    "<": lambda a, b: a < b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
}


@dataclass(frozen=True)
class Var:
    name: str
    type: SimpleType


@dataclass(frozen=True)
class TrueF:
    pass


@dataclass(frozen=True)
class FalseF:
    pass


@dataclass(frozen=True)
class Or:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class And:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Diamond:
    label: str
    body: "Formula"


@dataclass(frozen=True)
class Box:
    label: str
    body: "Formula"


@dataclass(frozen=True)
class Mu:
    var: str
    vtype: SimpleType
    body: "Formula"

    def __post_init__(self):
        if not is_predicate_type(self.vtype):
            raise HflTypeError(f"fixpoint binder {self.var} must have a predicate type")


@dataclass(frozen=True)
class Nu:
    var: str
    vtype: SimpleType
    body: "Formula"

    def __post_init__(self):
        if not is_predicate_type(self.vtype):
            raise HflTypeError(f"fixpoint binder {self.var} must have a predicate type")


@dataclass(frozen=True)
class Lambda:
    var: str
    vtype: SimpleType
    body: "Formula"


@dataclass(frozen=True)
class App:
    fun: "Formula"
    arg: "Formula | IntExpr"


@dataclass(frozen=True)
class Atom:
    op: str
    lhs: IntExpr
    rhs: IntExpr

    def __post_init__(self):
        if self.op not in CMP_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")


@dataclass(frozen=True)
class Exists:
    """Quantifier sugar over an integer variable, kept until desugaring.

    ``lower`` pieces restrict the range to ``x >= max(pieces)``.
    """

    var: str
    body: "Formula"
    lower: tuple[IntExpr, ...] = ()


@dataclass(frozen=True)
class Forall:
    """Quantifier sugar; ``lower`` pieces mean ``x >= max(pieces)``."""

    var: str
    body: "Formula"
    lower: tuple[IntExpr, ...] = ()


Formula = (
    Var | TrueF | FalseF | Or | And | Diamond | Box | Mu | Nu | Lambda | App
    | Atom | Exists | Forall
)

TRUE = TrueF()
FALSE = FalseF()


def app(fun: Formula, *args: "Formula | IntExpr") -> Formula:
    for a in args:
        fun = App(fun, a)
    return fun


def spine(phi: Formula) -> tuple[Formula, list["Formula | IntExpr"]]:
    """The head and the arguments of an application, the inverse of app:
    app(head, *args) is phi again.  A non-application has no arguments."""
    args = []
    while isinstance(phi, App):
        args.append(phi.arg)
        phi = phi.fun
    args.reverse()
    return phi, args


def lam(bindings: list[tuple[str, SimpleType]], body: Formula) -> Formula:
    for name, t in reversed(bindings):
        body = Lambda(name, t, body)
    return body


_fresh_counter = itertools.count(1)


def base_name(name: str) -> str:
    """Strip the uniquifying suffix introduced by fresh_name."""
    return name.split("%", 1)[0]


def fresh_name(base: str) -> str:
    return f"{base_name(base)}%{next(_fresh_counter)}"


KEYWORDS = {"true", "false", "mu", "nu", "exists", "forall", "int", "prop"}
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


def readable_name(name: str, taken: set[str]) -> str:
    """name's base name for a reader, or the first of base1, base2, ...
    that is not in taken or a keyword.  In a base that is no identifier,
    _ replaces each other character, and x leads unless a letter or _."""
    base = base_name(name)
    if not _IDENT.fullmatch(base):
        base = re.sub(r"[^A-Za-z0-9_']", "_", base)
        base = base if _IDENT.match(base) else "x" + base
    i = 0
    while (cand := f"{base}{i or ''}") in taken or cand in KEYWORDS:
        i += 1
    return cand


def desugar_quantifier(phi: Formula) -> Formula:
    """The walk over the integers that a quantifier node stands for, its
    body as it is: exists x. p -> (mu q. \\x. p \\/ q(x-1) \\/ q(x+1)) 0,
    forall the dual, a bounded one upward from its bound.  Other nodes
    are returned as they are."""
    match phi:
        case Exists(x, b, pieces) | Forall(x, b, pieces):
            # exists walks with mu and \/, guarding its lower bounds
            # with >= and /\; forall is the dual
            fix, walk, guard, cmp = (Mu, Or, And, ">=") \
                if isinstance(phi, Exists) else (Nu, And, Or, "<")
            q = Var(fresh_name("q"), arrow(INT, PROP))
            if not pieces:
                body = walk(walk(b, App(q, Sub(IVar(x), IConst(1)))),
                            App(q, Add(IVar(x), IConst(1))))
                start: IntExpr = IConst(0)
            else:
                if any(x in int_vars(p) for p in pieces[1:]):
                    # the guards sit inside the walk's \x, where a bound's
                    # own x would be captured: give the walk a fresh one
                    x2 = fresh_name(x)
                    b, x = substitute(b, {x: IVar(x2)}), x2
                for piece in pieces[1:]:
                    b = guard(Atom(cmp, IVar(x), piece), b)
                body = walk(b, App(q, Add(IVar(x), IConst(1))))
                start = pieces[0]
            return App(fix(q.name, q.type, Lambda(x, INT, body)), start)
    return phi


# ---------------------------------------------------------------------------
# Traversal kernel: the one place that knows every node kind's children.
# Add a node kind here and in the few walkers that give nodes their own
# meaning (typecheck, dualize, the printers, the evaluators).


def children(phi: Formula) -> list[Formula]:
    match phi:
        case Or(l, r) | And(l, r):
            return [l, r]
        case Diamond(_, b) | Box(_, b):
            return [b]
        case Mu(_, _, b) | Nu(_, _, b) | Lambda(_, _, b):
            return [b]
        case Exists(_, b, _) | Forall(_, b, _):
            return [b]
        case App(f, a):
            return [f, a] if not isinstance(a, IntExpr) else [f]
        case _:
            return []


def map_children(phi: Formula, f) -> Formula:
    """Rebuild phi with f applied to each formula child, left to right;
    integer arguments, quantifier bounds and leaves are kept as they are."""
    match phi:
        case Or(l, r):
            return Or(f(l), f(r))
        case And(l, r):
            return And(f(l), f(r))
        case Diamond(a, b):
            return Diamond(a, f(b))
        case Box(a, b):
            return Box(a, f(b))
        case Mu(x, t, b):
            return Mu(x, t, f(b))
        case Nu(x, t, b):
            return Nu(x, t, f(b))
        case Lambda(x, t, b):
            return Lambda(x, t, f(b))
        case Exists(x, b, lower):
            return Exists(x, f(b), lower)
        case Forall(x, b, lower):
            return Forall(x, f(b), lower)
        case App(g, a):
            return App(f(g), a if isinstance(a, IntExpr) else f(a))
        case Var(_, _) | TrueF() | FalseF() | Atom(_, _, _):
            return phi
    raise TypeError(f"not a formula: {phi!r}")


def subformulas(phi: Formula):
    """phi and every formula below it, in preorder; an explicit stack keeps
    the depth of phi off the Python stack."""
    stack = [phi]
    while stack:
        phi = stack.pop()
        yield phi
        stack.extend(reversed(children(phi)))


def int_vars(e: IntExpr) -> list[str]:
    """Variable occurrences of e, left to right (with repetitions)."""
    match e:
        case IConst(_):
            return []
        case IVar(x):
            return [x]
        case Add(l, r) | Sub(l, r):
            return int_vars(l) + int_vars(r)
        case INeg(b):
            return int_vars(b)
    raise TypeError(f"not an integer expression: {e!r}")


def subst_ints(e: IntExpr, mapping: dict) -> IntExpr:
    """Replace every IVar named in mapping at once (parallel substitution);
    a formula in the place of an IVar is a type error."""
    match e:
        case IConst(_):
            return e
        case IVar(x):
            r = mapping.get(x, e)
            if r is not e and not isinstance(r, IntExpr):
                raise HflTypeError(
                    f"cannot substitute a formula for integer variable "
                    f"{base_name(x)}")
            return r
        case Add(l, r):
            return Add(subst_ints(l, mapping), subst_ints(r, mapping))
        case Sub(l, r):
            return Sub(subst_ints(l, mapping), subst_ints(r, mapping))
        case INeg(b):
            return INeg(subst_ints(b, mapping))
    raise TypeError(f"not an integer expression: {e!r}")


def eval_int(e: IntExpr, env: dict) -> int:
    # for transforms.qf_holds and the naive CHC solver; the fixpoint engine
    # compiles integer expressions instead (semantics._compile_int)
    match e:
        case IConst(n):
            return n
        case IVar(x):
            return env[x]
        case Add(l, r):
            return eval_int(l, env) + eval_int(r, env)
        case Sub(l, r):
            return eval_int(l, env) - eval_int(r, env)
        case INeg(b):
            return -eval_int(b, env)
    raise TypeError(f"not an integer expression: {e!r}")


def free_vars(phi: Formula) -> set[str]:
    match phi:
        case Var(n, _):
            return {n}
        case TrueF() | FalseF():
            return set()
        case Or(l, r) | And(l, r):
            return free_vars(l) | free_vars(r)
        case Diamond(_, b) | Box(_, b):
            return free_vars(b)
        case Mu(x, _, b) | Nu(x, _, b) | Lambda(x, _, b):
            return free_vars(b) - {x}
        case Exists(x, b, lower) | Forall(x, b, lower):
            fv = free_vars(b) - {x}
            for e in lower:
                fv.update(int_vars(e))
            return fv
        case App(f, a):
            fv = free_vars(f)
            fv.update(int_vars(a) if isinstance(a, IntExpr) else free_vars(a))
            return fv
        case Atom(_, l, r):
            return set(int_vars(l) + int_vars(r))
    raise TypeError(f"not a formula: {phi!r}")


def is_pure(phi: Formula) -> bool:
    """True when phi contains no integer expressions, atoms, or quantifier sugar."""
    return not any(
        isinstance(s, (Atom, Exists, Forall))
        or isinstance(s, App) and isinstance(s.arg, IntExpr)
        or isinstance(s, Lambda) and isinstance(s.vtype, IntType)
        for s in subformulas(phi))


# ---------------------------------------------------------------------------
# Typing: one rule per check, with its error text.  typecheck below and the
# fixpoint engine's compile walk (semantics) both apply these rules, each
# in typecheck's order, so both raise the same error first.


def _bound_type(name: str, env: dict[str, SimpleType]) -> SimpleType:
    t = env.get(name)
    if t is None:
        raise HflTypeError(f"unbound variable {base_name(name)}")
    return t


def var_type(name: str, annotated: SimpleType,
             env: dict[str, SimpleType]) -> SimpleType:
    """The type of a formula variable, which must be the one it is bound at."""
    t = _bound_type(name, env)
    if t != annotated:
        raise HflTypeError(f"variable {base_name(name)} annotated {annotated} "
                           f"but bound at {t}")
    return t


def check_int_var(name: str, env: dict[str, SimpleType]) -> None:
    t = _bound_type(name, env)
    if not isinstance(t, IntType):
        raise HflTypeError(f"{base_name(name)} has type {t}, expected int")


_OPERAND = {Or: "disjunct", And: "conjunct", Diamond: "modal operand",
            Box: "modal operand", Exists: "quantifier body",
            Forall: "quantifier body"}


def expect_prop_operand(phi: Formula, t: SimpleType) -> None:
    """An operand of the connective, modality or quantifier phi has type t."""
    if not isinstance(t, PropType):
        raise HflTypeError(
            f"{_OPERAND[type(phi)]} must have type prop, got {t}")


def expect_prop_formula(t: SimpleType) -> None:
    """The type t of a whole formula to check or evaluate is prop."""
    if not isinstance(t, PropType):
        raise HflTypeError(f"formula must have type prop, got {t}")


def fixpoint_type(binder: SimpleType, body: SimpleType) -> SimpleType:
    if body != binder:
        raise HflTypeError(
            f"fixpoint body has type {body}, binder says {binder}")
    return binder


def function_type(t: SimpleType) -> Arrow:
    """The type of an applied formula, which must be a function type."""
    if not isinstance(t, Arrow):
        raise HflTypeError(f"cannot apply a value of type {t}")
    return t


def result_type(fun: Arrow, arg: SimpleType) -> SimpleType:
    if arg != fun.arg:
        raise HflTypeError(f"argument has type {arg}, expected {fun.arg}")
    return fun.res


def typecheck_int(e: IntExpr, env: dict[str, SimpleType]) -> SimpleType:
    for n in int_vars(e):
        check_int_var(n, env)
    return INT


def typecheck(phi: Formula, env: dict[str, SimpleType] | None = None) -> SimpleType:
    """Return the unique simple type of phi under env, or raise HflTypeError."""
    env = env or {}
    match phi:
        case Var(n, t):
            return var_type(n, t, env)
        case TrueF() | FalseF():
            return PROP
        case Or(l, r) | And(l, r):
            expect_prop_operand(phi, typecheck(l, env))
            expect_prop_operand(phi, typecheck(r, env))
            return PROP
        case Diamond(_, b) | Box(_, b):
            expect_prop_operand(phi, typecheck(b, env))
            return PROP
        case Mu(x, t, b) | Nu(x, t, b):
            return fixpoint_type(t, typecheck(b, {**env, x: t}))
        case Lambda(x, t, b):
            return Arrow(t, typecheck(b, {**env, x: t}))
        case App(f, a):
            ft = function_type(typecheck(f, env))
            return result_type(ft, typecheck_int(a, env)
                               if isinstance(a, IntExpr)
                               else typecheck(a, env))
        case Atom(_, l, r):
            typecheck_int(l, env)
            typecheck_int(r, env)
            return PROP
        case Exists(x, b, lower) | Forall(x, b, lower):
            for e in lower:
                typecheck_int(e, env)
            expect_prop_operand(phi, typecheck(b, {**env, x: INT}))
            return PROP
    raise TypeError(f"not a formula: {phi!r}")


# ---------------------------------------------------------------------------
# Substitution


def substitute(phi: Formula,
               mapping: dict[str, Formula | IntExpr]) -> Formula:
    """Capture-avoiding parallel substitution: each free variable named in
    mapping is replaced by its entry, all at once."""
    return _Substitution(mapping).go(phi) if mapping else phi


class _Substitution:
    """phi[mapping] by one walk.  A binder that shadows a name drops it
    from its body's mapping; one that may capture a free variable of a
    replacement is renamed by one more entry there.  The walk is a method,
    not a closure that calls itself through its own cell, so a call leaves
    no cyclic garbage."""

    def __init__(self, mapping: dict[str, Formula | IntExpr]):
        self.mapping = mapping
        # the free variables of all replacements, at the first binder
        self.repl_fv: set[str] | None = None

    def go(self, phi: Formula) -> Formula:
        mapping = self.mapping
        match phi:
            case Var(n, _):
                r = mapping.get(n, phi)
                if r is not phi and isinstance(r, IntExpr):
                    raise HflTypeError(
                        f"cannot substitute an integer expression for "
                        f"formula variable {base_name(n)}")
                return r
            case Atom(op, l, r):
                return Atom(op, subst_ints(l, mapping), subst_ints(r, mapping))
            case App(f, a) if isinstance(a, IntExpr):
                return App(self.go(f), subst_ints(a, mapping))
            case Mu(y, t, b) | Nu(y, t, b) | Lambda(y, t, b):
                return type(phi)(*self.under(y, t, b))
            case Exists(y, b, lower) | Forall(y, b, lower):
                lower = tuple(subst_ints(e, mapping) for e in lower)
                y, _, b = self.under(y, INT, b)
                return type(phi)(y, b, lower)
        return map_children(phi, self.go)

    def under(self, y: str, t: SimpleType, body: Formula):
        """(binder, type, body) of the binder y: t over body, substituted"""
        outer = mapping = self.mapping
        if y in mapping:
            mapping = {x: r for x, r in mapping.items() if x != y}
            if not mapping:
                return y, t, body
        if self.repl_fv is None:  # outer is still the caller's mapping
            self.repl_fv = set()
            for r in outer.values():
                self.repl_fv.update(int_vars(r) if isinstance(r, IntExpr)
                                    else free_vars(r))
        if y in self.repl_fv and not free_vars(body).isdisjoint(mapping):
            y2 = fresh_name(y)
            mapping = {**mapping, y: IVar(y2) if isinstance(t, IntType)
                       else Var(y2, t)}
            y = y2
        self.mapping = mapping
        body = self.go(body)
        self.mapping = outer
        return y, t, body


# ---------------------------------------------------------------------------
# Dualization, unfolding, beta


def dual_int_atom(a: Atom) -> Atom:
    return Atom(DUAL_OP[a.op], a.lhs, a.rhs)


def dualize(phi: Formula) -> Formula:
    """De Morgan dual: swaps and/or, mu/nu, diamond/box, true/false and
    complements atoms.  For closed prop formulas, M |= dual(phi) iff not
    M |= phi."""
    match phi:
        case TrueF():
            return FALSE
        case FalseF():
            return TRUE
        case Or(l, r):
            return And(dualize(l), dualize(r))
        case And(l, r):
            return Or(dualize(l), dualize(r))
        case Diamond(a, b):
            return Box(a, dualize(b))
        case Box(a, b):
            return Diamond(a, dualize(b))
        case Mu(x, t, b):
            return Nu(x, t, dualize(b))
        case Nu(x, t, b):
            return Mu(x, t, dualize(b))
        case Atom(_, _, _):
            return dual_int_atom(phi)
        case Exists(x, b, lower):
            return Forall(x, dualize(b), lower)
        case Forall(x, b, lower):
            return Exists(x, dualize(b), lower)
    return map_children(phi, dualize)


class NotAFixpoint(HflError):
    pass


class NoRedex(HflError):
    pass


def unfold_fixpoint(phi: Formula) -> Formula:
    """sigma x. phi  -->  phi[x := sigma x. phi] (root fixpoint only)."""
    match phi:
        case Mu(x, _, b) | Nu(x, _, b):
            return substitute(b, {x: phi})
        case _:
            raise NotAFixpoint(f"not a fixpoint formula: {type(phi).__name__}")


def beta_step(phi: Formula) -> Formula:
    """One beta-contraction of a root App-of-Lambda redex."""
    match phi:
        case App(Lambda(x, _, b), a):
            return substitute(b, {x: a})
        case _:
            raise NoRedex("no beta redex at the root")


def beta_step_anywhere(phi: Formula) -> Formula:
    """Reduce the leftmost-outermost beta redex anywhere in phi."""
    walk = _FirstRedex()
    out = walk.go(phi)
    if not walk.done:
        raise NoRedex("no beta redex anywhere in the formula")
    return out


class _FirstRedex:
    """beta_step_anywhere's walk: a method, not a closure that calls itself
    through its own cell, so a call leaves no cyclic garbage."""

    done = False

    def go(self, phi: Formula) -> Formula:
        if self.done:
            return phi
        if isinstance(phi, App) and isinstance(phi.fun, Lambda):
            self.done = True
            return beta_step(phi)
        return map_children(phi, self.go)


# ---------------------------------------------------------------------------
# Alpha equivalence


def alpha_eq(a: Formula, b: Formula) -> bool:
    """Structural equality modulo bound-variable names."""
    return _alpha_eq(a, b, {}, {}, 0)


def _alpha_eq(a: Formula, b: Formula, la: dict, lb: dict, depth: int) -> bool:
    # la, lb: bound name -> IVar("#d"), d the depth of its binder, so integer
    # expressions compare after subst_ints.  Module-level: no cyclic garbage
    if type(a) is not type(b):
        return False
    match (a, b):
        case (Var(m, t1), Var(n, t2)):
            return t1 == t2 and la.get(m, m) == lb.get(n, n)
        case (TrueF(), TrueF()) | (FalseF(), FalseF()):
            return True
        case ((Or(l1, r1), Or(l2, r2)) | (And(l1, r1), And(l2, r2))):
            return (_alpha_eq(l1, l2, la, lb, depth)
                    and _alpha_eq(r1, r2, la, lb, depth))
        case ((Diamond(x, b1), Diamond(y, b2)) | (Box(x, b1), Box(y, b2))):
            return x == y and _alpha_eq(b1, b2, la, lb, depth)
        case ((Mu(x, t1, b1), Mu(y, t2, b2))
              | (Nu(x, t1, b1), Nu(y, t2, b2))
              | (Lambda(x, t1, b1), Lambda(y, t2, b2))
              | (Exists(x, b1, t1), Exists(y, b2, t2))
              | (Forall(x, b1, t1), Forall(y, b2, t2))):
            # t1, t2: the binder types, or the lower bounds of a quantifier
            if isinstance(t1, tuple):
                t1 = [subst_ints(e, la) for e in t1]
                t2 = [subst_ints(e, lb) for e in t2]
            mark = IVar(f"#{depth}")
            return t1 == t2 and _alpha_eq(b1, b2, {**la, x: mark},
                                          {**lb, y: mark}, depth + 1)
        case (App(f1, a1), App(f2, a2)):
            if isinstance(a1, IntExpr) != isinstance(a2, IntExpr):
                return False
            return _alpha_eq(f1, f2, la, lb, depth) and (
                subst_ints(a1, la) == subst_ints(a2, lb)
                if isinstance(a1, IntExpr)
                else _alpha_eq(a1, a2, la, lb, depth))
        case (Atom(o1, l1, r1), Atom(o2, l2, r2)):
            return (o1, subst_ints(l1, la), subst_ints(r1, la)) == \
                (o2, subst_ints(l2, lb), subst_ints(r2, lb))
    return False
