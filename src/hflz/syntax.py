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
# meaning (typecheck, dualize, the printers, the evaluators).  The hot
# walkers, here and in the engine's compile walk, read type(node) once and
# branch by `is` tests, most frequent kinds first.  A match on class
# patterns pays for every case that fails: it took 1.2 us to reach the last
# of twelve, `is` tests 0.17 us (Python 3.11.7, one 2-core host).  `is`
# does not see a subclass, and no node class has one.

# the kinds of IntExpr, for a dispatch by type(node)
INT_KINDS = frozenset(IntExpr.__args__)


def children(phi: Formula) -> list[Formula]:
    k = type(phi)
    if k is App:
        a = phi.arg
        return [phi.fun] if type(a) in INT_KINDS else [phi.fun, a]
    if k is Or or k is And:
        return [phi.lhs, phi.rhs]
    if k is Lambda or k is Mu or k is Nu or k is Diamond or k is Box \
            or k is Exists or k is Forall:
        return [phi.body]
    return []


def map_children(phi: Formula, f) -> Formula:
    """Rebuild phi with f applied to each formula child, left to right;
    integer arguments, quantifier bounds and leaves are kept as they are."""
    k = type(phi)
    if k is App:
        a = phi.arg
        return App(f(phi.fun), a if type(a) in INT_KINDS else f(a))
    if k is Var or k is Atom or k is TrueF or k is FalseF:
        return phi
    if k is Or:
        return Or(f(phi.lhs), f(phi.rhs))
    if k is And:
        return And(f(phi.lhs), f(phi.rhs))
    if k is Lambda:
        return Lambda(phi.var, phi.vtype, f(phi.body))
    if k is Mu:
        return Mu(phi.var, phi.vtype, f(phi.body))
    if k is Nu:
        return Nu(phi.var, phi.vtype, f(phi.body))
    if k is Diamond:
        return Diamond(phi.label, f(phi.body))
    if k is Box:
        return Box(phi.label, f(phi.body))
    if k is Exists:
        return Exists(phi.var, f(phi.body), phi.lower)
    if k is Forall:
        return Forall(phi.var, f(phi.body), phi.lower)
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
    k = type(e)
    if k is IVar:
        return [e.name]
    if k is IConst:
        return []
    if k is Add or k is Sub:
        return int_vars(e.lhs) + int_vars(e.rhs)
    if k is INeg:
        return int_vars(e.body)
    raise TypeError(f"not an integer expression: {e!r}")


def subst_ints(e: IntExpr, mapping: dict) -> IntExpr:
    """Replace every IVar named in mapping at once (parallel substitution);
    a formula in the place of an IVar is a type error."""
    k = type(e)
    if k is IVar:
        x = e.name
        r = mapping.get(x, e)
        if r is not e and type(r) not in INT_KINDS:
            raise HflTypeError(
                f"cannot substitute a formula for integer variable "
                f"{base_name(x)}")
        return r
    if k is IConst:
        return e
    if k is Add:
        return Add(subst_ints(e.lhs, mapping), subst_ints(e.rhs, mapping))
    if k is Sub:
        return Sub(subst_ints(e.lhs, mapping), subst_ints(e.rhs, mapping))
    if k is INeg:
        return INeg(subst_ints(e.body, mapping))
    raise TypeError(f"not an integer expression: {e!r}")


def eval_int(e: IntExpr, env: dict) -> int:
    # for transforms.qf_holds and the naive CHC solver; the fixpoint engine
    # compiles integer expressions instead (semantics._compile_int)
    k = type(e)
    if k is IVar:
        return env[e.name]
    if k is IConst:
        return e.value
    if k is Add:
        return eval_int(e.lhs, env) + eval_int(e.rhs, env)
    if k is Sub:
        return eval_int(e.lhs, env) - eval_int(e.rhs, env)
    if k is INeg:
        return -eval_int(e.body, env)
    raise TypeError(f"not an integer expression: {e!r}")


def free_vars(phi: Formula) -> set[str]:
    k = type(phi)
    if k is App:
        fv = free_vars(phi.fun)
        a = phi.arg
        fv.update(int_vars(a) if type(a) in INT_KINDS else free_vars(a))
        return fv
    if k is Var:
        return {phi.name}
    if k is Or or k is And:
        return free_vars(phi.lhs) | free_vars(phi.rhs)
    if k is Atom:
        return set(int_vars(phi.lhs) + int_vars(phi.rhs))
    if k is Lambda or k is Mu or k is Nu:
        return free_vars(phi.body) - {phi.var}
    if k is TrueF or k is FalseF:
        return set()
    if k is Diamond or k is Box:
        return free_vars(phi.body)
    if k is Exists or k is Forall:
        fv = free_vars(phi.body) - {phi.var}
        for e in phi.lower:
            fv.update(int_vars(e))
        return fv
    raise TypeError(f"not a formula: {phi!r}")


def is_pure(phi: Formula) -> bool:
    """True when phi contains no integer expressions, atoms, or quantifier sugar."""
    for s in subformulas(phi):
        k = type(s)
        if k is App and type(s.arg) in INT_KINDS \
                or k is Lambda and type(s.vtype) is IntType \
                or k is Atom or k is Exists or k is Forall:
            return False
    return True


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
    k = type(phi)
    if k is App:
        ft = function_type(typecheck(phi.fun, env))
        a = phi.arg
        return result_type(ft, typecheck_int(a, env)
                           if type(a) in INT_KINDS
                           else typecheck(a, env))
    if k is Var:
        return var_type(phi.name, phi.type, env)
    if k is Or or k is And:
        expect_prop_operand(phi, typecheck(phi.lhs, env))
        expect_prop_operand(phi, typecheck(phi.rhs, env))
        return PROP
    if k is Atom:
        typecheck_int(phi.lhs, env)
        typecheck_int(phi.rhs, env)
        return PROP
    if k is Lambda:
        x, t = phi.var, phi.vtype
        return Arrow(t, typecheck(phi.body, {**env, x: t}))
    if k is Mu or k is Nu:
        x, t = phi.var, phi.vtype
        return fixpoint_type(t, typecheck(phi.body, {**env, x: t}))
    if k is TrueF or k is FalseF:
        return PROP
    if k is Diamond or k is Box:
        expect_prop_operand(phi, typecheck(phi.body, env))
        return PROP
    if k is Exists or k is Forall:
        for e in phi.lower:
            typecheck_int(e, env)
        expect_prop_operand(phi, typecheck(phi.body, {**env, phi.var: INT}))
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
    k = type(phi)
    if k is Or:
        return And(dualize(phi.lhs), dualize(phi.rhs))
    if k is And:
        return Or(dualize(phi.lhs), dualize(phi.rhs))
    if k is Atom:
        return dual_int_atom(phi)
    if k is Mu:
        return Nu(phi.var, phi.vtype, dualize(phi.body))
    if k is Nu:
        return Mu(phi.var, phi.vtype, dualize(phi.body))
    if k is Diamond:
        return Box(phi.label, dualize(phi.body))
    if k is Box:
        return Diamond(phi.label, dualize(phi.body))
    if k is TrueF:
        return FALSE
    if k is FalseF:
        return TRUE
    if k is Exists:
        return Forall(phi.var, dualize(phi.body), phi.lower)
    if k is Forall:
        return Exists(phi.var, dualize(phi.body), phi.lower)
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
    k = type(a)
    if k is not type(b):
        return False
    if k is App:
        a1, a2 = a.arg, b.arg
        int_arg = type(a1) in INT_KINDS
        if int_arg != (type(a2) in INT_KINDS):
            return False
        return _alpha_eq(a.fun, b.fun, la, lb, depth) and (
            subst_ints(a1, la) == subst_ints(a2, lb)
            if int_arg
            else _alpha_eq(a1, a2, la, lb, depth))
    if k is Var:
        m, n = a.name, b.name
        return a.type == b.type and la.get(m, m) == lb.get(n, n)
    if k is Or or k is And:
        return (_alpha_eq(a.lhs, b.lhs, la, lb, depth)
                and _alpha_eq(a.rhs, b.rhs, la, lb, depth))
    if k is Atom:
        return (a.op, subst_ints(a.lhs, la), subst_ints(a.rhs, la)) == \
            (b.op, subst_ints(b.lhs, lb), subst_ints(b.rhs, lb))
    if k is Lambda or k is Mu or k is Nu or k is Exists or k is Forall:
        # t1, t2: the lower bounds of a quantifier, or the binder types
        if k is Exists or k is Forall:
            t1 = [subst_ints(e, la) for e in a.lower]
            t2 = [subst_ints(e, lb) for e in b.lower]
        else:
            t1, t2 = a.vtype, b.vtype
        mark = IVar(f"#{depth}")
        return t1 == t2 and _alpha_eq(a.body, b.body, {**la, a.var: mark},
                                      {**lb, b.var: mark}, depth + 1)
    if k is TrueF or k is FalseF:
        return True
    if k is Diamond or k is Box:
        return a.label == b.label and _alpha_eq(a.body, b.body, la, lb, depth)
    return False
