"""Bridge between constrained Horn clauses (CHC) and HFL(Z) formulas.

A CHC system is satisfiable iff the HFL formula produced by
:func:`chc_to_hfl` is valid, and dually for :func:`hfl_to_chc`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import reduce
from itertools import count

from . import smt
from .smt import ChcShapeError
from .syntax import (
    DUAL_OP, And, App, Atom, Box, Diamond, Exists, FALSE, FalseF, Forall, INT,
    HflTypeError, IVar, IntExpr, IntType, Lambda, Mu, Nu, Or, PROP, TRUE,
    TrueF, Var, Formula, SimpleType, alpha_eq, app, arg_types, arrow,
    base_name, dualize, fresh_name, free_vars, int_vars, lam, readable_name,
    spine, subst_ints, substitute, var_type,
)


@dataclass(frozen=True, slots=True)
class PredApp:
    """A predicate applied to integer arguments."""

    name: str
    args: tuple[IntExpr, ...]


@dataclass(frozen=True, slots=True)
class Clause:
    """``body => head``: a definite clause, or a goal clause (``body =>
    false``) when head is None.  Body items keep their clause order."""

    head: PredApp | None
    body: tuple[Atom | PredApp, ...]

    def variables(self) -> list[str]:
        """The clause's variables in order of first occurrence, head first."""
        exprs = list(self.head.args) if self.head else []
        for item in self.body:
            exprs += (item.lhs, item.rhs) if isinstance(item, Atom) \
                else item.args
        return list(dict.fromkeys(v for e in exprs for v in int_vars(e)))


@dataclass(frozen=True)
class ChcSystem:
    """Predicates with arities, definite clauses, and goal clauses.

    Clause variables are plain (source-level) names local to their clause.
    """

    preds: dict[str, int]
    definite: tuple[Clause, ...]
    goals: tuple[Clause, ...]

    def __post_init__(self):
        if any(c.head is None for c in self.definite) \
                or any(c.head for c in self.goals):
            raise ChcShapeError("a definite clause needs a head and a goal "
                                "clause has none")
        for c in self.definite + self.goals:
            for p in (c.head, *c.body):
                if not isinstance(p, PredApp):
                    continue
                if p.name not in self.preds:
                    raise ChcShapeError(f"undeclared predicate {p.name!r}")
                if len(p.args) != self.preds[p.name]:
                    raise ChcShapeError(
                        f"application of {p.name} has {len(p.args)} "
                        f"arguments, declared arity is {self.preds[p.name]}")


@dataclass(frozen=True)
class SolverVerdict:
    kind: str  # "sat" | "unsat" | "unknown"
    detail: str = ""


# ---------------------------------------------------------------------------
# CHC -> HFL


def chc_to_hfl(system: ChcSystem) -> Formula:
    """Encode satisfiability of the system as validity of a closed formula.

    Definite clauses become least-fixpoint definitions (mutual recursion is
    handled by nesting).  A goal clause ``B => false`` becomes the dual of
    its clause body ``exists x. B``, and the goals are conjoined.
    """
    # each predicate's arity and definite clauses
    defs = {p: (k, []) for p, k in system.preds.items()}
    for c in system.definite:
        defs[c.head.name][1].append(c)
    goals = [dualize(_clause_body(defs, goal, [], {}))
             for goal in system.goals]
    return reduce(And, goals) if goals else TRUE


# module-level, not a closure that calls itself through its own cell, so a
# call leaves no cyclic garbage
def _pred_formula(defs: dict[str, tuple[int, list[Clause]]], p: str,
                  outer: dict[str, Var]) -> Formula:
    arity, clauses = defs[p]
    t = arrow(*[INT] * arity, PROP)
    binder = fresh_name(p)
    outer = {**outer, p: Var(binder, t)}
    params = [fresh_name(b) for b in _param_names(clauses, arity)]
    bodies = [_clause_body(defs, c, params, outer) for c in clauses]
    disj = reduce(Or, bodies) if bodies else FALSE
    return Mu(binder, t, lam([(x, INT) for x in params], disj))


def _param_names(clauses: list[Clause], arity: int) -> list[str]:
    for c in clauses:
        args = c.head.args
        if all(isinstance(a, IVar) for a in args) \
                and len({a.name for a in args}) == arity:
            return [a.name for a in args]
    return [f"x{i + 1}" for i in range(arity)]


def _clause_body(defs: dict[str, tuple[int, list[Clause]]], c: Clause,
                 params: list[str], outer: dict[str, Var]) -> Formula:
    """The body of c with its head's arguments bound to params (a goal has
    no head) and its other variables existentially quantified."""
    env: dict[str, IVar] = {}
    equalities: list[Atom] = []
    for param, arg in zip(params, c.head.args if c.head else ()):
        if isinstance(arg, IVar) and arg.name not in env:
            env[arg.name] = IVar(param)
        else:
            equalities.append(Atom("=", IVar(param), arg))
    local_sources = [v for v in c.variables() if v not in env]
    for v in local_sources:
        env[v] = IVar(fresh_name(v))
    # equalities may mention locals, so rename them after env is complete
    parts: list[Formula] = [substitute(a, env) for a in equalities]
    for item in c.body:
        if isinstance(item, Atom):
            parts.append(substitute(item, env))
        else:
            target: Formula = outer[item.name] if item.name in outer \
                else _pred_formula(defs, item.name, outer)
            parts.append(
                app(target, *[subst_ints(e, env) for e in item.args]))
    body = reduce(And, parts) if parts else TRUE
    for v in reversed(local_sources):
        body = Exists(env[v].name, body)
    return body


# ---------------------------------------------------------------------------
# HFL -> CHC


def hfl_to_chc(phi: Formula) -> ChcSystem:
    """Extract a refutation clause system from a closed first-order formula
    whose only fixpoints are greatest fixpoints over int^k -> prop: each
    nu-definition becomes a predicate whose definite clauses derive where
    it fails, and the formula's failures become goal clauses, so the
    system is satisfiable iff the formula is valid."""
    walk = _Extraction()
    goals = tuple(Clause(None, b) for b in walk.go(phi, {}, set()))
    return ChcSystem(walk.preds, tuple(walk.definite), goals)


class _Extraction:
    """The one walk of hfl_to_chc: go(phi, ienv, taken) gives the bodies of
    the clauses that refute phi, the DNF of its dual read off phi itself,
    over the clause variables ienv renames to; a local avoids the names in
    taken.  It types phi as it goes: the fragment leaves only annotations
    and arities to check.  Methods, not a closure that calls itself through
    its own cell, so a call leaves no cyclic garbage."""

    def __init__(self):
        self.preds: dict[str, int] = {}
        self.definite: list[Clause] = []
        # the definitions met so far by base name: (nu, penv, predicate)
        self.defs: dict[str, list[tuple[Nu, dict, str]]] = {}
        # fixpoint variable in scope -> its predicate and type
        self.penv: dict[str, tuple[str, SimpleType]] = {}

    def go(self, phi: Formula, ienv: dict[str, IVar],
           taken: set[str]) -> list[tuple[Atom | PredApp, ...]]:
        match phi:
            case And(l, r):
                return self.go(l, ienv, taken) + self.go(r, ienv, taken)
            case Or(l, r):
                left = self.go(l, ienv, taken)
                # right's locals meet left's variables in one clause
                right = self.go(r, ienv, taken.union(*(
                    Clause(None, b).variables() for b in left)))
                return [a + b for a in left for b in right]
            case TrueF():
                return []
            case FalseF():
                return [()]
            case Atom(op, l, r):
                return [(Atom(DUAL_OP[op], _to_source(l, ienv),
                              _to_source(r, ienv)),)]
            case Forall(x, b, pieces):
                lname = readable_name(x, taken)
                guards = tuple(Atom(">=", IVar(lname), _to_source(p, ienv))
                               for p in pieces)
                inner = self.go(b, {**ienv, x: IVar(lname)}, taken | {lname})
                return [guards + items for items in inner]
            case Exists(_, _, _):
                raise ChcShapeError(
                    "universal quantification inside a clause body is outside "
                    "the CHC fragment")
            case App(_, _) | Var(_, _) | Nu(_, _, _):
                # every predicate use, nullary ones bare
                head, args = spine(phi)
                if isinstance(head, Mu):
                    return self.go(head, ienv, taken)  # refused there
                if not all(isinstance(a, IntExpr) for a in args):
                    raise ChcShapeError(
                        "higher-order application is outside the CHC fragment")
                sargs = tuple(_to_source(a, ienv) for a in args)
                if isinstance(head, Var):
                    if head.name not in self.penv:
                        raise ChcShapeError(
                            f"application head {base_name(head.name)} is not "
                            "a fixpoint variable")
                    name, t = self.penv[head.name]
                    var_type(head.name, head.type, {head.name: t})
                elif isinstance(head, Nu):
                    name = self.define(head)
                else:
                    raise ChcShapeError(
                        f"unsupported application head {type(head).__name__}")
                if len(sargs) != self.preds[name]:
                    raise ChcShapeError("a fixpoint must be applied to its "
                                        "integer arguments to become a clause "
                                        "predicate")
                return [(PredApp(name, sargs),)]
            case Diamond(_, _) | Box(_, _):
                raise ChcShapeError("modal operators have no CHC counterpart")
            case Mu(x, _, _):
                raise ChcShapeError(
                    f"least fixpoint {base_name(x)} in the input; run "
                    "mu-elimination first (the CHC side of validity only "
                    "covers nu-formulas)")
        raise ChcShapeError(
            f"{type(phi).__name__} is outside the CHC fragment")

    def define(self, nu: Nu) -> str:
        """nu's predicate: that of an alpha-equivalent earlier copy whose
        free names stand for the same predicates, else base, base1, ..."""
        base = base_name(nu.var)
        defs = self.defs.setdefault(base, [])
        for other, penv, name in defs:
            if alpha_eq(other, nu) and all(
                    penv.get(v) == self.penv.get(v) for v in free_vars(nu)):
                return name
        name = next(n for i in count() if (n := f"{base}{i or ''}")
                    not in self.preds)
        defs.append((nu, self.penv, name))
        params, ienv, body = [], {}, nu.body
        for at in arg_types(nu.vtype):
            if not isinstance(at, IntType):
                raise ChcShapeError(
                    f"fixpoint {base} has a non-integer parameter; only "
                    "first-order clauses are supported")
            if not isinstance(body, Lambda):
                raise ChcShapeError(
                    f"fixpoint {base} body must be a lambda chain over its "
                    "parameters")
            if body.vtype != at:
                raise HflTypeError(f"parameter {base_name(body.var)} of "
                                   f"fixpoint {base} annotated {body.vtype}")
            params.append(readable_name(body.var, set(params)))
            ienv[body.var] = IVar(params[-1])
            body = body.body
        self.preds[name] = len(params)
        penv, self.penv = self.penv, {**self.penv, nu.var: (name, nu.vtype)}
        bodies = self.go(body, ienv, set(params))
        self.penv = penv
        head = PredApp(name, tuple(map(IVar, params)))
        self.definite.extend(Clause(head, b) for b in bodies)
        return name


def _to_source(e: IntExpr, ienv: dict[str, IVar]) -> IntExpr:
    for x in int_vars(e):
        if x not in ienv:
            raise ChcShapeError(
                f"integer variable {base_name(x)} is bound outside the "
                "clause being extracted")
    return subst_ints(e, ienv)


# ---------------------------------------------------------------------------
# SMT-LIB HORN emission and reading


def emit_smtlib_horn(system: ChcSystem) -> str:
    lines = ["(set-logic HORN)"]
    for name in sorted(system.preds):
        sorts = " ".join(["Int"] * system.preds[name])
        lines.append(f"(declare-fun {smt.symbol(name)} ({sorts}) Bool)")

    def item_sexpr(item: Atom | PredApp) -> str:
        if isinstance(item, Atom):
            return smt.atom_to_sexpr(item)
        name = smt.symbol(item.name)
        if not item.args:
            return name
        args = " ".join(smt.int_expr_to_sexpr(a) for a in item.args)
        return f"({name} {args})"

    for c in system.definite + system.goals:
        head = item_sexpr(c.head) if c.head else "false"
        if not c.body:
            impl = head
        elif len(c.body) == 1:
            impl = f"(=> {item_sexpr(c.body[0])} {head})"
        else:
            conj = " ".join(item_sexpr(i) for i in c.body)
            impl = f"(=> (and {conj}) {head})"
        if variables := c.variables():
            binds = " ".join(f"({smt.symbol(v)} Int)" for v in variables)
            impl = f"(forall ({binds}) {impl})"
        lines.append(f"(assert {impl})")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def parse_smtlib_horn(text: str) -> ChcSystem:
    preds: dict[str, int] = {}
    clauses: list[Clause] = []

    def read_item(s) -> Atom | PredApp:
        if isinstance(s, str):
            if s in preds:
                return PredApp(s, ())
            raise ChcShapeError(f"unknown body item {smt.sexpr_text(s)!r}")
        if s and isinstance(s[0], str) and s[0] in preds:
            return PredApp(s[0],
                           tuple(smt.sexpr_to_int_expr(a) for a in s[1:]))
        return smt.sexpr_to_atom(s)

    def read_body(s) -> list[Atom | PredApp]:
        if isinstance(s, list) and s and s[0] == "and":
            return [read_item(x) for x in s[1:]]
        if s == "true":
            return []
        return [read_item(s)]

    for form in smt.parse_sexprs(text):
        match form:
            case [("set-logic" | "set-info" | "set-option" | "check-sat"
                   | "get-model" | "exit"), *_]:
                pass
            case ["declare-fun", str(name), list(sorts), res]:
                if res != "Bool" or any(s != "Int" for s in sorts):
                    raise ChcShapeError(
                        f"predicate {name} must have sort Int^k -> Bool")
                preds[name] = len(sorts)
            case ["declare-rel", str(name), list(sorts)]:
                preds[name] = len(sorts)
            case [("assert" | "rule" | "query") as head, body]:
                match body:
                    case ["forall", _, inner]:
                        body = inner
                match head, body:
                    case "query", _:
                        pre, post = body, "false"
                    case _, ["=>", pre, post]:
                        pass
                    case _:
                        pre, post = "true", body
                items = tuple(read_body(pre))
                concl = None if post == "false" else read_item(post)
                if concl is not None and not isinstance(concl, PredApp):
                    raise ChcShapeError(
                        "clause head must be a predicate application or "
                        "false")
                clauses.append(Clause(concl, items))
            case [("declare-fun" | "declare-rel" | "assert" | "rule"
                   | "query"), *_]:
                raise ChcShapeError(
                    f"malformed command {smt.sexpr_text(form)}")
            case [head, *_]:
                raise ChcShapeError(
                    f"unsupported command {smt.sexpr_text(head)!r}")
            case _:
                raise ChcShapeError(
                    f"unexpected toplevel form {smt.sexpr_text(form)!r}")

    return ChcSystem(preds=preds,
                     definite=tuple(c for c in clauses if c.head),
                     goals=tuple(c for c in clauses if not c.head))


# ---------------------------------------------------------------------------
# External solver


def solve_external(system: ChcSystem, command: str, timeout: float = 60.0,
                   cancel: threading.Event | None = None) -> SolverVerdict:
    """Run an external HORN solver on the emitted SMT-LIB script; command
    is a shell-ish template with a {file} placeholder.

    Timeouts and cancellation give Unknown; a malformed answer gives Unknown
    with the raw output attached; failure to start the process raises.
    """
    return SolverVerdict(*smt.run_solver(
        command, emit_smtlib_horn(system), timeout, cancel))


# ---------------------------------------------------------------------------
# Model validation


def validate_model(system: ChcSystem,
                   model: dict[str, tuple[list[str], Formula]],
                   oracle) -> bool | None:
    """Check that a candidate model (quantifier-free formula per predicate)
    satisfies every clause, by oracle.entails(hyps, concl) -> bool | None
    (a transforms.EntailmentOracle); None when it cannot decide a clause."""

    def instantiate(item: Atom | PredApp | None) -> Formula:
        if item is None:
            return FALSE
        if isinstance(item, Atom):
            return item
        params, body = model[item.name]
        if len(params) != len(item.args):
            raise ChcShapeError(
                f"model for {item.name} has {len(params)} parameters, "
                f"expected {len(item.args)}")
        return substitute(body, dict(zip(params, item.args)))

    undecided = False
    for c in system.definite + system.goals:
        v = oracle.entails([instantiate(i) for i in c.body],
                           instantiate(c.head))
        if v is False:
            return False
        undecided |= v is None
    return None if undecided else True
