"""Bridge between constrained Horn clauses (CHC) and HFL(Z) formulas.

A CHC system is satisfiable iff the HFL formula produced by
:func:`chc_to_hfl` is valid, and dually for :func:`hfl_to_chc`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial, reduce

from . import smt
from .smt import ChcShapeError
from .syntax import (
    And, App, Atom, Box, Diamond, Exists, FALSE, FalseF, Forall, INT, IVar,
    IntExpr, IntType, Lambda, Mu, Or, PROP, TRUE, TrueF, Var, Formula, app,
    arg_types, arrow, base_name, dualize, fresh_name, int_vars, lam,
    readable_name, spine, subformulas, subst_ints, substitute, typecheck,
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
    t = arrow(*([INT] * arity), PROP) if arity else PROP
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
    whose only fixpoints are greatest fixpoints over int^k -> prop.

    The formula is dualized (turning nu into mu); the mu-definitions become
    definite clauses and the rest becomes goal clauses, so the system is
    satisfiable iff the input formula is valid.
    """
    t = typecheck(phi)
    if t != PROP:
        raise ChcShapeError(f"expected a closed prop formula, got type {t}")
    _check_chc_fragment(phi)

    preds: dict[str, int] = {}
    definite: list[Clause] = []
    goals = [Clause(None, tuple(items)) for items in _disjuncts(
        dualize(phi), {}, {}, set(), partial(_define, preds, definite))]
    return ChcSystem(preds=preds, definite=tuple(definite), goals=tuple(goals))


def _define(preds: dict[str, int], definite: list[Clause], mu: Mu) -> str:
    """The predicate of mu; its clauses go to definite on first use.
    Module-level, not a closure that calls itself through its own cell,
    so a call leaves no cyclic garbage."""
    name = base_name(mu.var)
    ats = arg_types(mu.vtype)
    if name in preds:
        # a nested copy of an already-extracted definition
        if preds[name] != len(ats):
            raise ChcShapeError(
                f"two fixpoints named {name} with different arities")
        return name
    preds[name] = len(ats)
    params: list[str] = []
    body = mu.body
    ienv: dict[str, IVar] = {}
    taken: set[str] = set()
    for at in ats:
        if not isinstance(at, IntType):
            raise ChcShapeError(
                f"fixpoint {name} has a non-integer parameter; only "
                "first-order clauses are supported")
        if not isinstance(body, Lambda):
            raise ChcShapeError(
                f"fixpoint {name} body must be a lambda chain over its "
                "parameters")
        p = readable_name(body.var, taken)
        taken.add(p)
        ienv[body.var] = IVar(p)
        params.append(p)
        body = body.body
    head = PredApp(name, tuple(IVar(p) for p in params))
    definite.extend(Clause(head, tuple(items)) for items in _disjuncts(
        body, ienv, {mu.var: name}, taken, partial(_define, preds, definite)))
    return name


def _check_chc_fragment(phi: Formula):
    for s in subformulas(phi):
        match s:
            case Diamond(_, _) | Box(_, _):
                raise ChcShapeError(
                    "modal operators have no CHC counterpart")
            case Mu(x, _, _):
                raise ChcShapeError(
                    f"least fixpoint {base_name(x)} in the input; run "
                    "mu-elimination first (the CHC side of validity only "
                    "covers nu-formulas)")


def _disjuncts(phi: Formula, ienv: dict[str, IVar], penv: dict[str, str],
               taken: set[str], define) -> list[list[Atom | PredApp]]:
    """DNF expansion of a dualized (mu-side) body into clause item lists."""
    match phi:
        case Or(l, r):
            return _disjuncts(l, ienv, penv, taken, define) \
                + _disjuncts(r, ienv, penv, taken, define)
        case And(l, r):
            left = _disjuncts(l, ienv, penv, taken, define)
            right = _disjuncts(r, ienv, penv, taken, define)
            return [a + b for a in left for b in right]
        case TrueF():
            return [[]]
        case FalseF():
            return []
        case Atom(op, l, r):
            return [[Atom(op, _to_source(l, ienv), _to_source(r, ienv))]]
        case Exists(x, b, pieces):
            lname = readable_name(x, taken)
            ienv2 = {**ienv, x: IVar(lname)}
            guards: list[Atom | PredApp] = [
                Atom(">=", IVar(lname), _to_source(p, ienv)) for p in pieces]
            inner = _disjuncts(b, ienv2, penv, taken | {lname}, define)
            return [guards + items for items in inner]
        case Forall(_, _, _):
            raise ChcShapeError(
                "universal quantification inside a clause body is outside "
                "the CHC fragment")
        case App(_, _):
            head, args = spine(phi)
            if not all(isinstance(a, IntExpr) for a in args):
                raise ChcShapeError(
                    "higher-order application is outside the CHC fragment")
            sargs = tuple(_to_source(a, ienv) for a in args)
            if isinstance(head, Var):
                if head.name not in penv:
                    raise ChcShapeError(
                        f"application head {base_name(head.name)} is not a "
                        "fixpoint variable")
                return [[PredApp(penv[head.name], sargs)]]
            if isinstance(head, Mu):
                return [[PredApp(define(head), sargs)]]
            raise ChcShapeError(
                f"unsupported application head {type(head).__name__}")
        case Mu(_, _, _):
            raise ChcShapeError(
                "a fixpoint must be applied to its integer arguments to "
                "become a clause predicate")
    raise ChcShapeError(
        f"{type(phi).__name__} is outside the CHC fragment")


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
