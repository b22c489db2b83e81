"""Soundness-preserving formula transformations.

Every transformation here is one-sided: validity of the output implies
validity of the input, never the converse.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from functools import reduce

from .smt import SolverError, qf_formula_to_sexpr, run_solver, symbol
from .syntax import (
    Add, And, App, Atom, Box, CMP_FN, Diamond, Exists, FALSE, FalseF, Forall,
    HflError, IConst, INT, INeg, IVar, IntExpr, IntType, Lambda, Mu, Nu, Or,
    PROP, Sub, TRUE, TrueF, Var, Formula, SimpleType, app, arg_types, arrow,
    base_name, desugar_quantifier, eval_int, free_vars, fresh_name, int_vars,
    lam, map_children, spine, subst_ints, substitute,
)


class AbstractionError(HflError):
    pass


# ---------------------------------------------------------------------------
# Unfolding bounds: n = max_i(e_i) over free integer variables


@dataclass(frozen=True)
class BoundExpr:
    """Max of integer expressions over free integer variables, each kept
    as written, its variables by source name."""

    pieces: tuple[IntExpr, ...]

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("a bound needs at least one piece")

    @classmethod
    def const(cls, n: int) -> "BoundExpr":
        return cls(pieces=(IConst(n),))

    @classmethod
    def parse(cls, text: str) -> "BoundExpr":
        from .parser import parse_bound

        return cls(pieces=parse_bound(text))

    @classmethod
    def schedule(cls, text: str) -> list[tuple[str, BoundExpr]]:
        """A comma-separated bound schedule, split at top-level commas so
        ``max(a, b)`` stays one entry; each entry is labelled by its text.
        An entry is parsed at its offset, indented by as many spaces, so a
        syntax error's column counts from the start of the one-line text."""
        return [(part.strip(), cls.parse(" " * start + part))
                for start, part in _split_commas(text)]

    def to_int_exprs(self, scope: dict[str, str]) -> list[IntExpr]:
        """Instantiate pieces; scope maps source variable names to the
        in-scope internal names."""
        for piece in self.pieces:
            for name in int_vars(piece):
                if name not in scope:
                    raise HflError(
                        f"bound variable {name!r} is not an integer variable "
                        "in scope at the eliminated fixpoint")
        renaming = {name: IVar(x) for name, x in scope.items()}
        return [subst_ints(piece, renaming) for piece in self.pieces]


def _split_commas(text: str) -> list[tuple[int, str]]:
    """The pieces of text between its top-level commas, each with its
    offset in text."""
    parts, depth, start = [], 0, 0
    for i, c in enumerate(text):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == "," and depth == 0:
            parts.append((start, text[start:i]))
            start = i + 1
    parts.append((start, text[start:]))
    return parts


# ---------------------------------------------------------------------------
# Quantifier desugaring (two-sided integer walk; Example-style encodings)


def desugar_quantifiers(phi: Formula) -> Formula:
    """Replace each exists/forall by its walk, syntax.desugar_quantifier."""
    return _desugar(phi)


def _desugar(phi: Formula) -> Formula:
    # module-level, so a call leaves no cyclic garbage
    return desugar_quantifier(map_children(phi, _desugar))


# ---------------------------------------------------------------------------
# mu-elimination: bounded unfolding with an explicit counter


def eliminate_mu(phi: Formula, bound: BoundExpr,
                 style: str = "forall") -> Formula:
    """Replace every least fixpoint, of any order, by a counter-indexed
    greatest fixpoint bounded by the given number of unfoldings.

    With style="forall" (the default),

    mu x. \\y1..yk. p  becomes
    \\y1..yk. forall u >= n. (nu x'. \\z. \\y1..yk. z > 0 /\\
                              p[x := x'(z - 1)]) (u, y1..yk)

    With style="apply" the counter is applied directly:

    \\y1..yk. (nu x'. ...) (n, y1..yk)

    which needs no quantifier and so survives window-bounded evaluation;
    it requires a single-piece bound.  Either way, valid output implies
    valid input: phi^n(false) <= mu x. phi holds in every lattice of
    monotone functions.  The parameters y1..yk may have any type; the
    bound may name the integer variables in scope.

    The arguments of an applied mu fill its parameters y1..yk, and only
    the ones left unfilled keep their lambda; an occurrence of x is treated
    alike.  A lambda applied to an integer expression or a variable is
    contracted, so the output holds no redex that the input did not.
    """
    if style not in ("forall", "apply"):
        raise ValueError(f"style must be 'forall' or 'apply', got {style!r}")
    if style == "apply" and len(bound.pieces) > 1:
        raise HflError(
            "style='apply' needs a single-piece bound (max() is not a "
            "linear-arithmetic term)")
    return _MuElimination(bound, style).go(phi)


class _MuElimination:
    """The one bottom-up walk of eliminate_mu: methods, not a closure that
    calls itself through its own cell, so a call leaves no cyclic garbage."""

    def __init__(self, bound: BoundExpr, style: str):
        self.bound, self.style = bound, style
        # the integer variables in scope, by source name, for the bound
        self.scope: dict[str, str] = {}
        # each eliminated mu variable x in scope -> x'(z - 1)
        self.recur: dict[str, Formula] = {}

    def go(self, phi: Formula | IntExpr) -> Formula | IntExpr:
        match phi:
            case IConst() | IVar() | Add() | Sub() | INeg():
                return phi  # an integer argument
            case App(_, _) | Mu(_, _, _) | Var(_, _):
                head, args = spine(phi)
                if isinstance(head, Mu):
                    return self.call(head, args)
                if isinstance(head, Var):
                    args = [self.go(a) for a in args]
                    if head.name not in self.recur:
                        return app(head, *args)
                    # x(args) is x'(z - 1, args), a lambda for each one left
                    ws = [(fresh_name("w"), at)
                          for at in arg_types(head.type)[len(args):]]
                    return lam(ws, app(self.recur[head.name], *args,
                                       *_vars(ws)))
                head = self.go(head)
                return reduce(_contract, map(self.go, args), head)
            case Lambda(x, t, b) | Nu(x, t, b):
                return type(phi)(x, t, self.under(x, t, b))
            case Exists(x, b, pieces) | Forall(x, b, pieces):
                return type(phi)(x, self.under(x, INT, b), pieces)
        return map_children(phi, self.go)

    def under(self, x: str, t: SimpleType, body: Formula) -> Formula:
        """body walked under the binder x: t"""
        scope, recur = self.scope, self.recur
        if isinstance(t, IntType):
            self.scope = {**scope, base_name(x): x}
        if x in recur:  # a binder that shadows an eliminated mu
            self.recur = {y: r for y, r in recur.items() if y != x}
        body = self.go(body)
        self.scope, self.recur = scope, recur
        return body

    def call(self, mu: Mu, args: list) -> Formula:
        """mu applied to args, mu eliminated; each parameter that no
        argument fills gets a lambda"""
        x, t, body = mu.var, mu.vtype, mu.body
        ats = arg_types(t)
        ys: list[str] = []
        while len(ys) < len(ats) and isinstance(body, Lambda):
            ys.append(body.var)
            body = body.body
        params = list(zip(ys + [fresh_name(y) for y in _param_names(
            body, len(ats) - len(ys))], ats))
        z, xp = fresh_name("z"), Var(fresh_name(base_name(x) + "'"),
                                     arrow(INT, t))
        scope, recur = self.scope, self.recur
        self.scope = {**scope, **{base_name(y): y for y, at in zip(ys, ats)
                                  if isinstance(at, IntType)}}
        self.recur = {**recur, x: App(xp, Sub(IVar(z), IConst(1)))}
        body = self.go(app(body, *_vars(params[len(ys):])))
        self.scope, self.recur = scope, recur
        pieces = tuple(self.bound.to_int_exprs(self.scope))
        inner = Nu(xp.name, xp.type, Lambda(z, INT, lam(
            params, And(Atom(">", IVar(z), IConst(0)), body))))
        rest = [(fresh_name(y), at) for y, at in params[len(args):]]
        args = [self.go(a) for a in args] + _vars(rest)
        if self.style == "apply":
            out: Formula = app(inner, pieces[0], *args)
        else:
            u = fresh_name("u")
            out = Forall(u, app(inner, IVar(u), *args), pieces)
        return lam(rest, out)


def _vars(binders: list[tuple[str, SimpleType]]) -> list[Formula | IntExpr]:
    return [IVar(y) if isinstance(t, IntType) else Var(y, t)
            for y, t in binders]


def _param_names(phi: Formula, k: int) -> list[str]:
    """Names for the k parameters that a mu body phi has no lambda for: a
    bare mu there lends the names of its own parameters, else they are y."""
    names = []
    while len(names) < k and isinstance(phi, (Lambda, Mu)):
        if isinstance(phi, Lambda):
            names.append(phi.var)
        phi = phi.body
    return names + ["y"] * (k - len(names))


def _contract(f: Formula, a: Formula | IntExpr) -> Formula:
    """f(a), contracted if f is a lambda and a an integer or a variable."""
    if isinstance(f, Lambda) and isinstance(a, (IntExpr, Var)):
        return substitute(f.body, {f.var: a})
    return App(f, a)


# ---------------------------------------------------------------------------
# Entailment oracles over quantifier-free linear integer formulas


class EntailmentOracle:
    def entails(self, hyps: list[Formula], concl: Formula) -> bool | None:
        raise NotImplementedError


class WindowEntailment(EntailmentOracle):
    """Exhaustive check over a finite window.  Heuristic: a 'yes' answer is
    only certain up to the window, which is reported with a warning once."""

    def __init__(self, width: int = 64, max_vars: int = 4):
        self.width = width
        self.max_vars = max_vars
        self._warned = False

    def entails(self, hyps: list[Formula], concl: Formula) -> bool | None:
        names = sorted(set().union(*map(free_vars, hyps), free_vars(concl)))
        if len(names) > self.max_vars:
            return None
        if not self._warned:
            self._warned = True
            warnings.warn(
                "window entailment is heuristic: entailments are only "
                f"checked for variable values in [-{self.width}, "
                f"{self.width}]", stacklevel=2)
        for vals in itertools.product(
                range(-self.width, self.width + 1), repeat=len(names)):
            env = dict(zip(names, vals))
            if all(qf_holds(h, env) for h in hyps) and not qf_holds(concl, env):
                return False
        return True


class SmtEntailment(EntailmentOracle):
    """Sound entailment via an external SMT solver speaking SMT-LIB QF_LIA.

    The command template must contain a {file} placeholder; without one,
    and whenever the solver does not answer sat or unsat, there is no
    answer (None).
    """

    def __init__(self, command: str, timeout: float = 10.0):
        self.command = command
        self.timeout = timeout

    def entails(self, hyps: list[Formula], concl: Formula) -> bool | None:
        lines = ["(set-logic QF_LIA)"]
        lines += [f"(declare-const {symbol(n)} Int)" for n in sorted(
            set().union(*map(free_vars, hyps), free_vars(concl)))]
        lines += [f"(assert {qf_formula_to_sexpr(h)})" for h in hyps]
        lines.append(f"(assert (not {qf_formula_to_sexpr(concl)}))")
        lines.append("(check-sat)")
        try:
            kind, _ = run_solver(self.command, "\n".join(lines) + "\n",
                                 self.timeout)
        except SolverError:
            return None
        return {"unsat": True, "sat": False}.get(kind)


def qf_holds(phi: Formula, env: dict[str, int]) -> bool:
    match phi:
        case Atom(op, l, r):
            return CMP_FN[op](eval_int(l, env), eval_int(r, env))
        case And(l, r):
            return qf_holds(l, env) and qf_holds(r, env)
        case Or(l, r):
            return qf_holds(l, env) or qf_holds(r, env)
        case TrueF():
            return True
        case FalseF():
            return False
    raise AbstractionError(
        f"not a quantifier-free arithmetic formula: {type(phi).__name__}")


# ---------------------------------------------------------------------------
# Predicate abstraction to pure HFL


@dataclass
class PredicateSet:
    """Linear-atom predicates per integer binder (by source name), with an
    optional default list applied to binders without their own entry.

    Each predicate is a single atom over the binder variable itself.
    """

    per_binder: dict[str, list[Atom]] = field(default_factory=dict)
    default: list[Atom] = field(default_factory=list)

    @classmethod
    def parse(cls, text: str) -> "PredicateSet":
        """One line per binder: 'y: y>0, y>=10'.  A '*' line is the default."""
        from .parser import HflSyntaxError, parse_formula

        per: dict[str, list[Atom]] = {}
        default: list[Atom] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if ":" not in line:
                raise AbstractionError(
                    f"line {lineno}: expected 'binder: atom, atom'")
            name, rest = line.split(":", 1)
            name = name.strip()
            atoms = []
            for _, part in _split_commas(rest):
                var = "x" if name == "*" else name
                try:
                    f = parse_formula(part.strip(), {var: INT})
                except HflSyntaxError as e:
                    raise AbstractionError(
                        f"line {lineno}: {e.message} in {part.strip()!r}"
                    ) from None
                if not isinstance(f, Atom):
                    raise AbstractionError(
                        f"line {lineno}: predicate must be a single atom")
                atoms.append(f)
            if name == "*":
                default = atoms
            else:
                per[name] = atoms
        return cls(per_binder=per, default=default)

    def for_binder(self, source_name: str) -> list[tuple[str, Atom]]:
        """Return (template variable, atom) pairs for a binder."""
        if source_name in self.per_binder:
            return [(source_name, a) for a in self.per_binder[source_name]]
        return [("x", a) for a in self.default]


def abstract_predicates(phi: Formula, preds: PredicateSet,
                        oracle: EntailmentOracle | None = None) -> Formula:
    """Underapproximate a first-order nu-formula with integers by a pure HFL
    formula: integer binders become boolean (prop-typed) binders tracking
    the truth of the given predicates; valid output implies valid input."""
    return _Abstraction(preds, oracle or WindowEntailment()).go(phi, [], {})[0]


class _Abstraction:
    """The walk of abstract_predicates: methods, not closures that call
    themselves through their own cells, so a call leaves no garbage."""

    def __init__(self, preds: PredicateSet, oracle: EntailmentOracle):
        self.preds, self.oracle = preds, oracle

    def weakest(self, benv, target: Formula) -> Formula:
        if len(benv) > 12:
            raise AbstractionError("too many boolean variables in scope")
        minimal: list[tuple[int, ...]] = []
        for size in range(len(benv) + 1):
            for combo in itertools.combinations(range(len(benv)), size):
                if any(set(m) <= set(combo) for m in minimal):
                    continue
                verdict = self.oracle.entails(
                    [benv[i][1] for i in combo], target)
                if verdict is None:
                    warnings.warn(
                        "entailment oracle gave no answer; degrading the "
                        "atom to false (still sound)", stacklevel=2)
                    continue
                if verdict:
                    minimal.append(combo)
        if not minimal:
            return FALSE
        if () in minimal:  # then minimal == [()]
            return TRUE
        return reduce(Or, [reduce(And, [Var(benv[i][0], PROP) for i in combo])
                           for combo in minimal])

    def abstract_arg(self, benv, templates: list[tuple[str, Atom]],
                     e: IntExpr) -> list[Formula]:
        out = []
        for tvar, a in templates:
            extra = free_vars(a) - {tvar}
            if extra:
                raise AbstractionError(
                    "call-site instantiation only supports predicates over "
                    f"the binder variable alone, got extra vars {extra}")
            out.append(self.weakest(benv, substitute(a, {tvar: e})))
        return out

    # a signature has one entry per parameter: the predicate templates of
    # an integer parameter, None for any other
    def signature(self, binder_type: SimpleType, body: Formula):
        sig = []
        for t in arg_types(binder_type):
            if isinstance(t, IntType):
                if not isinstance(body, Lambda):
                    raise AbstractionError(
                        "fixpoint bodies must be lambda chains over their "
                        "integer parameters for abstraction")
                sig.append(self.preds.for_binder(base_name(body.var)))
            else:
                sig.append(None)
            if isinstance(body, Lambda):
                body = body.body
        return sig

    def go(self, phi: Formula, benv, sigs: dict[str, list]):
        """Returns (formula, remaining signature)."""
        match phi:
            case Var(x, t):
                if isinstance(t, IntType):
                    raise AbstractionError("free integer variable in formula")
                return Var(x, _abstract_type(t, sigs.get(x))), \
                    list(sigs.get(x) or [])
            case Atom(_, _, _):
                return self.weakest(benv, phi), []
            case TrueF() | FalseF() | And() | Or() | Diamond() | Box():
                return map_children(
                    phi, lambda c: self.go(c, benv, sigs)[0]), []
            case Lambda(x, t, b):
                if isinstance(t, IntType):
                    templates = self.preds.for_binder(base_name(x))
                    bools = [(fresh_name("b"), substitute(a, {tv: IVar(x)}))
                             for tv, a in templates]
                    body, bsig = self.go(b, benv + bools, sigs)
                    for bx, _a in reversed(bools):
                        body = Lambda(bx, PROP, body)
                    return body, [templates] + bsig
                body, bsig = self.go(b, benv, sigs)
                return Lambda(x, t, body), [None] + bsig
            case Mu(x, t, b) | Nu(x, t, b) as node:
                sig = self.signature(t, b)
                body, _ = self.go(b, benv, {**sigs, x: sig})
                return type(node)(x, _abstract_type(t, sig), body), list(sig)
            case App(f, a):
                fr, sig = self.go(f, benv, sigs)
                if isinstance(a, IntExpr):
                    if not sig or sig[0] is None:
                        raise AbstractionError(
                            "integer argument in a position without a "
                            "predicate signature")
                    for bf in self.abstract_arg(benv, sig[0], a):
                        fr = App(fr, bf)
                    return fr, sig[1:]
                ar, _ = self.go(a, benv, sigs)
                return App(fr, ar), sig[1:] if sig else []
            case Exists(_, _, _) | Forall(_, _, _):
                raise AbstractionError(
                    "desugar quantifiers before predicate abstraction")
        raise AbstractionError(f"cannot abstract {type(phi).__name__}")


def _abstract_type(t: SimpleType, sig) -> SimpleType:
    """t with each integer parameter replaced by one prop per template of
    its signature entry"""
    parts: list[SimpleType] = []
    for i, at in enumerate(arg_types(t)):
        if not isinstance(at, IntType):
            parts.append(_abstract_type(at, None))
        elif sig and i < len(sig) and sig[i]:
            parts.extend([PROP] * len(sig[i]))
    return arrow(*parts, PROP)
