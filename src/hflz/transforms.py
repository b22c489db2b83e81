"""Soundness-preserving formula transformations.

Every transformation here is one-sided: validity of the output implies
validity of the input, never the converse.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from functools import reduce

from .smt import (
    SolverError, qf_formula_to_sexpr, qf_subst, run_solver, symbol,
)
from .syntax import (
    Add, And, App, Atom, Box, CMP_FN, Diamond, Exists, FALSE, FalseF, Forall,
    HflError, IConst, INT, INeg, IVar, IntExpr, IntType, Lambda, Mu, Nu, Or,
    PROP, Sub, TRUE, TrueF, Var, Formula, SimpleType, app, arg_types, arrow,
    base_name, eval_int, fresh_name, int_vars, lam, map_children, substitute,
)


class HigherOrderMuError(HflError):
    """mu-elimination only covers fixpoints of type int^k -> prop."""


class AbstractionError(HflError):
    pass


# ---------------------------------------------------------------------------
# Affine bound templates: n = max_i(sum_j c_ij * x_j + d_i)


@dataclass(frozen=True)
class BoundExpr:
    """Max of affine pieces over free integer variables."""

    pieces: tuple[tuple[tuple[tuple[str, int], ...], int], ...]

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("a bound needs at least one piece")

    @classmethod
    def const(cls, n: int) -> "BoundExpr":
        return cls(pieces=(((), n),))

    @classmethod
    def parse(cls, text: str) -> "BoundExpr":
        text = text.strip()
        if text.startswith("max(") and text.endswith(")"):
            parts = _split_commas(text[len("max("):-1])
        else:
            parts = [text]
        return cls(pieces=tuple(_parse_affine(p) for p in parts))

    @classmethod
    def schedule(cls, text: str) -> list[tuple[str, BoundExpr]]:
        """A comma-separated bound schedule, split at top-level commas so
        ``max(a, b)`` stays one entry; each entry is labelled by its text."""
        return [(part.strip(), cls.parse(part))
                for part in _split_commas(text)]

    def to_int_exprs(self, scope: dict[str, str]) -> list[IntExpr]:
        """Instantiate pieces; scope maps source variable names to the
        in-scope internal names."""
        out = []
        for coeffs, const in self.pieces:
            e: IntExpr | None = None
            for name, c in coeffs:
                if name not in scope:
                    raise HflError(
                        f"bound variable {name!r} is not an integer variable "
                        "in scope at the eliminated fixpoint")
                term: IntExpr = IVar(scope[name])
                if c < 0:
                    term = INeg(term)
                    c = -c
                for _ in range(c - 1):
                    term = Add(term, IVar(scope[name]))
                e = term if e is None else Add(e, term)
            if e is None:
                e = IConst(const)
            elif const > 0:
                e = Add(e, IConst(const))
            elif const < 0:
                e = Sub(e, IConst(-const))
            out.append(e)
        return out


def _split_commas(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for c in text:
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur))
    return parts


def _parse_affine(text: str) -> tuple[tuple[tuple[str, int], ...], int]:
    from .parser import parse_int_expr, tokenize

    names = sorted({t.text for t in tokenize(text) if t.kind == "ident"})
    e = parse_int_expr(text, {n: INT for n in names})
    coeffs: dict[str, int] = {}
    const = _linearize(e, 1, coeffs)
    return tuple(sorted(coeffs.items())), const


def _linearize(e: IntExpr, sign: int, coeffs: dict[str, int]) -> int:
    match e:
        case IConst(n):
            return sign * n
        case IVar(x):
            coeffs[x] = coeffs.get(x, 0) + sign
            return 0
        case Add(l, r):
            return _linearize(l, sign, coeffs) + _linearize(r, sign, coeffs)
        case Sub(l, r):
            return _linearize(l, sign, coeffs) + _linearize(r, -sign, coeffs)
        case INeg(b):
            return _linearize(b, -sign, coeffs)
    raise TypeError(f"not an integer expression: {e!r}")


# ---------------------------------------------------------------------------
# Quantifier desugaring (two-sided integer walk; Example-style encodings)


def desugar_quantifiers(phi: Formula) -> Formula:
    """Replace exists/forall sugar by fixpoint walks over the integers.

    exists x. p  ->  (mu q. \\x. p \\/ q(x-1) \\/ q(x+1)) 0
    forall x. p  ->  (nu q. \\x. p /\\ q(x-1) /\\ q(x+1)) 0
    Bounded forms walk upward only from the bound.
    """

    def go(phi: Formula) -> Formula:
        match phi:
            case Exists(x, b, pieces) | Forall(x, b, pieces):
                # exists walks with mu and \/, guarding its lower bounds
                # with >= and /\; forall is the dual
                fix, walk, guard, cmp = (Mu, Or, And, ">=") \
                    if isinstance(phi, Exists) else (Nu, And, Or, "<")
                b = go(b)
                q = fresh_name("q")
                qt = arrow(INT, PROP)
                qv = Var(q, qt)
                if not pieces:
                    body = walk(walk(b, App(qv, Sub(IVar(x), IConst(1)))),
                                App(qv, Add(IVar(x), IConst(1))))
                    start: IntExpr = IConst(0)
                else:
                    for piece in pieces[1:]:
                        b = guard(Atom(cmp, IVar(x), piece), b)
                    body = walk(b, App(qv, Add(IVar(x), IConst(1))))
                    start = pieces[0]
                return App(fix(q, qt, Lambda(x, INT, body)), start)
            case _:
                return map_children(phi, go)

    return go(phi)


# ---------------------------------------------------------------------------
# mu-elimination: bounded unfolding with an explicit counter


def eliminate_mu(phi: Formula, bound: BoundExpr,
                 style: str = "forall") -> Formula:
    """Replace every first-order least fixpoint by a counter-indexed
    greatest fixpoint bounded by the given number of unfoldings.

    With style="forall" (the default),

    mu x. \\y1..yk. p  becomes
    \\y1..yk. forall u >= n. (nu x'. \\z. \\y1..yk. z > 0 /\\
                              p[x := \\w. x'(z - 1, w)]) (u, y1..yk)

    With style="apply" the counter is applied directly:

    \\y1..yk. (nu x'. ...) (n, y1..yk)

    which needs no quantifier and so survives window-bounded evaluation;
    it requires a single-piece bound.  Either way, valid output implies
    valid input (phi^n(false) implies mu x. phi).
    """
    if style not in ("forall", "apply"):
        raise ValueError(f"style must be 'forall' or 'apply', got {style!r}")
    if style == "apply" and len(bound.pieces) > 1:
        raise HflError(
            "style='apply' needs a single-piece bound (max() is not a "
            "linear-arithmetic term)")

    def go(phi: Formula, scope: dict[str, str]) -> Formula:
        match phi:
            case Mu(x, t, b):
                b = go(b, scope)
                return _replace_mu(Mu(x, t, b), bound, scope, style)
            case Nu(x, t, b):
                return Nu(x, t, go(b, scope))
            case Lambda(x, t, b):
                s = {**scope, base_name(x): x} if isinstance(t, IntType) \
                    else scope
                return Lambda(x, t, go(b, s))
            case Exists(x, b, pieces) | Forall(x, b, pieces) as node:
                return type(node)(x, go(b, {**scope, base_name(x): x}),
                                  pieces)
            case _:
                return map_children(phi, lambda c: go(c, scope))

    return _contract_admin(go(phi, {}))


def _replace_mu(node: Mu, bound: BoundExpr, scope: dict[str, str],
                style: str) -> Formula:
    ats = arg_types(node.vtype)
    if not all(isinstance(t, IntType) for t in ats):
        raise HigherOrderMuError(
            f"mu binder {base_name(node.var)} has type {node.vtype}; only "
            "int^k -> prop fixpoints can be eliminated")
    k = len(ats)
    ys: list[str] = []
    body = node.body
    while len(ys) < k and isinstance(body, Lambda):
        ys.append(body.var)
        body = body.body
    while len(ys) < k:
        y = fresh_name("y")
        ys.append(y)
        body = App(body, IVar(y))

    z = fresh_name("z")
    xp = fresh_name(base_name(node.var) + "'")
    xpt = arrow(INT, *([INT] * k), PROP)
    ws = [fresh_name("w") for _ in range(k)]
    recur = lam([(w, INT) for w in ws],
                app(Var(xp, xpt), Sub(IVar(z), IConst(1)),
                    *[IVar(w) for w in ws]))
    guarded = And(Atom(">", IVar(z), IConst(0)),
                  substitute(body, node.var, recur))
    inner = Nu(xp, xpt,
               Lambda(z, INT, lam([(y, INT) for y in ys], guarded)))
    pieces = tuple(bound.to_int_exprs(scope))
    if style == "apply":
        wrapped: Formula = app(inner, pieces[0], *[IVar(y) for y in ys])
    else:
        u = fresh_name("u")
        wrapped = Forall(u, app(inner, IVar(u), *[IVar(y) for y in ys]),
                         pieces)
    return lam([(y, INT) for y in ys], wrapped)


def _contract_admin(phi: Formula) -> Formula:
    """Contract administrative redexes (lambda applied to a variable or
    constant) introduced by mu replacement."""

    def step(phi: Formula) -> tuple[Formula, bool]:
        match phi:
            case App(Lambda(x, _, b), a) if isinstance(a, (IntExpr, Var)):
                return substitute(b, x, a), True
            case _:
                changed = False

                def go(c):
                    nonlocal changed
                    c2, ch = step(c)
                    changed = changed or ch
                    return c2

                return map_children(phi, go), changed

    changed = True
    while changed:
        phi, changed = step(phi)
    return phi


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
        names = sorted(set().union(
            *(qf_int_vars(h) for h in hyps), qf_int_vars(concl)))
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
        # the printer drops fresh-name suffixes (y%2 -> y), so give every
        # variable its own base name first: y, y_1, ...
        symbols: dict[str, IntExpr] = {}
        for n in sorted(set().union(
                *(qf_int_vars(h) for h in hyps), qf_int_vars(concl))):
            s, i = base_name(n), 0
            while IVar(s) in symbols.values():
                i += 1
                s = f"{base_name(n)}_{i}"
            symbols[n] = IVar(s)

        def sexpr(phi: Formula) -> str:
            return qf_formula_to_sexpr(qf_subst(phi, symbols))

        lines = ["(set-logic QF_LIA)"]
        lines += [f"(declare-const {symbol(v.name)} Int)"
                  for v in symbols.values()]
        lines += [f"(assert {sexpr(h)})" for h in hyps]
        lines.append(f"(assert (not {sexpr(concl)}))")
        lines.append("(check-sat)")
        try:
            kind, _ = run_solver(self.command, "\n".join(lines) + "\n",
                                 self.timeout)
        except SolverError:
            return None
        return {"unsat": True, "sat": False}.get(kind)


def qf_int_vars(phi: Formula) -> set[str]:
    match phi:
        case Atom(_, l, r):
            return set(int_vars(l) + int_vars(r))
        case And(l, r) | Or(l, r):
            return qf_int_vars(l) | qf_int_vars(r)
        case TrueF() | FalseF():
            return set()
    raise AbstractionError(
        f"not a quantifier-free arithmetic formula: {type(phi).__name__}")


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
        from .parser import parse_formula

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
            for part in _split_commas(rest):
                var = "x" if name == "*" else name
                f = parse_formula(part.strip(), {var: INT})
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
    oracle = oracle or WindowEntailment()

    def weakest(benv: list[tuple[str, Formula]], target: Formula) -> Formula:
        if len(benv) > 12:
            raise AbstractionError("too many boolean variables in scope")
        minimal: list[tuple[int, ...]] = []
        for size in range(len(benv) + 1):
            for combo in itertools.combinations(range(len(benv)), size):
                if any(set(m) <= set(combo) for m in minimal):
                    continue
                verdict = oracle.entails([benv[i][1] for i in combo], target)
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

    def abstract_arg(benv, templates: list[tuple[str, Atom]],
                     e: IntExpr) -> list[Formula]:
        out = []
        for tvar, a in templates:
            extra = qf_int_vars(a) - {tvar}
            if extra:
                raise AbstractionError(
                    "call-site instantiation only supports predicates over "
                    f"the binder variable alone, got extra vars {extra}")
            out.append(weakest(benv, qf_subst(a, {tvar: e})))
        return out

    # sig entries: list per parameter, either ("int", templates) or ("other",)
    def signature(binder_type: SimpleType, body: Formula):
        sig = []
        b = body
        for t in arg_types(binder_type):
            if isinstance(t, IntType):
                if not isinstance(b, Lambda):
                    raise AbstractionError(
                        "fixpoint bodies must be lambda chains over their "
                        "integer parameters for abstraction")
                sig.append(("int", preds.for_binder(base_name(b.var))))
            else:
                sig.append(("other",))
            if isinstance(b, Lambda):
                b = b.body
        return sig

    def go(phi: Formula, benv, sigs: dict[str, list]):
        """Returns (formula, remaining signature)."""
        match phi:
            case Var(x, t):
                if isinstance(t, IntType):
                    raise AbstractionError("free integer variable in formula")
                return Var(x, _abstract_type(t, sigs.get(x))), \
                    list(sigs.get(x) or [])
            case TrueF() | FalseF():
                return phi, []
            case Atom(_, _, _):
                return weakest(benv, phi), []
            case And(l, r):
                return And(go(l, benv, sigs)[0], go(r, benv, sigs)[0]), []
            case Or(l, r):
                return Or(go(l, benv, sigs)[0], go(r, benv, sigs)[0]), []
            case Diamond(a, b):
                return Diamond(a, go(b, benv, sigs)[0]), []
            case Box(a, b):
                return Box(a, go(b, benv, sigs)[0]), []
            case Lambda(x, t, b):
                if isinstance(t, IntType):
                    templates = preds.for_binder(base_name(x))
                    bools = [(fresh_name("b"), qf_subst(a, {tv: IVar(x)}))
                             for tv, a in templates]
                    body, _ = go(b, benv + bools, sigs)
                    for bx, _a in reversed(bools):
                        body = Lambda(bx, PROP, body)
                    return body, [("int", templates)]
                body, bsig = go(b, benv, sigs)
                return Lambda(x, t, body), [("other",)] + bsig
            case Mu(x, t, b) | Nu(x, t, b) as node:
                sig = signature(t, b)
                body, _ = go(b, benv, {**sigs, x: sig})
                t2 = _abstract_type(t, sig)
                return type(node)(x, t2, body), list(sig)
            case App(f, a):
                fr, sig = go(f, benv, sigs)
                if isinstance(a, IntExpr):
                    if not sig or sig[0][0] != "int":
                        raise AbstractionError(
                            "integer argument in a position without a "
                            "predicate signature")
                    for bf in abstract_arg(benv, sig[0][1], a):
                        fr = App(fr, bf)
                    return fr, sig[1:]
                ar, _ = go(a, benv, sigs)
                return App(fr, ar), sig[1:] if sig else []
            case Exists(_, _, _) | Forall(_, _, _):
                raise AbstractionError(
                    "desugar quantifiers before predicate abstraction")
        raise AbstractionError(f"cannot abstract {type(phi).__name__}")

    out, _ = go(phi, [], {})
    return out


def _abstract_type(t: SimpleType, sig) -> SimpleType:
    ats = arg_types(t)
    if not ats:
        return t
    parts: list[SimpleType] = []
    for i, at in enumerate(ats):
        if isinstance(at, IntType):
            m = len(sig[i][1]) if sig and i < len(sig) and sig[i][0] == "int" \
                else 0
            parts.extend([PROP] * m)
        else:
            parts.append(_abstract_type(at, None))
    if not parts:
        return PROP
    return arrow(*parts, PROP)
