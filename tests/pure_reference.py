"""The exact pure-HFL model checker that ``check_pure`` used before it ran
on the demand-driven engine, kept as the reference the tests compare
against.

Lambdas are tabulated over enumerated monotone-function domains and
fixpoints are iterated from lattice bottom (mu) or top (nu) by
Knaster-Tarski iteration.  Values are frozensets (prop) or tuples indexed
by the enumerated argument domain (functions).
"""

from __future__ import annotations

from hflz.lts import Lts
from hflz.semantics import ImpureFormulaError, PureStats, TableCapError
from hflz.syntax import (
    And, App, Arrow, Box, Diamond, FalseF, Formula, Lambda, Mu, Nu, Or,
    PropType, SimpleType, TrueF, Var, is_pure, typecheck,
)


class _PureEvaluator:
    def __init__(self, lts: Lts, table_cap: int):
        self.lts = lts
        self.table_cap = table_cap
        self.full = frozenset(lts.states)
        self._elems: dict[SimpleType, list] = {}
        self._index: dict[SimpleType, dict] = {}
        self.stats = PureStats()

    # -- lattice structure

    def elems(self, t: SimpleType) -> list:
        if t in self._elems:
            return self._elems[t]
        if isinstance(t, PropType):
            states = list(self.lts.states)
            if 2 ** len(states) > self.table_cap:
                raise TableCapError(
                    f"prop lattice has 2^{len(states)} elements, over the "
                    f"table cap {self.table_cap}")
            out = []
            for mask in range(2 ** len(states)):
                out.append(frozenset(s for i, s in enumerate(states)
                                     if mask >> i & 1))
        elif isinstance(t, Arrow):
            dom = self.elems(t.arg)
            cod = self.elems(t.res)
            le_d = [[self.leq(t.arg, a, b) for b in dom] for a in dom]
            out = []

            def backtrack(prefix: list):
                if len(out) > self.table_cap:
                    raise TableCapError(
                        f"function domain for {t} exceeds the table cap "
                        f"{self.table_cap}")
                i = len(prefix)
                if i == len(dom):
                    out.append(tuple(prefix))
                    return
                for v in cod:
                    ok = True
                    for j in range(i):
                        if le_d[j][i] and not self.leq(t.res, prefix[j], v):
                            ok = False
                            break
                        if le_d[i][j] and not self.leq(t.res, v, prefix[j]):
                            ok = False
                            break
                    if ok:
                        backtrack(prefix + [v])

            backtrack([])
        else:
            raise ImpureFormulaError("integer type has no finite lattice")
        self._elems[t] = out
        self._index[t] = {v: i for i, v in enumerate(out)}
        return out

    def leq(self, t: SimpleType, a, b) -> bool:
        if isinstance(t, PropType):
            return a <= b
        return all(self.leq(t.res, x, y) for x, y in zip(a, b))

    def bottom(self, t: SimpleType):
        if isinstance(t, PropType):
            return frozenset()
        return tuple(self.bottom(t.res) for _ in self.elems(t.arg))

    def top(self, t: SimpleType):
        if isinstance(t, PropType):
            return self.full
        return tuple(self.top(t.res) for _ in self.elems(t.arg))

    def height(self, t: SimpleType) -> int:
        if isinstance(t, PropType):
            return len(self.lts.states)
        return len(self.elems(t.arg)) * self.height(t.res)

    # -- evaluation; values are frozensets (prop) or tuples (functions)

    def eval(self, phi: Formula, env: dict, tenv: dict):
        match phi:
            case Var(n, _):
                return env[n]
            case TrueF():
                return self.full
            case FalseF():
                return frozenset()
            case Or(l, r):
                return self.eval(l, env, tenv) | self.eval(r, env, tenv)
            case And(l, r):
                return self.eval(l, env, tenv) & self.eval(r, env, tenv)
            case Diamond(a, b):
                bv = self.eval(b, env, tenv)
                return frozenset(s for s in self.lts.states
                                 if self.lts.successors(s, a) & bv)
            case Box(a, b):
                bv = self.eval(b, env, tenv)
                return frozenset(s for s in self.lts.states
                                 if self.lts.successors(s, a) <= bv)
            case Lambda(x, t, b):
                return tuple(self.eval(b, {**env, x: d}, {**tenv, x: t})
                             for d in self.elems(t))
            case App(f, a):
                ft = typecheck(f, tenv)
                fv = self.eval(f, env, tenv)
                av = self.eval(a, env, tenv)
                return fv[self._index[ft.arg][av]]
            case Mu(x, t, b) | Nu(x, t, b):
                cur = self.bottom(t) if isinstance(phi, Mu) else self.top(t)
                count = 0
                while True:
                    nxt = self.eval(b, {**env, x: cur}, {**tenv, x: t})
                    count += 1
                    if nxt == cur:
                        break
                    cur = nxt
                self.stats.iterations.append((count, self.height(t) + 1))
                return cur
            case _:
                raise ImpureFormulaError(
                    f"pure model checking cannot handle {type(phi).__name__}")


def reference_check_pure_stats(lts: Lts, phi: Formula,
                               table_cap: int = 200000
                               ) -> tuple[bool, PureStats]:
    """Exact M |= phi for closed pure formulas of type prop."""
    if not is_pure(phi):
        raise ImpureFormulaError(
            "formula contains integers or quantifier sugar")
    t = typecheck(phi, {})
    if not isinstance(t, PropType):
        raise ImpureFormulaError(f"model checking needs type prop, got {t}")
    ev = _PureEvaluator(lts, table_cap)
    denotation = ev.eval(phi, {}, {})
    return lts.initial in denotation, ev.stats
