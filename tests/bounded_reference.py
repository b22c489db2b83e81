"""A brute-force bounded evaluator for HFL(Z) formulas whose fixpoints take
integer arguments only, kept as the reference the tests compare
``eval_bounded`` against.

Every fixpoint of type int -> ... -> prop is a whole table over the window
[-B, B]^k, filled by global Kleene iteration from bottom (mu) or top (nu).
A nested fixpoint is recomputed from scratch each time its node is
evaluated, so nothing is cached.  Out-of-window values follow the engine's
rule: an application to an integer outside the window, and an atom with a
side outside it, denote false.  Values are frozensets of states (prop),
Python callables (functions) and ints.
"""

from __future__ import annotations

from itertools import product

from hflz import transforms
from hflz.lts import Lts, trivial_model
from hflz.syntax import (
    And, App, Atom, Box, CMP_FN, Diamond, FalseF, Formula, IntExpr,
    IntType, Lambda, Mu, Nu, Or, PropType, TrueF, Var, arg_types, eval_int,
    typecheck,
)


class _Out:
    """An application to an out-of-window integer: false, and applying it
    yields itself."""

    def __call__(self, _):
        return self


OUT = _Out()


class _Reference:
    def __init__(self, lts: Lts, window: int):
        self.lts = lts
        self.window = window
        self.full = frozenset(lts.states)
        self.points = range(-window, window + 1)

    def prop(self, v) -> frozenset:
        return frozenset() if v is OUT else v

    def eval(self, phi: Formula, env: dict):
        match phi:
            case Var(n, _):
                return env[n]
            case TrueF():
                return self.full
            case FalseF():
                return frozenset()
            case Or(l, r):
                return self.prop(self.eval(l, env)) | \
                    self.prop(self.eval(r, env))
            case And(l, r):
                return self.prop(self.eval(l, env)) & \
                    self.prop(self.eval(r, env))
            case Diamond(a, b):
                bv = self.prop(self.eval(b, env))
                return frozenset(s for s in self.lts.states
                                 if self.lts.successors(s, a) & bv)
            case Box(a, b):
                bv = self.prop(self.eval(b, env))
                return frozenset(s for s in self.lts.states
                                 if self.lts.successors(s, a) <= bv)
            case Lambda(x, _, b):
                return lambda v: self.eval(b, {**env, x: v})
            case App(f, a):
                fv = self.eval(f, env)
                if isinstance(a, IntExpr):
                    av = eval_int(a, env)
                    if abs(av) > self.window:
                        return OUT
                else:
                    av = self.eval(a, env)
                return fv(av)
            case Atom(op, l, r):
                lv, rv = eval_int(l, env), eval_int(r, env)
                if abs(lv) > self.window or abs(rv) > self.window:
                    return frozenset()
                return self.full if CMP_FN[op](lv, rv) else frozenset()
            case Mu(x, t, b) | Nu(x, t, b):
                return self.fixpoint(isinstance(phi, Mu), x, t, b, env)
        raise TypeError(f"reference cannot evaluate {phi!r}")

    def fixpoint(self, is_mu: bool, x: str, t, body: Formula, env: dict):
        argts = arg_types(t)
        if not all(isinstance(a, IntType) for a in argts):
            raise TypeError("reference fixpoints take integer arguments only")
        keys = list(product(self.points, repeat=len(argts)))
        table = {k: frozenset() if is_mu else self.full for k in keys}
        while True:
            fv = self.curry(table, len(argts))
            new = {}
            for k in keys:
                v = self.eval(body, {**env, x: fv})
                for arg in k:
                    v = v(arg)
                new[k] = self.prop(v)
            if new == table:
                return fv
            table = new

    def curry(self, table: dict, arity: int, prefix: tuple = ()):
        if len(prefix) == arity:
            return table[prefix]
        return lambda v: self.curry(table, arity, prefix + (v,))


def reference_eval_bounded(phi: Formula, window: int,
                           lts: Lts | None = None) -> bool:
    """Truth at the initial state of a closed prop formula with integers
    restricted to [-window, window], by whole-table Kleene iteration."""
    m = lts if lts is not None else trivial_model()
    if not isinstance(typecheck(phi, {}), PropType):
        raise TypeError("reference evaluation needs type prop")
    phi = transforms.desugar_quantifiers(phi)
    ref = _Reference(m, window)
    return m.initial in ref.prop(ref.eval(phi, {}))
