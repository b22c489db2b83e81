"""One demand-driven fixpoint engine over finite models.

Values are state bitmasks (prop: bit i stands for ``lts.states[i]``),
integers, lambda closures, and fixpoint tables.  ``<a>`` and ``[a]`` are
computed from a per-label predecessor index built once per model
(``Lts.pre_index``): one predecessor mask per state, and one table per
byte of a state set that maps a byte value to the union of the masks of
its set bits.  A pre-image reads its argument a byte at a time and ORs one
table entry per nonzero byte; an entry is computed on first use and kept
for the model's lifetime, so later evaluations on the same model find it
filled (the "Four Russians" method of Arlazarov, Dinic, Kronrod &
Faradzev, 1970).

A fixpoint is solved over only the argument tuples reachable from the
query, by a worklist that records which entries each body evaluation
read: an entry is evaluated again only when an entry it read has changed
(Le Charlier & Van Hentenryck, "A universal top-down fixpoint algorithm",
1992).  Function-typed arguments are tabulated over their finite domains
(prop values, the integer window, or enumerated monotone functions) so
they can key the tables.

Solving is local: outside a solve, every table entry is final.  A call
with a key already in the table returns its entry at once; a new key
starts a solve of only the entries added since.  A cached fixpoint closes
over integers only; any other one lives only within the body evaluation
that created it, during which no entry of an enclosing table changes.  So
a finished entry would never change again.

Each evaluator compiles the formula once, into closures (Feeley &
Lapalme, "Using closures for code generation", 1987): ``compile`` matches
each node a single time and returns a function from an environment to the
node's value.  What a node fixes is bound into that function: its
children's functions, a fixpoint's sorted free names, a comparison, the
window, a label's predecessor index.  Lambda and fixpoint values carry
their compiled bodies, so evaluation never walks the syntax tree.

``check_pure`` runs it on pure HFL, where every domain is finite and the
answer is exact.  ``eval_bounded`` runs it on full HFL(Z) with integer
arguments restricted to a window [-B, B].  Out-of-window applications and
atoms contribute false, which makes the result an underapproximation: true
implies M |= phi.  ``table_cap`` bounds every tabulated domain and every
fixpoint table.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from operator import itemgetter

from . import transforms
from .lts import Lts, pre_image, trivial_model
from .syntax import (
    Add, And, App, Arrow, Atom, Box, CMP_FN, Diamond, Exists, FalseF, Forall,
    HflError, IConst, INeg, IntExpr, IntType, IVar, Lambda, Mu, Nu, Or,
    PropType, Sub, TrueF, Var, Formula, SimpleType, arg_types, free_vars,
    is_pure, typecheck,
)


class ImpureFormulaError(HflError):
    pass


class TableCapError(HflError):
    pass


@dataclass
class PureStats:
    """Per-solve body-evaluation counts, each paired with its bound.

    A solve evaluates an entry once when it is added, and again each time
    it is queued by a change of an entry it read.  An entry is a state set
    that only grows (mu) or only shrinks (nu), so it changes at most |S|
    times, and each change queues each of its readers at most once.  So a
    solve that adds n entries, which record r (reader, entry) pairs in
    all, makes at most n + |S| * r body evaluations: that is the bound."""

    iterations: list[tuple[int, int]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# The engine


class _Bot:
    """Absorbing bottom: applying it yields itself; as a prop it is empty."""

    def __repr__(self):
        return "BOT"


BOT = _Bot()


def _prop(v) -> int:
    if v is BOT:
        return 0
    if isinstance(v, int):
        return v
    raise HflError(f"expected a proposition value, got {v!r}")


def _compile_int(e: IntExpr) -> Callable[[dict], int]:
    """e as a function from an environment to its value."""
    match e:
        case IConst(n):
            return lambda env: n
        case IVar(x):
            return itemgetter(x)
        case Add(l, r):
            lf, rf = _compile_int(l), _compile_int(r)
            return lambda env: lf(env) + rf(env)
        case Sub(l, r):
            lf, rf = _compile_int(l), _compile_int(r)
            return lambda env: lf(env) - rf(env)
        case INeg(b):
            bf = _compile_int(b)
            return lambda env: -bf(env)
    raise TypeError(f"not an integer expression: {e!r}")


@dataclass
class _Closure:
    var: str
    vtype: SimpleType
    body: Callable[[dict], object]
    env: dict


@dataclass(frozen=True)
class _TableFun:
    """A tabulated function value, its own table key: items[i] is its value
    at the i-th element of its argument domain."""
    argtype: SimpleType
    items: tuple


@dataclass
class _Partial:
    fix: "_FixFun"
    args: tuple

    def take(self, key):
        """Apply to the canonical value key."""
        args = self.args + (key,)
        if len(args) == len(self.fix.argts):
            return self.fix.call(args)
        return _Partial(self.fix, args)


@dataclass(frozen=True)
class _FixCode:
    """A compiled mu or nu node, shared by all of its instances."""
    var: str
    body: Callable[[dict], object]
    is_mu: bool
    argts: list[SimpleType]


class _FixFun:
    def __init__(self, code: _FixCode, env, ev: "_BoundedEvaluator"):
        self.code = code
        self.env = env
        self.ev = ev
        self.argts = code.argts
        self.is_mu = code.is_mu
        self.init = 0 if self.is_mu else ev.full
        self.approx: dict[tuple, int] = {}
        # while solving: each entry of the solve with the entries that
        # read it, the entries waiting to be evaluated, the entry being
        # evaluated, and the environment of a body that takes arguments
        # (dropped after the solve: it refers back to this fixpoint)
        self.readers: dict[tuple, set] | None = None
        self.queue: dict[tuple, None] | None = None
        self.current: tuple = ()
        self.rec_env: dict | None = None

    def call(self, keys: tuple) -> int:
        readers = self.readers
        val = self.approx.get(keys)
        if val is None:
            if len(self.approx) >= self.ev.table_cap:
                raise TableCapError(
                    "fixpoint table exceeded the configured cap "
                    f"{self.ev.table_cap}")
            self.approx[keys] = val = self.init
            if readers is None:
                self.solve(keys)
                return self.approx[keys]
            readers[keys] = {self.current}
            self.queue[keys] = None
        elif readers is not None:
            # an entry from before this solve is final and has no readers
            entry_readers = readers.get(keys)
            if entry_readers is not None:
                entry_readers.add(self.current)
        return val

    def solve(self, keys: tuple):
        # Every read made while an entry is evaluated is recorded, also
        # those of inner fixpoints that are not cached: they reach this
        # table through `rec` within the same body evaluation.  A new
        # entry is queued; when an entry changes, its readers are queued
        # again, each key at most once.  A zero-argument body reads its
        # entry directly (see body_value), so that entry is its own
        # reader.  Entries from before this solve are final and depend on
        # no newer key.
        # Mid-solve, a table need not be monotone in its arguments (f(∅)=S
        # while f(S)=∅), so plain re-evaluation can oscillate.  Each entry
        # only grows (mu) or shrinks (nu) instead: every value stays an
        # underapproximation because the true function is monotone.
        approx, is_mu = self.approx, self.is_mu
        readers = self.readers = {keys: set() if self.argts else {keys}}
        queue = self.queue = {keys: None}
        if self.argts:
            self.rec_env = {**self.env, self.code.var: _Partial(self, ())}
        evaluations = 0
        try:
            while queue:
                keys = self.current = queue.popitem()[0]
                old = approx[keys]
                v = self.body_value(keys)
                evaluations += 1
                v = v | old if is_mu else v & old
                if v != old:
                    approx[keys] = v
                    queue.update(dict.fromkeys(readers[keys]))
        finally:
            self.readers = self.queue = self.rec_env = None
        reads = sum(map(len, readers.values()))
        self.ev.stats.iterations.append(
            (evaluations, len(readers) + len(self.ev.lts.states) * reads))

    def body_value(self, keys: tuple) -> int:
        if self.argts:
            val = self.code.body(self.rec_env)
            for key in keys:
                val = self.ev.apply(val, key)
            return _prop(val)
        # zero-argument fixpoints denote plain propositions, so recursive
        # occurrences stand for the current approximation rather than a
        # re-applicable function value
        return _prop(self.code.body({**self.env, self.code.var:
                                     self.approx[()]}))


class _BoundedEvaluator:
    def __init__(self, lts: Lts, window: int, table_cap: int):
        self.lts = lts
        self.window = window
        self.table_cap = table_cap
        self.full = (1 << len(lts.states)) - 1
        self.pre = lts.pre_index
        self.fix_cache: dict = {}
        self._elems: dict[SimpleType, Sequence] = {}
        self._positions: dict[SimpleType, dict] = {}
        self.stats = PureStats()

    # -- canonical values: the keys of fixpoint-argument tuples

    def canonical(self, v):
        if isinstance(v, bool):
            raise TypeError("boolean is not a semantic value")
        if isinstance(v, (int, _TableFun)) or v is BOT:
            return v
        # function-typed argument: tabulate over its first-argument domain
        at = self._first_arg_type(v)
        return _TableFun(at, tuple(self.canonical(self.apply(v, d))
                                   for d in self.domain_elems(at)))

    def _first_arg_type(self, v) -> SimpleType:
        if isinstance(v, _Closure):
            return v.vtype
        if isinstance(v, _Partial):
            return v.fix.argts[len(v.args)]
        raise HflError(f"not a function value: {v!r}")

    def domain_elems(self, t: SimpleType) -> Sequence:
        if t in self._elems:
            return self._elems[t]
        if isinstance(t, IntType):
            out = list(range(-self.window, self.window + 1))
        elif isinstance(t, PropType):
            if 2 ** len(self.lts.states) > self.table_cap:
                raise TableCapError("prop domain exceeds the table cap")
            out = range(self.full + 1)
        else:
            out = self._monotone_functions(t)
        self._elems[t] = out
        return out

    def position(self, t: SimpleType, v) -> int | None:
        """The index of the canonical value v in domain_elems(t)."""
        pos = self._positions.get(t)
        if pos is None:
            pos = self._positions[t] = {
                d: i for i, d in enumerate(self.domain_elems(t))}
        return pos.get(v)

    def _monotone_functions(self, t: Arrow) -> list:
        dom = self.domain_elems(t.arg)
        cod = self.domain_elems(t.res)
        le_d = [[self.leq(t.arg, a, b) for b in dom] for a in dom]
        out = []

        def backtrack(prefix: list):
            if len(out) > self.table_cap:
                raise TableCapError(
                    f"function domain for {t} exceeds the table cap "
                    f"{self.table_cap}")
            i = len(prefix)
            if i == len(dom):
                out.append(_TableFun(t.arg, tuple(prefix)))
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
        return out

    def leq(self, t: SimpleType, a, b) -> bool:
        """The lattice order on domain elements of type t."""
        if isinstance(t, Arrow):
            return all(self.leq(t.res, x, y)
                       for x, y in zip(a.items, b.items))
        return a & ~b == 0 if isinstance(t, PropType) else a == b

    # -- application

    def apply(self, fv, av):
        if fv is BOT:
            return BOT
        if isinstance(fv, _Closure):
            return fv.body({**fv.env, fv.var: av})
        if isinstance(fv, _TableFun):
            i = self.position(fv.argtype, self.canonical(av))
            return BOT if i is None else fv.items[i]
        if isinstance(fv, _Partial):
            return fv.take(self.canonical(av))
        raise HflError(f"cannot apply {fv!r}")

    # -- compilation

    def holds_initially(self, phi: Formula) -> bool:
        try:
            denotation = _prop(self.compile(phi)({}))
        finally:
            # its fixpoints refer back to this evaluator
            self.fix_cache.clear()
        return bool(denotation >> self.lts.states.index(self.lts.initial) & 1)

    def compile(self, phi: Formula) -> Callable[[dict], object]:
        """phi as a function from an environment to its value.  The match
        runs here, once per node; the returned function only computes."""
        match phi:
            case Var(n, _):
                return itemgetter(n)
            case TrueF():
                full = self.full
                return lambda env: full
            case FalseF():
                return lambda env: 0
            # an absorbing left operand leaves the right one unevaluated,
            # so its fixpoint calls add no table entries
            case Or(l, r):
                lf, rf, full = self.compile(l), self.compile(r), self.full

                def or_(env):
                    lv = _prop(lf(env))
                    if lv == full:
                        return lv
                    return lv | _prop(rf(env))
                return or_
            case And(l, r):
                lf, rf = self.compile(l), self.compile(r)

                def and_(env):
                    lv = _prop(lf(env))
                    if not lv:
                        return 0
                    return lv & _prop(rf(env))
                return and_
            case Diamond(a, b):
                bf, index = self.compile(b), self.pre.get(a)
                return lambda env: pre_image(index, _prop(bf(env)))
            case Box(a, b):
                bf, index, full = self.compile(b), self.pre.get(a), self.full
                return lambda env: full & ~pre_image(
                    index, full & ~_prop(bf(env)))
            case Lambda(x, t, b):
                bf = self.compile(b)
                return lambda env: _Closure(x, t, bf, env)
            case Mu(x, t, b) | Nu(x, t, b):
                code = _FixCode(x, self.compile(b), isinstance(phi, Mu),
                                arg_types(t))
                names, node_id = sorted(free_vars(phi)), id(phi)
                cache = self.fix_cache

                def fixpoint(env):
                    vals = tuple(env[n] for n in names)
                    if not all(isinstance(v, int) for v in vals):
                        fix = _FixFun(code, env, self)
                    else:
                        fix = cache.get((node_id, vals))
                        if fix is None:
                            fix = cache[node_id, vals] = _FixFun(
                                code, env, self)
                    return _Partial(fix, ()) if code.argts else fix.call(())
                return fixpoint
            case App(f, a) if isinstance(a, IntExpr):
                ff, af = self.compile(f), _compile_int(a)
                window, apply = self.window, self.apply

                def app_int(env):
                    fv = ff(env)
                    av = af(env)
                    # out-of-window arguments contribute false; an int in
                    # the window is its own canonical value
                    if abs(av) > window:
                        return BOT
                    if type(fv) is _Partial:
                        return fv.take(av)
                    if type(fv) is _TableFun:
                        return fv.items[av + window]
                    return apply(fv, av)
                return app_int
            case App(f, a):
                ff, af, apply = self.compile(f), self.compile(a), self.apply
                return lambda env: apply(ff(env), af(env))
            case Atom(op, l, r):
                lf, rf = _compile_int(l), _compile_int(r)
                cmp, full, window = CMP_FN[op], self.full, self.window

                def atom(env):
                    lv = lf(env)
                    rv = rf(env)
                    if abs(lv) > window or abs(rv) > window:
                        return 0
                    return full if cmp(lv, rv) else 0
                return atom
            case Exists(_, _, _) | Forall(_, _, _):
                raise HflError("quantifier sugar must be desugared before "
                               "bounded evaluation")
        raise TypeError(f"not a formula: {phi!r}")


# ---------------------------------------------------------------------------
# Entry points


def check_pure(lts: Lts, phi: Formula, table_cap: int = 200000) -> bool:
    ok, _ = check_pure_stats(lts, phi, table_cap)
    return ok


def check_pure_stats(lts: Lts, phi: Formula,
                     table_cap: int = 200000) -> tuple[bool, PureStats]:
    """Exact M |= phi for closed pure formulas of type prop."""
    if not is_pure(phi):
        raise ImpureFormulaError("formula contains integers or quantifier sugar")
    t = typecheck(phi, {})
    if not isinstance(t, PropType):
        raise ImpureFormulaError(f"model checking needs type prop, got {t}")
    ev = _BoundedEvaluator(lts, 0, table_cap)
    return ev.holds_initially(phi), ev.stats


def eval_bounded(phi: Formula, window: int, lts: Lts | None = None,
                 table_cap: int = 200000) -> bool:
    """Underapproximate truth of a closed prop formula with integers
    restricted to [-window, window].  true implies M |= phi."""
    if window < 0:
        raise ValueError("window must be non-negative")
    m = lts if lts is not None else trivial_model()
    t = typecheck(phi, {})
    if not isinstance(t, PropType):
        raise HflError(f"bounded evaluation needs type prop, got {t}")
    phi = transforms.desugar_quantifiers(phi)
    return _BoundedEvaluator(m, window, table_cap).holds_initially(phi)
