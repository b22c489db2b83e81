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
node's value with the node's free names and its type.  It types each node
by the rules of ``syntax.typecheck``, in their order and with their
errors, so the entry points walk the formula once before solving and
raise any type error before they evaluate.  What a node fixes is bound
into that function: its children's functions, a fixpoint's sorted free
names, a comparison, the window, a label's predecessor index.  Lambda and
fixpoint values carry their compiled bodies, so evaluation never walks
the syntax tree.  A value closed over integers is cached on its compiled
node (a ``_FixCode``, or an ``exists`` node's function), never on an
``id``.  A closed prop node is evaluated once per evaluation: under a
binder, its function computes the value on first use and returns it from
then on, so a state property such as ``<b> true`` in a fixpoint body costs
one pre-image, not one per iteration (Emerson & Lei, LICS 1986).

``check_pure`` runs it on pure HFL, where every domain is finite and the
answer is exact.  ``eval_bounded`` runs it on full HFL(Z) with integer
arguments restricted to a window [-B, B].  Out-of-window applications and
atoms contribute false, which makes the result an underapproximation: true
implies M |= phi.  ``table_cap`` bounds every tabulated domain and every
fixpoint table.

A quantifier stands for a walk over the integers
(``syntax.desugar_quantifier``), but the engine folds it over the window
instead of solving that walk: ``exists x >= max(p0, p1). b`` is the union
of ``b`` over x in [max(p0, p1), B], and empty when a bound is outside the
window, which is the walk's value.  A ``forall`` walk always applies
itself at B + 1, or starts outside the window, so it is empty.  A fold
is not a table, so ``table_cap`` does not count it.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from operator import itemgetter

from .lts import Lts, pre_image, trivial_model
from .syntax import (
    INT, PROP, Add, And, App, Arrow, Atom, Box, CMP_FN, Diamond, Exists,
    FalseF, Forall, HflError, IConst, INeg, IntExpr, IntType, IVar, Lambda,
    Mu, Nu, Or, PropType, Sub, TrueF, Var, Formula, SimpleType, arg_types,
    check_int_var, expect_prop_formula, expect_prop_operand, fixpoint_type,
    function_type, is_pure, result_type, var_type,
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


_NO_NAMES: frozenset[str] = frozenset()


def _prop(v) -> int:
    if v is BOT:
        return 0
    if isinstance(v, int):
        return v
    raise HflError(f"expected a proposition value, got {v!r}")


def _compile_int(e: IntExpr, tenv: dict) -> tuple[Callable[[dict], int],
                                                 frozenset[str]]:
    """e as a function from an environment to its value, and e's names,
    each checked to have type int under tenv."""
    match e:
        case IConst(n):
            return lambda env: n, _NO_NAMES
        case IVar(x):
            check_int_var(x, tenv)
            return itemgetter(x), frozenset((x,))
        case Add(l, r):
            (lf, lnames), (rf, rnames) = (_compile_int(l, tenv),
                                          _compile_int(r, tenv))
            return lambda env: lf(env) + rf(env), lnames | rnames
        case Sub(l, r):
            (lf, lnames), (rf, rnames) = (_compile_int(l, tenv),
                                          _compile_int(r, tenv))
            return lambda env: lf(env) - rf(env), lnames | rnames
        case INeg(b):
            bf, names = _compile_int(b, tenv)
            return lambda env: -bf(env), names
    raise TypeError(f"not an integer expression: {e!r}")


def _once(f: Callable[[dict], object]) -> Callable[[dict], object]:
    """f evaluated on its first call, and that value returned from then on
    (for a closed prop node, whose value no environment changes)."""
    val = None

    def once(env):
        nonlocal val
        if val is None:
            val = f(env)
        return val
    return once


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


@dataclass(frozen=True, eq=False)
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

    def fold(self, var: str, body: Callable[[dict], object],
             lower: Sequence[Callable[[dict], int]], env: dict) -> int:
        """exists var >= lower. body as its walk evaluates it: the union of
        body over var's window values from max(lower) (-window without
        bounds), stopping at the full set.  A bound outside the window
        makes it empty: the walk starts there, or its guard is false."""
        window, full, lo = self.window, self.full, -self.window
        for f in lower:
            bound = f(env)
            if abs(bound) > window:
                return 0
            lo = max(lo, bound)
        out = 0
        for v in range(lo, window + 1):
            out |= _prop(body({**env, var: v}))
            if out == full:
                break
        return out

    # -- compilation

    def holds_initially(self, code: Callable[[dict], object]) -> bool:
        """Whether the initial state is in the value of the compiled code
        of a closed prop formula."""
        try:
            denotation = _prop(code({}))
        finally:
            # its fixpoints refer back to this evaluator
            self.fix_cache.clear()
        return bool(denotation >> self.lts.states.index(self.lts.initial) & 1)

    def compile(self, phi: Formula, tenv: dict[str, SimpleType]
                ) -> tuple[Callable, frozenset[str], SimpleType]:
        """phi as a function from an environment to its value, phi's free
        names, and phi's type under tenv by the rules of syntax.typecheck:
        the match runs here, once per node; the function only computes."""
        match phi:
            case Var(n, t):
                return itemgetter(n), frozenset((n,)), var_type(n, t, tenv)
            case TrueF():
                full = self.full
                return lambda env: full, _NO_NAMES, PROP
            case FalseF():
                return lambda env: 0, _NO_NAMES, PROP
            # an absorbing left operand leaves the right one unevaluated,
            # so its fixpoint calls add no table entries
            case Or(l, r):
                lf, lnames, lt = self.compile(l, tenv)
                expect_prop_operand(phi, lt)
                rf, rnames, rt = self.compile(r, tenv)
                expect_prop_operand(phi, rt)
                full = self.full

                def or_(env):
                    lv = _prop(lf(env))
                    if lv == full:
                        return lv
                    return lv | _prop(rf(env))
                f, names, t = or_, lnames | rnames, PROP
            case And(l, r):
                lf, lnames, lt = self.compile(l, tenv)
                expect_prop_operand(phi, lt)
                rf, rnames, rt = self.compile(r, tenv)
                expect_prop_operand(phi, rt)

                def and_(env):
                    lv = _prop(lf(env))
                    if not lv:
                        return 0
                    return lv & _prop(rf(env))
                f, names, t = and_, lnames | rnames, PROP
            case Diamond(a, b):
                bf, names, bt = self.compile(b, tenv)
                expect_prop_operand(phi, bt)
                index = self.pre.get(a)
                f, t = lambda env: pre_image(index, _prop(bf(env))), PROP
            case Box(a, b):
                bf, names, bt = self.compile(b, tenv)
                expect_prop_operand(phi, bt)
                index, full = self.pre.get(a), self.full
                f, t = lambda env: full & ~pre_image(
                    index, full & ~_prop(bf(env))), PROP
            case Lambda(x, t, b):
                bf, names, bt = self.compile(b, {**tenv, x: t})
                return (lambda env: _Closure(x, t, bf, env), names - {x},
                        Arrow(t, bt))
            case Mu(x, t, b) | Nu(x, t, b):
                bf, names, bt = self.compile(b, {**tenv, x: t})
                t = fixpoint_type(t, bt)
                code = _FixCode(x, bf, isinstance(phi, Mu), arg_types(t))
                names, cache = names - {x}, self.fix_cache
                keys = sorted(names)

                def fixpoint(env):
                    vals = tuple(env[n] for n in keys)
                    if not all(isinstance(v, int) for v in vals):
                        fix = _FixFun(code, env, self)
                    else:
                        fix = cache.get((code, vals))
                        if fix is None:
                            fix = cache[code, vals] = _FixFun(code, env, self)
                    return _Partial(fix, ()) if code.argts else fix.call(())
                return fixpoint, names, t
            case App(fun, a) if isinstance(a, IntExpr):
                ff, names, ft = self.compile(fun, tenv)
                ft = function_type(ft)
                af, anames = _compile_int(a, tenv)
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
                f, names, t = app_int, names | anames, result_type(ft, INT)
            case App(fun, a):
                ff, fnames, ft = self.compile(fun, tenv)
                ft = function_type(ft)
                af, anames, at = self.compile(a, tenv)
                apply = self.apply
                f, names, t = (lambda env: apply(ff(env), af(env)),
                               fnames | anames, result_type(ft, at))
            case Atom(op, l, r):
                (lf, lnames), (rf, rnames) = (_compile_int(l, tenv),
                                              _compile_int(r, tenv))
                cmp, full, window = CMP_FN[op], self.full, self.window

                def atom(env):
                    lv = lf(env)
                    rv = rf(env)
                    if abs(lv) > window or abs(rv) > window:
                        return 0
                    return full if cmp(lv, rv) else 0
                f, names, t = atom, lnames | rnames, PROP
            case Exists(x, b, lower) | Forall(x, b, lower):
                # typecheck's order: the bounds, then the body
                bounds = [_compile_int(e, tenv) for e in lower]
                bf, names, bt = self.compile(b, {**tenv, x: INT})
                expect_prop_operand(phi, bt)
                names = names.difference((x,)).union(
                    *(bnames for _, bnames in bounds))
                if isinstance(phi, Forall):
                    # its walk applies itself at window + 1, or starts
                    # outside the window, which is false: so its greatest
                    # fixpoint is empty at every entry
                    return lambda env: 0, names, PROP
                lower_fs = [f for f, _ in bounds]
                keys, cache, fold = sorted(names), self.fix_cache, self.fold

                def exists(env):
                    # cached by the rule of a fixpoint closed over
                    # integers, keyed on this function
                    vals = tuple(env[n] for n in keys)
                    if not all(isinstance(v, int) for v in vals):
                        return fold(x, bf, lower_fs, env)
                    val = cache.get((exists, vals))
                    if val is None:
                        val = cache[exists, vals] = fold(x, bf, lower_fs, env)
                    return val
                return exists, names, PROP
            case _:
                raise TypeError(f"not a formula: {phi!r}")
        # Operators, modalities, atoms and applications reach here; the
        # other nodes returned above, a closed fixpoint or exists being
        # cached in fix_cache.  A closed prop node depends only on the model
        # and the window, so under a binder it is evaluated on first use
        # and keeps that value for every later evaluation of the binder's
        # body.  Outside every binder it is evaluated once anyway, and a
        # wrapper there would cost a frame per conjunct of a long chain.
        if names or not tenv or not isinstance(t, PropType):
            return f, names, t
        return _once(f), names, t


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
    ev = _BoundedEvaluator(lts, 0, table_cap)
    code, _, t = ev.compile(phi, {})
    expect_prop_formula(t)
    return ev.holds_initially(code), ev.stats


def eval_bounded(phi: Formula, window: int, lts: Lts | None = None,
                 table_cap: int = 200000) -> bool:
    """Underapproximate truth of a closed prop formula with integers
    restricted to [-window, window].  true implies M |= phi."""
    if window < 0:
        raise ValueError("window must be non-negative")
    ev = _BoundedEvaluator(lts if lts is not None else trivial_model(),
                           window, table_cap)
    code, _, t = ev.compile(phi, {})
    expect_prop_formula(t)
    return ev.holds_initially(code)
