import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from hflz import semantics
from hflz.chc import (
    ChcSystem, Clause, PredApp, chc_to_hfl, parse_smtlib_horn,
)
from hflz.lts import Lts, parse_lts, pre_image, trivial_model
from hflz.parser import parse_formula
from hflz.semantics import (
    ImpureFormulaError, TableCapError, check_pure, check_pure_stats,
    eval_bounded,
)
from hflz.syntax import (
    INT, Add, And, App, Arrow, Atom, Box, CMP_OPS, Diamond, Exists, FALSE,
    Forall, IConst, IVar, Lambda, Mu, Nu, Or, PROP, Sub, TRUE, Var, app,
    arrow, dualize, map_children, subformulas,
)
from hflz.transforms import (
    BoundExpr, HigherOrderMuError, desugar_quantifiers, eliminate_mu,
)

from bounded_reference import reference_eval_bounded
from pure_reference import reference_check_pure_stats

LABELS = ("a", "b")


# ---------------------------------------------------------------------------
# Random pure formulas (order 0 binders) and small LTSs


@st.composite
def ltss(draw, max_states=4, max_trans=8, moving=LABELS):
    """LTSs declaring LABELS whose transitions use only the labels in
    `moving`."""
    n = draw(st.integers(1, max_states))
    states = tuple(f"s{i}" for i in range(n))
    pairs = [(src, lbl, dst) for src in states for lbl in moving
             for dst in states]
    trans = draw(st.sets(st.sampled_from(pairs), max_size=max_trans))
    return Lts(states=states, labels=frozenset(LABELS),
               transitions=frozenset(trans), initial=states[0])


PROP_TO_PROP = Arrow(PROP, PROP)


@st.composite
def pure_formulas(draw, depth=0, bound=(), funs=(), labels=LABELS):
    """Pure formulas over prop variables `bound` and modalities over
    `labels`; `funs` names variables of type prop -> prop that may be
    applied."""
    leaf_only = depth >= 4
    options = ["true", "false"]
    if bound:
        options.append("var")
    if not leaf_only:
        options += ["or", "and", "dia", "box", "mu", "nu"]
        if funs:
            options.append("app")
    kind = draw(st.sampled_from(options))
    if kind == "true":
        return TRUE
    if kind == "false":
        return FALSE
    if kind == "var":
        return Var(draw(st.sampled_from(bound)), PROP)
    sub = dict(depth=depth + 1, bound=bound, funs=funs, labels=labels)
    if kind in ("or", "and"):
        l = draw(pure_formulas(**sub))
        r = draw(pure_formulas(**sub))
        return (Or if kind == "or" else And)(l, r)
    if kind in ("dia", "box"):
        lbl = draw(st.sampled_from(labels))
        b = draw(pure_formulas(**sub))
        return (Diamond if kind == "dia" else Box)(lbl, b)
    if kind == "app":
        f = Var(draw(st.sampled_from(funs)), PROP_TO_PROP)
        return App(f, draw(pure_formulas(**sub)))
    x = f"v{len(bound)}"
    b = draw(pure_formulas(depth=depth + 1, bound=bound + (x,), funs=funs,
                           labels=labels))
    return (Mu if kind == "mu" else Nu)(x, PROP, b)


@st.composite
def order1_formulas(draw, labels=LABELS):
    """(mu|nu f: prop -> prop. \\p: prop. body)(arg), possibly twice, where
    body applies f and may nest mu/nu binders."""
    body = draw(pure_formulas(depth=1, bound=("p",), funs=("f",),
                              labels=labels))
    fix = (Mu if draw(st.booleans()) else Nu)(
        "f", PROP_TO_PROP, Lambda("p", PROP, body))
    phi = App(fix, draw(pure_formulas(depth=2, labels=labels)))
    if draw(st.booleans()):
        phi = (Or if draw(st.booleans()) else And)(
            phi, App(fix, draw(pure_formulas(depth=2, labels=labels))))
    return phi


@settings(max_examples=220, deadline=None)
@given(ltss(), pure_formulas())
def test_duality_exact_random(m, phi):
    """check_pure(M, phi) xor check_pure(M, dual(phi)) always holds."""
    assert check_pure(m, phi) != check_pure(m, dualize(phi))


@settings(max_examples=120, deadline=None)
@given(ltss(), pure_formulas())
def test_pure_agreement_and_iteration_bound(m, phi):
    ok, stats = check_pure_stats(m, phi)
    # iteration counts never exceed lattice height + 1
    for count, bound in stats.iterations:
        assert count <= bound
    # for pure formulas the window is irrelevant
    assert eval_bounded(phi, 0, lts=m) == ok


@settings(max_examples=250, deadline=None)
@given(ltss(max_states=3), st.one_of(pure_formulas(), order1_formulas()))
def test_check_pure_matches_reference(m, phi):
    """The demand-driven engine agrees with the tabulating Knaster-Tarski
    checker it replaced, on order-0 and order-1 formulas."""
    ok, stats = check_pure_stats(m, phi)
    assert ok == reference_check_pure_stats(m, phi)[0]
    for count, bound in stats.iterations:
        assert count <= bound


# modalities also over c, which no model declares; in half of the models b
# is declared but has no transitions
WIDE_LABELS = LABELS + ("c",)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([LABELS, ("a",)]).flatmap(
           lambda moving: ltss(max_states=6, max_trans=16, moving=moving)),
       st.one_of(pure_formulas(labels=WIDE_LABELS),
                 order1_formulas(labels=WIDE_LABELS)))
def test_engine_matches_reference_on_wider_models(m, phi):
    """Both entry points agree with the reference on models of up to six
    states, deadlock states and labels without transitions included."""
    expected = reference_check_pure_stats(m, phi)[0]
    assert check_pure(m, phi) == expected
    assert eval_bounded(phi, 0, lts=m) == expected


@st.composite
def byte_spanning_ltss(draw, max_states=40, edges=(8, 9, 16, 17, 33)):
    """LTSs of 7 to max_states states, so that state sets fill one byte
    or span several; the sizes at byte edges in `edges` are drawn on
    purpose.  Some states get no incoming transition, b has none in half
    of the models, and the initial state is any state."""
    n = draw(st.one_of(st.sampled_from(edges),
                       st.integers(7, max_states)))
    states = tuple(f"s{i}" for i in range(n))
    moving = draw(st.sampled_from([LABELS, ("a",)]))
    unreached = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    targets = [i for i in range(n) if i not in unreached]
    trans = draw(st.sets(st.tuples(st.integers(0, n - 1),
                                   st.sampled_from(moving),
                                   st.sampled_from(targets)),
                         max_size=2 * n))
    return Lts(states=states, labels=frozenset(LABELS),
               transitions=frozenset((states[s], lbl, states[d])
                                     for s, lbl, d in trans),
               initial=draw(st.sampled_from(states)))


@settings(max_examples=150, deadline=None)
@given(byte_spanning_ltss(), pure_formulas(labels=WIDE_LABELS))
def test_engine_matches_reference_across_byte_boundaries(m, phi):
    """State sets of several bytes: both entry points agree with the
    reference on models of 7 to 40 states."""
    expected = reference_check_pure_stats(m, phi)[0]
    assert check_pure(m, phi) == expected
    assert eval_bounded(phi, 0, lts=m) == expected


@settings(max_examples=40, deadline=None)
@given(byte_spanning_ltss(max_states=10, edges=(8, 9)),
       order1_formulas(labels=WIDE_LABELS))
def test_order1_matches_reference_across_a_byte_boundary(m, phi):
    """Order 1 on 7 to 10 states, where the prop domain of 2^|S| stays
    under the table cap."""
    expected = reference_check_pure_stats(m, phi)[0]
    assert check_pure(m, phi) == expected
    assert eval_bounded(phi, 0, lts=m) == expected


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 33, 40])
def test_pre_image_reads_every_byte(n):
    rng = random.Random(n)
    states = tuple(f"s{i}" for i in range(n))
    trans = frozenset((rng.choice(states), "a", rng.choice(states))
                      for _ in range(2 * n))
    m = Lts(states=states, labels=frozenset({"a"}), transitions=trans,
            initial=states[0])
    index = m.pre_index["a"]

    def plain(b: int) -> int:
        # one bit of b at a time, straight from the transitions
        out = 0
        for i in range(n):
            if b >> i & 1:
                for src, _, dst in trans:
                    if dst == states[i]:
                        out |= 1 << states.index(src)
        return out

    full = (1 << n) - 1
    sets = [0, full, 1 << (n - 1)] + [rng.getrandbits(n) for _ in range(30)]
    for b in sets + sets:       # the second pass reads filled entries
        assert pre_image(index, b) == plain(b)


def a_chain(n: int) -> Lts:
    states = tuple(f"s{i}" for i in range(n))
    return Lts(states=states, labels=frozenset({"a"}),
               transitions=frozenset((states[i], "a", states[i + 1])
                                     for i in range(n - 1)),
               initial=states[0])


def test_modal_steps_use_the_predecessor_index(monkeypatch):
    # a per-state successor scan costs O(|S|*|T|) per modal step; the
    # engine must answer from the index it builds once per model
    def no_scan(self, state, label):
        raise AssertionError("Lts.successors called by the engine")

    monkeypatch.setattr(Lts, "successors", no_scan)
    m = a_chain(400)
    reaches_deadlock = parse_formula(r"mu y: prop. [a] false \/ <a> y")
    safe = parse_formula(r"nu y: prop. [c] false /\ [a] y")
    for phi in (reaches_deadlock, safe):
        assert check_pure(m, phi)
        assert eval_bounded(phi, 0, m)


class _CountingSet(frozenset):
    """A transition set that counts the walks over it."""
    walks = 0

    def __iter__(self):
        type(self).walks += 1
        return super().__iter__()


def test_the_index_is_built_once_per_model(monkeypatch):
    monkeypatch.setattr(_CountingSet, "walks", 0)
    states = tuple(f"s{i}" for i in range(20))
    m = Lts(states=states, labels=frozenset(LABELS), initial=states[0],
            transitions=_CountingSet(
                (states[i], LABELS[i % 2], states[(i * 7 + 3) % 20])
                for i in range(20)))
    phi = parse_formula(r"nu y: prop. <a> true /\ [b] y")
    check_pure(m, phi)
    walks = _CountingSet.walks
    for _ in range(3):
        check_pure(m, phi)
        eval_bounded(phi, 0, lts=m)
    assert _CountingSet.walks == walks


def swap_labels(phi):
    """phi with the labels a and b exchanged in its modalities."""
    other = {"a": "b", "b": "a"}
    match phi:
        case Diamond(lbl, b):
            return Diamond(other.get(lbl, lbl), swap_labels(b))
        case Box(lbl, b):
            return Box(other.get(lbl, lbl), swap_labels(b))
    return map_children(phi, swap_labels)


@settings(max_examples=60, deadline=None)
@given(byte_spanning_ltss(), st.data())
def test_one_model_answers_a_sequence_of_formulas(m, data):
    """Formulas checked one after another on one model, through both entry
    points, each reading the table entries the earlier ones filled.  Each
    formula is followed by its twin with a and b swapped, which asks the
    other label's index for the same state sets."""
    kinds = [pure_formulas(labels=WIDE_LABELS)]
    if len(m.states) <= 10:     # where the reference's 2^|S| props fit
        kinds.append(order1_formulas(labels=WIDE_LABELS))
    for _ in range(data.draw(st.integers(1, 4))):
        phi = data.draw(st.one_of(kinds))
        for psi in (phi, swap_labels(phi)):
            expected = reference_check_pure_stats(m, psi)[0]
            if data.draw(st.booleans()):
                assert check_pure(m, psi) == expected
                assert eval_bounded(psi, 0, lts=m) == expected
            else:
                assert eval_bounded(psi, 0, lts=m) == expected
                assert check_pure(m, psi) == expected


@pytest.mark.parametrize("case", ["mult", "reach", "ring"])
def test_engine_leaves_no_cyclic_garbage(corpus, case):
    # an evaluator's fixpoints refer back to it; garbage in a cycle lives
    # until the cyclic collector runs, and its pauses reach the tail
    mfile = parse_lts((corpus / "mfile.lts").read_text())
    mult = parse_formula((corpus / "mult.hfl").read_text())
    reach = parse_formula(r"mu y: prop. <end> true \/ <read> y \/ <close> y")
    ring = parse_formula(
        r"(nu f: prop -> prop. \p: prop. p /\ f(<read> p))(true)")
    run = {
        "mult": lambda: eval_bounded(
            app(mult, IConst(3), IConst(4), IConst(12)), 12),
        "reach": lambda: check_pure(mfile, reach),
        "ring": lambda: (check_pure(mfile, ring),
                         eval_bounded(ring, 0, lts=mfile)),
    }[case]
    run()
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            run()
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Exact checks


def test_check_pure_basics():
    m = trivial_model()
    assert check_pure(m, TRUE)
    assert not check_pure(m, FALSE)
    assert check_pure(m, parse_formula("nu x: prop. x"))
    assert not check_pure(m, parse_formula("mu x: prop. x"))
    # no transitions: <a> is false, [a] is true
    assert not check_pure(m, Diamond("a", TRUE))
    assert check_pure(m, Box("a", FALSE))


def test_check_pure_order1(corpus):
    phi = parse_formula((corpus / "ex22.hfl").read_text())
    t = App(phi, Diamond("c", TRUE))
    good = parse_lts((corpus / "chain_aabbc.lts").read_text())
    bad = parse_lts((corpus / "chain_abbc.lts").read_text())
    assert check_pure(good, t)
    assert not check_pure(bad, t)


def test_check_pure_rejects_impure():
    with pytest.raises(ImpureFormulaError):
        check_pure(trivial_model(), parse_formula("exists x. x = 0"))


THREE_STATES = "states: a b c\ninitial: a\ntrans:\n a x b\n b x c\n"


def test_table_cap():
    # order-2 formula over a 3-state model blows a tiny cap: tabulating the
    # argument g needs the 2^3 = 8 prop values
    m = parse_lts(THREE_STATES)
    phi = parse_formula(
        r"(nu f: (prop -> prop) -> prop. \g: prop -> prop. g(true))"
        r"(\y: prop. y)")
    with pytest.raises(TableCapError):
        check_pure(m, phi, table_cap=7)
    assert check_pure(m, phi, table_cap=10)


def test_order3_arguments():
    # f's argument h is itself a function of functions, so keying f's table
    # tabulates h over the monotone functions prop -> prop
    phi = parse_formula(
        r"(nu f: ((prop -> prop) -> prop) -> prop. "
        r"\h: (prop -> prop) -> prop. h(\y: prop. y))"
        r"(\g: prop -> prop. g(true))")
    assert check_pure(trivial_model(), phi)
    assert check_pure(parse_lts(THREE_STATES), phi)
    # the 8000 monotone functions prop -> prop on three states
    with pytest.raises(TableCapError, match="function domain"):
        check_pure(parse_lts(THREE_STATES), phi, table_cap=10)


def test_non_monotone_intermediate_table_terminates():
    # while f is solved its table has f(false) = S but f(true) = {}, so a
    # re-evaluated inner nu would oscillate; solving must accumulate
    phi = parse_formula(
        r"(mu f: prop -> prop. \p: prop. true \/ (nu z1: prop. f(z1)))"
        r"(false)")
    m = trivial_model()
    assert reference_check_pure_stats(m, phi)[0]
    assert check_pure(m, phi)
    assert eval_bounded(phi, 0, lts=m)


# ---------------------------------------------------------------------------
# Bounded evaluation


def test_mult_instances(corpus):
    mult = parse_formula((corpus / "mult.hfl").read_text())
    assert eval_bounded(app(mult, IConst(2), IConst(3), IConst(6)), 8)
    assert not eval_bounded(app(mult, IConst(2), IConst(3), IConst(5)), 8)
    assert eval_bounded(app(mult, IConst(-2), IConst(3), IConst(-6)), 8)
    assert eval_bounded(app(mult, IConst(2), IConst(-3), IConst(-6)), 8)
    assert eval_bounded(app(mult, IConst(0), IConst(0), IConst(0)), 8)


def test_even_instances(corpus):
    even = parse_formula((corpus / "even.hfl").read_text())
    assert eval_bounded(App(even, IConst(4)), 8)
    assert not eval_bounded(App(even, IConst(3)), 8)
    assert not eval_bounded(App(even, IConst(-2)), 8)


def test_out_of_window_is_false():
    # the chain exits the window, so the conjunct eventually fails
    phi = parse_formula(
        r"(nu x: int -> prop. \n: int. n <= 5 /\ x(n + 1))(0)")
    assert not eval_bounded(phi, 16)
    # in-window existential search succeeds
    assert eval_bounded(parse_formula("exists x. x = 3"), 8)
    assert not eval_bounded(parse_formula("exists x. x = 30"), 8)


def test_window_monotone(corpus):
    mult = parse_formula((corpus / "mult.hfl").read_text())
    inst = app(mult, IConst(2), IConst(2), IConst(4))
    results = [eval_bounded(inst, b) for b in (1, 2, 4, 8, 16)]
    assert results == sorted(results)  # False* then True*
    assert results[-1] is True


def test_bounded_duality_one_sided(corpus):
    for name in ("even.hfl", "mult.hfl"):
        phi = parse_formula((corpus / name).read_text())
        inst = phi
        from hflz.syntax import arg_types, typecheck
        for _ in arg_types(typecheck(inst)):
            inst = App(inst, IConst(2))
        both = eval_bounded(inst, 8) and eval_bounded(dualize(inst), 8)
        assert not both


def test_eval_with_lts(corpus):
    m = parse_lts((corpus / "mfile.lts").read_text())
    phi = parse_formula(
        r"(mu f: int -> prop -> prop. \(n: int, k: prop). "
        r"(n > 0 \/ <close> k) /\ (n <= 0 \/ <read> f(n - 1, k)))"
        r"(10, <end> true)")
    assert eval_bounded(phi, 16, lts=m)
    # demanding more reads than the window allows cannot be certified
    phi25 = parse_formula(
        r"(mu f: int -> prop -> prop. \(n: int, k: prop). "
        r"(n > 0 \/ <close> k) /\ (n <= 0 \/ <read> f(n - 1, k)))"
        r"(25, <end> true)")
    assert not eval_bounded(phi25, 16, lts=m)
    assert eval_bounded(phi25, 32, lts=m)


# ---------------------------------------------------------------------------
# Local solving: a finished table entry is never evaluated again


@pytest.fixture
def engine_counts(monkeypatch):
    counts = {"body": 0, "fixfuns": 0, "compiles": 0}
    body_value = semantics._FixFun.body_value
    init = semantics._FixFun.__init__
    compile_ = semantics._BoundedEvaluator.compile

    def counted_body_value(self, keys):
        counts["body"] += 1
        return body_value(self, keys)

    def counted_init(self, *args):
        counts["fixfuns"] += 1
        init(self, *args)

    def counted_compile(self, phi):
        counts["compiles"] += 1
        return compile_(self, phi)

    monkeypatch.setattr(semantics._FixFun, "body_value", counted_body_value)
    monkeypatch.setattr(semantics._FixFun, "__init__", counted_init)
    monkeypatch.setattr(semantics._BoundedEvaluator, "compile",
                        counted_compile)
    return counts


def test_eliminated_walk_evaluates_each_entry_rarely(engine_counts):
    # a call into the solved inner nu returns its entry; solving the whole
    # table again on each call costs 56,939 body evaluations here
    walk = parse_formula(
        r"forall i. (mu x: int -> prop. \y: int. y <= 4 \/ x(y - 3))(i)")
    phi = eliminate_mu(walk, BoundExpr.const(4), style="apply")
    assert not eval_bounded(phi, 12)
    assert engine_counts["body"] <= 150


def test_an_entry_is_evaluated_again_only_when_a_read_changed(
        corpus, engine_counts):
    # 6 entries; re-evaluating every entry in rounds until none changes
    # costs 57 body evaluations
    mult = parse_formula((corpus / "mult.hfl").read_text())
    assert eval_bounded(app(mult, IConst(3), IConst(5), IConst(15)), 16)
    assert engine_counts["body"] <= 12
    # the dual of the mult system: the walks inside mult's body close over
    # it, so their reads of mult are its body's reads (28,099 in rounds)
    engine_counts["body"] = 0
    dual = dualize(chc_to_hfl(parse_smtlib_horn(
        (corpus / "mult.smt2").read_text())))
    assert not eval_bounded(dual, 4)
    assert engine_counts["body"] <= 10000


@pytest.mark.parametrize("text, holds", [
    (r"mu y: prop. [a] false \/ <a> y", True),
    (r"nu y: prop. <a> y", False),
])
def test_zero_argument_fixpoints_read_their_own_entry(
        text, holds, engine_counts):
    # along s0 -> s1 -> s2 the value gains (mu) or loses (nu) one state per
    # evaluation; the body reads the entry directly, not through a call, so
    # the solver must queue the entry again after each change
    m = parse_lts("states: s0 s1 s2\ninitial: s0\ntrans:\n"
                  "s0 a s1\ns1 a s2\n")
    phi = parse_formula(text)
    ok, stats = check_pure_stats(m, phi)
    assert ok == holds == reference_check_pure_stats(m, phi)[0]
    assert engine_counts["body"] == 4
    assert [count for count, _ in stats.iterations] == [4]


def test_a_read_of_an_entry_made_by_another_is_recorded():
    # f(0) adds f(1) and then f(2); f(2) is evaluated first and reads
    # f(1), which it did not add.  When f(1) drops to false, f(2) must be
    # evaluated again, or the later call g(2) finds it still true.
    phi = parse_formula(
        r"(\g: int -> prop. g(0) \/ g(2))(nu f: int -> prop. \y: int."
        r" (y = 0 /\ f(1) /\ f(2)) \/ (y = 2 /\ f(1)) \/ y > 2)")
    assert not eval_bounded(phi, 2)


def test_a_tabulated_argument_is_applied_at_its_window_offset():
    # g is tabulated over [-w, w]; applying it to n reads entry n + w
    walk = (r"(mu f: (int -> prop) -> int -> prop. \g: int -> prop."
            r" \n: int. g(n) \/ f(g, n - 1))(\y: int. y = {}, 1)")
    for target, window, holds in ((-2, 1, False), (-2, 2, True),
                                  (2, 3, False), (1, 1, True)):
        assert eval_bounded(parse_formula(walk.format(target)),
                            window) == holds


def mult_dual(corpus):
    """The dual of the mult system whose goal is flipped to the reachable
    x > 0 /\\ r >= y: an existential witness search."""
    mult = parse_smtlib_horn((corpus / "mult.smt2").read_text())
    x, y, r = IVar("x"), IVar("y"), IVar("r")
    flipped = ChcSystem(
        preds=mult.preds, definite=mult.definite,
        goals=(Clause(None, (PredApp("mult", (x, y, r)),
                             Atom(">", x, IConst(0)), Atom(">=", r, y))),))
    return dualize(chc_to_hfl(flipped))


def test_mult_dual_builds_few_fixpoints(corpus, engine_counts):
    # the inner walks close over mult, so they are never cached; solving
    # finished tables again on each call builds 54,202 of them at window 2
    phi = mult_dual(corpus)
    assert eval_bounded(phi, 2)
    assert engine_counts["fixfuns"] <= 1000
    assert eval_bounded(phi, 3)


def test_each_node_is_compiled_once(corpus, engine_counts):
    # hundreds of body evaluations, and never a compile among them
    walk = parse_formula(
        r"forall i. (mu x: int -> prop. \y: int. y <= 4 \/ x(y - 3))(i)")
    cases = ((eliminate_mu(walk, BoundExpr.const(4), style="apply"), 12,
              False), (mult_dual(corpus), 2, True))
    for phi, window, holds in cases:
        engine_counts.update(body=0, compiles=0)
        assert eval_bounded(phi, window) == holds
        nodes = sum(1 for _ in subformulas(desugar_quantifiers(phi)))
        assert engine_counts["compiles"] <= nodes < engine_counts["body"]


def test_long_conjunctions_keep_their_stack_depth():
    # the engine takes one Python frame per conjunct, as when it walked the
    # syntax tree on every visit; desugar_quantifiers takes two and runs
    # out of stack first, near 500 conjuncts.  Three per conjunct would
    # already fail here.
    walk = parse_formula(
        r"(mu x: int -> prop. \y: int. y <= 0 \/ x(y - 1))(3)")
    phi = walk
    for _ in range(399):
        phi = And(walk, phi)
    assert eval_bounded(phi, 4)


def test_long_pure_conjunctions_pass_is_pure():
    # is_pure and subformulas walk with an explicit stack; a recursive
    # is_pure ran out of stack near 350 conjuncts, before the engine
    loop = parse_formula(r"mu x: prop. true \/ x")
    phi = loop
    for _ in range(599):
        phi = And(loop, phi)
    assert check_pure(parse_lts("states: s\ninitial: s\ntrans:\n"), phi)


# ---------------------------------------------------------------------------
# Random integer formulas against the whole-table reference


@st.composite
def int_exprs(draw, ivars):
    """Constants up to 4 (outside windows up to 3) and variables shifted by
    at most 2."""
    if not ivars or not draw(st.integers(0, 2)):
        return IConst(draw(st.integers(-4, 4)))
    v = IVar(draw(st.sampled_from(ivars)))
    k = draw(st.integers(-2, 2))
    if k == 0:
        return v
    return Add(v, IConst(k)) if k > 0 else Sub(v, IConst(-k))


@st.composite
def int_formulas(draw, depth=0, ivars=(), funs=(), binders=0,
                 allow_leaf=False):
    """Prop formulas over the integer variables `ivars` and the fixpoint
    variables `funs`, given as (name, arity) pairs.  A nested mu or nu may
    apply the fixpoints that enclose it, so it closes over them.  The root
    is a fixpoint, and no binder's body is a constant or an atom."""
    binding = ["mu", "nu", "exists", "forall"] if binders < 3 else []
    # calls to the enclosing fixpoints are frequent, so that nested binders
    # close over them
    calls = ["app"] * 3 if funs else []
    if depth == 0:
        options = ["mu", "nu"]
    elif depth >= 5:
        options = ["true", "false", "atom", "atom"] + calls
    else:
        options = ["or", "and", "or", "and", "dia", "box"] + binding + calls
        if allow_leaf:
            options += ["true", "false", "atom", "atom", "atom"]
    kind = draw(st.sampled_from(options))
    if kind == "true":
        return TRUE
    if kind == "false":
        return FALSE
    if kind == "atom":
        return Atom(draw(st.sampled_from(CMP_OPS)),
                    draw(int_exprs(ivars)), draw(int_exprs(ivars)))
    sub = dict(depth=depth + 1, ivars=ivars, funs=funs, binders=binders,
               allow_leaf=True)
    if kind in ("or", "and"):
        l = draw(int_formulas(**sub))
        r = draw(int_formulas(**sub))
        return (Or if kind == "or" else And)(l, r)
    if kind in ("dia", "box"):
        b = draw(int_formulas(**sub))
        return (Diamond if kind == "dia" else Box)(
            draw(st.sampled_from(LABELS)), b)
    if kind == "app":
        name, arity = draw(st.sampled_from(funs))
        f = Var(name, arrow(*[INT] * arity, PROP))
        return app(f, *[draw(int_exprs(ivars)) for _ in range(arity)])
    if kind in ("exists", "forall"):
        x = f"i{binders}"
        b = draw(int_formulas(depth=depth + 1, ivars=ivars + (x,),
                              funs=funs, binders=binders + 1))
        lower = (draw(int_exprs(ivars)),) if draw(st.booleans()) else ()
        return (Exists if kind == "exists" else Forall)(x, b, lower)
    g = f"g{binders}"
    # each argument counts as a binder, at most three in all, which keeps
    # the reference's nested tables small
    arity = draw(st.integers(1, min(2, 3 - binders)))
    params = tuple(f"y{binders}_{j}" for j in range(arity))
    body = draw(int_formulas(depth=depth + 1, ivars=ivars + params,
                             funs=funs + ((g, arity),),
                             binders=binders + arity))
    for p in reversed(params):
        body = Lambda(p, INT, body)
    fix = (Mu if kind == "mu" else Nu)(g, arrow(*[INT] * arity, PROP), body)
    return app(fix, *[draw(int_exprs(ivars)) for _ in range(arity)])


INT_TO_PROP = arrow(INT, PROP)


@st.composite
def nested_walks(draw):
    """(fix g. \\y. y cmp c op B)(c'), where the binder B applies g to a
    shifted argument: B's table holds only while g's approximation does."""
    g = Var("g", INT_TO_PROP)
    ops = st.sampled_from([Or, And])
    base = Atom(draw(st.sampled_from(CMP_OPS)), IVar("y"),
                IConst(draw(st.integers(-2, 2))))
    kind = draw(st.sampled_from(["mu", "nu", "exists", "forall"]))
    if kind in ("exists", "forall"):
        step = draw(ops)(App(g, draw(int_exprs(("i", "y")))),
                         draw(int_formulas(depth=3, ivars=("i", "y"),
                                           funs=(("g", 1),), binders=2,
                                           allow_leaf=True)))
        lower = (draw(int_exprs(("y",))),) if draw(st.booleans()) else ()
        inner = (Exists if kind == "exists" else Forall)("i", step, lower)
    else:
        step = draw(ops)(App(g, draw(int_exprs(("z", "y")))),
                         draw(int_formulas(depth=3, ivars=("z", "y"),
                                           funs=(("g", 1), ("h", 1)),
                                           binders=2, allow_leaf=True)))
        inner = App((Mu if kind == "mu" else Nu)(
            "h", INT_TO_PROP, Lambda("z", INT, step)),
            draw(int_exprs(("y",))))
    # mostly a base case that lets the iteration move: mu g. base \/ B,
    # nu g. base /\ B
    fix, op = draw(st.sampled_from([(Mu, Or), (Nu, And), (Mu, Or), (Nu, And),
                                    (Mu, And), (Nu, Or)]))
    body = Lambda("y", INT, op(base, inner))
    return App(fix("g", INT_TO_PROP, body), IConst(draw(st.integers(-2, 2))))


@settings(max_examples=300, deadline=None)
@given(ltss(max_states=2, max_trans=3),
       st.one_of(int_formulas(), nested_walks()), st.integers(0, 3))
def test_eval_bounded_matches_reference(m, phi, window):
    """The engine agrees with whole-table Kleene iteration on first-order
    integer formulas, nested fixpoints of both polarities included."""
    assert eval_bounded(phi, window, lts=m) == \
        reference_eval_bounded(phi, window, lts=m)


@settings(max_examples=300, deadline=None)
@given(ltss(max_states=2, max_trans=3),
       st.one_of(int_formulas(), nested_walks()), st.integers(0, 3),
       st.sampled_from([1, 2, 4]))
def test_eliminated_formula_holds_only_where_the_original_does(
        m, phi, window, n):
    """mu-elimination replaces each mu by its n-th Kleene approximant, which
    lies below the windowed least fixpoint, and evaluation is monotone: over
    the same window the eliminated formula is true only where the original
    is.  So validity evaluates only the original over its window."""
    try:
        elim = eliminate_mu(phi, BoundExpr.const(n), style="apply")
        if not eval_bounded(elim, window, lts=m):
            return
        assert eval_bounded(phi, window, lts=m)
    except (HigherOrderMuError, TableCapError):
        pass
