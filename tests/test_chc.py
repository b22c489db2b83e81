import re
import stat
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from hflz.chc import (
    ChcShapeError, ChcSystem, Clause, PredApp, chc_to_hfl, emit_smtlib_horn,
    hfl_to_chc, parse_smtlib_horn, solve_external, validate_model,
)
from hflz.parser import parse_formula
from hflz.pretty import to_text
from hflz.smt import (
    SolverError, parse_sexprs, sexpr_to_int_expr, symbol,
)
from hflz.syntax import (
    INT, PROP, Add, App, Atom, HflError, IConst, INeg, IVar, IntExpr, Lambda,
    Nu, Sub, TRUE, Var, alpha_eq, arrow, eval_int, map_children, subformulas,
    typecheck,
)
from hflz.transforms import BoundExpr, eliminate_mu


def mult_system() -> ChcSystem:
    x, y, r, s = IVar("x"), IVar("y"), IVar("r"), IVar("s")
    return ChcSystem(
        preds={"mult": 3},
        definite=(
            Clause(PredApp("mult", (x, y, r)),
                   (Atom("=", y, IConst(0)), Atom("=", r, IConst(0)))),
            Clause(PredApp("mult", (x, y, r)),
                   (Atom("!=", y, IConst(0)),
                    PredApp("mult", (x, Sub(y, IConst(1)), s)),
                    Atom("=", r, Add(s, x)))),
        ),
        goals=(
            Clause(None, (PredApp("mult", (x, y, r)),
                          Atom(">", x, IConst(0)), Atom("<", r, y))),
        ),
    )


def sec41_system() -> ChcSystem:
    # the clause system produced by eliminating the descending-loop formula
    return parse_smtlib_horn(emit_smtlib_horn(hfl_to_chc(
        parse_formula(
            "forall i. forall u >= max(i + 1, 1). "
            "(nu x': int -> int -> prop. \\(z: int, y: int). "
            "z > 0 /\\ (y <= 0 \\/ x'(z - 1, y - 1)))(u, i)"))))


# ---------------------------------------------------------------------------
# Construction and validation


def test_system_shape_errors():
    with pytest.raises(ChcShapeError, match="undeclared"):
        ChcSystem(preds={}, definite=(
            Clause(PredApp("p", ()), ()),), goals=())
    with pytest.raises(ChcShapeError, match="arity"):
        ChcSystem(preds={"p": 2}, definite=(
            Clause(PredApp("p", (IVar("x"),)), ()),), goals=())
    with pytest.raises(ChcShapeError, match="arity"):
        ChcSystem(preds={"p": 1}, definite=(), goals=(
            Clause(None, (PredApp("p", ()),)),))
    with pytest.raises(ChcShapeError, match="head"):
        ChcSystem(preds={"p": 0}, definite=(
            Clause(None, (PredApp("p", ()),)),), goals=())
    with pytest.raises(ChcShapeError, match="head"):
        ChcSystem(preds={"p": 0}, definite=(), goals=(
            Clause(PredApp("p", ()), ()),))


def test_clause_variable_order():
    c = Clause(PredApp("p", (IVar("b"), IVar("a"))),
               (Atom("=", IVar("c"), IVar("a")),))
    assert c.variables() == ["b", "a", "c"]


# ---------------------------------------------------------------------------
# CHC <-> HFL


def test_chc_to_hfl_mult_golden():
    phi = chc_to_hfl(mult_system())
    assert to_text(phi) == (
        "forall x. forall y. forall r. "
        "(nu mult: int -> int -> int -> prop. \\(x1: int, y1: int, r1: int). "
        "(y1 != 0 \\/ r1 != 0) /\\ (forall s. y1 = 0 \\/ "
        "mult(x1, y1 - 1, s) \\/ r1 != s + x1))(x, y, r) "
        "\\/ x <= 0 \\/ r >= y")


def test_hfl_to_chc_round_trip():
    sys0 = mult_system()
    sys1 = hfl_to_chc(chc_to_hfl(sys0))
    assert set(sys1.preds) == {"mult"}
    assert sys1.preds["mult"] == 3
    assert len(sys1.definite) == 2
    assert len(sys1.goals) == 1
    # and the round trip is stable from there on
    sys2 = hfl_to_chc(chc_to_hfl(sys1))
    assert emit_smtlib_horn(sys1) == emit_smtlib_horn(sys2)


def test_hfl_to_chc_rejects_bad_shapes():
    from hflz.syntax import HflError
    with pytest.raises(ChcShapeError):
        hfl_to_chc(parse_formula("<a> true"))
    with pytest.raises(HflError):
        hfl_to_chc(parse_formula("x = 0", {"x": __import__("hflz").syntax.INT}))
    with pytest.raises(ChcShapeError, match="mu-elimination"):
        # a least fixpoint in the input dualizes to nu: no clause form
        hfl_to_chc(parse_formula(
            "(mu x: int -> prop. \\y: int. y = 0 \\/ x(y - 1))(3)"))


def dag_system(d: int) -> ChcSystem:
    """P_i(x) <= P_{i+1}(x) /\\ P_{i+1}(x + 1) for i < d, the fact
    P_d(x) <= x >= 0, and the goal P_0(x) /\\ x < 0 => false"""
    x = IVar("x")
    definite = [Clause(PredApp(f"P{i}", (x,)),
                       (PredApp(f"P{i + 1}", (x,)),
                        PredApp(f"P{i + 1}", (Add(x, IConst(1)),))))
                for i in range(d)]
    definite.append(Clause(PredApp(f"P{d}", (x,)),
                           (Atom(">=", x, IConst(0)),)))
    return ChcSystem(
        preds={f"P{i}": 1 for i in range(d + 1)}, definite=tuple(definite),
        goals=(Clause(None, (PredApp("P0", (x,)),
                             Atom("<", x, IConst(0)))),))


def test_copies_of_one_definition_share_a_predicate():
    # chc_to_hfl inlines P_{i+1} twice into P_i; the alpha-equivalent
    # copies are one predicate again, where one per copy would be 15
    s = hfl_to_chc(chc_to_hfl(dag_system(3)))
    assert s.preds == {"P0": 1, "P1": 1, "P2": 1, "P3": 1}
    assert len(s.definite) == 4 and len(s.goals) == 1
    assert emit_smtlib_horn(s) == """(set-logic HORN)
(declare-fun P0 (Int) Bool)
(declare-fun P1 (Int) Bool)
(declare-fun P2 (Int) Bool)
(declare-fun P3 (Int) Bool)
(assert (forall ((x Int)) (=> (>= x 0) (P3 x))))
(assert (forall ((x Int)) (=> (and (P3 x) (P3 (+ x 1))) (P2 x))))
(assert (forall ((x Int)) (=> (and (P2 x) (P2 (+ x 1))) (P1 x))))
(assert (forall ((x Int)) (=> (and (P1 x) (P1 (+ x 1))) (P0 x))))
(assert (forall ((x Int)) (=> (and (P0 x) (< x 0)) false)))
(check-sat)
"""


def test_distinct_fixpoints_of_one_name_are_distinct_predicates():
    s = hfl_to_chc(parse_formula(
        "(nu x: int -> prop. \\y: int. y >= 0 /\\ x(y + 1))(0) /\\ "
        "(nu x: int -> prop. \\y: int. y < 5 /\\ x(y + 1))(0)"))
    assert s.preds == {"x": 1, "x1": 1}
    assert [c.body[0].name for c in s.goals] == ["x", "x1"]
    y = IVar("y")
    facts = {c.head.name: c.body for c in s.definite
             if isinstance(c.body[0], Atom)}
    assert facts == {"x": (Atom("<", y, IConst(0)),),
                     "x1": (Atom(">=", y, IConst(5)),)}


def test_copies_under_different_fixpoints_are_different_predicates():
    # two fixpoints x built with one binder name, each around the same
    # inner w, whose free x is a different predicate in each
    from hflz.syntax import And
    t = arrow(INT, PROP)
    inner = parse_formula(
        "(nu w: int -> prop. \\v: int. x(v) /\\ w(v + 1))(y)",
        {"x": t, "y": INT})

    def outer(k):
        return App(Nu("x", t, Lambda("y", INT, And(
            Atom(">=", IVar("y"), IConst(k)), inner))), IConst(0))

    s = hfl_to_chc(And(outer(0), outer(5)))
    assert s.preds == {"x": 1, "w": 1, "x1": 1, "w1": 1}
    assert {c.head.name: c.body[0].name for c in s.definite
            if c.head.name in ("w", "w1")
            and c.body[0].args == (IVar("v"),)} == {"w": "x", "w1": "x1"}


def test_mutual_recursion_reads_back():
    # chc_to_hfl nests q's definition inside p's, where q calls p
    x = IVar("x")
    s0 = ChcSystem(
        preds={"p": 1, "q": 1},
        definite=(Clause(PredApp("p", (IConst(0),)), ()),
                  Clause(PredApp("p", (x,)),
                         (PredApp("q", (Sub(x, IConst(1)),)),)),
                  Clause(PredApp("q", (x,)),
                         (PredApp("p", (Sub(x, IConst(1)),)),))),
        goals=(Clause(None, (PredApp("p", (x,)), Atom("<", x, IConst(0)))),))
    s1 = hfl_to_chc(chc_to_hfl(s0))
    assert set(s1.preds) == {"p", "q"}
    assert len(s1.definite) == 3 and len(s1.goals) == 1
    s2 = hfl_to_chc(chc_to_hfl(s1))
    assert emit_smtlib_horn(s1) == emit_smtlib_horn(s2)


def test_nullary_predicates_read_back():
    # p is nullary: its uses are the bare variable and the bare fixpoint
    x = IVar("x")
    s0 = ChcSystem(
        preds={"p": 0, "q": 1},
        definite=(Clause(PredApp("q", (x,)), (Atom(">=", x, IConst(0)),)),
                  Clause(PredApp("p", ()), (PredApp("q", (IConst(1),)),))),
        goals=(Clause(None, (PredApp("p", ()),)),))
    s1 = hfl_to_chc(chc_to_hfl(s0))
    assert emit_smtlib_horn(s1) == emit_smtlib_horn(s0)


def test_locals_of_two_disjuncts_are_two_variables():
    # both foralls refute in one goal clause; one variable y for both
    # would make the clause body y <= 0 /\\ y > 0, never true
    s = hfl_to_chc(parse_formula("(forall y. y > 0) \\/ (forall y. y <= 0)"))
    assert emit_smtlib_horn(s) == (
        "(set-logic HORN)\n"
        "(assert (forall ((y Int) (y1 Int)) "
        "(=> (and (<= y 0) (> y1 0)) false)))\n"
        "(check-sat)\n")


_WALK = st.tuples(st.sampled_from("xz"), st.integers(-3, 3),
                  st.sampled_from("+-"), st.integers(1, 2),
                  st.integers(-3, 3))


@settings(max_examples=60, deadline=None)
@given(st.lists(_WALK, min_size=2, max_size=4))
def test_each_walk_keeps_its_own_clauses(walks):
    # names collide, and a walk may repeat another: each goal's predicate
    # must carry exactly its own walk's fact y <= c and step
    text = " /\\ ".join(
        f"(nu {n}: int -> prop. \\y: int. y > {c} /\\ {n}(y {op} {k}))({m})"
        for n, c, op, k, m in walks)
    s = hfl_to_chc(parse_formula(text))
    assert len(s.goals) == len(walks)
    y = IVar("y")
    for goal, (_, c, op, k, m) in zip(s.goals, walks):
        (p,) = goal.body
        assert p.args == (IConst(m) if m >= 0 else INeg(IConst(-m)),)
        bound = IConst(c) if c >= 0 else INeg(IConst(-c))
        step = (Add if op == "+" else Sub)(y, IConst(k))
        assert {cl.body for cl in s.definite if cl.head.name == p.name} == {
            (Atom("<=", y, bound),), (PredApp(p.name, (step,)),)}


def test_extraction_is_one_walk(monkeypatch):
    from hflz import chc, syntax

    def refused(*args):
        raise AssertionError("a second walk")

    # the walk types as it goes: no typecheck pass before it
    for module, name in ((chc, "dualize"), (syntax, "dualize"),
                         (syntax, "subformulas"), (chc, "typecheck"),
                         (syntax, "typecheck")):
        monkeypatch.setattr(module, name, refused, raising=False)
    s = hfl_to_chc(parse_formula(
        "forall i. (nu x: int -> prop. \\y: int. y > 0 /\\ "
        "(x(y - 1) \\/ y = 3))(i)"))
    assert s.preds == {"x": 1}


_TYPES = (PROP, arrow(INT, PROP), arrow(INT, INT, PROP),
          arrow(arrow(INT, PROP), PROP))


def _corrupt(phi, kind: str, pick: int, t):
    """phi with one node of the kind, the pick-th mod their count, made
    ill-typed: a Var, Lambda or Nu annotated t instead, an integer
    argument replaced by true, or an atom over an unbound name."""
    match kind:
        case "var" | "lambda" | "nu":
            cls = {"var": Var, "lambda": Lambda, "nu": Nu}[kind]
            sites = [s for s in subformulas(phi) if isinstance(s, cls)
                     and (s.type if cls is Var else s.vtype) != t]
        case "int_arg":
            sites = [s for s in subformulas(phi)
                     if isinstance(s, App) and isinstance(s.arg, IntExpr)]
        case "atom":
            sites = [s for s in subformulas(phi) if isinstance(s, Atom)]
    if not sites:
        return None
    target = sites[pick % len(sites)]
    match target:
        case Var(n, _):
            bad = Var(n, t)
        case Lambda(x, _, b) | Nu(x, _, b):
            bad = type(target)(x, t, b)
        case App(f, _):
            bad = App(f, TRUE)
        case Atom(op, _, r):
            bad = Atom(op, IVar("unbound"), r)

    def go(s):
        return bad if s is target else map_children(s, go)
    return go(phi)


_START = st.one_of(st.integers(-3, 3).map(str), st.just("i"))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 2), _START),
                min_size=1, max_size=3),
       st.sampled_from(["1", "4", "max(i + 1, 1)"]),
       st.sampled_from(["var", "lambda", "nu", "int_arg", "atom"]),
       st.integers(0, 50), st.sampled_from(_TYPES))
def test_ill_typed_walks_are_refused(walks, bound, kind, pick, t):
    # without typecheck before it, the walk itself must refuse each
    # ill-typed corruption of a formula it accepts
    phi = eliminate_mu(parse_formula("forall i. " + " /\\ ".join(
        f"(mu x: int -> prop. \\y: int. y <= {c} \\/ x(y - {k}))({m})"
        for c, k, m in walks)), BoundExpr.parse(bound))
    hfl_to_chc(phi)
    bad = _corrupt(phi, kind, pick, t)
    if bad is None:
        return
    try:
        typecheck(bad)
    except HflError:
        with pytest.raises(HflError):
            hfl_to_chc(bad)


# ---------------------------------------------------------------------------
# SMT-LIB emission and parsing


PRIMED = r"(nu x': int -> prop. \y': int. y' < 100 /\ x'(y' + 1))(1)"


def odd_names_system() -> ChcSystem:
    # a predicate named ( and two fresh copies y%1, y%2 of one variable y:
    # each name must be written as itself and read back as itself
    y1, y2 = IVar("y%1"), IVar("y%2")
    return ChcSystem(
        preds={"(": 1},
        definite=(
            Clause(PredApp("(", (IConst(0),)), ()),
            Clause(PredApp("(", (y2,)),
                   (Atom("<", y1, y2), PredApp("(", (y1,)))),
        ),
        goals=(Clause(None, (PredApp("(", (y1,)), Atom("<", y1, IConst(0)))),),
    )


def test_emit_parse_identity(corpus):
    for sys0 in (mult_system(), sec41_system(),
                 parse_smtlib_horn((corpus / "mult.smt2").read_text()),
                 hfl_to_chc(parse_formula(PRIMED)), odd_names_system()):
        text = emit_smtlib_horn(sys0)
        assert text.splitlines()[0] == "(set-logic HORN)"
        assert text.strip().endswith("(check-sat)")
        sys1 = parse_smtlib_horn(text)
        assert emit_smtlib_horn(sys1) == text
        assert sys1 == sys0


def test_primed_names_are_quoted_symbols(scripts):
    # ' is not allowed in an SMT-LIB simple symbol, so such names print
    # as quoted symbols, which the reader strips again
    assert [symbol(n) for n in ("x", "y%2", "x'", "1x", "let")] == \
        ["x", "y%2", "|x'|", "|1x|", "|let|"]
    s = hfl_to_chc(parse_formula(PRIMED))
    text = emit_smtlib_horn(s)
    assert "(declare-fun |x'| (Int) Bool)" in text
    assert "(forall ((|y'| Int))" in text
    assert "(|x'| (+ |y'| 1))" in text
    assert parse_smtlib_horn(text) == s
    # invalid: from 1 the argument climbs past 100; the window reaches it
    solver = f"{sys.executable} {scripts}/naive_chc_solver.py -w 100 {{file}}"
    assert solve_external(s, solver, 120).kind == "unsat"


def test_parse_corpus_smt2(corpus):
    s = parse_smtlib_horn((corpus / "mult.smt2").read_text())
    assert s.preds == {"mult": 3}
    assert len(s.definite) == 2 and len(s.goals) == 1
    # the encoded formula survives a print/parse round trip
    phi = chc_to_hfl(s)
    assert alpha_eq(parse_formula(to_text(phi)), phi)


def test_parse_rule_query_dialect():
    text = """
(declare-rel p (Int))
(rule (p 0))
(rule (=> (p x) (p (+ x 1))))
(query (and (p y) (< y 0)))
"""
    s = parse_smtlib_horn(text)
    assert s.preds == {"p": 1}
    assert len(s.definite) == 2 and len(s.goals) == 1


def _term(text: str):
    return sexpr_to_int_expr(parse_sexprs(text)[0])


X = IVar("x")


@pytest.mark.parametrize("text, expr", [
    ("5", IConst(5)),
    ("-5", IConst(-5)),
    # numerals are ASCII digits; anything else is a symbol
    ("--5", IVar("--5")),
    ("\u00b2", IVar("\u00b2")),
    ("(* 2 x)", Add(X, X)),
    ("(* x 3)", Add(Add(X, X), X)),
    ("(* -2 x)", INeg(Add(X, X))),
    ("(* (- 2) x)", INeg(Add(X, X))),
    ("(* 0 x)", IConst(0)),
    ("(* 2 3)", IConst(6)),
    ("(* (- 2) 3 (+ 1 1))", IConst(-12)),
    ("(* 2 (+ x 1))", Add(Add(X, IConst(1)), Add(X, IConst(1)))),
])
def test_horn_terms(text, expr):
    assert _term(text) == expr


def _depth(e) -> int:
    kids = [v for v in vars(e).values() if not isinstance(v, (int, str))]
    return 1 + max(map(_depth, kids), default=0)


@pytest.mark.parametrize("c", [3000, -4097, 65535])
def test_horn_product_by_a_large_constant_is_shallow(c):
    e = _term(f"(* {c} x)")
    assert eval_int(e, {"x": 7}) == 7 * c
    assert _depth(e) <= 2 * abs(c).bit_length() + 2


@pytest.mark.parametrize("text", ["(* x y)", "(* 2 x (- y))", "(* x x)"])
def test_horn_nonlinear_product_is_refused(text):
    with pytest.raises(ChcShapeError,
                       match="^nonlinear multiplication in HORN input$"):
        _term(text)


def test_unterminated_quoted_symbol_is_named():
    with pytest.raises(HflError, match=r"^unterminated quoted symbol "
                                       r"'\|x Int\)\) \(p x\)\)\)'$"):
        parse_smtlib_horn("(declare-fun p (Int) Bool)\n"
                          "(assert (forall ((|x Int)) (p x)))\n")


_P = "(declare-fun p (Int) Bool)\n"


@pytest.mark.parametrize("text, message", [
    (_P + "(assert (forall ((x Int)) (=> (< (+) x) (p x))))",
     "malformed arithmetic term (+)"),
    (_P + "(assert (forall ((x Int)) (=> (< x (-)) (p x))))",
     "malformed arithmetic term (-)"),
    (_P + "(assert (forall ((x Int)) (=> (< () x) (p x))))",
     "malformed arithmetic term ()"),
    ("(assert)", "malformed command (assert)"),
    (_P + "(query)", "malformed command (query)"),
    ("(declare-fun p (Int))", "malformed command (declare-fun p (Int))"),
    ("(declare-fun (p) (Int) Bool)",
     "malformed command (declare-fun (p) (Int) Bool)"),
    ("(declare-rel p)", "malformed command (declare-rel p)"),
    (_P + "(assert (forall ((x Int))))", "unsupported atom head 'forall'"),
    (_P + "(assert (=> (p x)))", "unsupported atom head '=>'"),
    (_P + "(assert (=> (not (= x)) (p x)))", "unsupported atom head 'not'"),
    (_P + "(assert (=> ((a) 1 2) (p 1)))", "unsupported atom head '(a)'"),
    (_P + "(assert (=> (< ((a) 1) 2) (p 1)))",
     "unsupported arithmetic operator '(a)'"),
    ("((a) 1)", "unsupported command '(a)'"),
    ("a", "unexpected toplevel form 'a'"),
    (_P + "(assert (=> q (p 1)))", "unknown body item 'q'"),
])
def test_malformed_horn_forms_are_named(text, message):
    with pytest.raises(ChcShapeError, match=f"^{re.escape(message)}$"):
        parse_smtlib_horn(text)


# ---------------------------------------------------------------------------
# External solving


def _stub(tmp_path, name, body):
    p = tmp_path / name
    p.write_text("#!/bin/sh\n" + body + "\n")
    p.chmod(p.stat().st_mode | stat.S_IXUSR)
    return str(p)


def test_solve_external_stubs(tmp_path):
    s = mult_system()
    sat = _stub(tmp_path, "sat.sh", "echo sat")
    unsat = _stub(tmp_path, "unsat.sh", "echo unsat")
    garbage = _stub(tmp_path, "garbage.sh", "echo kaboom")
    assert solve_external(s, f"{sat} {{file}}").kind == "sat"
    assert solve_external(s, f"{unsat} {{file}}").kind == "unsat"
    v = solve_external(s, f"{garbage} {{file}}")
    assert v.kind == "unknown" and "malformed" in v.detail


def test_solve_external_timeout_and_cancel(tmp_path):
    s = mult_system()
    slow = _stub(tmp_path, "slow.sh", "sleep 30; echo sat")
    t0 = time.monotonic()
    v = solve_external(s, f"{slow} {{file}}", 0.3)
    assert v.kind == "unknown" and v.detail == "timeout"
    assert time.monotonic() - t0 < 5

    cancel = threading.Event()
    box = {}

    def run():
        box["v"] = solve_external(s, f"{slow} {{file}}", 30, cancel=cancel)

    th = threading.Thread(target=run)
    th.start()
    time.sleep(0.2)
    cancel.set()
    th.join(timeout=5)
    assert box["v"].kind == "unknown" and box["v"].detail == "cancelled"


def test_solve_external_errors(tmp_path):
    s = mult_system()
    with pytest.raises(SolverError, match="placeholder"):
        solve_external(s, "/bin/true")
    with pytest.raises(SolverError, match="could not start"):
        solve_external(s, "/no/such/solver {file}")


def test_solver_scripts_are_removed(tmp_path, monkeypatch):
    import tempfile
    from hflz.transforms import SmtEntailment
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    s = mult_system()
    sat = _stub(tmp_path, "sat.sh", "echo sat")
    unsat = _stub(tmp_path, "unsat.sh", "echo unsat")
    slow = _stub(tmp_path, "slow.sh", "exec sleep 30")
    assert solve_external(s, f"{sat} {{file}}").kind == "sat"
    v = solve_external(s, f"{slow} {{file}}", 0.1)
    assert v.detail == "timeout"
    cancel = threading.Event()
    cancel.set()
    v = solve_external(s, f"{slow} {{file}}", cancel=cancel)
    assert v.detail == "cancelled"
    y = IVar("y")
    assert SmtEntailment(f"{unsat} {{file}}").entails(
        [Atom(">", y, IConst(0))], Atom(">=", y, IConst(0))) is True
    assert list(scratch.glob("*.smt2")) == []


def test_solve_external_drains_a_chatty_solver(tmp_path):
    # more output than a pipe buffer holds: a solver that is not read
    # while it runs blocks on the full pipe until the timeout
    chatty = _stub(tmp_path, "chatty.sh",
                   "echo sat; head -c 200000 /dev/zero | tr '\\0' x; echo")
    t0 = time.monotonic()
    v = solve_external(mult_system(), f"{chatty} {{file}}", 10)
    assert v.kind == "sat" and len(v.detail) == 200000
    assert time.monotonic() - t0 < 5


def test_naive_solver_script(scripts, tmp_path):
    import subprocess, sys
    s = mult_system()
    f = tmp_path / "mult.smt2"
    f.write_text(emit_smtlib_horn(s))
    solver = f"{sys.executable} {scripts}/naive_chc_solver.py -w 6 {{file}}"
    assert solve_external(s, solver, 120).kind == "sat"

    # adding an inconsistent goal makes the system unsat
    bad = ChcSystem(preds=s.preds, definite=s.definite, goals=s.goals + (
        Clause(None, (PredApp("mult", (IVar("x"), IVar("y"), IVar("r"))),
                      Atom("=", IVar("x"), IConst(2)),
                      Atom("=", IVar("y"), IConst(2)),
                      Atom("=", IVar("r"), IConst(4)))),))
    assert solve_external(bad, solver, 120).kind == "unsat"


# ---------------------------------------------------------------------------
# Model validation


def test_validate_model_mult():
    from hflz.transforms import WindowEntailment
    s = mult_system()
    env = {n: INT for n in ("x", "y", "r")}
    oracle = WindowEntailment(width=8)
    # not inductive: the recursive clause can drive r below zero
    wrong = {"mult": (["x", "y", "r"], parse_formula("r >= 0", {"r": INT}))}
    assert validate_model(s, wrong, oracle) is False
    # inductive and strong enough for the goal
    good = {"mult": (["x", "y", "r"],
                     parse_formula("x <= 0 \\/ r >= y", env))}
    assert validate_model(s, good, oracle) is True


def loaded_by(module: str) -> list[str]:
    """The hflz modules a fresh process holds after importing module."""
    out = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}; print(*sorted("
         "m for m in sys.modules if m.split('.')[0] == 'hflz'))"],
        capture_output=True, text=True, timeout=60, check=True).stdout
    return out.split()


def test_chc_loads_only_what_it_uses():
    # a solver process imports hflz.chc; the package loads no module it
    # does not name
    assert loaded_by("hflz.chc") == [
        "hflz", "hflz.chc", "hflz.smt", "hflz.syntax"]


def test_semantics_loads_only_what_it_uses():
    # the engine desugars quantifiers by the rule in syntax, so it loads
    # neither transforms nor, through it, smt
    assert loaded_by("hflz.semantics") == [
        "hflz", "hflz.lts", "hflz.semantics", "hflz.syntax"]
