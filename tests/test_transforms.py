import stat
import sys
from collections import Counter
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from hflz.parser import parse_formula
from hflz.lts import trivial_model
from hflz.pretty import to_text
from hflz.semantics import check_pure, eval_bounded
from hflz.smt import parse_sexprs
from hflz.syntax import (
    And, App, Atom, HflError, IConst, INT, IVar, Lambda, Mu, Or, PROP, Sub,
    Var, alpha_eq, arrow, eval_int, free_vars, subformulas, typecheck,
)
from hflz.transforms import (
    AbstractionError, BoundExpr, PredicateSet, SmtEntailment,
    WindowEntailment, abstract_predicates, desugar_quantifiers, eliminate_mu,
    qf_holds,
)


# ---------------------------------------------------------------------------
# Bounds


def test_bound_parse_and_print():
    b = BoundExpr.parse("max(i + 1, 1)")
    assert len(b.pieces) == 2
    exprs = b.to_int_exprs({"i": "i"})
    assert [to_text_int(e) for e in exprs] == ["i + 1", "1"]
    assert BoundExpr.const(5).pieces == (IConst(5),)
    assert BoundExpr.parse("2 - x").pieces == (Sub(IConst(2), IVar("x")),)
    with pytest.raises(ValueError):
        BoundExpr(pieces=())


def to_text_int(e):
    from hflz.pretty import int_to_text
    return int_to_text(e)


@pytest.mark.parametrize("text", [
    "i - i + 3", "0 - i - i", "-(i + i)", "1 + i", "2 - i",
    "max(i + 1, 1)", "max(-i, i - 2, 0)", "-(-i) + (i - 1)",
])
def test_bound_pieces_keep_their_value(text):
    # each piece, instantiated, has the value of its text, so a variable
    # that cancels out or has a coefficient of -2 is kept as written
    pieces = BoundExpr.parse(text).to_int_exprs({"i": "i%7"})
    for i in (-3, -1, 0, 2, 5):
        assert max(eval_int(p, {"i%7": i}) for p in pieces) == \
            eval(text, {"i": i, "max": max})


def test_bound_unknown_scope_variable():
    with pytest.raises(HflError, match="not an integer variable"):
        BoundExpr.parse("i + 1").to_int_exprs({})


# ---------------------------------------------------------------------------
# Quantifier desugaring


def test_desugar_exists():
    out = desugar_quantifiers(parse_formula("exists x. x = 3"))
    expected = parse_formula(
        r"(mu q: int -> prop. \x: int. x = 3 \/ q(x - 1) \/ q(x + 1))(0)")
    assert alpha_eq(out, expected)


def test_desugar_forall_bounded():
    out = desugar_quantifiers(
        parse_formula("forall u >= max(i + 1, 1). u >= 0", {"i": INT}))
    expected = parse_formula(
        r"(nu q: int -> prop. \u: int. (u < 1 \/ u >= 0) /\ q(u + 1))"
        r"(i + 1)", {"i": INT})
    assert alpha_eq(out, expected)


def test_desugar_preserves_semantics():
    assert eval_bounded(parse_formula("exists x >= 0. x = 3"), 8)
    assert not eval_bounded(parse_formula("exists x >= 5. x = 3"), 8)
    # the universal walk is unbounded upward, so window evaluation can
    # never certify it -- one-sided soundness in action
    assert not eval_bounded(parse_formula("forall x >= 0. x >= 0"), 8)


# ---------------------------------------------------------------------------
# mu-elimination


_WALK = r"(mu x: int -> prop. \v: int. v <= 0 \/ x(v - 1))"
_PAIR = r"(mu x: int -> int -> prop. \(a: int, b: int). a <= b \/ x(a - 1, b))"
_PASS = r"(nu g: (int -> prop) -> prop. \f: int -> prop. f(0) /\ g(f))"
_NU_WALK = r"(nu x': int -> int -> prop. \(z: int, v: int). z > 0 /\ " \
    r"(v <= 0 \/ x'(z - 1, v - 1)))"
_NU_PAIR = r"(nu x': int -> int -> int -> prop. \(z: int, a: int, b: int). " \
    r"z > 0 /\ (a <= b \/ x'(z - 1, a - 1, b)))"

# (input, bound, output with style="forall", output with style="apply");
# None: the bound is a max() of pieces, which style="apply" refuses
ELIMINATE_MU_GOLDEN = {
    "sec41": (
        "sec41.hfl", "max(i + 1, 1)",
        r"forall i. forall u >= max(i + 1, 1). (nu x': int -> int -> prop. "
        r"\(z: int, y: int). z > 0 /\ (y <= 0 \/ x'(z - 1, y - 1)))(u, i)",
        None),
    "redex": (
        r"(\y: int. y > 0)(3)", "2", "3 > 0", "3 > 0"),
    "mu-under-redex": (
        rf"forall n. (\y: int. {_WALK}(y))(n)", "2",
        rf"forall n. forall u >= 2. {_NU_WALK}(u, n)",
        rf"forall n. {_NU_WALK}(2, n)"),
    "mu-as-argument": (
        f"{_PASS}({_WALK})", "2",
        rf"{_PASS}(\v: int. forall u >= 2. (nu x': int -> int -> prop. "
        r"\(z: int, v1: int). z > 0 /\ (v1 <= 0 \/ x'(z - 1, v1 - 1)))"
        r"(u, v))",
        rf"{_PASS}(\v: int. (nu x': int -> int -> prop. "
        r"\(z: int, v1: int). z > 0 /\ (v1 <= 0 \/ x'(z - 1, v1 - 1)))"
        r"(2, v))"),
    "curried": (
        f"{_PAIR}(3)(4)", "2",
        f"forall u >= 2. {_NU_PAIR}(u, 3, 4)", f"{_NU_PAIR}(2, 3, 4)"),
    "partial": (
        f"{_PASS}({_PAIR}(3))", "2",
        rf"{_PASS}(\b: int. forall u >= 2. (nu x': int -> int -> int -> "
        r"prop. \(z: int, a: int, b1: int). z > 0 /\ "
        r"(a <= b1 \/ x'(z - 1, a - 1, b1)))(u, 3, b))",
        rf"{_PASS}(\b: int. (nu x': int -> int -> int -> "
        r"prop. \(z: int, a: int, b1: int). z > 0 /\ "
        r"(a <= b1 \/ x'(z - 1, a - 1, b1)))(2, 3, b))"),
    "mu-nu-mu": (
        r"(mu x: int -> prop. \y: int. y <= 0 \/ (nu w: int -> prop. "
        r"\v: int. v > 5 /\ w(v + 1) /\ (mu r: int -> prop. \s: int. "
        r"s = v \/ r(s - 1) \/ x(s - 2))(v))(y + 1))(4)", "2",
        r"forall u >= 2. (nu x': int -> int -> prop. \(z: int, y: int). "
        r"z > 0 /\ (y <= 0 \/ (nu w: int -> prop. \v: int. v > 5 /\ "
        r"w(v + 1) /\ (forall u1 >= 2. (nu r': int -> int -> prop. "
        r"\(z1: int, s: int). z1 > 0 /\ (s = v \/ r'(z1 - 1, s - 1) \/ "
        r"x'(z - 1, s - 2)))(u1, v)))(y + 1)))(u, 4)",
        r"(nu x': int -> int -> prop. \(z: int, y: int). "
        r"z > 0 /\ (y <= 0 \/ (nu w: int -> prop. \v: int. v > 5 /\ "
        r"w(v + 1) /\ (nu r': int -> int -> prop. "
        r"\(z1: int, s: int). z1 > 0 /\ (s = v \/ r'(z1 - 1, s - 1) \/ "
        r"x'(z - 1, s - 2)))(2, v))(y + 1)))(2, 4)"),
    "nullary": (
        r"exists i. mu x: prop. i = 3 \/ x", "2",
        r"exists i. forall u >= 2. (nu x': int -> prop. \z: int. "
        r"z > 0 /\ (i = 3 \/ x'(z - 1)))(u)",
        r"exists i. (nu x': int -> prop. \z: int. "
        r"z > 0 /\ (i = 3 \/ x'(z - 1)))(2)"),
    "bound-names-lambda": (
        rf"forall n. (\y: int. {_WALK}(y))(n)", "y + 2",
        rf"forall n. forall u >= n + 2. {_NU_WALK}(u, n)",
        rf"forall n. {_NU_WALK}(n + 2, n)"),
    "mu-variable-as-argument": (
        r"(mu x: int -> prop. \y: int. y <= 0 \/ "
        r"(\g: int -> prop. g(y - 1))(x))(3)", "2",
        r"forall u >= 2. (nu x': int -> int -> prop. \(z: int, y: int). "
        r"z > 0 /\ (y <= 0 \/ (\g: int -> prop. g(y - 1))"
        r"(\w: int. x'(z - 1, w))))(u, 3)",
        r"(nu x': int -> int -> prop. \(z: int, y: int). "
        r"z > 0 /\ (y <= 0 \/ (\g: int -> prop. g(y - 1))"
        r"(\w: int. x'(z - 1, w))))(2, 3)"),
}


@pytest.mark.parametrize("style", ["forall", "apply"])
@pytest.mark.parametrize("case", list(ELIMINATE_MU_GOLDEN))
def test_eliminate_mu_golden(corpus, case, style):
    # an applied mu gets its arguments as parameters, a partly applied
    # one keeps a lambda for each parameter left, and a lambda applied to
    # an integer or a variable is contracted, once, in the same walk
    text, bound, forall_out, apply_out = ELIMINATE_MU_GOLDEN[case]
    if text.endswith(".hfl"):
        text = (corpus / text).read_text()
    phi, bound = parse_formula(text), BoundExpr.parse(bound)
    expected = forall_out if style == "forall" else apply_out
    if expected is None:
        with pytest.raises(HflError, match="single-piece"):
            eliminate_mu(phi, bound, style)
    else:
        assert to_text(eliminate_mu(phi, bound, style)) == expected


def test_eliminate_mu_depth():
    # two frames per conjunct in each pass: 450 walks fit in the default
    # recursion limit
    walks = reduce(And, [parse_formula(
        rf"forall i{j}. (mu x: int -> prop. \y: int. y <= {j % 5} "
        rf"\/ x(y - 1))(i{j})") for j in range(450)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        out = eliminate_mu(desugar_quantifiers(walks), BoundExpr.const(4))
    finally:
        sys.setrecursionlimit(limit)
    kinds = Counter(type(s).__name__ for s in subformulas(out))
    assert kinds["Mu"] == 0 and kinds["Forall"] == 450


def test_eliminate_mu_apply_instances(corpus):
    even = parse_formula((corpus / "even.hfl").read_text())
    inst = App(even, IConst(6))
    # 6 needs four unfoldings of the 'subtract two' loop to reach zero
    assert not eval_bounded(
        eliminate_mu(inst, BoundExpr.const(3), style="apply"), 16)
    assert eval_bounded(
        eliminate_mu(inst, BoundExpr.const(4), style="apply"), 16)
    assert eval_bounded(
        eliminate_mu(inst, BoundExpr.const(8), style="apply"), 16)


def test_eliminate_mu_bound_monotone(corpus):
    even = parse_formula((corpus / "even.hfl").read_text())
    inst = App(even, IConst(6))
    vals = [eval_bounded(eliminate_mu(inst, BoundExpr.const(n),
                                      style="apply"), 16)
            for n in (1, 2, 3, 4, 5, 6, 8)]
    assert vals == sorted(vals)


def test_eliminate_mu_apply_rejects_max():
    phi = parse_formula("(mu x: int -> prop. \\y: int. y <= 0 \\/ x(y - 1))(3)")
    with pytest.raises(HflError, match="single-piece"):
        eliminate_mu(phi, BoundExpr.parse("max(1, 2)"), style="apply")
    with pytest.raises(ValueError, match="style"):
        eliminate_mu(phi, BoundExpr.const(1), style="bogus")


def test_eliminate_mu_at_higher_order():
    # the counter-indexed nu takes the prop parameter as it is
    phi = Mu("x", arrow(PROP, PROP),
             Lambda("p", PROP, App(Var("x", arrow(PROP, PROP)),
                                   Var("p", PROP))))
    elim = eliminate_mu(App(phi, parse_formula("true")), BoundExpr.const(2))
    assert typecheck(elim) == PROP
    assert to_text(elim) == (
        "forall u >= 2. (nu x': int -> prop -> prop. \\(z: int, p: prop). "
        "z > 0 /\\ x'(z - 1, p))(u, true)")


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6), st.integers(1, 3), st.integers(-6, 6),
       st.integers(1, 8))
def test_eliminate_mu_sound_random(base, step, start, n):
    """Truth of the eliminated formula implies truth of the original."""
    mu = parse_formula(
        f"mu x: int -> prop. \\y: int. y = {base} \\/ x(y - {step})")
    inst = App(mu, IConst(start))
    elim = eliminate_mu(inst, BoundExpr.const(n), style="apply")
    if eval_bounded(elim, 32):
        assert eval_bounded(inst, 32)


# ---------------------------------------------------------------------------
# Entailment oracles


def test_window_entailment():
    o = WindowEntailment(width=16)
    y = IVar("y")
    gt0 = Atom(">", y, IConst(0))
    ge0 = Atom(">=", y, IConst(0))
    ge10 = Atom(">=", y, IConst(10))
    with pytest.warns(UserWarning, match="heuristic"):
        assert o.entails([gt0], ge0) is True
    assert o.entails([gt0], ge10) is False
    assert o.entails([], Atom("=", y, IConst(0))) is False
    # too many variables: no answer
    many = Atom("=", IVar("a"), IVar("b"))
    o2 = WindowEntailment(max_vars=1)
    assert o2.entails([many], many) is None


def test_window_entailment_warns_once():
    o = WindowEntailment(width=4)
    a = Atom(">", IVar("y"), IConst(0))
    import warnings as w
    with w.catch_warnings(record=True) as rec:
        w.simplefilter("always")
        o.entails([a], a)
        o.entails([a], a)
    assert len([r for r in rec if "heuristic" in str(r.message)]) == 1


def _stub_solver(tmp_path, name, body):
    p = tmp_path / name
    p.write_text("#!/bin/sh\n" + body + "\n")
    p.chmod(p.stat().st_mode | stat.S_IXUSR)
    return str(p)


def test_smt_entailment_stubs(tmp_path):
    y = IVar("y")
    gt0 = Atom(">", y, IConst(0))
    ge0 = Atom(">=", y, IConst(0))
    unsat = _stub_solver(tmp_path, "unsat.sh", "echo unsat")
    sat = _stub_solver(tmp_path, "sat.sh", "echo sat")
    bad = _stub_solver(tmp_path, "bad.sh", "echo flurble")
    assert SmtEntailment(f"{unsat} {{file}}").entails([gt0], ge0) is True
    assert SmtEntailment(f"{sat} {{file}}").entails([gt0], ge0) is False
    assert SmtEntailment(f"{bad} {{file}}").entails([gt0], ge0) is None
    assert SmtEntailment("/nonexistent-solver {file}") \
        .entails([gt0], ge0) is None


def test_smt_entailment_needs_the_file_placeholder():
    # echo never sees the query, so its "unsat" must not read as a proof
    y = IVar("y")
    assert SmtEntailment("/bin/echo unsat").entails(
        [Atom("<", y, IConst(0))], Atom(">", y, IConst(5))) is not True


def test_smt_entailment_query_content(tmp_path):
    # the stub copies its input aside so we can check the emitted SMT-LIB
    out = tmp_path / "seen.smt2"
    stub = _stub_solver(tmp_path, "spy.sh", f'cp "$1" {out}; echo unsat')
    SmtEntailment(f"{stub} {{file}}").entails(
        [Atom(">", IVar("y"), IConst(0))], Atom(">=", IVar("y"), IConst(0)))
    text = out.read_text()
    assert "(set-logic QF_LIA)" in text
    assert "(declare-const y Int)" in text
    assert "(assert (not (>= y 0)))" in text
    assert "(check-sat)" in text


def test_smt_entailment_quotes_primed_names(tmp_path):
    out = tmp_path / "seen.smt2"
    stub = _stub_solver(tmp_path, "spy.sh", f'cp "$1" {out}; echo unsat')
    y = IVar("y'")
    SmtEntailment(f"{stub} {{file}}").entails(
        [Atom(">", y, IConst(0))], Atom(">=", y, IConst(0)))
    text = out.read_text()
    assert "(declare-const |y'| Int)" in text
    assert "(assert (not (>= |y'| 0)))" in text


def test_smt_entailment_declares_every_symbol(tmp_path):
    # y%1 and y%2 are two fresh copies of one source variable y; y_1 is a
    # third variable whose name a careless suffix would collide with
    out = tmp_path / "seen.smt2"
    stub = _stub_solver(tmp_path, "spy.sh", f'cp "$1" {out}; echo unsat')
    y1, y2, y_1 = IVar("y%1"), IVar("y%2"), IVar("y_1")
    SmtEntailment(f"{stub} {{file}}").entails(
        [Atom(">", y1, IConst(0)), Atom("<", y2, y_1)],
        Atom(">=", y2, y1))
    script = parse_sexprs(out.read_text())
    declared = [c[1] for c in script if c[0] == "declare-const"]

    def symbols(s):
        if isinstance(s, str):
            return set() if s.isdigit() else {s}
        return set().union(*(symbols(a) for a in s[1:]))

    used = set().union(*(symbols(c[1]) for c in script if c[0] == "assert"))
    assert sorted(declared) == sorted(used)
    assert len(set(declared)) == 3


def test_qf_helpers():
    phi = parse_formula("x > 0 /\\ x <= y", {"x": INT, "y": INT})
    assert free_vars(phi) == {"x", "y"}
    assert qf_holds(phi, {"x": 1, "y": 2})
    assert not qf_holds(phi, {"x": 0, "y": 2})
    with pytest.raises(AbstractionError):
        qf_holds(parse_formula("<a> true"), {})


# ---------------------------------------------------------------------------
# Predicate abstraction


def test_predicate_set_parse():
    ps = PredicateSet.parse("y: y > 0, y >= 10\n*: x = 0\n# comment\n")
    assert [to_text(a) for a in ps.per_binder["y"]] == ["y > 0", "y >= 10"]
    assert len(ps.for_binder("y")) == 2
    assert len(ps.for_binder("z")) == 1  # falls back to the default
    with pytest.raises(AbstractionError, match="single atom"):
        PredicateSet.parse("y: y > 0 /\\ y < 5")
    with pytest.raises(AbstractionError, match="binder"):
        PredicateSet.parse("just words")


def test_predicate_syntax_errors_name_their_line():
    with pytest.raises(AbstractionError, match="^line 2: unexpected "
                                               "character '@' in 'z > @'$"):
        PredicateSet.parse("y: y > 0\nz: z > @")
    with pytest.raises(AbstractionError, match="^line 3: unbound variable "):
        PredicateSet.parse("y: y > 0\n\nz: y > 0")


def test_abstraction_golden(corpus):
    phi = parse_formula((corpus / "sec42.hfl").read_text())
    preds = PredicateSet.parse((corpus / "sec42.preds").read_text())
    out = abstract_predicates(phi, preds)
    assert to_text(out) == \
        "(nu x: prop -> prop. \\b: prop. b /\\ x(b))(true)"
    assert eval_bounded(out, 0)


def test_abstraction_sound_on_instances():
    # abstracting \y. y >= 1 under predicate y > 0, applied to constants
    preds = PredicateSet.parse("y: y > 0")
    for k, expect in [(5, True), (1, True)]:
        phi = App(Lambda("y", INT, Atom(">=", IVar("y"), IConst(1))),
                  IConst(k))
        out = abstract_predicates(phi, preds)
        assert eval_bounded(out, 0) is expect
    # an instance the predicate cannot certify abstracts to false
    phi = App(Lambda("y", INT, Atom(">=", IVar("y"), IConst(10))), IConst(5))
    out = abstract_predicates(phi, preds)
    assert not eval_bounded(out, 0)


def test_abstraction_weakest_disjunction():
    # y > 0 \/ y <= 0 is entailed by the empty set of predicates: abstracts
    # to true even though neither predicate alone entails it
    preds = PredicateSet.parse("y: y > 0")
    phi = App(Lambda("y", INT, Or(Atom(">", IVar("y"), IConst(0)),
                                  Atom("<=", IVar("y"), IConst(0)))),
              IConst(3))
    out = abstract_predicates(phi, preds)
    assert eval_bounded(out, 0)


def test_abstraction_lambda_of_two_integer_parameters():
    # the signature of an integer lambda goes on into its body, as it does
    # under a fixpoint, so the second argument has its predicate too
    preds = PredicateSet.parse("x: x > 0\ny: y > 0")
    phi = parse_formula(r"(\(x: int, y: int). x > 0 /\ y > 0)(1, 2)")
    out = abstract_predicates(phi, preds)
    assert to_text(out) == r"(\(b: prop, b1: prop). b /\ b1)(true, true)"
    assert check_pure(trivial_model(), out)


def test_abstraction_error_cases():
    preds = PredicateSet.parse("y: y > 0")
    with pytest.raises(AbstractionError, match="desugar"):
        abstract_predicates(parse_formula("exists z. z = 0"), preds)
    # an integer argument fed to a bare function variable has no signature
    phi = parse_formula(r"(\f: int -> prop. f(3))(\y: int. y > 0)")
    with pytest.raises(AbstractionError, match="signature"):
        abstract_predicates(phi, preds)
