"""Acceptance gate: one pass/fail line per criterion.

Run with ``pytest -v tests/test_acceptance.py -s`` to see the lines as they
are produced; each criterion is a separate test so the suite also reports
them individually.
"""

import random
import sys
import time

from hflz.chc import (
    ChcSystem, Clause, PredApp, chc_to_hfl, emit_smtlib_horn, hfl_to_chc,
    parse_smtlib_horn, solve_external, validate_model,
)
from hflz.lts import Lts, parse_lts, trivial_model
from hflz.parser import parse_formula
from hflz.pretty import to_text
from hflz.semantics import check_pure, eval_bounded
from hflz.syntax import (
    And, App, Atom, Box, Diamond, FALSE, IConst, INT, IVar, Lambda, Mu, Nu,
    Or, PROP, TRUE, Var, alpha_eq, app, beta_step, beta_step_anywhere,
    dualize, unfold_fixpoint,
)
from hflz.transforms import (
    BoundExpr, PredicateSet, WindowEntailment, abstract_predicates,
    desugar_quantifiers, eliminate_mu,
)


def _report(n: int, desc: str, ok: bool, t0: float, limit: float):
    elapsed = time.monotonic() - t0
    line = (f"{'PASS' if ok else 'FAIL'} criterion {n}: {desc} "
            f"({elapsed:.2f}s, limit {limit:.0f}s)")
    print(line)
    assert ok, line
    assert elapsed < limit, line


def _naive_solver(scripts, width=6):
    return (f"{sys.executable} {scripts}/naive_chc_solver.py "
            f"-w {width} {{file}}")


# ---------------------------------------------------------------------------


def test_criterion_1_golden_suite(corpus):
    t0 = time.monotonic()
    ok = True

    # quantifier encodings
    ok &= to_text(desugar_quantifiers(parse_formula("exists x. x = 3"))) == \
        "(mu q: int -> prop. \\x: int. x = 3 \\/ q(x - 1) \\/ q(x + 1))(0)"
    ok &= to_text(desugar_quantifiers(
        parse_formula("forall x. x <= 0 \\/ x >= 1"))) == \
        ("(nu q: int -> prop. \\x: int. (x <= 0 \\/ x >= 1) /\\ q(x - 1) "
         "/\\ q(x + 1))(0)")

    # order-1 expansion, three unfold/beta steps
    phi = parse_formula((corpus / "ex22.hfl").read_text())
    t = App(phi, Diamond("c", TRUE))
    t1 = beta_step(App(unfold_fixpoint(phi), Diamond("c", TRUE)))
    inner = t1.rhs.body
    t2 = beta_step_anywhere(
        Or(t1.lhs, Diamond("a", App(unfold_fixpoint(inner.fun), inner.arg))))
    ok &= to_text(t2) == (
        "<c> true \\/ <a> (<b> <c> true \\/ <a> (nu x: prop -> prop. "
        "\\y: prop. y \\/ <a> x(<b> y))(<b> <b> <c> true))")

    # mult dual formula from the clause corpus
    system = parse_smtlib_horn((corpus / "mult.smt2").read_text())
    ok &= to_text(chc_to_hfl(system)) == (
        "forall x. forall y. forall r. (nu mult: int -> int -> int -> prop. "
        "\\(x1: int, y1: int, r1: int). (y1 != 0 \\/ r1 != 0) /\\ "
        "(forall s. y1 = 0 \\/ mult(x1, y1 - 1, s) \\/ r1 != s + x1))"
        "(x, y, r) \\/ x <= 0 \\/ r >= y")

    # both program translations
    from hflz.programs import parse_program, translate_program
    ok &= to_text(translate_program(parse_program(
        (corpus / "file_straight.prog").read_text()))) == \
        "<read> <read> <close> <end> true"
    ok &= to_text(translate_program(parse_program(
        (corpus / "file_rec.prog").read_text()))) == (
        "(mu f: int -> prop -> prop. \\(n: int, k: prop). "
        "(n > 0 \\/ <close> k) /\\ (n <= 0 \\/ <read> f(n - 1, k)))"
        "(10, <end> true)")

    # eliminated descending-loop formula and its three clauses
    elim = eliminate_mu(parse_formula((corpus / "sec41.hfl").read_text()),
                        BoundExpr.parse("max(i + 1, 1)"))
    ok &= to_text(elim) == (
        "forall i. forall u >= max(i + 1, 1). "
        "(nu x': int -> int -> prop. \\(z: int, y: int). "
        "z > 0 /\\ (y <= 0 \\/ x'(z - 1, y - 1)))(u, i)")
    ok &= emit_smtlib_horn(hfl_to_chc(elim)) == (
        "(set-logic HORN)\n"
        "(declare-fun |x'| (Int Int) Bool)\n"
        "(assert (forall ((z Int) (y Int)) (=> (<= z 0) (|x'| z y))))\n"
        "(assert (forall ((z Int) (y Int)) "
        "(=> (and (> y 0) (|x'| (- z 1) (- y 1))) (|x'| z y))))\n"
        "(assert (forall ((u Int) (i Int)) "
        "(=> (and (>= u (+ i 1)) (>= u 1) (|x'| u i)) false)))\n"
        "(check-sat)\n")

    # abstracted formula
    a = abstract_predicates(
        parse_formula((corpus / "sec42.hfl").read_text()),
        PredicateSet.parse((corpus / "sec42.preds").read_text()))
    ok &= to_text(a) == "(nu x: prop -> prop. \\b: prop. b /\\ x(b))(true)"

    _report(1, "golden artifacts reproduce exactly", ok, t0, 1.0)


def test_criterion_2_model_checking(corpus):
    t0 = time.monotonic()
    from hflz.programs import parse_program, translate_program
    mfile = parse_lts((corpus / "mfile.lts").read_text())
    good = translate_program(parse_program(
        (corpus / "file_straight.prog").read_text()))
    bad = translate_program(parse_program(
        (corpus / "file_mutated.prog").read_text()))
    ok = check_pure(mfile, good) and not check_pure(mfile, bad)

    phi = parse_formula((corpus / "ex22.hfl").read_text())
    t = App(phi, Diamond("c", TRUE))
    ok &= check_pure(parse_lts((corpus / "chain_aabbc.lts").read_text()), t)
    ok &= not check_pure(parse_lts((corpus / "chain_abbc.lts").read_text()), t)
    _report(2, "file-protocol and chain model checks", ok, t0, 1.0)


def _random_lts(rng) -> Lts:
    n = rng.randint(1, 4)
    states = tuple(f"s{i}" for i in range(n))
    pairs = [(s, l, d) for s in states for l in ("a", "b") for d in states]
    trans = frozenset(rng.sample(pairs, k=rng.randint(0, min(8, len(pairs)))))
    return Lts(states=states, labels=frozenset(("a", "b")),
               transitions=trans, initial=states[0])


def _random_pure(rng, depth=0, bound=()):
    kinds = ["true", "false"]
    if bound:
        kinds += ["var", "var"]
    if depth < 4:
        kinds += ["or", "and", "dia", "box", "mu", "nu"]
    k = rng.choice(kinds)
    if k == "true":
        return TRUE
    if k == "false":
        return FALSE
    if k == "var":
        return Var(rng.choice(bound), PROP)
    if k in ("or", "and"):
        cls = Or if k == "or" else And
        return cls(_random_pure(rng, depth + 1, bound),
                   _random_pure(rng, depth + 1, bound))
    if k in ("dia", "box"):
        cls = Diamond if k == "dia" else Box
        return cls(rng.choice("ab"), _random_pure(rng, depth + 1, bound))
    cls = Mu if k == "mu" else Nu
    x = f"v{len(bound)}"
    return cls(x, PROP, _random_pure(rng, depth + 1, bound + (x,)))


def test_criterion_3_duality():
    t0 = time.monotonic()
    rng = random.Random(20260824)
    ok = True
    for _ in range(250):
        m = _random_lts(rng)
        phi = _random_pure(rng)
        ok &= check_pure(m, phi) != check_pure(m, dualize(phi))
    _report(3, "exact duality on 250 random pure formulas", ok, t0, 30.0)


def test_criterion_4_chc_pipeline(corpus, scripts):
    t0 = time.monotonic()
    solver = _naive_solver(scripts)
    ok = True

    # descending-loop system is satisfiable, and the linear model validates
    elim = eliminate_mu(parse_formula((corpus / "sec41.hfl").read_text()),
                        BoundExpr.parse("max(i + 1, 1)"))
    sys41 = hfl_to_chc(elim)
    ok &= solve_external(sys41, solver, 120).kind == "sat"
    model = {"x'": (["z", "y"],
                    parse_formula("z <= 0 \\/ z <= y",
                                  {"z": INT, "y": INT}))}
    ok &= validate_model(sys41, model, WindowEntailment(width=16)) is True

    # mult system is satisfiable
    mult_sys = parse_smtlib_horn((corpus / "mult.smt2").read_text())
    ok &= solve_external(mult_sys, solver, 120).kind == "sat"

    # negated-goal variant: mult(x,y,r) with x>0 and r>=y is reachable,
    # so the system flips to unsat and the dual formula is certified
    flipped = ChcSystem(
        preds=mult_sys.preds, definite=mult_sys.definite,
        goals=(Clause(None, (PredApp("mult",
                                     (IVar("x"), IVar("y"), IVar("r"))),
                             Atom(">", IVar("x"), IConst(0)),
                             Atom(">=", IVar("r"), IVar("y")))),))
    ok &= solve_external(flipped, solver, 120).kind == "unsat"
    # the dual is an existential witness search whose nested quantifier
    # walks close over mult; the witness (1, 1, 1) already sits inside
    # window 2, where it builds about 100 fixpoint tables
    ok &= eval_bounded(dualize(chc_to_hfl(flipped)), 2)

    # solver-free fallback: the same instances, one-sided at B=8
    mult = parse_formula((corpus / "mult.hfl").read_text())
    ok &= eval_bounded(app(mult, IConst(2), IConst(3), IConst(6)), 8)
    ok &= not eval_bounded(app(mult, IConst(2), IConst(3), IConst(5)), 8)
    elim_apply = eliminate_mu(
        parse_formula("(mu x: int -> prop. \\y: int. y <= 0 \\/ x(y - 1))(5)"),
        BoundExpr.const(8), style="apply")
    ok &= eval_bounded(elim_apply, 8)

    _report(4, "CHC pipeline with external solver and fallback", ok, t0, 60.0)


def test_criterion_5_transformation_soundness():
    t0 = time.monotonic()
    rng = random.Random(1729)
    ok = True
    checked = 0

    # mu-elimination: eliminated-valid implies original bounded-valid,
    # and truth is monotone in the unfolding bound
    for _ in range(60):
        base = rng.randint(0, 6)
        step = rng.randint(1, 3)
        start = rng.randint(-6, 10)
        n = rng.randint(1, 8)
        mu = parse_formula(
            f"mu x: int -> prop. \\y: int. y = {base} \\/ x(y - {step})")
        inst = App(mu, IConst(start))
        elim = eliminate_mu(inst, BoundExpr.const(n), style="apply")
        if eval_bounded(elim, 32):
            ok &= eval_bounded(inst, 32)
        bigger = eliminate_mu(inst, BoundExpr.const(n + 3), style="apply")
        ok &= (not eval_bounded(elim, 32)) or eval_bounded(bigger, 32)
        checked += 1

    # predicate abstraction on evaluation-exact instances
    preds = PredicateSet.parse("y: y > 0, y >= 5")
    for _ in range(60):
        c = rng.randint(-3, 8)
        k = rng.randint(-6, 10)
        op = rng.choice([">=", ">", "<=", "<"])
        inst = App(Lambda("y", INT, Atom(op, IVar("y"), IConst(c))),
                   IConst(k))
        abstracted = abstract_predicates(inst, preds,
                                         WindowEntailment(width=32))
        if check_pure(trivial_model(), abstracted):
            ok &= eval_bounded(inst, 32)
        checked += 1

    ok &= checked >= 100
    _report(5, f"transformation soundness on {checked} instances",
            ok, t0, 120.0)


def test_criterion_6_even_odd(corpus):
    t0 = time.monotonic()
    even = parse_formula((corpus / "even.hfl").read_text())
    odd = parse_formula((corpus / "odd.hfl").read_text())
    B = 16
    ok = True
    nonvacuous = 0
    for n in range(-B, B + 1):
        if eval_bounded(App(even, IConst(n)), B):
            # Odd(n+1) may sit at the window edge for n = B, so the odd
            # side gets the window it needs to express n + 1
            ok &= eval_bounded(App(odd, IConst(n + 1)), B + 1)
            nonvacuous += 1
    ok &= nonvacuous >= 8

    # one manual unfold step of the dual, cross-checked against the printer
    deven = dualize(even)
    ok &= to_text(deven) == \
        "nu x: int -> prop. \\y: int. y != 0 /\\ x(y - 2)"
    step = beta_step(App(unfold_fixpoint(deven), IVar("y")))
    ok &= to_text(step) == ("y != 0 /\\ (nu x: int -> prop. "
                            "\\y1: int. y1 != 0 /\\ x(y1 - 2))(y - 2)")
    _report(6, "Even(n) implies Odd(n+1) on [-16,16] plus unfold", ok, t0, 5.0)


def test_criterion_7_round_trips(corpus, scripts):
    t0 = time.monotonic()
    ok = True
    for f in sorted(corpus.glob("*.hfl")):
        phi = parse_formula(f.read_text())
        ok &= alpha_eq(parse_formula(to_text(phi)), phi)
    text = (corpus / "mult.smt2").read_text()
    ok &= emit_smtlib_horn(parse_smtlib_horn(text)) == text

    # equisatisfiability of the encode/extract round trip
    solver = _naive_solver(scripts)
    for system in (parse_smtlib_horn(text),
                   hfl_to_chc(eliminate_mu(
                       parse_formula((corpus / "sec41.hfl").read_text()),
                       BoundExpr.parse("max(i + 1, 1)")))):
        back = hfl_to_chc(chc_to_hfl(system))
        ok &= solve_external(system, solver, 120).kind == \
            solve_external(back, solver, 120).kind
    _report(7, "parse/print and CHC round trips", ok, t0, 10.0)
