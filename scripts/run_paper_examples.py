#!/usr/bin/env python3
"""Reproduce the worked examples from the docs/corpus in one run.

Prints every derived artifact: quantifier encodings, the order-1 expansion,
the mult dual formula, the program translations, mu-elimination, the CHC
clauses with model validation, predicate abstraction, and the Even/Odd
reasoning.
"""

import pathlib
import sys
import warnings

warnings.simplefilter("ignore")

from hflz.chc import (  # noqa: E402
    chc_to_hfl, emit_smtlib_horn, hfl_to_chc, parse_smtlib_horn,
    validate_model,
)
from hflz.lts import parse_lts, trivial_model  # noqa: E402
from hflz.parser import parse_formula  # noqa: E402
from hflz.pretty import to_text  # noqa: E402
from hflz.programs import parse_program, translate_program  # noqa: E402
from hflz.semantics import check_pure, eval_bounded  # noqa: E402
from hflz.syntax import (  # noqa: E402
    App, Diamond, IConst, INT, IVar, Or, TRUE, beta_step, beta_step_anywhere,
    dualize, unfold_fixpoint,
)
from hflz.transforms import (  # noqa: E402
    BoundExpr, PredicateSet, WindowEntailment, abstract_predicates,
    desugar_quantifiers, eliminate_mu,
)

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def section(title):
    print(f"\n== {title} ==")


def main():
    section("quantifier encodings (two-sided and one-sided walks)")
    for text in ("exists x. x = 3", "forall x. x <= 0 \\/ x >= 1"):
        print(f"  {text}\n    -> {to_text(desugar_quantifiers(parse_formula(text)))}")

    section("order-1 expansion: phi(<c> true) for phi = nu x. \\y. y \\/ <a> x(<b> y)")
    phi = parse_formula((CORPUS / "ex22.hfl").read_text())
    t = App(phi, Diamond("c", TRUE))
    print("  ", to_text(t))
    t1 = beta_step(App(unfold_fixpoint(phi), Diamond("c", TRUE)))
    print("  ->", to_text(t1))
    inner = t1.rhs.body
    t2 = beta_step_anywhere(
        Or(t1.lhs, Diamond("a", App(unfold_fixpoint(inner.fun), inner.arg))))
    print("  ->", to_text(t2))
    for name in ("chain_aabbc.lts", "chain_abbc.lts"):
        m = parse_lts((CORPUS / name).read_text())
        print(f"  {name}: {check_pure(m, t)}")

    section("mult CHCs <-> dual formula")
    system = parse_smtlib_horn((CORPUS / "mult.smt2").read_text())
    goal = chc_to_hfl(system)
    print("  ", to_text(goal))
    print("   round-trips to", len(hfl_to_chc(goal).definite),
          "definite clauses,", len(hfl_to_chc(goal).goals), "goal clause")

    section("program translations and model checks on the file protocol")
    mfile = parse_lts((CORPUS / "mfile.lts").read_text())
    for name in ("file_straight.prog", "file_rec.prog", "file_mutated.prog"):
        f = translate_program(parse_program((CORPUS / name).read_text()))
        print(f"  {name}: {to_text(f)}")
        if name == "file_rec.prog":
            print(f"    eval_bounded on M_file: {eval_bounded(f, 16, lts=mfile)}")
        else:
            print(f"    check_pure on M_file: {check_pure(mfile, f)}")

    section("mu-elimination and CHC extraction (first-order example)")
    phi41 = parse_formula((CORPUS / "sec41.hfl").read_text())
    elim = eliminate_mu(phi41, BoundExpr.parse("max(i+1, 1)"))
    print("  ", to_text(elim))
    system = hfl_to_chc(elim)
    print(emit_smtlib_horn(system))
    model = {"x'": (["z", "y"],
                    parse_formula("z <= 0 \\/ z <= y", {"z": INT, "y": INT}))}
    print("   model X(z,y) = z<=0 \\/ z<=y validates:",
          validate_model(system, model, WindowEntailment()))

    section("predicate abstraction")
    phi42 = parse_formula((CORPUS / "sec42.hfl").read_text())
    preds = PredicateSet.parse((CORPUS / "sec42.preds").read_text())
    a = abstract_predicates(phi42, preds)
    print("  ", to_text(phi42), "\n   ->", to_text(a))
    print("   check_pure:", check_pure(trivial_model(), a))

    section("Even/Odd")
    even = parse_formula((CORPUS / "even.hfl").read_text())
    odd = parse_formula((CORPUS / "odd.hfl").read_text())
    B = 16
    ok = all(not eval_bounded(App(even, IConst(n)), B)
             or eval_bounded(App(odd, IConst(n + 1)), B + 1)
             for n in range(-B, B + 1))
    print(f"   Even(n) => Odd(n+1) on [-{B},{B}]:", ok)
    deven = dualize(even)
    print("   dual Even:", to_text(deven))
    print("   one unfold:",
          to_text(beta_step(App(unfold_fixpoint(deven), IVar("y")))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
