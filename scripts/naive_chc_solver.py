#!/usr/bin/env python3
"""A tiny window-bounded HORN solver for offline testing and demos.

Computes the least model of the definite clauses with all integers
restricted to a window [-W, W] by naive fixpoint iteration, then checks the
goal clauses over the window.

- "unsat" answers are sound: a goal violation found in the window is a real
  derivation of false.
- "sat" answers are window-limited (facts or goal violations outside the
  window are not seen); adequate for desk-scale examples, not a real solver.

Usage: naive_chc_solver.py [-w WIDTH] FILE.smt2  -> prints sat/unsat/unknown
"""

import argparse
import itertools
import sys

from hflz.chc import parse_smtlib_horn
from hflz.syntax import Atom, CMP_FN, eval_int


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("-w", "--width", type=int, default=6)
    ap.add_argument("file")
    args = ap.parse_args()
    with open(args.file) as f:
        system = parse_smtlib_horn(f.read())
    w = args.width
    values = range(-w, w + 1)

    facts = {p: set() for p in system.preds}

    def rows(clause_vars):
        return itertools.product(values, repeat=len(clause_vars))

    def body_holds(body, env):
        for item in body:
            if isinstance(item, Atom):
                if not CMP_FN[item.op](eval_int(item.lhs, env),
                                       eval_int(item.rhs, env)):
                    return False
            elif tuple(eval_int(a, env) for a in item.args) \
                    not in facts[item.name]:
                return False
        return True

    changed = True
    rounds = 0
    while changed:
        changed = False
        rounds += 1
        if rounds > 4 * (2 * w + 1):
            print("unknown")
            return 0
        for c in system.definite:
            cvars = c.variables()
            for vals in rows(cvars):
                env = dict(zip(cvars, vals))
                if body_holds(c.body, env):
                    tup = tuple(eval_int(a, env) for a in c.head.args)
                    if tup not in facts[c.head.name]:
                        facts[c.head.name].add(tup)
                        changed = True

    for g in system.goals:
        gvars = g.variables()
        for vals in rows(gvars):
            env = dict(zip(gvars, vals))
            if body_holds(g.body, env):
                print("unsat")
                print(f"; goal violated at {env}")
                return 0
    print("sat")
    return 0


if __name__ == "__main__":
    sys.exit(main())
