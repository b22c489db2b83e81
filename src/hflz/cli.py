"""Command-line driver.

The ``validity`` subcommand checks a pure formula once with
``check_pure``, which is exact both ways.  Any other formula it races
against its de Morgan dual (a valid dual certifies invalidity).  Each side
runs, until one stage decides: ``eval_bounded`` over the window, then with
``--solver`` mu-elimination at each entry of the ``--bound`` schedule and
the CHC path, then with ``--preds`` predicate abstraction.  Exit codes:
0 Valid, 1 Invalid, 2 Unknown, 3 error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field

from .chc import hfl_to_chc, chc_to_hfl, parse_smtlib_horn, \
    emit_smtlib_horn, solve_external
from .lts import Lts, parse_lts, trivial_model
from .parser import parse_formula
from .pretty import to_text
from .programs import parse_program, translate_program
from .semantics import check_pure, eval_bounded
from .syntax import (
    Exists, Forall, Formula, HflError, IntType, Lambda, Mu, base_name,
    dualize, int_vars, is_pure, subformulas, typecheck,
)
from .transforms import (
    BoundExpr, PredicateSet, SmtEntailment, WindowEntailment,
    abstract_predicates, desugar_quantifiers, eliminate_mu,
)


class _Decided(Exception):
    pass


def _load_formula(path: str, args: argparse.Namespace) -> Formula:
    with open(path) as f:
        text = f.read()
    if path.endswith(".prog"):
        return translate_program(parse_program(text), polarity=args.polarity)
    if path.endswith(".smt2"):
        return chc_to_hfl(parse_smtlib_horn(text))
    return parse_formula(text)


def _load_lts(args: argparse.Namespace) -> Lts:
    if args.lts:
        with open(args.lts) as f:
            return parse_lts(f.read())
    return trivial_model()


@dataclass
class _SideResult:
    valid: bool = False
    exact_false: bool = False
    stage: str = ""
    bound: int | str | None = None
    solver_verdict: str | None = None
    timings: dict = field(default_factory=dict)


def _run_side(phi: Formula, pure: bool, lts: Lts,
              args: argparse.Namespace,
              schedule: list[tuple[str, BoundExpr]],
              cancel: threading.Event) -> _SideResult:
    """Run the one-sided pipeline; result.valid means this side's formula
    was proved valid.  exact_false is only set by an exact stage: the pure
    checker, or the solver's unsat on a system built without
    mu-elimination."""
    res = _SideResult()

    def timed(stage, fn):
        if cancel.is_set():
            raise _Decided()
        t0 = time.monotonic()
        out = fn()
        res.timings[stage] = round(time.monotonic() - t0, 6)
        return out

    try:
        if pure:
            verdict = timed("check_pure", lambda: check_pure(
                lts, phi, table_cap=args.table_cap))
            res.stage = "check_pure"
            res.valid = verdict
            res.exact_false = not verdict
            return res

        # cheap first try: window-bounded evaluation of the formula as is
        if timed("eval_bounded", lambda: eval_bounded(
                phi, args.window, lts=lts, table_cap=args.table_cap)):
            res.stage, res.valid, res.bound = "eval_bounded", True, args.window
            return res

        has_mu = any(isinstance(s, Mu) for s in subformulas(phi))
        if args.solver:
            for label, bound in schedule if has_mu else [("-", None)]:
                if cancel.is_set():
                    raise _Decided()
                if _try_chc(phi, bound, label, args, cancel, res, timed):
                    return res

        if args.preds and not has_mu:
            abstracted = timed("abstract", lambda: _abstract(phi, args))
            if is_pure(abstracted) and timed(
                    "abstract+check_pure", lambda: check_pure(
                        lts, abstracted, table_cap=args.table_cap)):
                res.stage, res.valid = "abstract+check_pure", True
                return res
    except _Decided:
        res.stage = "cancelled"
    return res


def _abstract(phi: Formula, args: argparse.Namespace) -> Formula:
    """Predicate abstraction of phi with the --preds file, deciding
    entailments with the --solver if given, else over the window."""
    with open(args.preds) as f:
        preds = PredicateSet.parse(f.read())
    oracle = SmtEntailment(args.solver, timeout=args.timeout) if args.solver \
        else WindowEntailment(width=args.window)
    return abstract_predicates(desugar_quantifiers(phi), preds, oracle)


def _try_chc(phi: Formula, bound: BoundExpr | None, label: str,
             args: argparse.Namespace, cancel, res: _SideResult,
             timed) -> bool:
    """CHC path for first-order Horn-shaped formulas; True when decided.
    A system built without mu-elimination is equivalent to phi, so its
    unsat refutes phi as its sat proves it."""
    try:
        elim = eliminate_mu(phi, bound) if bound is not None else phi
        system = hfl_to_chc(elim)
    except HflError:
        # outside the CHC fragment, or the bound names a binder that is
        # out of scope at some least fixpoint
        return False
    verdict = timed(f"chc[n={label}]", lambda: solve_external(
        system, args.solver, args.timeout, cancel))
    res.solver_verdict = verdict.kind
    if verdict.kind == "sat":
        res.stage, res.valid, res.bound = "chc", True, label
        return True
    if verdict.kind == "unsat" and bound is None:
        res.stage, res.exact_false, res.bound = "chc", True, label
        return True
    return False


def _verdict_report(args: argparse.Namespace, verdict: str,
                    side: _SideResult | None) -> str:
    if args.format == "json":
        doc = {"verdict": verdict,
               "stage": side.stage if side else None,
               "bound": side.bound if side else None,
               "solver_verdict": side.solver_verdict if side else None,
               "timings": side.timings if side else {}}
        return json.dumps(doc, sort_keys=True)
    lines = [verdict]
    if side and side.stage:
        lines.append(f"  stage: {side.stage}")
        if side.bound is not None:
            lines.append(f"  bound: {side.bound}")
        if side.solver_verdict:
            lines.append(f"  solver: {side.solver_verdict}")
        for k, v in side.timings.items():
            lines.append(f"  time[{k}]: {v:.3f}s")
    return "\n".join(lines)


_EXIT = {"Valid": 0, "Invalid": 1, "Unknown": 2}


def _emit(text: str, end: str = "\n") -> None:
    """Write a command's output.  A reader that has gone (`| head -1`) is
    no error: the command keeps its exit code, and stdout becomes
    os.devnull so that the flush at exit cannot fail either."""
    try:
        sys.stdout.write(text + end)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _check_bound_names(phi: Formula,
                       schedule: list[tuple[str, BoundExpr]]) -> None:
    """Every name in the schedule, which the CHC stage instantiates, is the
    source name of an integer binder of phi.  Whether that binder is in
    scope at a least fixpoint is eliminate_mu's to check, entry by entry."""
    names = {base_name(s.var) for s in subformulas(phi)
             if isinstance(s, (Exists, Forall)) or isinstance(s, Lambda)
             and isinstance(s.vtype, IntType)}
    for label, bound in schedule:
        for name in (n for p in bound.pieces for n in int_vars(p)):
            if name not in names:
                raise HflError(f"bound {label!r} names {name!r}, which is "
                               "no integer binder of the formula")


def _cmd_validity(args: argparse.Namespace) -> int:
    phi = _load_formula(args.input, args)
    lts = _load_lts(args)
    schedule = BoundExpr.schedule(args.bound)
    # check_pure is exact both ways, so a pure formula needs no dual
    pure = is_pure(phi)
    if args.solver and not pure:
        _check_bound_names(phi, schedule)
    sides = [phi] if pure else [phi, dualize(phi)]
    cancel = threading.Event()
    results: list[_SideResult | None] = [None, None]
    errors: dict[int, Exception] = {}

    def work(i, f):
        try:
            results[i] = _run_side(f, pure, lts, args, schedule, cancel)
        except Exception as e:
            # a failed side is an error, never a verdict: stop the other
            # side and let the main thread raise it
            errors[i] = e
            cancel.set()
            return
        if results[i].valid or results[i].exact_false:
            cancel.set()

    if not args.no_race:
        # a pure side runs on its own thread too: a traced run (perfbench)
        # tells the sides by their threads
        threads = [threading.Thread(target=work, args=(i, f))
                   for i, f in enumerate(sides)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
    else:
        for i, f in enumerate(sides):
            work(i, f)
            if cancel.is_set():
                break
    if errors:
        # the formula's own error first: the dual's names dual connectives
        raise errors[min(errors)]

    pos, neg = results
    if pos and pos.valid and neg and neg.valid:
        print("soundness bug: both a formula and its dual were proved valid",
              file=sys.stderr)
        return 3
    if pos and pos.valid:
        verdict, side = "Valid", pos
    elif neg and neg.valid:
        verdict, side = "Invalid", neg
    elif pos and pos.exact_false:
        verdict, side = "Invalid", pos
    elif neg and neg.exact_false:
        verdict, side = "Valid", neg
    else:
        verdict, side = "Unknown", pos
    _emit(_verdict_report(args, verdict, side))
    return _EXIT[verdict]


def _cmd_check(args: argparse.Namespace) -> int:
    lts = _load_lts(args)
    phi = _load_formula(args.input, args)
    if not is_pure(phi):
        raise HflError("check needs a pure formula; use 'validity' or 'eval' "
                       "for formulas with integers")
    ok = check_pure(lts, phi, table_cap=args.table_cap)
    verdict = "Valid" if ok else "Invalid"
    _emit(_verdict_report(args, verdict, None))
    return _EXIT[verdict]


def _cmd_typecheck(args: argparse.Namespace) -> int:
    phi = _load_formula(args.input, args)
    _emit(str(typecheck(phi)))
    return 0


def _cmd_dualize(args: argparse.Namespace) -> int:
    _emit(to_text(dualize(_load_formula(args.input, args))))
    return 0


def _cmd_elim_mu(args: argparse.Namespace) -> int:
    phi = _load_formula(args.input, args)
    _, bound = BoundExpr.schedule(args.bound)[-1]
    _emit(to_text(eliminate_mu(phi, bound, style=args.style)))
    return 0


def _cmd_abstract(args: argparse.Namespace) -> int:
    phi = _load_formula(args.input, args)
    if not args.preds:
        raise HflError("abstract needs --preds FILE")
    _emit(to_text(_abstract(phi, args)))
    return 0


def _cmd_to_chc(args: argparse.Namespace) -> int:
    phi = _load_formula(args.input, args)
    _emit(emit_smtlib_horn(hfl_to_chc(phi)), end="")
    return 0


def _cmd_from_chc(args: argparse.Namespace) -> int:
    with open(args.input) as f:
        system = parse_smtlib_horn(f.read())
    _emit(to_text(chc_to_hfl(system)))
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    with open(args.input) as f:
        program = parse_program(f.read())
    _emit(to_text(translate_program(program, polarity=args.polarity)))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    phi = _load_formula(args.input, args)
    lts = _load_lts(args)
    ok = eval_bounded(phi, args.window, lts=lts, table_cap=args.table_cap)
    # one-sided: false only means the window could not certify validity
    verdict = "Valid" if ok else "Unknown"
    _emit(_verdict_report(args, verdict, None))
    return _EXIT[verdict]


# each option's settings; a command registers only the options it reads
_OPTIONS = {
    "polarity": dict(choices=("mu", "nu"), default="mu"),
    "lts": dict(metavar="FILE"),
    "window": dict(type=int, default=16, metavar="N"),
    "bound": dict(default="1,2,4,8", metavar="EXPR,...",
                  help="bound schedule of integer expressions, kept as "
                  "written, e.g. '1,2,max(i+1, 1)'; elim-mu uses the last "
                  "entry"),
    "style": dict(choices=("forall", "apply"), default="forall"),
    "solver": dict(metavar="CMD",
                   help="HORN/SMT solver command with a {file} placeholder"),
    "timeout": dict(type=float, default=60.0, metavar="SECS"),
    "table-cap": dict(type=int, default=200000, metavar="N"),
    "preds": dict(metavar="FILE"),
    "no-race": dict(action="store_true"),
    "format": dict(choices=("text", "json"), default="text"),
}

_COMMANDS = {
    "typecheck": (_cmd_typecheck, "print the simple type of a formula",
                  "polarity"),
    "check": (_cmd_check, "exact model check of a pure formula on an LTS",
              "polarity lts table-cap format"),
    "validity": (_cmd_validity, "full validity pipeline: a pure formula "
                 "checked once, any other raced against its dual",
                 "polarity lts window bound solver timeout table-cap preds "
                 "no-race format"),
    "dualize": (_cmd_dualize, "print the de Morgan dual", "polarity"),
    "elim-mu": (_cmd_elim_mu, "eliminate least fixpoints with a bound",
                "polarity bound style"),
    "abstract": (_cmd_abstract, "predicate abstraction to pure HFL",
                 "polarity preds solver timeout window"),
    "to-chc": (_cmd_to_chc, "emit SMT-LIB HORN clauses", "polarity"),
    "from-chc": (_cmd_from_chc, "read HORN clauses, print the formula", ""),
    "translate": (_cmd_translate, "translate a program to a formula",
                  "polarity"),
    "eval": (_cmd_eval, "window-bounded underapproximate evaluation",
             "polarity lts window table-cap format"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hflz",
                                 description="HFL(Z) toolkit driver")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("inputs", nargs="+", help="one formula input (.hfl, "
                       ".prog, .smt2), and an .lts model where --lts is")
        for option in options.split():
            p.add_argument(f"--{option}", **_OPTIONS[option])
    return ap


def _formula_input(args: argparse.Namespace) -> str:
    """The one formula input; a positional .lts file is the --lts model."""
    models = [p for p in args.inputs if p.endswith(".lts")]
    formulas = [p for p in args.inputs if p not in models]
    if models and ("lts" not in args or args.lts or len(models) > 1):
        raise HflError(f"{args.command} reads "
                       f"{'one' if 'lts' in args else 'no'} .lts model")
    if len(formulas) != 1:
        raise HflError(f"{args.command} takes one formula input, "
                       f"got {len(formulas)}")
    if models:
        args.lts = models[0]
    return formulas[0]


def main(argv: list[str] | None = None) -> int:
    try:
        ap = build_parser()
        # argparse ends the inputs at the first option, so an input given
        # after an option comes back as a leftover
        args, rest = ap.parse_known_args(argv)
        options = [a for a in rest if a.startswith("-")]
        if options:
            ap.error(f"unrecognized arguments: {' '.join(options)}")
        args.inputs += rest
    except SystemExit as e:
        # argparse exits 2 on a usage error, but 2 is Unknown
        return 3 if e.code == 2 else e.code
    try:
        if getattr(args, "window", 0) < 0 or getattr(args, "timeout", 1) <= 0 \
                or getattr(args, "table_cap", 1) <= 0:
            raise ValueError("caps must be positive")
        args.input = _formula_input(args)
        return _COMMANDS[args.command][0](args)
    except (HflError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except Exception as e:
        # an internal failure (a RecursionError on a very deeply nested
        # formula, say) is an error too, never a verdict
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
