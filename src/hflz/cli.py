"""Command-line driver.

``validity`` runs a list of stages on each side, cheapest first, until one
proves the side or refutes it exactly: ``check_pure`` alone on a pure
formula, which has no other side; else ``eval_bounded`` over the window,
with ``--solver`` the CHC path at each ``--bound`` entry (once, exact, as
``chc[n=-]`` without mu), and with ``--preds`` and no mu predicate
abstraction, then ``check_pure``.  An impure formula races its de Morgan
dual, whose proof refutes it and whose refutation proves it; sides that
disagree are a soundness bug.  Exit codes: 0 Valid, 1 Invalid, 2 Unknown,
3 error or disagreement.
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
    holds: bool | None = None
    stage: str = ""
    bound: int | str | None = None
    solver_verdict: str | None = None
    timings: dict = field(default_factory=dict)


def _stages(phi: Formula, pure: bool, lts: Lts, args: argparse.Namespace,
            schedule: list[tuple[str, BoundExpr]], cancel: threading.Event,
            res: _SideResult):
    """One side's stages, cheapest first, as (stage, bound, timing key,
    run).  run() is True when it proves phi, False when it refutes phi
    exactly, None when it decides nothing.  Lazy: an entry's CHC system is
    built only when the entry is asked for."""
    if pure:
        # check_pure is exact both ways
        yield "check_pure", None, "check_pure", lambda: check_pure(
            lts, phi, table_cap=args.table_cap)
        return
    # the window evaluation is an underapproximation: false decides nothing
    yield "eval_bounded", args.window, "eval_bounded", lambda: eval_bounded(
        phi, args.window, lts=lts, table_cap=args.table_cap) or None
    has_mu = any(isinstance(s, Mu) for s in subformulas(phi))
    if args.solver:
        for label, bound in schedule if has_mu else [("-", None)]:
            try:
                system = hfl_to_chc(
                    eliminate_mu(phi, bound) if bound is not None else phi)
            except HflError:
                # outside the CHC fragment, or the bound names a binder
                # that is out of scope at some least fixpoint
                continue
            yield "chc", label, f"chc[n={label}]", \
                lambda system=system, exact=bound is None: _solve(
                    system, exact, args, cancel, res)
    if args.preds and not has_mu:
        # the abstraction decides nothing itself (append gives None)
        abstracted = []
        yield "abstract", None, "abstract", \
            lambda: abstracted.append(_abstract(phi, args))
        if is_pure(abstracted[0]):
            yield "abstract+check_pure", None, "abstract+check_pure", \
                lambda: check_pure(lts, abstracted[0],
                                   table_cap=args.table_cap) or None


def _solve(system, exact: bool, args: argparse.Namespace,
           cancel: threading.Event, res: _SideResult) -> bool | None:
    """sat proves the side; unsat refutes it only when exact, on a system
    built without mu-elimination and so equivalent to the side."""
    kind = res.solver_verdict = solve_external(
        system, args.solver, args.timeout, cancel).kind
    if kind == "sat":
        return True
    return False if kind == "unsat" and exact else None


def _run_side(phi: Formula, pure: bool, lts: Lts,
              args: argparse.Namespace,
              schedule: list[tuple[str, BoundExpr]],
              cancel: threading.Event) -> _SideResult:
    """Run one side's stages until one decides or the other side has."""
    res = _SideResult()
    stages = _stages(phi, pure, lts, args, schedule, cancel, res)
    # cancel is read before the next entry is asked for, so no CHC system
    # is built once the other side has decided
    while not cancel.is_set() and (entry := next(stages, None)):
        stage, bound, key, run = entry
        t0 = time.monotonic()
        holds = run()
        res.timings[key] = round(time.monotonic() - t0, 6)
        if holds is not None:
            res.holds, res.stage, res.bound = holds, stage, bound
            break
    return res


def _abstract(phi: Formula, args: argparse.Namespace) -> Formula:
    """Predicate abstraction of phi with the --preds file, deciding
    entailments with the --solver if given, else over the window."""
    with open(args.preds) as f:
        preds = PredicateSet.parse(f.read())
    oracle = SmtEntailment(args.solver, timeout=args.timeout) if args.solver \
        else WindowEntailment(width=args.window)
    return abstract_predicates(desugar_quantifiers(phi), preds, oracle)


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
    results: list[_SideResult] = [_SideResult() for _ in sides]
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
        if results[i].holds is not None:
            cancel.set()

    # each side runs on its own thread, a pure one too: a traced run
    # (perfbench) tells the sides by their threads.  --no-race runs each
    # side to its end before the next starts
    threads = [threading.Thread(target=work, args=(i, f))
               for i, f in enumerate(sides)]
    for th in threads:
        th.start()
        if args.no_race:
            th.join()
    for th in threads:
        th.join()
    if errors:
        # the formula's own error first: the dual's names dual connectives
        raise errors[min(errors)]

    # each decided side's claim about phi, the dual's verdict negated
    decided = [r for r in results if r.holds is not None]
    claims = {r.holds if r is results[0] else not r.holds for r in decided}
    if len(claims) > 1:
        print("soundness bug: the formula and its dual disagree",
              file=sys.stderr)
        return 3
    # a proof is reported before an exact refutation
    side = max(decided, key=lambda r: r.holds, default=results[0])
    verdict = ("Valid" if claims.pop() else "Invalid") if claims \
        else "Unknown"
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
