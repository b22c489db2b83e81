"""Command-line driver.

The ``validity`` subcommand realizes the full pipeline: desugar ->
mu-elimination over a bound schedule -> CHC or bounded-evaluation path,
racing the formula against its de Morgan dual (a valid dual certifies
invalidity).  Exit codes: 0 Valid, 1 Invalid, 2 Unknown, 3 error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field

from .chc import SolverConfig, hfl_to_chc, chc_to_hfl, parse_smtlib_horn, \
    emit_smtlib_horn, solve_external
from .lts import Lts, parse_lts, trivial_model
from .parser import parse_formula
from .pretty import to_text, type_to_text
from .programs import parse_program, translate_program
from .semantics import check_pure, eval_bounded
from .syntax import (
    Formula, HflError, Mu, PROP, dualize, is_pure, subformulas, typecheck,
)
from .transforms import (
    BoundExpr, PredicateSet, SmtEntailment, WindowEntailment,
    abstract_predicates, desugar_quantifiers, eliminate_mu,
)


@dataclass
class RunConfig:
    command: str
    inputs: list[str] = field(default_factory=list)
    window: int = 16
    bounds: tuple[int, ...] = (1, 2, 4, 8)
    bound_expr: str | None = None
    solver: str | None = None
    timeout: float = 60.0
    table_cap: int = 200000
    polarity: str = "mu"
    fmt: str = "text"
    race: bool = True
    lts_path: str | None = None
    preds_path: str | None = None
    style: str = "forall"

    def __post_init__(self):
        if self.window < 0 or self.table_cap <= 0 or self.timeout <= 0:
            raise ValueError("caps must be positive")


class _Decided(Exception):
    pass


def _load_formula(path: str, cfg: RunConfig) -> Formula:
    with open(path) as f:
        text = f.read()
    if path.endswith(".prog"):
        return translate_program(parse_program(text), polarity=cfg.polarity)
    if path.endswith(".smt2"):
        return chc_to_hfl(parse_smtlib_horn(text))
    return parse_formula(text)


def _load_lts(cfg: RunConfig) -> Lts:
    if cfg.lts_path:
        with open(cfg.lts_path) as f:
            return parse_lts(f.read())
    return trivial_model()


def _has_mu(phi: Formula) -> bool:
    return any(isinstance(s, Mu) for s in subformulas(phi))


@dataclass
class _SideResult:
    valid: bool = False
    exact_false: bool = False
    stage: str = ""
    bound: int | str | None = None
    solver_verdict: str | None = None
    timings: dict = field(default_factory=dict)


def _run_side(phi: Formula, lts: Lts, cfg: RunConfig,
              cancel: threading.Event) -> _SideResult:
    """Run the one-sided pipeline; result.valid means this side's formula
    was proved valid.  exact_false is only set by the exact pure checker."""
    res = _SideResult()

    def timed(stage, fn):
        if cancel.is_set():
            raise _Decided()
        t0 = time.monotonic()
        out = fn()
        res.timings[stage] = round(time.monotonic() - t0, 6)
        return out

    try:
        if is_pure(phi):
            verdict = timed("check_pure", lambda: check_pure(
                lts, phi, table_cap=cfg.table_cap))
            res.stage = "check_pure"
            res.valid = verdict
            res.exact_false = not verdict
            return res

        # cheap first try: window-bounded evaluation of the formula as is
        if timed("eval_bounded", lambda: eval_bounded(
                phi, cfg.window, lts=lts, table_cap=cfg.table_cap)):
            res.stage, res.valid, res.bound = "eval_bounded", True, cfg.window
            return res

        if _has_mu(phi):
            schedule: list[tuple[str, BoundExpr]] = []
            if cfg.bound_expr:
                schedule.append((cfg.bound_expr,
                                 BoundExpr.parse(cfg.bound_expr)))
            else:
                schedule.extend((str(n), BoundExpr.const(n))
                                for n in cfg.bounds)
            for label, bound in schedule:
                if cancel.is_set():
                    raise _Decided()
                if _try_chc(phi, bound, label, cfg, cancel, res, timed):
                    return res
                if len(bound.pieces) == 1:
                    try:
                        elim = eliminate_mu(phi, bound, style="apply")
                    except HflError:
                        # e.g. a mu over a function-typed parameter: this
                        # stage does not apply, the pipeline moves on
                        continue
                    if timed(f"eval_bounded[n={label}]", lambda e=elim:
                             eval_bounded(e, cfg.window, lts=lts,
                                          table_cap=cfg.table_cap)):
                        res.stage = "eliminate_mu+eval_bounded"
                        res.valid, res.bound = True, label
                        return res
        else:
            if _try_chc(phi, None, "-", cfg, cancel, res, timed):
                return res

        if cfg.preds_path and not _has_mu(phi):
            abstracted = timed("abstract", lambda: _abstract(phi, cfg))
            if is_pure(abstracted) and timed(
                    "abstract+check_pure", lambda: check_pure(
                        lts, abstracted, table_cap=cfg.table_cap)):
                res.stage, res.valid = "abstract+check_pure", True
                return res
    except _Decided:
        res.stage = "cancelled"
    return res


def _abstract(phi: Formula, cfg: RunConfig) -> Formula:
    """Predicate abstraction of phi with the --preds file, deciding
    entailments with the --solver if given, else over the window."""
    with open(cfg.preds_path) as f:
        preds = PredicateSet.parse(f.read())
    oracle = SmtEntailment(cfg.solver, timeout=cfg.timeout) if cfg.solver \
        else WindowEntailment(width=cfg.window)
    return abstract_predicates(desugar_quantifiers(phi), preds, oracle)


def _try_chc(phi: Formula, bound: BoundExpr | None, label: str,
             cfg: RunConfig, cancel, res: _SideResult, timed) -> bool:
    """CHC path for first-order Horn-shaped formulas; True when proved."""
    if not cfg.solver:
        return False
    try:
        elim = eliminate_mu(phi, bound) if bound is not None else phi
        system = hfl_to_chc(elim)
    except HflError:
        return False
    verdict = timed(f"chc[n={label}]", lambda: solve_external(
        system, SolverConfig(cfg.solver, cfg.timeout), cancel))
    res.solver_verdict = verdict.kind
    if verdict.kind == "sat":
        res.stage, res.valid, res.bound = "chc", True, label
        return True
    return False


def _verdict_report(cfg: RunConfig, verdict: str, side: _SideResult | None,
                    extra: dict | None = None) -> str:
    if cfg.fmt == "json":
        doc = {"verdict": verdict,
               "stage": side.stage if side else None,
               "bound": side.bound if side else None,
               "solver_verdict": side.solver_verdict if side else None,
               "timings": side.timings if side else {}}
        if extra:
            doc.update(extra)
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


def _cmd_validity(cfg: RunConfig) -> int:
    phi = _load_formula(cfg.inputs[0], cfg)
    t = typecheck(phi)
    if t != PROP:
        raise HflError(f"formula must have type prop, got {type_to_text(t)}")
    lts = _load_lts(cfg)
    psi = dualize(phi)
    cancel = threading.Event()
    results: list[_SideResult | None] = [None, None]
    errors: list[Exception] = []

    def work(i, f):
        try:
            results[i] = _run_side(f, lts, cfg, cancel)
        except Exception as e:
            # a failed side is an error, never a verdict: stop the other
            # side and let the main thread raise it
            errors.append(e)
            cancel.set()
            return
        if results[i].valid or results[i].exact_false:
            cancel.set()

    if cfg.race:
        threads = [threading.Thread(target=work, args=(i, f))
                   for i, f in enumerate((phi, psi))]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
    else:
        for i, f in enumerate((phi, psi)):
            work(i, f)
            if cancel.is_set():
                break
    if errors:
        raise errors[0]

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
    print(_verdict_report(cfg, verdict, side))
    return _EXIT[verdict]


def _cmd_check(cfg: RunConfig) -> int:
    lts = _load_lts(cfg)
    phi = _load_formula(cfg.inputs[0], cfg)
    typecheck(phi)
    if not is_pure(phi):
        raise HflError("check needs a pure formula; use 'validity' or 'eval' "
                       "for formulas with integers")
    ok = check_pure(lts, phi, table_cap=cfg.table_cap)
    verdict = "Valid" if ok else "Invalid"
    print(_verdict_report(cfg, verdict, None))
    return _EXIT[verdict]


def _cmd_typecheck(cfg: RunConfig) -> int:
    phi = _load_formula(cfg.inputs[0], cfg)
    print(type_to_text(typecheck(phi)))
    return 0


def _cmd_dualize(cfg: RunConfig) -> int:
    print(to_text(dualize(_load_formula(cfg.inputs[0], cfg))))
    return 0


def _cmd_elim_mu(cfg: RunConfig) -> int:
    phi = _load_formula(cfg.inputs[0], cfg)
    bound = BoundExpr.parse(cfg.bound_expr) if cfg.bound_expr \
        else BoundExpr.const(cfg.bounds[-1])
    print(to_text(eliminate_mu(phi, bound, style=cfg.style)))
    return 0


def _cmd_abstract(cfg: RunConfig) -> int:
    phi = _load_formula(cfg.inputs[0], cfg)
    if not cfg.preds_path:
        raise HflError("abstract needs --preds FILE")
    print(to_text(_abstract(phi, cfg)))
    return 0


def _cmd_to_chc(cfg: RunConfig) -> int:
    phi = _load_formula(cfg.inputs[0], cfg)
    sys.stdout.write(emit_smtlib_horn(hfl_to_chc(phi)))
    return 0


def _cmd_from_chc(cfg: RunConfig) -> int:
    with open(cfg.inputs[0]) as f:
        system = parse_smtlib_horn(f.read())
    print(to_text(chc_to_hfl(system)))
    return 0


def _cmd_translate(cfg: RunConfig) -> int:
    with open(cfg.inputs[0]) as f:
        program = parse_program(f.read())
    print(to_text(translate_program(program, polarity=cfg.polarity)))
    return 0


def _cmd_eval(cfg: RunConfig) -> int:
    phi = _load_formula(cfg.inputs[0], cfg)
    lts = _load_lts(cfg)
    ok = eval_bounded(phi, cfg.window, lts=lts, table_cap=cfg.table_cap)
    # one-sided: false only means the window could not certify validity
    verdict = "Valid" if ok else "Unknown"
    print(_verdict_report(cfg, verdict, None))
    return _EXIT[verdict]


_COMMANDS = {
    "typecheck": (_cmd_typecheck, "print the simple type of a formula"),
    "check": (_cmd_check, "exact model check of a pure formula on an LTS"),
    "validity": (_cmd_validity, "full validity pipeline with dual racing"),
    "dualize": (_cmd_dualize, "print the de Morgan dual"),
    "elim-mu": (_cmd_elim_mu, "eliminate least fixpoints with a bound"),
    "abstract": (_cmd_abstract, "predicate abstraction to pure HFL"),
    "to-chc": (_cmd_to_chc, "emit SMT-LIB HORN clauses"),
    "from-chc": (_cmd_from_chc, "read HORN clauses, print the formula"),
    "translate": (_cmd_translate, "translate a program to a formula"),
    "eval": (_cmd_eval, "window-bounded underapproximate evaluation"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hflz",
                                 description="HFL(Z) toolkit driver")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("inputs", nargs="+",
                       help="input files (.hfl, .lts, .prog, .smt2)")
        p.add_argument("--window", type=int, default=16, metavar="N")
        p.add_argument("--bounds", default="1,2,4,8", metavar="N,N,...")
        p.add_argument("--bound", default=None, metavar="EXPR",
                       help="affine bound template, e.g. 'max(i+1, 1)'")
        p.add_argument("--solver", default=os.environ.get("HFLMC_SOLVER"),
                       metavar="CMD", help="HORN/SMT solver command with "
                       "a {file} placeholder")
        p.add_argument("--timeout", type=float, default=60.0, metavar="SECS")
        p.add_argument("--table-cap", type=int, default=200000, metavar="N")
        p.add_argument("--polarity", choices=("mu", "nu"), default="mu")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--no-race", action="store_true")
        p.add_argument("--lts", default=None, metavar="FILE")
        p.add_argument("--preds", default=None, metavar="FILE")
        p.add_argument("--style", choices=("forall", "apply"),
                       default="forall")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    inputs = list(args.inputs)
    lts_path = args.lts
    # allow an .lts file to be given positionally (e.g. `check m.lts f.hfl`)
    for path in list(inputs):
        if path.endswith(".lts"):
            lts_path = path
            inputs.remove(path)
    try:
        cfg = RunConfig(
            command=args.command, inputs=inputs, window=args.window,
            bounds=tuple(int(x) for x in args.bounds.split(",") if x),
            bound_expr=args.bound, solver=args.solver, timeout=args.timeout,
            table_cap=args.table_cap, polarity=args.polarity,
            fmt=args.format, race=not args.no_race, lts_path=lts_path,
            preds_path=args.preds, style=args.style)
        if not cfg.inputs:
            raise HflError("no formula/program input given")
        return _COMMANDS[args.command][0](cfg)
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
