"""Spans around hflz's public functions, for the traced run only.

Each traced function is wrapped where its callers look it up: every
``hflz.*`` module global bound to it (``hflz.cli`` imports by name), the
attribute on its own module when the function does not call itself through
that name (``semantics`` reaches ``check_pure_stats`` and
``transforms.desugar_quantifiers`` that way), and the harness's own call
table.  A self-recursive function is left unwrapped inside its own module, so
its recursion adds no spans.

A span records name, start, end, parent, thread and instance id.  Self time
is a span's duration minus the time its child spans cover, and it is summed
when the span closes, so the per-layer totals need no stored spans.  Spans are
also kept in memory, up to a cap that spans without a parent ignore (the race
figures need them), and written out by ``dump`` at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict

# names relative to the hflz package: module.function or module.Class.method
SPANNED = [
    "parser.parse_formula", "lts.parse_lts", "chc.parse_smtlib_horn",
    "programs.parse_program", "programs.translate_program",
    "syntax.typecheck", "syntax.dualize", "syntax.is_pure", "pretty.to_text",
    "transforms.desugar_quantifiers", "transforms.eliminate_mu",
    "transforms.abstract_predicates", "transforms.WindowEntailment.entails",
    "chc.hfl_to_chc", "chc.emit_smtlib_horn", "chc.chc_to_hfl",
    "chc.solve_external", "semantics.check_pure",
    "semantics.check_pure_stats", "semantics.eval_bounded",
]
COUNTED = ["lts.Lts.successors"]
KEPT_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.instance: str | None = None
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        # (id, name, start, end, parent, thread, instance)
        self.spans: list[tuple] = []
        self.dropped = 0
        self._ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple] = []

    # -- recording

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = tracer._stack()
            frame = [next(tracer._ids), 0.0]     # id, time covered by children
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                rec = (frame[0], name, start, end, parent,
                       threading.get_ident(), tracer.instance)
                with tracer._lock:
                    tracer.calls[name] += 1
                    tracer.self_s[name] += dur - frame[1]
                    if len(tracer.spans) < KEPT_SPANS or parent is None:
                        tracer.spans.append(rec)
                    else:
                        tracer.dropped += 1
            if on_result is not None:
                t = time.perf_counter()
                extra = on_result(result)
                if stack:       # not the parent's own work
                    stack[-1][1] += time.perf_counter() - t
                with tracer._lock:
                    for key, value in extra.items():
                        tracer.counters[f"{name}.{key}"] += value
            return result

        return spanned

    def count(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with tracer._lock:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing and removing the wrappers

    def _patch(self, owner, attr: str, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, api, on_result: dict):
        """Wrap SPANNED and COUNTED in every hflz module and in `api`."""
        modules = [m for n, m in sys.modules.items()
                   if n == "hflz" or n.startswith("hflz.")]
        for qual in SPANNED + COUNTED:
            parts = qual.split(".")
            home = sys.modules[f"hflz.{parts[0]}"]
            if len(parts) == 3:          # a method: patch the class attribute
                cls = getattr(home, parts[1])
                fn = cls.__dict__[parts[2]]
                new = self.count(qual, fn) if qual in COUNTED else \
                    self.wrap(qual, fn, on_result.get(qual))
                self._patch(cls, parts[2], new)
                continue
            fn = getattr(home, parts[1])
            new = self.wrap(qual, fn, on_result.get(qual))
            recursive = fn.__name__ in fn.__code__.co_names
            for mod in modules + [api]:
                for attr, value in list(vars(mod).items()):
                    if value is fn and not (mod is home and recursive):
                        self._patch(mod, attr, new)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- output

    def dump(self, path: str):
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(dict(zip(
                    ("id", "name", "start", "end", "parent", "thread",
                     "instance"), rec))) + "\n")


# the function that a stage of the `--format json` report times, by the
# last part of the stage name: "chc[n=2]" -> chc, "abstract+check_pure" ->
# check_pure
STAGE_FN = {"check_pure": "semantics.check_pure",
            "eval_bounded": "semantics.eval_bounded",
            "chc": "chc.solve_external"}
MATCH_S = 0.01          # a span sits inside its stage timing; GIL waits add


def stage_fn(stage: str) -> str | None:
    return STAGE_FN.get(stage.split("[")[0].split("+")[-1])


def race_summary(spans: list[tuple], main_thread: int, report: dict) -> dict:
    """Race figures of one `hflz validity` instance from its thread spans.

    The two sides run on their own threads.  The winning thread is the one
    whose top-level spans of the timed functions match the report's stage
    timings one to one, by function and duration (the report sorts its
    stages by name, so their order is lost).  Its decisive span is its last
    timed span, which must be of the function of the report's stage.  The
    loser's work after that span ended is wasted.  When both threads or
    neither match, the race is undecided and counts in no race figure.
    """
    by_thread: dict[int, list] = defaultdict(list)
    for rec in spans:
        if rec[5] != main_thread and rec[4] is None:
            by_thread[rec[5]].append(rec)
    out = {"busy_s": sum(r[3] - r[2] for rs in by_thread.values()
                         for r in rs),
           "winner_s": 0.0, "wasted_s": 0.0, "decided": False,
           "undecided": False, "decisive_solver": False}
    if report.get("verdict") not in ("Valid", "Invalid"):
        return out
    want: dict = defaultdict(list)
    for stage, t in (report.get("timings") or {}).items():
        want[stage_fn(stage)].append(t)

    def timed(recs) -> list:
        return [r for r in recs if r[1] in STAGE_FN.values()]

    def matches(recs) -> bool:
        got: dict = defaultdict(list)
        for r in timed(recs):
            got[r[1]].append(r[3] - r[2])
        return bool(want) and set(got) == set(want) and all(
            len(got[fn]) == len(ts) and all(
                abs(a - b) <= MATCH_S for a, b in zip(sorted(got[fn]),
                                                      sorted(ts)))
            for fn, ts in want.items())

    winners = [th for th, recs in by_thread.items() if matches(recs)]
    decisive = timed(by_thread[winners[0]])[-1] if len(winners) == 1 \
        else None
    if decisive is None or decisive[1] != stage_fn(report.get("stage", "")):
        out["undecided"] = True
        return out
    cut = decisive[3]
    losers = [r for th, rs in by_thread.items() if th != winners[0]
              for r in rs]
    out.update(
        decided=True, decisive_solver=decisive[1] == "chc.solve_external",
        winner_s=sum(r[3] - r[2] for r in by_thread[winners[0]]
                     if r[3] <= cut),
        wasted_s=max([0.0] + [r[3] - cut for r in losers]))
    return out


def on_result() -> dict:
    """Counters read off the values that traced functions return."""
    from hflz.syntax import subformulas

    def solver(v):
        return {v.kind: 1, "cancelled": int(v.detail == "cancelled")}

    return {
        "semantics.check_pure_stats": lambda r: {
            "fix_iterations": sum(i for i, _ in r[1].iterations),
            "iter_bound": sum(b for _, b in r[1].iterations)},
        "transforms.eliminate_mu": lambda r: {
            "out_nodes": sum(1 for _ in subformulas(r))},
        "transforms.WindowEntailment.entails": lambda r: {
            "undecided": int(r is None)},
        "chc.hfl_to_chc": lambda r: {
            "clauses": len(r.definite) + len(r.goals)},
        "chc.emit_smtlib_horn": lambda r: {"bytes": len(r.encode())},
        "chc.solve_external": solver,
    }


class Recorder:
    """Per-instance bookkeeping of a traced (or the matching untraced) loop."""

    def __init__(self, tracer: Tracer | None, main_thread: int | None):
        self.tracer, self.main_thread = tracer, main_thread
        self.times: dict[int, float] = {}
        self.races: list[dict] = []
        self._mark = 0

    def before(self, i: int, inst):
        if self.tracer is not None:
            self.tracer.instance = inst.id
            self._mark = len(self.tracer.spans)

    def after(self, i: int, inst, secs: float, report: dict):
        self.times[i] = secs
        if self.tracer is not None and inst.kind == "cli":
            spans = [r for r in self.tracer.spans[self._mark:]
                     if r[6] == inst.id]
            self.races.append(race_summary(spans, self.main_thread, report))


def summary(tracer: Tracer, traced: Recorder, plain: Recorder,
            import_s: float, load_s: float) -> dict:
    common = sorted(set(traced.times) & set(plain.times))
    races = [r for r in traced.races if r["decided"]]
    return {
        "instances": len(traced.times),
        "calls": dict(tracer.calls), "self_s": dict(tracer.self_s),
        "counters": dict(tracer.counters),
        "race": {"decided": len(races),
                 "undecided": sum(r["undecided"] for r in traced.races),
                 "wasted_s": sum(r["wasted_s"] for r in races),
                 "winner_s": sum(r["winner_s"] for r in races),
                 "busy_s": sum(r["busy_s"] for r in races),
                 "decisive_solver": sum(r["decisive_solver"] for r in races)},
        "overhead": {"pairs": len(common),
                     "traced_s": sum(traced.times[i] for i in common),
                     "untraced_s": sum(plain.times[i] for i in common)},
        "import_s": import_s, "load_s": load_s,
        "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped,
    }
