#!/usr/bin/env python3
"""hflz benchmark: seeded verifier workloads with known answers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pure_model_check --seed 1 \\
        --seconds 22 --trace 0

Each instance is timed from its start to its verdict, and the verdict is
checked against the instance's known answer.  --trace 0 prints the
end-to-end metrics; --trace 1 makes a separate traced run and prints the
per-layer metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The lines above it give every
metric with its unit and sample count, each wrong verdict and each failure by
instance id, and the machine.  See perfbench/README.md.

The instances run in a worker process (worker.py).  A worker that stops
reporting for longer than the per-instance limit is killed, its unfinished
instance counts as failed, and a fresh worker goes on with the next one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import families  # noqa: E402
import tracer  # noqa: E402

END_TO_END = [
    ("setup_s", "s"), ("instances_per_s", "1/s"), ("instance_s.p50", "s"),
    ("instance_s.tail", "s"), ("nodes_per_s", "nodes/s"),
    ("decided_ratio", "ratio"), ("not_failed_ratio", "ratio"),
    ("not_wrong_ratio", "ratio"), ("peak_rss_mb", "MB"),
]
# per-layer figures are per traced instance unless the unit says otherwise
PER_LAYER = (
    [(f"{n}.calls", "calls/instance") for n in tracer.SPANNED + tracer.COUNTED]
    + [(f"{n}.self_s", "s/instance") for n in tracer.SPANNED]
    + [("semantics.check_pure_stats.fix_iterations", "count/instance"),
       ("semantics.check_pure_stats.iter_bound_ratio", "ratio"),
       ("chc.solve_external.sat", "calls/instance"),
       ("chc.solve_external.unsat", "calls/instance"),
       ("chc.solve_external.unknown", "calls/instance"),
       ("chc.solve_external.cancelled", "calls/instance"),
       ("chc.solve_external.useful_ratio", "ratio"),
       ("cli.race.wasted_s", "s/race"),
       ("cli.race.useful_ratio", "ratio"),
       ("transforms.eliminate_mu.out_nodes", "nodes/instance"),
       ("transforms.WindowEntailment.entails.undecided", "calls/instance"),
       ("chc.hfl_to_chc.clauses", "count/instance"),
       ("chc.emit_smtlib_horn.bytes", "B/instance"),
       ("setup.import_s", "s"), ("setup.load_s", "s"),
       ("trace.overhead_s", "s/instance"), ("trace.overhead_ratio", "ratio")])
TAIL_LADDER = (50, 90, 95, 99, 99.9)
ONE_SIDED = ("eval", "eval_pure", "abstract")
SLACK_S = 15.0          # parent-side grace on top of the per-instance limit
SETUP_LIMIT_S = 120.0
SETUPS = 7              # set-up samples behind setup_s
CAL_REF_S = 0.002       # worker.calibrate() at the reference host speed
CAL_WINDOW_S = 1.0      # host-speed samples this close to an instance count
CAL_NEAREST = 5         # ... and at least this many of the nearest


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_level(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    ok = [p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10]
    return ok[-1] if ok else TAIL_LADDER[0]


def classify(inst: families.Instance, verdict, fail) -> str:
    if fail:
        return "failed"
    if verdict is None:
        return "undecided"
    if verdict == inst.expected:
        return "decided"
    if inst.kind in ONE_SIDED and not verdict:
        return "undecided"      # a one-sided "no" only means "not proved"
    return "wrong"


class Worker:
    """A worker.py process in its own process group, read line by line."""

    def __init__(self, argv: list[str], env: dict, log):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), *argv],
            stdout=subprocess.PIPE, stderr=log, text=True, env=env,
            start_new_session=True)
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def get(self, timeout: float):
        """Next message, None at end of output; raises queue.Empty."""
        line = self.lines.get(timeout=timeout)
        return None if line is None else json.loads(line)

    def stop(self):
        """SIGTERM lets the worker kill its CLI child; then SIGKILL all."""
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGTERM)
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.reader.join(timeout=5)


class Run:
    def __init__(self, args, root: str):
        self.args, self.root = args, root
        self.work = os.path.join(HERE, ".work", f"run-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        paths = [os.path.join(root, "src"), os.environ.get("PYTHONPATH")]
        self.env = dict(os.environ, TMPDIR=self.work, PYTHONHASHSEED="0",
                        PYTHONPATH=os.pathsep.join(p for p in paths if p))
        self.log = open(os.path.join(self.work, "worker-stderr.txt"), "a")
        self.insts = families.build(args.workload, args.seed, args.small)
        self.setups: list[dict] = []
        self.records: dict[int, dict] = {}
        self.cals: list[tuple[float, float]] = []   # (at, seconds)
        self.layers: dict | None = None
        self.deadline = 0.0

    def worker_argv(self, *extra: str) -> list[str]:
        a = self.args
        argv = ["--workload", a.workload, "--seed", str(a.seed),
                "--trace", str(a.trace), "--seconds", str(a.seconds),
                "--limit", str(a.limit), "--work", self.work, *extra]
        return argv + (["--small"] if a.small else [])

    def probe_setup(self):
        """A worker that only sets up: one more set-up time sample."""
        w = Worker(self.worker_argv("--setup-only"), self.env, self.log)
        try:
            msg = w.get(timeout=SETUP_LIMIT_S)
            if msg is None or "setup" not in msg:
                raise RuntimeError("set-up probe gave no set-up report")
            self.setups.append(msg["setup"])
        finally:
            w.stop()

    def drive(self):
        """Run the main worker; restart it after a kill until the deadline."""
        start, deadline = 0, None
        while True:
            extra = ["--start", str(start)]
            if deadline is not None:
                extra += ["--deadline", repr(deadline)]
            w = Worker(self.worker_argv(*extra), self.env, self.log)
            try:
                nxt = self.follow(w, deadline is None)
            finally:
                w.stop()
            if nxt is None:
                return
            start = nxt
            deadline = self.deadline
            if self.args.trace or self.args.small or \
                    time.monotonic() >= deadline:
                return

    def follow(self, w: Worker, first: bool) -> int | None:
        """Read one worker to its end; the index to resume at if killed."""
        current, since = None, time.monotonic()
        while True:
            try:
                msg = w.get(timeout=1.0)
            except queue.Empty:
                waited = time.monotonic() - since
                limit = self.args.limit + SLACK_S if current is not None \
                    else SETUP_LIMIT_S
                if waited < limit:
                    continue
                if current is None:
                    raise RuntimeError("worker stopped responding")
                self.fail(current, since, f"killed after {waited:.0f} s")
                return current + 1
            if msg is None:
                if w.proc.wait() != 0 and current is None and \
                        not self.records:
                    raise RuntimeError("worker exited with code "
                                       f"{w.proc.returncode} before running")
                if current is not None:
                    self.fail(current, since,
                              f"worker died (exit {w.proc.returncode})")
                    return current + 1
                return None
            if "setup" in msg:
                if first:
                    self.setups.append(msg["setup"])
                    self.deadline = time.monotonic() + self.args.seconds
            elif "cal" in msg:
                self.cals.append((msg["at"], msg["cal"]))
            elif "start" in msg:
                current, since = msg["start"], time.monotonic()
            elif "i" in msg:
                if msg["phase"] != "untraced":
                    self.records[msg["i"]] = msg
                current, since = None, time.monotonic()
            elif "done" in msg:
                self.layers = msg["layers"]

    def fail(self, i: int, since: float, why: str):
        self.records[i] = {"i": i, "t": time.monotonic() - since,
                           "at": since, "verdict": None, "fail": why,
                           "nodes": 0,
                           "rss_kb": 0}

    def close(self):
        self.log.close()
        shutil.rmtree(self.work, ignore_errors=True)


# ---------------------------------------------------------------------------
# reporting


def machine() -> str:
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    return (f"machine: nproc={cpus} python={platform.python_version()} "
            f"{platform.machine()} {platform.system()}")


def at_reference_speed(rows: list[dict], cals: list[tuple]) -> list[float]:
    """Each instance's time scaled to the reference host speed.

    The factor is CAL_REF_S over the median of the host-speed samples taken
    within CAL_WINDOW_S of the instance (at least the CAL_NEAREST nearest),
    so a change of host speed in the middle of a run is followed.
    """
    out = []
    for r in rows:
        lo, hi = r["at"] - CAL_WINDOW_S, r["at"] + r["t"] + CAL_WINDOW_S
        dist = [max(lo - at, at - hi, 0.0) for at, _ in cals]
        order = sorted(range(len(cals)), key=dist.__getitem__)
        k = max(CAL_NEAREST, sum(d == 0 for d in dist))
        cal = statistics.median(cals[j][1] for j in order[:k])
        out.append(r["t"] * CAL_REF_S / cal)
    return out


def end_to_end(run: Run, rows: list[dict], lines: list[str]) -> dict:
    n = len(rows)
    if not run.cals:
        raise RuntimeError("the worker gave no host-speed sample")
    raw = [r["t"] for r in rows]
    times = at_reference_speed(rows, run.cals)
    ok = [r for r in rows if r["outcome"] != "failed"]
    # the closed loop's time inside instances; the harness's own output
    # checks and host-speed samples between instances are left out
    busy = sum(times)
    level = tail_level(n)
    tail = percentile(times, level)
    setup = statistics.median(s["setup_s"] * CAL_REF_S / s["cal"]
                              for s in run.setups)
    cal = statistics.median(c for _, c in run.cals)
    lines.append(f"host speed: calibrate() took {cal * 1000:.3f} ms "
                 f"(median of {len(run.cals)} samples; reference "
                 f"{CAL_REF_S * 1000:g} ms). Times below are scaled to the "
                 f"reference speed; unscaled: set-up "
                 f"{statistics.median(s['setup_s'] for s in run.setups):.4f}"
                 f" s, p50 {percentile(raw, 50):.4f} s, "
                 f"p{level:g} {percentile(raw, level):.4f} s, "
                 f"{sum(raw):.2f} s in instances")
    count = {k: sum(r["outcome"] == k for r in rows)
             for k in ("decided", "undecided", "wrong", "failed")}
    values = {
        "setup_s": (setup, f"median of {len(run.setups)} set-ups"),
        "instances_per_s": (len(ok) / busy,
                            f"n={n}, {len(ok)} finished in {busy:.2f} s "
                            "of instance time"),
        "instance_s.p50": (percentile(times, 50), f"n={n}"),
        "instance_s.tail": (tail, f"p{level:g}, n={n}, "
                            f"{sum(t > tail for t in times)} beyond"),
        "nodes_per_s": (sum(r["nodes"] for r in ok) / busy,
                        f"n={len(ok)} finished"),
        "decided_ratio": (count["decided"] / n, f"{count['decided']}/{n}"),
        "not_failed_ratio": (1 - count["failed"] / n,
                             f"failed_ratio {count['failed']}/{n}"),
        "not_wrong_ratio": (1 - count["wrong"] / n,
                            f"wrong_ratio {count['wrong']}/{n}"),
        "peak_rss_mb": (max(r["rss_kb"] for r in rows) / 1024,
                        "max over the run"),
    }
    for name, unit in END_TO_END:
        v, note = values[name]
        lines.append(f"{name} = {v:.6g} {unit} ({note})")
    return {name: {"value": values[name][0], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(run: Run, lines: list[str]) -> dict:
    L = run.layers
    n = max(L["instances"], 1)
    calls, self_s, ctr = L["calls"], L["self_s"], L["counters"]
    race, over = L["race"], L["overhead"]
    solver_calls = calls.get("chc.solve_external", 0)
    values = {f"{k}.calls": calls.get(k, 0) / n
              for k in tracer.SPANNED + tracer.COUNTED}
    values.update({f"{k}.self_s": self_s.get(k, 0.0) / n
                   for k in tracer.SPANNED})
    fix = ctr.get("semantics.check_pure_stats.fix_iterations", 0)
    bound = ctr.get("semantics.check_pure_stats.iter_bound", 0)
    values.update({
        "semantics.check_pure_stats.fix_iterations": fix / n,
        "semantics.check_pure_stats.iter_bound_ratio":
            fix / bound if bound else 0.0,
        "chc.solve_external.useful_ratio":
            race["decisive_solver"] / solver_calls if solver_calls else 0.0,
        "cli.race.wasted_s":
            race["wasted_s"] / race["decided"] if race["decided"] else 0.0,
        "cli.race.useful_ratio":
            race["winner_s"] / race["busy_s"] if race["busy_s"] else 0.0,
        "setup.import_s": L["import_s"], "setup.load_s": L["load_s"],
        "trace.overhead_s": (over["traced_s"] - over["untraced_s"])
            / over["pairs"] if over["pairs"] else 0.0,
        "trace.overhead_ratio": over["traced_s"] / over["untraced_s"] - 1
            if over["untraced_s"] else 0.0,
    })
    for key in ("sat", "unsat", "unknown", "cancelled"):
        values[f"chc.solve_external.{key}"] = \
            ctr.get(f"chc.solve_external.{key}", 0) / n
    for name in ("transforms.eliminate_mu.out_nodes",
                 "transforms.WindowEntailment.entails.undecided",
                 "chc.hfl_to_chc.clauses", "chc.emit_smtlib_horn.bytes"):
        values[name] = ctr.get(name, 0) / n
    lines.append(f"traced instances: {L['instances']}; spans kept "
                 f"{L['spans_kept']}, dropped {L['spans_dropped']}")
    lines.append(f"races: {race['decided']} decided, {race['undecided']} "
                 "undecided (both threads or neither match the report)")
    lines.append(f"trace overhead: traced {over['traced_s']:.4f} s vs "
                 f"untraced {over['untraced_s']:.4f} s over the same "
                 f"{over['pairs']} instances")
    for name, unit in PER_LAYER:
        lines.append(f"{name} = {values[name]:.6g} {unit}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}


def report(run: Run) -> dict:
    a = run.args
    rows = []
    for i in sorted(run.records):
        r = run.records[i]
        inst = run.insts[i % len(run.insts)]
        r["outcome"] = classify(inst, r["verdict"], r["fail"])
        r["inst"] = inst
        rows.append(r)
    if not rows:
        raise RuntimeError("no instance was attempted")
    lines = [f"workload {a.workload} seed {a.seed} seconds {a.seconds} "
             f"trace {a.trace}", machine()]
    unexplained = 0
    for r in rows:
        inst, rep = r["inst"], r["i"] // len(run.insts)
        iid = inst.id + (f"#{rep}" if rep else "")
        lines.append(f"INSTANCE {iid} expected={inst.expected} "
                     f"verdict={r['verdict']} outcome={r['outcome']} "
                     f"t={r['t']:.4f}")
        tag = f" [known defect: {inst.known_defect}]" \
            if inst.known_defect else ""
        if r["outcome"] == "wrong":
            unexplained += not inst.known_defect
            lines.append(f"WRONG {iid}: expected "
                         f"{'Valid' if inst.expected else 'Invalid'}, got "
                         f"{'Valid' if r['verdict'] else 'Invalid'}{tag}")
        elif r["outcome"] == "failed":
            lines.append(f"FAILED {iid}: {r['fail']}{tag}")
    if a.trace:
        if run.layers is None:
            raise RuntimeError("the traced worker gave no layer summary")
        metrics = per_layer(run, lines)
    else:
        metrics = end_to_end(run, rows, lines)
    print("\n".join(lines))
    return {"correct": unexplained == 0, "attempted": len(rows),
            "failed": sum(r["outcome"] == "failed" for r in rows),
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=families.WORKLOADS + families.EXTRA_WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=22)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=float, default=60.0,
                    help="per-instance limit in seconds")
    ap.add_argument("--small", action="store_true",
                    help="smoke size: one small cycle, each instance once")
    args = ap.parse_args()

    root = os.getcwd()
    needed = ["src/hflz/__init__.py", "src/hflz/cli.py",
              "scripts/naive_chc_solver.py", "corpus/mult.hfl"]
    missing = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"perfbench: not at the root of an hflz checkout (missing "
              f"{', '.join(missing)})", file=sys.stderr)
        return 2

    run = Run(args, root)
    try:
        if not args.trace:
            for _ in range(SETUPS - 1):
                run.probe_setup()
        run.drive()
        result = report(run)
    except RuntimeError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        run.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
