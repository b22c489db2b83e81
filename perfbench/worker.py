"""One worker process of the benchmark: set up, then run instances one by one.

Started by run.py from the root of a checkout, with ``src`` on PYTHONPATH.
It writes one JSON object per line to stdout:

    {"setup": {...}}                          after set-up
    {"cal": s, "at": t}                       a host-speed sample
    {"start": i}                              before instance i
    {"i": i, "t": ..., "verdict": ..., ...}   after instance i
    {"done": true, "layers": {...}}           at the end of a traced run

Instances run in a closed loop with one client: the next starts when the
previous one has ended.  The loop stops at the first cycle boundary
after --deadline (a time.monotonic() value, shared with the parent), so a
run measures whole cycles of the workload's mix.  `validity` instances
are `hflz validity` CLI processes; in a traced run they call hflz.cli.main
in-process, so that the spans can be recorded.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import types  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import families  # noqa: E402

OUT = sys.stdout
CAL_EVERY_S = 0.25      # host-speed samples at most this often
_child: subprocess.Popen | None = None


def emit(obj: dict):
    OUT.write(json.dumps(obj) + "\n")
    OUT.flush()


def calibrate() -> float:
    """Seconds that a fixed piece of pure-Python work takes: dict updates on
    tuple keys, a sort and a recursion, the kind of work hflz does.  Between
    instances it samples the speed of the host, which on a shared VM can
    change by half from one minute to the next; run.py scales the instance
    times by it.  The median of three calls damps a single slow one."""
    def fib(n: int) -> int:
        return 1 if n < 2 else fib(n - 1) + fib(n - 2)

    times = []
    for _ in range(3):
        t = time.perf_counter()
        d: dict = {}
        for i in range(3000):
            key = (i % 97, i % 13)
            d[key] = d.get(key, 0) + i
        sorted(d.items())
        fib(14)
        times.append(time.perf_counter() - t)
    return sorted(times)[1]


def peak_rss_kb(children: bool) -> int:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def load_api():
    """The public hflz functions the harness calls, looked up once here so
    that the traced run can swap them for wrappers."""
    from hflz import chc, cli, lts, parser, pretty, programs, semantics, \
        syntax, transforms
    return types.SimpleNamespace(
        parse_formula=parser.parse_formula, parse_lts=lts.parse_lts,
        parse_smtlib_horn=chc.parse_smtlib_horn,
        parse_program=programs.parse_program,
        translate_program=programs.translate_program,
        typecheck=syntax.typecheck, dualize=syntax.dualize,
        is_pure=syntax.is_pure, to_text=pretty.to_text,
        desugar_quantifiers=transforms.desugar_quantifiers,
        eliminate_mu=transforms.eliminate_mu,
        abstract_predicates=transforms.abstract_predicates,
        hfl_to_chc=chc.hfl_to_chc, emit_smtlib_horn=chc.emit_smtlib_horn,
        chc_to_hfl=chc.chc_to_hfl, check_pure=semantics.check_pure,
        eval_bounded=semantics.eval_bounded, cli_main=cli.main,
        # helpers that are not timed layers
        app=syntax.app, IConst=syntax.IConst, Mu=syntax.Mu,
        alpha_eq=syntax.alpha_eq, subformulas=syntax.subformulas,
        BoundExpr=transforms.BoundExpr, PredicateSet=transforms.PredicateSet,
        WindowEntailment=transforms.WindowEntailment,
        trivial_model=lts.trivial_model,
        # the output checks' own calls, nested so that the tracer, which
        # patches the attributes of this namespace, leaves them unwrapped
        check=types.SimpleNamespace(dualize=syntax.dualize))


def nodes(api, phi) -> int:
    return sum(1 for _ in api.subformulas(phi))


# ---------------------------------------------------------------------------
# loading: turn an instance into the objects its run needs


class Loader:
    def __init__(self, api, root: str, work: str):
        self.api, self.root, self.work = api, root, work
        self._mult = None
        script = os.path.join(root, "scripts", "naive_chc_solver.py")
        self.solver = (f"{shlex.quote(sys.executable)} {shlex.quote(script)}"
                       f" -w {families.SOLVER_WINDOW} {{file}}")
        self._parsed: dict[tuple, object] = {}

    def parsed(self, fn, text: str):
        """Parse once per text: instances of one cycle share models."""
        key = (fn.__name__, text)
        if key not in self._parsed:
            self._parsed[key] = fn(text)
        return self._parsed[key]

    def read(self, rel: str) -> str:
        with open(os.path.join(self.root, rel)) as f:
            return f.read()

    def load(self, idx: int, inst) -> dict:
        api, spec = self.api, inst.spec
        if inst.kind == "cli":
            if spec["text"] is not None:
                path = os.path.join(self.work, f"in{idx}.hfl")
                with open(path, "w") as f:
                    f.write(spec["text"] + "\n")
                phi = api.parse_formula(spec["text"])
            else:
                path = os.path.join(self.root, spec["path"])
                text = self.read(spec["path"])
                if path.endswith(".prog"):
                    phi = api.translate_program(api.parse_program(text))
                elif path.endswith(".smt2"):
                    phi = api.chc_to_hfl(api.parse_smtlib_horn(text))
                else:
                    phi = api.parse_formula(text)
            argv = ["validity", path, "--solver", self.solver,
                    "--window", str(spec["window"]), "--format", "json"]
            if spec["lts"]:
                argv += ["--lts", os.path.join(self.root, spec["lts"])]
            return {"argv": argv, "nodes": nodes(api, phi)}
        if inst.kind in ("check_pure", "eval_pure"):
            phi = self.parsed(api.parse_formula, spec["formula"])
            return {"lts": self.parsed(api.parse_lts, spec["lts"]),
                    "phi": phi, "nodes": nodes(api, phi)}
        if inst.kind == "eval":
            if "mult" in spec:
                if self._mult is None:
                    self._mult = api.parse_formula(
                        self.read("corpus/mult.hfl"))
                phi = api.app(self._mult, *map(api.IConst, spec["mult"]))
            elif "smt2_dual" in spec:
                phi = api.dualize(api.chc_to_hfl(
                    api.parse_smtlib_horn(spec["smt2_dual"])))
            else:
                phi = api.parse_formula(spec["formula"])
                if "elim_bound" in spec:
                    phi = api.eliminate_mu(
                        phi, api.BoundExpr.const(spec["elim_bound"]),
                        style="apply")
            return {"phi": phi, "window": spec["window"],
                    "nodes": nodes(api, phi)}
        return {}       # chain / abstract instances start from their text


# ---------------------------------------------------------------------------
# running one instance: a verdict (True, False or None for undecided) or a
# failure message


def run_cli_process(job: dict, limit: float, root: str):
    global _child
    _child = subprocess.Popen(
        [sys.executable, "-m", "hflz.cli", *job["argv"]], cwd=root,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = _child.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.communicate()
        return None, f"timeout after {limit:g} s", {}
    finally:
        rc = _child.returncode
        _child = None
    return cli_outcome(rc, out, err)


def run_cli_inprocess(api, job: dict):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = api.cli_main(job["argv"])
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 3
    return cli_outcome(rc, out.getvalue(), err.getvalue())


def cli_outcome(rc: int, out: str, err: str):
    lines = [ln for ln in err.splitlines() if ln.strip()]
    last = lines[-1].strip() if lines else ""
    if rc == 3:
        return None, f"exit 3: {last}", {}
    if "Traceback (most recent call last)" in err:
        return None, f"traceback: {last}", {}
    try:
        report = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, f"exit {rc} without a verdict: {last}", {}
    verdict = {"Valid": True, "Invalid": False}.get(report.get("verdict"))
    if rc != {True: 0, False: 1, None: 2}[verdict]:
        return None, f"exit {rc} does not match {report.get('verdict')}", {}
    return verdict, None, report


def run_chain(api, spec: dict):
    """The pass chain; the checks of its output run after the timed part."""
    t = time.perf_counter()
    phi = api.parse_formula(spec["text"])
    api.typecheck(phi)
    dual = api.dualize(phi)
    elim = api.eliminate_mu(api.desugar_quantifiers(phi),
                            api.BoundExpr.const(4))
    system = api.hfl_to_chc(elim)
    script = api.emit_smtlib_horn(system)
    back = api.chc_to_hfl(api.parse_smtlib_horn(script))
    again = api.parse_formula(api.to_text(back))
    timed = time.perf_counter() - t
    mus = sum(isinstance(s, api.Mu) for s in api.subformulas(phi))
    ok = (api.alpha_eq(again, back)
          and api.alpha_eq(api.check.dualize(dual), phi)
          and len(system.preds) == mus == spec["walks"])
    return ok, nodes(api, phi), timed


def run_abstract(api, spec: dict):
    phi = api.parse_formula(spec["text"])
    preds = api.PredicateSet.parse(spec["preds"])
    abstracted = api.abstract_predicates(
        api.desugar_quantifiers(phi), preds,
        api.WindowEntailment(width=spec["width"]))
    proved = api.is_pure(abstracted) and api.check_pure(
        api.trivial_model(), abstracted)
    return proved, nodes(api, phi)


class Runner:
    def __init__(self, api, root: str, limit: float, in_process_cli: bool):
        self.api, self.root, self.limit = api, root, limit
        self.in_process_cli = in_process_cli

    def run(self, inst, job: dict):
        """-> (seconds, verdict, failure, nodes, report)"""
        api, spec = self.api, inst.spec
        t = time.perf_counter()
        try:
            if inst.kind == "cli":
                if self.in_process_cli:
                    v, fail, rep = run_cli_inprocess(api, job)
                else:
                    v, fail, rep = run_cli_process(job, self.limit, self.root)
                return time.perf_counter() - t, v, fail, job["nodes"], rep
            if inst.kind == "check_pure":
                v = api.check_pure(job["lts"], job["phi"])
            elif inst.kind == "eval_pure":
                v = api.eval_bounded(job["phi"], 0, lts=job["lts"])
            elif inst.kind == "eval":
                v = api.eval_bounded(job["phi"], job["window"])
            elif inst.kind == "chain":
                v, n, timed = run_chain(api, spec)
                return timed, v, None, n, {}
            elif inst.kind == "abstract":
                v, n = run_abstract(api, spec)
                return time.perf_counter() - t, v, None, n, {}
            else:
                raise ValueError(f"unknown instance kind {inst.kind}")
            return time.perf_counter() - t, v, None, job["nodes"], {}
        except Exception as e:       # the instance failed; keep running
            msg = str(e).splitlines()[0][:200] if str(e) else ""
            return (time.perf_counter() - t, None,
                    f"{type(e).__name__}: {msg}", 0, {})


# ---------------------------------------------------------------------------


def stop_child(signum, frame):
    if _child is not None and _child.poll() is None:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
    os._exit(128 + signum)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--deadline", type=float, default=None)
    ap.add_argument("--start", type=int, default=0)
    ap.add_argument("--limit", type=float, default=60.0)
    ap.add_argument("--work", required=True)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, stop_child)
    warnings.simplefilter("ignore")      # WindowEntailment's heuristic notice
    root = os.getcwd()
    tempfile.tempdir = os.environ.get("TMPDIR") or args.work

    t = time.perf_counter()
    api = load_api()
    import_s = time.perf_counter() - t
    t = time.perf_counter()
    insts = families.build(args.workload, args.seed, args.small)
    loader = Loader(api, root, args.work)
    jobs = [loader.load(i, inst) for i, inst in enumerate(insts)]
    load_s = time.perf_counter() - t
    setup_s = time.perf_counter() - T0
    # a fresh process's first calls run slow, so take more samples here
    cal = sorted(calibrate() for _ in range(5))[2]
    emit({"setup": {"setup_s": setup_s, "cal": cal,
                    "import_s": import_s, "load_s": load_s,
                    "instances": len(insts)}})
    if args.setup_only:
        return 0

    cli_children = not args.trace
    runner = Runner(api, root, args.limit, in_process_cli=bool(args.trace))
    start = time.monotonic()
    deadline = args.deadline if args.deadline is not None \
        else start + args.seconds
    # the smoke size runs its instance list once, whatever the time
    stop = args.start + len(insts) if args.small else None
    until = None if args.small else deadline

    def loop(first: int, stop: int | None, until: float | None, phase: str,
             rec=None) -> int:
        """Run instances first, first+1, ... until index `stop`, or until
        the first cycle boundary after time `until`."""
        i, cal_at = first, -CAL_EVERY_S
        while (stop is None or i < stop) and not (
                until is not None and time.monotonic() >= until
                and insts[i % len(insts)].first):
            if time.monotonic() - cal_at >= CAL_EVERY_S:
                cal_at = time.monotonic()
                emit({"cal": calibrate(), "at": cal_at})
            inst, job = insts[i % len(insts)], jobs[i % len(insts)]
            emit({"start": i, "phase": phase})
            at = time.monotonic()
            if rec is not None:
                rec.before(i, inst)
            secs, verdict, fail, n, report = runner.run(inst, job)
            if rec is not None:
                rec.after(i, inst, secs, report)
            emit({"i": i, "phase": phase, "t": secs, "at": at,
                  "verdict": verdict, "fail": fail, "nodes": n,
                  "rss_kb": peak_rss_kb(cli_children and inst.kind == "cli")})
            i += 1
        emit({"cal": calibrate(), "at": time.monotonic()})
        return i

    if not args.trace:
        loop(args.start, stop, until, "run")
        return 0

    import tracer as tr
    tracer = tr.Tracer()
    tracer.install(api, tr.on_result())
    traced = tr.Recorder(tracer, threading.get_ident())
    # 60% of the time traced
    end = loop(args.start, stop,
               None if until is None else start + 0.6 * (until - start),
               "traced", traced)
    tracer.uninstall()
    # the first traced cycle again, untraced, whatever the time
    plain = tr.Recorder(None, None)
    again = next(j for j in range(args.start + 1, end + 1)
                 if j == end or insts[j % len(insts)].first)
    loop(args.start, again, None, "untraced", plain)
    # kept after the run's own scratch directory is removed
    tracer.dump(os.path.join(os.path.dirname(args.work),
                             f"trace-{args.workload}.jsonl"))
    emit({"done": True, "layers": tr.summary(
        tracer, traced, plain, import_s, load_s)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
