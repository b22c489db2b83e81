"""The benchmark's contract with hflz.

perfbench/worker.py looks up the public functions it calls by name, and
perfbench/tracer.py wraps the functions it times by name and reads their
results.  Both files are loaded from the tree as they are; this test only
calls them, so renaming a traced function or changing the shape of a
result it reads fails here, not only in the traced benchmark run.
"""

import importlib
import importlib.util
import json
import pathlib
import stat
import sys
import threading

import pytest

from hflz import chc, cli
from hflz.parser import parse_formula

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench():
    # worker.py puts perfbench/ on sys.path to import its families
    saved = list(sys.path)
    try:
        yield _load("worker"), _load("tracer")
    finally:
        sys.path[:] = saved
        sys.modules.pop("families", None)


def _resolve(qual: str):
    module, *path = qual.split(".")
    obj = importlib.import_module(f"hflz.{module}")
    for attr in path:
        obj = getattr(obj, attr)
    return obj


def test_traced_names_resolve(bench):
    worker, tracer = bench
    worker.load_api()       # looks up every function the harness calls
    for qual in tracer.SPANNED + tracer.COUNTED:
        assert callable(_resolve(qual)), qual


def test_result_readers_apply_to_real_results(bench, corpus, tmp_path):
    worker, tracer = bench
    sat = tmp_path / "sat.sh"
    sat.write_text("#!/bin/sh\necho sat\n")
    sat.chmod(sat.stat().st_mode | stat.S_IXUSR)
    original = chc.solve_external
    api = worker.load_api()
    t = tracer.Tracer()
    try:
        t.install(api, tracer.on_result())
        system = api.hfl_to_chc(
            parse_formula((corpus / "sec42.hfl").read_text()))
        api.emit_smtlib_horn(system)
        verdict = chc.solve_external(system, f"{sat} {{file}}")
    finally:
        t.uninstall()
    assert chc.solve_external is original
    assert verdict.kind == "sat"
    assert t.calls["chc.hfl_to_chc"] == 1
    assert t.calls["chc.solve_external"] == 1
    assert t.counters["chc.hfl_to_chc.clauses"] == \
        len(system.definite) + len(system.goals) > 0
    assert t.counters["chc.emit_smtlib_horn.bytes"] > 0
    assert t.counters["chc.solve_external.sat"] == 1
    assert t.counters["chc.solve_external.cancelled"] == 0


def test_a_pure_validity_side_runs_on_its_own_thread(bench, corpus, capsys):
    # race_summary assigns each stage to a side by its thread and skips
    # the main thread's spans, so a side checked on the main thread would
    # leave the instance undecided
    worker, tracer = bench
    api = worker.load_api()
    t = tracer.Tracer()
    try:
        t.install(api, tracer.on_result())
        rc = cli.main(["validity", str(corpus / "mfile.lts"),
                       str(corpus / "file_straight.prog"), "--format", "json"])
    finally:
        t.uninstall()
    report = json.loads(capsys.readouterr().out)
    assert rc == 0 and report["verdict"] == "Valid"
    assert report["stage"] == "check_pure"
    race = tracer.race_summary(t.spans, threading.get_ident(), report)
    assert race["decided"] and not race["undecided"]
