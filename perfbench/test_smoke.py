"""Smoke test of the benchmark at its smallest size.

Run from the root of a checkout:  python3 perfbench/test_smoke.py
(or python3 -m pytest perfbench/test_smoke.py).
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import families  # noqa: E402
import run  # noqa: E402


def bench(*args: str) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--small", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def verdicts(lines: list[str]) -> list[tuple[str, ...]]:
    """(id, expected, verdict, outcome) of each INSTANCE line; no times."""
    return [tuple(line.split()[1:5]) for line in lines
            if line.startswith("INSTANCE ")]


def test_seed_fixes_instances():
    for workload in families.WORKLOADS + families.EXTRA_WORKLOADS:
        for small in (True, False):
            a = families.build(workload, 7, small)
            b = families.build(workload, 7, small)
            c = families.build(workload, 8, small)
            assert [(i.id, i.expected, i.spec) for i in a] == \
                [(i.id, i.expected, i.spec) for i in b], workload
            assert [(i.id, i.spec) for i in a] != \
                [(i.id, i.spec) for i in c], workload
            assert len({i.id for i in a}) == len(a), workload
            assert {i.known_defect for i in a} <= \
                {""} | set(families.KNOWN_DEFECTS), workload


def test_same_seed_same_verdicts_and_every_metric():
    units = dict(run.END_TO_END)
    for workload in families.WORKLOADS:
        first, result = bench("--workload", workload, "--seed", "3")
        second, _ = bench("--workload", workload, "--seed", "3")
        assert verdicts(first) and verdicts(first) == verdicts(second)
        assert result["correct"] and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        for name, unit in units.items():
            assert any(line.startswith(f"{name} = ") and f" {unit} (" in line
                       for line in first), name


def test_traced_run_reports_every_layer():
    units = dict(run.PER_LAYER)
    metrics, races = {}, {}
    for workload in ("validity_pipeline", "syntax_passes"):
        lines, result = bench("--workload", workload, "--seed", "3",
                              "--trace", "1")
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        assert any(line.startswith("trace overhead:") for line in lines)
        races[workload] = next(line.split() for line in lines
                               if line.startswith("races: "))
        metrics[workload] = {k: v["value"]
                             for k, v in result["metrics"].items()}
    # validity traces both sides of the race and the solver calls; on every
    # decided instance exactly one thread matches the report
    decided, undecided = int(races["validity_pipeline"][1]), \
        int(races["validity_pipeline"][3])
    assert decided > 0 and undecided == 0, races["validity_pipeline"]
    assert metrics["validity_pipeline"]["chc.solve_external.calls"] > 0
    assert metrics["validity_pipeline"]["cli.race.useful_ratio"] > 0
    assert metrics["syntax_passes"]["pretty.to_text.calls"] > 0


def test_failures_are_counted():
    lines, result = bench("--workload", "defects", "--seed", "3")
    assert result["failed"] >= 1
    assert any(line.startswith("FAILED c0.") and "/file_rec: traceback" in line
               for line in lines)
    # a CLI process past the per-instance limit is killed and fails
    lines, result = bench("--workload", "defects", "--seed", "3",
                          "--limit", "0.05")
    assert any("timeout after 0.05 s" in line for line in lines)


def test_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(families.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_refuses_to_run_outside_a_checkout():
    with tempfile.TemporaryDirectory(dir=HERE) as empty:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "syntax_passes", "--seed", "1", "--seconds", "1"],
            cwd=empty, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0 and not proc.stdout.strip()


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
