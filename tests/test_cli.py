import json
import os
import subprocess
import sys
import threading

import pytest

from hflz import cli, syntax
from hflz.chc import SolverVerdict
from hflz.cli import build_parser, main
from hflz.semantics import eval_bounded


def solver_cmd(scripts, width=6):
    return f"{sys.executable} {scripts}/naive_chc_solver.py -w {width} {{file}}"


def test_typecheck(corpus, capsys):
    assert main(["typecheck", str(corpus / "even.hfl")]) == 0
    assert capsys.readouterr().out.strip() == "int -> prop"


def test_dualize(corpus, capsys):
    assert main(["dualize", str(corpus / "even.hfl")]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "nu x: int -> prop. \\y: int. y != 0 /\\ x(y - 2)"


def test_check_pure(corpus, tmp_path, capsys):
    f = tmp_path / "phi.hfl"
    f.write_text("<read> <read> <close> <end> true\n")
    assert main(["check", str(corpus / "mfile.lts"), str(f)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "Valid"
    g = tmp_path / "bad.hfl"
    g.write_text("<end> true\n")  # no end transition from the initial state
    assert main(["check", str(corpus / "mfile.lts"), str(g)]) == 1


def test_check_refuses_integers(corpus, capsys):
    assert main(["check", str(corpus / "even.hfl")]) == 3
    assert "error:" in capsys.readouterr().err


def test_eval(tmp_path, capsys):
    f = tmp_path / "e.hfl"
    f.write_text("exists x. x = 3\n")
    assert main(["eval", str(f)]) == 0
    f.write_text("exists x. x = 99\n")
    # one-sided: a false window evaluation is only Unknown
    assert main(["eval", str(f), "--window", "8"]) == 2


def test_elim_mu_golden(corpus, capsys):
    assert main(["elim-mu", str(corpus / "sec41.hfl"),
                 "--bound", "max(i + 1, 1)"]) == 0
    assert capsys.readouterr().out.strip() == (
        "forall i. forall u >= max(i + 1, 1). "
        "(nu x': int -> int -> prop. \\(z: int, y: int). "
        "z > 0 /\\ (y <= 0 \\/ x'(z - 1, y - 1)))(u, i)")


def test_elim_mu_at_order_two(tmp_path, capsys):
    f = tmp_path / "order2.hfl"
    f.write_text("(mu x: (int -> prop) -> int -> prop. \\f: int -> prop. "
                 "\\y: int. f(y) \\/ <a> x(\\v: int. f(v + 1), y - 1))"
                 "(\\w: int. w >= 2, 0)\n")
    assert main(["elim-mu", str(f), "--bound", "3", "--style", "apply"]) == 0
    assert capsys.readouterr().out.strip() == (
        "(nu x': int -> (int -> prop) -> int -> prop. "
        "\\(z: int, f: int -> prop, y: int). z > 0 /\\ (f(y) \\/ "
        "<a> x'(z - 1, \\v: int. f(v + 1), y - 1)))(3, \\w: int. w >= 2, 0)")


def test_abstract_golden(corpus, capsys):
    assert main(["abstract", str(corpus / "sec42.hfl"),
                 "--preds", str(corpus / "sec42.preds")]) == 0
    assert capsys.readouterr().out.strip() == \
        "(nu x: prop -> prop. \\b: prop. b /\\ x(b))(true)"


def test_to_chc_from_chc_round_trip(corpus, tmp_path, capsys):
    assert main(["from-chc", str(corpus / "mult.smt2")]) == 0
    text = capsys.readouterr().out.strip()
    f = tmp_path / "mult.hfl"
    f.write_text(text + "\n")
    assert main(["to-chc", str(f)]) == 0
    emitted = capsys.readouterr().out
    assert emitted.splitlines()[0] == "(set-logic HORN)"
    assert "(declare-fun mult (Int Int Int) Bool)" in emitted


def test_nullary_predicates_read_back(tmp_path, capsys):
    script = ("(set-logic HORN)\n(declare-fun p () Bool)\n(assert p)\n"
              "(assert (=> p false))\n(check-sat)\n")
    f = tmp_path / "p.smt2"
    f.write_text(script)
    assert main(["from-chc", str(f)]) == 0
    g = tmp_path / "p.hfl"
    g.write_text(capsys.readouterr().out)
    assert main(["to-chc", str(g)]) == 0
    assert capsys.readouterr().out == script


def test_from_chc_names_a_malformed_form(tmp_path, capsys):
    f = tmp_path / "bad.smt2"
    f.write_text("(declare-fun p (Int) Bool)\n(assert)\n")
    assert main(["from-chc", str(f)]) == 3
    assert capsys.readouterr().err == "error: malformed command (assert)\n"


def test_from_chc_reads_products_as_solvers_write_them(tmp_path, capsys):
    f = tmp_path / "times.smt2"
    f.write_text("(declare-fun p (Int) Bool)\n"
                 "(assert (forall ((x Int)) (=> (= x (* (- 2) 3)) (p x))))\n"
                 "(assert (forall ((y Int)) (=> (and (p y) (> (* 2 y) 0)) "
                 "false)))\n")
    assert main(["from-chc", str(f)]) == 0
    assert capsys.readouterr().out == \
        "forall y. (nu p: int -> prop. \\x: int. x != -6)(y) \\/ y + y <= 0\n"


def test_from_chc_prints_names_that_parse_back(tmp_path, capsys):
    # SMT-LIB symbols that are not formula identifiers, one a keyword
    f = tmp_path / "odd.smt2"
    f.write_text("(declare-fun p (Int Int) Bool)\n"
                 "(assert (forall ((int Int) (x!1 Int)) "
                 "(=> (= int x!1) (p int x!1))))\n"
                 "(assert (forall ((|a b| Int) (--5 Int)) "
                 "(=> (and (p |a b| --5) (> |a b| --5)) false)))\n")
    assert main(["from-chc", str(f)]) == 0
    text = capsys.readouterr().out
    assert text == (
        "forall a_b. forall __5. (nu p: int -> int -> prop. "
        "\\(int1: int, x_1: int). int1 != x_1)(a_b, __5) \\/ a_b <= __5\n")
    g = tmp_path / "odd.hfl"
    g.write_text(text)
    assert main(["typecheck", str(g)]) == 0
    assert capsys.readouterr().out == "prop\n"


def test_translate(corpus, capsys):
    assert main(["translate", str(corpus / "file_straight.prog")]) == 0
    assert capsys.readouterr().out.strip() == "<read> <read> <close> <end> true"


def test_translate_refuses_a_kind_conflict(tmp_path, capsys):
    # g passes its j on as k and calls itself with 3 for j, so both are
    # integers; main passes () for j
    f = tmp_path / "conflict.prog"
    f.write_text("events: read\nlet g j k = read (g 3 j)\nmain = g (()) 1\n")
    assert main(["translate", str(f)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "used both as an integer and as a continuation" in captured.err


def test_translate_reports_where_a_program_is_malformed(tmp_path, capsys):
    f = tmp_path / "bad.prog"
    f.write_text("events: a\nlet f k =\n  a k\nmain = f @\n")
    assert main(["translate", str(f)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 4:10: unexpected character '@'\n"


def test_validity_pure(corpus, tmp_path, capsys):
    f = tmp_path / "phi.hfl"
    f.write_text("<read> <close> <end> true\n")
    assert main(["validity", str(corpus / "mfile.lts"), str(f)]) == 0
    f.write_text("<end> true\n")
    assert main(["validity", str(corpus / "mfile.lts"), str(f)]) == 1


@pytest.mark.parametrize("mode", [[], ["--no-race"]])
def test_validity_refuses_a_formula_that_is_not_prop(corpus, capsys, mode):
    assert main(["validity", str(corpus / "even.hfl"), *mode]) == 3
    assert capsys.readouterr().err == \
        "error: formula must have type prop, got int -> prop\n"


@pytest.mark.parametrize("mode", [[], ["--no-race"]])
def test_validity_never_calls_typecheck(corpus, scripts, monkeypatch, capsys,
                                        mode):
    def refuse(*args):
        raise AssertionError("typecheck was called")
    monkeypatch.setattr(cli, "typecheck", refuse)
    monkeypatch.setattr(syntax, "typecheck", refuse)
    assert main(["validity", str(corpus / "sec41.hfl"), "--bound",
                 "max(i + 1, 1)", "--solver", solver_cmd(scripts), *mode]) == 0
    assert main(["validity", str(corpus / "mfile.lts"),
                 str(corpus / "file_mutated.prog"), *mode]) == 1


def test_a_pure_formula_is_checked_once_without_its_dual(
        corpus, tmp_path, monkeypatch, capsys):
    calls = {"check_pure": 0, "is_pure": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def refuse(*args):
        raise AssertionError("dualize was called")
    monkeypatch.setattr(cli, "check_pure", counted("check_pure",
                                                   cli.check_pure))
    monkeypatch.setattr(cli, "is_pure", counted("is_pure", cli.is_pure))
    monkeypatch.setattr(cli, "dualize", refuse)
    f = tmp_path / "phi.hfl"
    for text, rc in (("nu y: prop. <read> y", 0), ("[read] <end> true", 1)):
        f.write_text(text + "\n")
        outs = []
        for mode in ([], ["--no-race"]):
            calls.update(check_pure=0, is_pure=0)
            assert main(["validity", str(corpus / "mfile.lts"), str(f),
                         *mode]) == rc
            assert calls == {"check_pure": 1, "is_pure": 1}
            outs.append([line for line in capsys.readouterr().out.splitlines()
                         if not line.startswith("  time[")])
        assert outs[0] == outs[1] == [["Valid", "Invalid"][rc],
                                      "  stage: check_pure"]


def test_validity_chc_path(corpus, scripts, capsys):
    rc = main(["validity", str(corpus / "sec41.hfl"),
               "--bound", "max(i + 1, 1)", "--solver", solver_cmd(scripts),
               "--no-race", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["verdict"] == "Valid"
    assert out["stage"] == "chc"
    assert out["solver_verdict"] == "sat"


def test_validity_invalid_by_dual(tmp_path, scripts, capsys):
    f = tmp_path / "phi.hfl"
    # exists x >= 1. x = 0 is plainly invalid; the dual goal system is
    # trivially consistent, so the solver certifies the dual
    f.write_text("exists x >= 1. x = 0\n")
    rc = main(["validity", str(f), "--no-race", "--window", "8",
               "--solver", solver_cmd(scripts)])
    assert rc == 1


@pytest.mark.parametrize("mode", [[], ["--no-race"]])
def test_unsat_of_an_exact_system_refutes(tmp_path, scripts, capsys, mode):
    # built without mu-elimination, the system is equivalent to the
    # formula, and the solver's unsat at y = 5 is a counterexample that
    # window 2 does not reach
    f = tmp_path / "phi.hfl"
    f.write_text("forall y. (nu x: int -> prop. \\y: int. y < 5 /\\ "
                 "x(y + 1))(y)\n")
    assert main(["validity", str(f), "--window", "2", "--solver",
                 solver_cmd(scripts), "--format", "json", *mode]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert (doc["verdict"], doc["stage"], doc["bound"],
            doc["solver_verdict"]) == ("Invalid", "chc", "-", "unsat")


def test_unsat_after_mu_elimination_is_no_verdict(tmp_path, scripts,
                                                  capsys):
    # valid, but one unfolding is too few for i >= -1: an unsat of the
    # eliminated system only says the bound is too small
    f = tmp_path / "phi.hfl"
    f.write_text("forall i. (mu x: int -> prop. \\y: int. y <= -2 \\/ "
                 "x(y - 1))(i)\n")
    assert main(["validity", str(f), "--bound", "1", "--solver",
                 solver_cmd(scripts), "--no-race", "--format", "json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert (doc["verdict"], doc["solver_verdict"]) == ("Unknown", "unsat")


def test_two_walks_of_one_name_are_not_proved(tmp_path, scripts, capsys):
    # invalid: the second walk never meets 0.  Merged into one predicate
    # by their name, the dual's clauses lost the second walk, and the
    # solver's unsat on that exact system read as a refutation: Valid
    f = tmp_path / "phi.hfl"
    f.write_text("(mu x: int -> prop. \\y: int. y = 0 \\/ x(y - 1))(3) /\\ "
                 "(mu x: int -> prop. \\y: int. y = 0 \\/ x(y - 2))(3)\n")
    rc = main(["validity", str(f), "--solver", solver_cmd(scripts)])
    assert rc != 0
    assert capsys.readouterr().out.splitlines()[0] != "Valid"


def test_two_greatest_fixpoints_of_one_name(tmp_path, scripts, capsys):
    # each walk gets its own predicate, x and x1, and its own fact; the
    # second fails at y = 5, outside window 3
    f = tmp_path / "phi.hfl"
    f.write_text("(nu x: int -> prop. \\y: int. y >= 0 /\\ x(y + 1))(0) /\\ "
                 "(nu x: int -> prop. \\y: int. y < 5 /\\ x(y + 1))(0)\n")
    assert main(["validity", str(f), "--no-race", "--window", "3",
                 "--solver", solver_cmd(scripts), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert (doc["verdict"], doc["stage"], doc["bound"],
            doc["solver_verdict"]) == ("Invalid", "chc", "-", "unsat")
    assert main(["to-chc", str(f)]) == 0
    assert capsys.readouterr().out == """(set-logic HORN)
(declare-fun x (Int) Bool)
(declare-fun x1 (Int) Bool)
(assert (forall ((y Int)) (=> (< y 0) (x y))))
(assert (forall ((y Int)) (=> (x (+ y 1)) (x y))))
(assert (forall ((y Int)) (=> (>= y 5) (x1 y))))
(assert (forall ((y Int)) (=> (x1 (+ y 1)) (x1 y))))
(assert (=> (x 0) false))
(assert (=> (x1 0) false))
(check-sat)
"""


def test_two_foralls_under_a_disjunction(tmp_path, scripts, capsys):
    # invalid; with one clause variable for both foralls the goal body
    # y <= 0 /\\ y > 0 could never hold, and the system's sat read Valid
    f = tmp_path / "phi.hfl"
    f.write_text("(forall y. y > 0) \\/ (forall y. y <= 0)\n")
    assert main(["validity", str(f), "--no-race", "--window", "3",
                 "--solver", solver_cmd(scripts), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert (doc["verdict"], doc["stage"], doc["solver_verdict"]) == \
        ("Invalid", "chc", "unsat")


def test_validity_smt2_input(corpus, scripts, capsys):
    # a HORN script is read through chc_to_hfl, and its system, extracted
    # again without mu-elimination, is proved by the solver's sat
    assert main(["validity", str(corpus / "mult.smt2"), "--window", "4",
                 "--no-race", "--solver", solver_cmd(scripts),
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["verdict"], doc["stage"], doc["bound"]) == \
        ("Valid", "chc", "-")


@pytest.mark.parametrize("mode", [[], ["--no-race"]])
def test_validity_preds_stage(corpus, capsys, mode):
    assert main(["validity", str(corpus / "sec42.hfl"), "--preds",
                 str(corpus / "sec42.preds"), "--format", "json",
                 *mode]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["verdict"], doc["stage"]) == ("Valid", "abstract+check_pure")


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: the window oracle of abstract_predicates only checks "
    "y in [-16, 16], so it proves y > 0 preserved by a walk that fails at "
    "y = 100"))
@pytest.mark.parametrize("mode", [[], ["--no-race"]])
def test_preds_stage_proves_no_invalid_walk(tmp_path, capsys, mode):
    f, preds = tmp_path / "phi.hfl", tmp_path / "phi.preds"
    f.write_text("(nu x: int -> prop. \\y: int. y < 100 /\\ x(y + 1))(1)\n")
    preds.write_text("y: y > 0\n")
    main(["validity", str(f), "--preds", str(preds), *mode])
    assert capsys.readouterr().out.splitlines()[0] != "Valid"


def test_validity_program(corpus, capsys):
    rc = main(["validity", str(corpus / "mfile.lts"),
               str(corpus / "file_rec.prog"), "--no-race"])
    assert rc == 0
    rc = main(["validity", str(corpus / "mfile.lts"),
               str(corpus / "file_mutated.prog"), "--no-race"])
    assert rc == 1


def test_validity_race_matches_no_race(corpus, scripts, capsys):
    args = ["validity", str(corpus / "sec41.hfl"),
            "--bound", "max(i + 1, 1)", "--solver", solver_cmd(scripts)]
    rc_race = main(args)
    rc_serial = main(args + ["--no-race"])
    assert rc_race == rc_serial == 0


def test_validity_unknown_without_solver(tmp_path, capsys):
    f = tmp_path / "phi.hfl"
    # valid, but not certifiable by any window and no solver configured
    f.write_text("forall x. x <= 0 \\/ x >= 1\n")
    assert main(["validity", str(f), "--no-race", "--bound", "1,2"]) == 2


def test_validity_without_solver_evaluates_only_the_window(
        tmp_path, monkeypatch, capsys):
    # valid, but its unfolding from 100 leaves window 8; no stage after
    # the window evaluation can decide it without a solver, and no
    # environment variable supplies one (this one names a solver that
    # answers sat to anything)
    monkeypatch.setenv("HFLMC_SOLVER",
                       f"{sys.executable} -c \"print('sat')\" {{file}}")
    f = tmp_path / "phi.hfl"
    f.write_text("(mu x: int -> prop. \\y: int. y <= 0 \\/ x(y - 1))(100)\n")
    assert main(["validity", str(f), "--no-race", "--window", "8",
                 "--format", "json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "Unknown"
    assert list(doc["timings"]) == ["eval_bounded"]


_WALK = "(mu x: int -> prop. \\y: int. y <= 0 \\/ x(y - 1))(3)"

# formula (or corpus file), options, exit code, JSON stage, bound and
# solver verdict, and the report's time[...] keys in order
_STAGE_REPORTS = {
    "check_pure": (
        "<read> <close> <end> true", ["{corpus}/mfile.lts"], 0,
        "check_pure", None, None, ["check_pure"]),
    "eval_bounded": (
        _WALK, ["--window", "8"], 0,
        "eval_bounded", 8, None, ["eval_bounded"]),
    "chc_schedule": (
        "sec41.hfl", ["--bound", "1,max(i+1,1)", "--solver", "{solver}"], 0,
        "chc", "max(i+1,1)", "sat",
        ["eval_bounded", "chc[n=1]", "chc[n=max(i+1,1)]"]),
    "chc_exact": (
        "forall y. (nu x: int -> prop. \\y: int. y < 5 /\\ x(y + 1))(y)",
        ["--window", "2", "--solver", "{solver}"], 1,
        "chc", "-", "unsat", ["eval_bounded", "chc[n=-]"]),
    "abstract": (
        "sec42.hfl", ["--preds", "{corpus}/sec42.preds"], 0,
        "abstract+check_pure", None, None,
        ["eval_bounded", "abstract", "abstract+check_pure"]),
    "unknown": (
        "forall i. (mu x: int -> prop. \\y: int. y <= -2 \\/ x(y - 1))(i)",
        ["--bound", "1", "--solver", "{solver}"], 2,
        "", None, "unsat", ["eval_bounded", "chc[n=1]"]),
}


@pytest.mark.parametrize("mode", [[], ["--no-race"]])
@pytest.mark.parametrize("case", list(_STAGE_REPORTS))
def test_report_of_every_stage(corpus, scripts, tmp_path, capsys, case,
                               mode):
    text, options, rc, stage, bound, solver, keys = _STAGE_REPORTS[case]
    f = corpus / text
    if not text.endswith(".hfl"):
        f = tmp_path / "phi.hfl"
        f.write_text(text + "\n")
    argv = ["validity", str(f), *mode] + [
        o.format(corpus=corpus, solver=solver_cmd(scripts)) for o in options]
    assert main(argv) == rc
    lines = capsys.readouterr().out.splitlines()
    verdict = ["Valid", "Invalid", "Unknown"][rc]
    # an Unknown report names no stage, but shows the solver's answer and
    # the timings, as its JSON does
    head = [verdict]
    if stage:
        head.append(f"  stage: {stage}")
    if bound is not None:
        head.append(f"  bound: {bound}")
    if solver:
        head.append(f"  solver: {solver}")
    assert lines[:len(head)] == head
    assert [line[len("  time["):line.rindex("]:")]
            for line in lines[len(head):]] == keys
    assert main(argv + ["--format", "json"]) == rc
    doc = json.loads(capsys.readouterr().out)
    assert (doc["verdict"], doc["stage"], doc["bound"],
            doc["solver_verdict"]) == (verdict, stage, bound, solver)
    assert sorted(doc["timings"]) == sorted(keys)


@pytest.mark.parametrize("answer", ["sat", "unsat"])
def test_sides_that_disagree_are_a_soundness_bug(tmp_path, monkeypatch,
                                                 capsys, answer):
    # neither side decides 100 > 0 in window 2, and the stub gives both
    # sides' exact systems the same answer once both have asked: sat
    # proves the formula and its dual, unsat refutes both
    both_asked = threading.Barrier(2, timeout=30)

    def stub(system, command, timeout, cancel):
        both_asked.wait()
        return SolverVerdict(answer)
    monkeypatch.setattr(cli, "solve_external", stub)
    f = tmp_path / "phi.hfl"
    f.write_text("100 > 0\n")
    assert main(["validity", str(f), "--window", "2",
                 "--solver", "x {file}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("soundness bug: ")


def test_no_race_leaves_the_dual_alone_once_the_formula_is_decided(
        tmp_path, monkeypatch, capsys):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return eval_bounded(*args, **kwargs)
    monkeypatch.setattr(cli, "eval_bounded", counted)
    f = tmp_path / "phi.hfl"
    f.write_text(_WALK + "\n")
    assert main(["validity", str(f), "--no-race", "--window", "8"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "Valid"
    assert len(calls) == 1


def test_bound_schedule_keeps_templates_whole(corpus, scripts, capsys):
    assert main(["validity", str(corpus / "sec41.hfl"),
                 "--bound", "1, max(i + 1, 1)",
                 "--solver", solver_cmd(scripts), "--no-race"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "Valid"
    assert "  bound: max(i + 1, 1)" in lines


def test_malformed_bound_entry_is_an_error(corpus, capsys):
    assert main(["validity", str(corpus / "sec41.hfl"),
                 "--bound", "1,x*y"]) == 3
    assert main(["elim-mu", str(corpus / "sec41.hfl"), "--bound", "1,"]) == 3
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("bound, col", [
    ("1,,2", 3), ("max(i+1, 1),, 2", 13), ("1, max(", 8)])
def test_bound_errors_count_columns_from_the_option(corpus, capsys, bound,
                                                    col):
    assert main(["validity", str(corpus / "sec41.hfl"),
                 "--bound", bound]) == 3
    assert capsys.readouterr().err.startswith(f"error: 1:{col}: ")


@pytest.mark.parametrize("mode", [[], ["--no-race"]])
def test_a_bound_naming_no_binder_is_an_error(corpus, scripts, capsys, mode):
    # a typo, j for i: an error before either side starts, not Unknown
    assert main(["validity", str(corpus / "sec41.hfl"),
                 "--bound", "max(j + 1, 1)", "--solver", solver_cmd(scripts),
                 *mode]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: bound 'max(j + 1, 1)' names 'j', which is no integer binder "
        "of the formula"]


@pytest.mark.parametrize("mode", [[], ["--no-race"]])
def test_a_bound_out_of_scope_at_a_fixpoint_is_skipped(corpus, scripts,
                                                       capsys, mode):
    # y is the mu's own parameter, bound inside it: the entry cannot be
    # instantiated there, so the CHC stage skips it
    assert main(["validity", str(corpus / "sec41.hfl"),
                 "--bound", "max(y + 1, 1)", "--solver", solver_cmd(scripts),
                 *mode]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "Unknown"
    assert captured.err == ""


_OPTIONS = {
    "typecheck": "polarity", "dualize": "polarity", "to-chc": "polarity",
    "translate": "polarity", "from-chc": "",
    "elim-mu": "polarity bound style",
    "check": "polarity lts table_cap format",
    "eval": "polarity lts window table_cap format",
    "abstract": "polarity preds solver timeout window",
    "validity": "polarity lts window bound solver timeout table_cap preds "
                "no_race format",
}


@pytest.mark.parametrize("command", list(_OPTIONS))
def test_each_command_takes_only_the_options_it_reads(command):
    args = build_parser().parse_args([command, "f.hfl"])
    assert set(vars(args)) - {"command", "inputs"} == \
        set(_OPTIONS[command].split())


@pytest.mark.parametrize("argv", [
    "validity {c}/sec41.hfl --window abc",
    "validity {c}/sec41.hfl --bogus",
    "typecheck {c}/sec41.hfl --window 3",
    "elim-mu {c}/sec41.hfl --lts {c}/mfile.lts",
])
def test_usage_error_is_an_error_not_unknown(corpus, capsys, argv):
    assert main(argv.format(c=corpus).split()) == 3
    assert "error: " in capsys.readouterr().err.splitlines()[-1]


def test_inputs_may_follow_an_option(corpus, tmp_path, capsys):
    f = tmp_path / "phi.hfl"
    f.write_text("<read> <read> <close> <end> true\n")
    mfile = str(corpus / "mfile.lts")
    outputs = []
    for argv in (["check", mfile, str(f), "--table-cap", "5"],
                 ["check", mfile, "--table-cap", "5", str(f)],
                 ["check", "--format", "json", mfile, str(f)],
                 ["check", mfile, "--format", "json", str(f)]):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == "Valid\n"
    assert outputs[2] == outputs[3]
    assert main(["check", mfile, "--table-cap", "5", str(f), "--bogus"]) == 3
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err


def test_help_is_no_error(capsys):
    assert main(["validity", "--help"]) == 0


def test_one_formula_input_and_at_most_one_model(corpus, capsys):
    even, sec41, mfile = (
        str(corpus / f) for f in ("even.hfl", "sec41.hfl", "mfile.lts"))
    assert main(["typecheck", even, sec41]) == 3
    assert main(["typecheck", mfile, even]) == 3
    assert main(["check", mfile, even, "--lts", mfile]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: typecheck takes one formula input, got 2",
        "error: typecheck reads no .lts model",
        "error: check reads one .lts model"]


def test_error_exit_codes(tmp_path, capsys):
    f = tmp_path / "broken.hfl"
    f.write_text("mu x. x\n")
    assert main(["typecheck", str(f)]) == 3
    assert main(["check", str(tmp_path / "missing.hfl")]) == 3
    assert "error:" in capsys.readouterr().err


def test_json_format(corpus, capsys):
    # the upward nu-walk escapes any window, so this is Unknown
    assert main(["eval", str(corpus / "sec42.hfl"),
                 "--window", "4", "--format", "json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "Unknown"
    assert "timings" in doc


def test_deep_formula_is_an_error_not_a_verdict(tmp_path, capsys):
    f = tmp_path / "deep.hfl"
    f.write_text(" /\\ ".join(["true"] * 3000) + "\n")
    assert main(["validity", str(f)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_closed_stdout_keeps_the_verdict_exit_code(corpus):
    # `hflz validity ... | head -0`: the reader is gone before the verdict
    # is printed, which is no error, and the exit code is still Unknown's
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hflz.cli", "validity",
             str(corpus / "sec41.hfl"), "--window", "4"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, "")


@pytest.mark.parametrize("mode", [[], ["--no-race"]])
def test_failing_side_is_an_error_in_both_modes(tmp_path, capsys, mode):
    # the walk's table needs entries 0 to 3, and a cap of 1 allows one
    f = tmp_path / "e.hfl"
    f.write_text("(mu x: int -> prop. \\y: int. y = 3 \\/ x(y + 1))(0)\n")
    assert main(["validity", str(f), "--table-cap", "1", *mode]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.splitlines() == [
        "error: fixpoint table exceeded the configured cap 1"]


def test_inapplicable_elimination_stage_is_skipped(corpus, scripts, capsys):
    # file_rec's mu binder has type int -> prop -> prop, which
    # hfl_to_chc rejects; the CHC stage is skipped at every bound, and at
    # window 8 no other stage decides the formula
    assert main(["validity", str(corpus / "file_rec.prog"),
                 "--lts", str(corpus / "mfile.lts"), "--window", "8",
                 "--solver", solver_cmd(scripts)]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "Unknown"
    assert captured.err == ""
