import pytest

from hflz.lts import parse_lts
from hflz.parser import parse_formula
from hflz.pretty import to_text
from hflz.programs import ProgramError, parse_program, translate_program
from hflz.semantics import check_pure, eval_bounded
from hflz.syntax import PROP, alpha_eq, typecheck


def test_straight_line_program(corpus):
    prog = parse_program((corpus / "file_straight.prog").read_text())
    phi = translate_program(prog)
    assert to_text(phi) == "<read> <read> <close> <end> true"
    m = parse_lts((corpus / "mfile.lts").read_text())
    assert check_pure(m, phi)


def test_recursive_program(corpus):
    prog = parse_program((corpus / "file_rec.prog").read_text())
    phi = translate_program(prog)
    assert to_text(phi) == (
        "(mu f: int -> prop -> prop. \\(n: int, k: prop). "
        "(n > 0 \\/ <close> k) /\\ (n <= 0 \\/ <read> f(n - 1, k)))"
        "(10, <end> true)")
    m = parse_lts((corpus / "mfile.lts").read_text())
    assert eval_bounded(phi, 16, lts=m)


def test_mutated_program_violates_protocol(corpus):
    prog = parse_program((corpus / "file_mutated.prog").read_text())
    phi = translate_program(prog)
    m = parse_lts((corpus / "mfile.lts").read_text())
    assert not check_pure(m, phi)


def test_handle_arguments_are_dropped():
    # the file handle x is a bare identifier bound nowhere: it disappears
    a = translate_program(parse_program(
        "events: read close end\nmain = read x (close x ())\n"))
    b = translate_program(parse_program(
        "events: read close end\nmain = read (close ())\n"))
    assert alpha_eq(a, b)


def test_semicolon_event_form():
    phi = translate_program(parse_program(
        "events: a b\nmain = a x; b x; ()\n"))
    assert to_text(phi) == "<a> <b> <end> true"


def test_parameter_kind_inference():
    prog = parse_program(
        "events: tick\n"
        "let rec loop n k = if n <= 0 then k else tick (loop (n - 1) k)\n"
        "main = loop 3 ()\n")
    phi = translate_program(prog)
    assert to_text(phi) == (
        "(mu loop: int -> prop -> prop. \\(n: int, k: prop). "
        "(n > 0 \\/ k) /\\ (n <= 0 \\/ <tick> loop(n - 1, k)))"
        "(3, <end> true)")


def test_kind_inference_through_call_sites():
    # f never uses n arithmetically, but passes it to g's integer slot
    prog = parse_program(
        "events: e\n"
        "let g m k = if m <= 0 then k else k\n"
        "let f n k = g n k\n"
        "main = f 2 ()\n")
    phi = translate_program(prog)
    m = parse_lts("states: s t\ninitial: s\ntrans:\n s end t\n")
    assert eval_bounded(phi, 8, lts=m)


def test_kind_inference_from_caller_to_callee():
    # g never uses m, but f passes its integer n to g's slot
    prog = parse_program(
        "events: e\n"
        "let g m k = k\n"
        "let f n k = if n <= 0 then k else g n k\n"
        "main = f 2 ()\n")
    phi = translate_program(prog)
    assert typecheck(phi) == PROP


def test_polarity_flag():
    text = "events: e\nlet rec spin k = e (spin k)\nmain = spin ()\n"
    mu = translate_program(parse_program(text), polarity="mu")
    nu = translate_program(parse_program(text), polarity="nu")
    assert to_text(mu).startswith("(mu ")
    assert to_text(nu).startswith("(nu ")
    # over a model with an e self-loop the non-terminating loop holds
    # under nu but not under mu
    m = parse_lts("states: s\ninitial: s\ntrans:\n s e s\n")
    assert not eval_bounded(mu, 0, lts=m)
    assert eval_bounded(nu, 0, lts=m)
    with pytest.raises(ProgramError, match="polarity"):
        translate_program(parse_program(text), polarity="pi")


def test_if_condition_translation():
    phi = translate_program(parse_program(
        "events: a b\nlet f n = if n = 0 then a () else b ()\nmain = f 0\n"))
    expected = parse_formula(
        r"(mu f: int -> prop. \n: int. (n != 0 \/ <a> <end> true)"
        r" /\ (n = 0 \/ <b> <end> true))(0)")
    assert alpha_eq(phi, expected)


def test_default_events_and_end():
    prog = parse_program("main = read (close ())\n")
    assert "end" in prog.events
    phi = translate_program(prog)
    assert to_text(phi) == "<read> <close> <end> true"


def test_errors():
    with pytest.raises(ProgramError, match="main"):
        parse_program("let f x = x\n")
    with pytest.raises(ProgramError, match="duplicate"):
        parse_program("let f k = k\nlet f k = k\nmain = f ()\n")
    with pytest.raises(ProgramError):
        parse_program("main = f ()\nlet f k n = k\n"
                      "let g = h\n")  # unknown h
    with pytest.raises(ProgramError):
        # arity mismatch at the call site
        translate_program(parse_program(
            "let f n k = k\nmain = f ()\n"))
