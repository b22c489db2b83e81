import re

import pytest
from hypothesis import given, settings, strategies as st

from hflz.lts import parse_lts
from hflz.parser import parse_formula
from hflz.pretty import to_text
from hflz.programs import ProgramError, parse_program, translate_program
from hflz.semantics import check_pure, eval_bounded
from hflz.syntax import INT, PROP, alpha_eq, typecheck


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
    phi = translate_program(parse_program(
        "events: read close\nmain = read fh; close fh ()\n"))
    assert to_text(phi) == "<read> <close> <end> true"


@pytest.mark.parametrize("text", [
    "events: read close\nmain = read (close ()); ()\n",
    "events: a\nmain = a 3 7; ()\n",
    "events: a\nlet f k = a k; k\nmain = f ()\n",
])
def test_semicolon_event_takes_only_handles(text):
    # an argument before ';' other than a handle would be lost
    with pytest.raises(ProgramError, match="only file handles"):
        translate_program(parse_program(text))


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


@pytest.mark.parametrize("text, position, message", [
    pytest.param("events: a\nlet f n k =\n  if n <= 0 then k\n  k\n"
                 "main = f 1 ()\n", "5:1", "expected 'else', found 'main'",
                 id="missing-else"),
    pytest.param("main = f @ 1\n", "1:10", "unexpected character '@'",
                 id="bad-character"),
    pytest.param("events: ( )\nmain = ()\n", "1:9",
                 "expected 'ident', found '('", id="symbol-event"),
    pytest.param("let main x = x\nmain = ()\n", "1:5",
                 "expected 'ident', found 'main'", id="keyword-definition"),
    pytest.param("let if x = x\n", "1:5", "expected 'ident', found 'if'",
                 id="keyword-if-definition"),
    pytest.param("let f k then = k\nmain = f ()\n", "1:9",
                 "expected 'ident', found 'then'", id="keyword-parameter"),
    pytest.param("let f k = k\nlet g k = k\nlet f k = k\nmain = f ()\n",
                 "3:5", "duplicate definition 'f'", id="duplicate"),
    pytest.param("main = 1 +\n\t()\n", "1:10",
                 "expected an integer expression, got ()",
                 id="unit-operand"),
    pytest.param("main = f () + 1\n", "1:13",
                 "expected an integer expression, got a call of f",
                 id="call-operand"),
    pytest.param("main = (if 1 < 2 then () else ()) + 1\n", "1:35",
                 "expected an integer expression, got a conditional",
                 id="conditional-operand"),
    pytest.param("main = (f ()\n", "2:1", "expected ')', found 'end of input'",
                 id="unclosed"),
    pytest.param("events: read\nlet g j k = read (g 3 j)\nmain = g (()) 1\n",
                 "3:1", "parameter j of g used both as an integer and as a "
                 "continuation", id="kind-conflict-in-main"),
    pytest.param("events: a\nlet g m k = if m <= 0 then k else a k\n"
                 "  let u k = g () k\nmain = g 1 ()\n", "3:3",
                 "parameter m of g used both as an integer and as a "
                 "continuation", id="kind-conflict-in-a-definition"),
])
def test_error_positions(text, position, message):
    with pytest.raises(ProgramError,
                       match=f"^{position}: {re.escape(message)}$"):
        parse_program(text)


@pytest.mark.parametrize("text, message", [
    ("main = 1\n", "expected an expression, got an integer expression"),
    ("main = 1 < 2\n", "expected an expression, got a comparison"),
])
def test_main_must_be_an_expression(text, message):
    with pytest.raises(ProgramError, match=f"^{re.escape(message)}$"):
        translate_program(parse_program(text))


def test_arithmetic_errors():
    # an operand that is not an integer expression is a syntax error
    with pytest.raises(ProgramError, match="expected an integer expression"):
        parse_program("events: a\nlet f k = k\nmain = f () + 1\n")
    prog = parse_program("main = if y <= 0 then () else ()\n")
    with pytest.raises(ProgramError, match="'y' is not an integer parameter"):
        translate_program(prog)
    prog = parse_program("let f n k = if n then k else k\nmain = f 1 ()\n")
    with pytest.raises(ProgramError, match="linear comparison"):
        translate_program(prog)


def test_primed_definition_names():
    phi = translate_program(parse_program(
        "events: a\nlet f' k = a k\nmain = f' ()\n"))
    assert to_text(phi) == \
        "(mu f': prop -> prop. \\k: prop. <a> k)(<end> true)"


# ---------------------------------------------------------------------------
# The kind rule


@pytest.mark.parametrize("h_body, f_body", [
    # h compares its m: the kind flows back from h through g to f
    ("if m <= 0 then k else k", "g m k"),
    # f compares its m: the kind flows on from f through g to h
    ("k", "if m <= 0 then k else g m k"),
])
def test_kind_reaches_a_parameter_through_two_calls(h_body, f_body):
    text = (f"events: a\nlet h m k = {h_body}\nlet g m k = h m k\n"
            f"let f m k = {f_body}\n")
    # main passes no number that would fix a kind itself
    prog = parse_program(text + "main = ()\n")
    for d in prog.definitions:
        assert d.params == (("m", INT), ("k", PROP)), d.name
    phi = translate_program(parse_program(text + "main = f 2 ()\n"))
    assert typecheck(phi) == PROP


def test_kind_conflict_in_an_uncalled_definition():
    # u is never called, but passes () where g compares an integer
    text = ("events: a\n"
            "let g m k = if m <= 0 then k else a k\n"
            "let u k = g () k\n"
            "main = g 1 ()\n")
    with pytest.raises(ProgramError, match="parameter m of g used both as an "
                       "integer and as a continuation"):
        parse_program(text)


def test_call_of_a_later_definition():
    prog = parse_program(
        "events: a\nlet f k = g k\nlet g k = a k\nmain = f ()\n")
    with pytest.raises(ProgramError, match="'g' is defined below 'f': a "
                       "definition may call only itself and the definitions "
                       "above it"):
        translate_program(prog)


def test_continuation_parameters_take_no_arguments():
    prog = parse_program("events: a\nlet f k = k 1\nlet g k = k x\n"
                         "main = g ()\n")
    with pytest.raises(ProgramError, match="parameter k used as a function"):
        translate_program(prog)
    # x is a handle, so g's k takes nothing
    prog = parse_program("events: a\nlet g k = k x\nmain = g ()\n")
    assert to_text(translate_program(prog)) == \
        "(mu g: prop -> prop. \\k: prop. k)(<end> true)"


@st.composite
def programs(draw):
    """Small programs over the events a and b: up to three definitions,
    each of which may call itself and the ones before it, with conditions,
    handles and integer, continuation and handle arguments."""
    defs = [(name, ("n", "k", "m")[:draw(st.integers(0, 3))])
            for name in ("f", "g", "h")[:draw(st.integers(0, 3))]]

    def integer(params):
        e = draw(st.sampled_from(["1", "0"] + list(params)))
        return e if draw(st.booleans()) else f"({e} - 1)"

    def arg(depth, params, callees):
        kind = draw(st.sampled_from(["int", "cont", "handle", "param"]))
        if kind == "int":
            return integer(params)
        if kind == "handle":
            return "x"
        if kind == "param" and params:
            return draw(st.sampled_from(params))
        return f"({expr(depth - 1, params, callees)})"

    def expr(depth, params, callees):
        choices = ["unit", "event", "seq"] + (["if"] + ["call"] * 3
                                              if depth > 0 else [])
        if params:
            choices.append("param")
        match draw(st.sampled_from(choices)):
            case "unit":
                return "()"
            case "param":
                return draw(st.sampled_from(params))
            case "event" | "seq" as form:
                ev = draw(st.sampled_from(["a", "b"]))
                handle = " x" if draw(st.booleans()) else ""
                cont = expr(depth - 1, params, callees)
                return f"{ev}{handle}; {cont}" if form == "seq" else \
                    f"{ev}{handle} ({cont})"
            case "if":
                op = draw(st.sampled_from(["<=", "=", ">"]))
                return (f"if {integer(params)} {op} {integer(params)} "
                        f"then {expr(depth - 1, params, callees)} "
                        f"else {expr(depth - 1, params, callees)}")
            case "call":
                if not callees:
                    return "()"
                name, cparams = draw(st.sampled_from(callees))
                args = [arg(depth, params, callees) for _ in cparams]
                return " ".join([name] + args)

    lines = ["events: a b"]
    for i, (name, params) in enumerate(defs):
        body = expr(2, list(params), defs[:i + 1])
        lines.append(f"let {name} {' '.join(params)} = {body}")
    lines.append(f"main = {expr(2, [], defs)}")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(programs())
def test_every_translation_has_type_prop(text):
    try:
        prog = parse_program(text)
        formulas = [translate_program(prog, p) for p in ("mu", "nu")]
    except ProgramError:
        return
    for phi in formulas:
        assert typecheck(phi) == PROP
