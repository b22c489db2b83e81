import pytest

from hflz.parser import HflSyntaxError, parse_bound, parse_formula
from hflz.pretty import to_text
from hflz.syntax import (
    Add, Atom, Exists, Forall, IConst, INT, IVar, PROP, Sub, alpha_eq, arrow,
)


def rt(text, env=None):
    phi = parse_formula(text, env)
    again = parse_formula(to_text(phi), env)
    assert alpha_eq(phi, again), to_text(phi)
    return phi


def test_round_trips():
    rt(r"nu x: prop -> prop. \y: prop. y \/ <a> x(<b> y)")
    rt(r"mu x: int -> prop. \y: int. y = 0 \/ x(y - 2)")
    rt(r"forall i. (mu x: int -> prop. \y: int. y <= 0 \/ x(y - 1))(i)")
    rt(r"forall u >= max(i + 1, 1). u >= 0", {"i": INT})
    rt(r"exists x >= 0. x = 3")
    rt(r"[a] false /\ <b> true \/ true")
    rt(r"\(x: int, y: int). x <= y")


def test_precedence():
    phi = parse_formula(r"true /\ false \/ true")
    # /\ binds tighter than \/
    assert to_text(phi) == r"true /\ false \/ true"
    assert to_text(parse_formula(r"true /\ (false \/ true)")) == \
        r"true /\ (false \/ true)"


def test_modal_and_application():
    phi = parse_formula(r"<a> p(1, x + 2)", {"p": arrow(INT, INT, PROP),
                                             "x": INT})
    assert to_text(phi) == "<a> p(1, x + 2)"


def test_binder_annotation_required():
    with pytest.raises(HflSyntaxError, match="type annotation missing"):
        parse_formula(r"mu x. x")
    with pytest.raises(HflSyntaxError, match="type annotation missing"):
        parse_formula(r"\y. y")


def test_multiplication_refused_with_hint():
    with pytest.raises(HflSyntaxError, match="ternary predicate"):
        parse_formula("x * y <= 3", {"x": INT, "y": INT})


def test_unbound_variable():
    with pytest.raises(HflSyntaxError, match="unbound variable 'z'"):
        parse_formula("z <= 3")


@pytest.mark.parametrize("text, position", [
    pytest.param("true /\\\n(", "2:2", id="newline"),
    pytest.param("# comment\ntrue /\\ )", "2:9", id="comment-line"),
    pytest.param("true /\\\t\t)", "1:10", id="tabs"),
    pytest.param("true\r\n/\\ )", "2:4", id="crlf"),
    # the end of input stays before a comment that ends the text
    pytest.param("true /\\ # end", "1:9", id="trailing-comment"),
])
def test_error_positions(text, position):
    with pytest.raises(HflSyntaxError, match=f"^{position}: "):
        parse_formula(text)


def test_a_numeral_is_not_the_int_keyword():
    with pytest.raises(HflSyntaxError, match="expected a type"):
        parse_formula(r"(\x: 5. x = 0)(1)")
    with pytest.raises(HflSyntaxError, match="^1:1: "):
        parse_formula("int = 0")


def test_quantifier_sugar_structure():
    phi = parse_formula("exists x >= 0. x = 3")
    assert isinstance(phi, Exists)
    assert phi.lower == (IConst(0),)
    psi = parse_formula("forall u >= max(i + 1, 1). u >= 0", {"i": INT})
    assert isinstance(psi, Forall)
    assert len(psi.lower) == 2


def test_tuple_splicing():
    phi = parse_formula(r"(\(x: int, y: int). x <= y)(1, 2)")
    from hflz.syntax import App
    assert isinstance(phi, App) and isinstance(phi.fun, App)


def test_int_expr_parsing():
    assert parse_bound("x + 2 - 3") == (
        Sub(Add(IVar("x"), IConst(2)), IConst(3)),)


def test_comments_and_apostrophes():
    phi = parse_formula("# leading comment\nx' <= 0", {"x'": INT})
    assert isinstance(phi, Atom)
