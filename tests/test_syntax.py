import gc
import pathlib

import pytest

from hflz.syntax import (
    Add, And, App, Arrow, Atom, Box, Diamond, Exists, FALSE, Forall,
    HflTypeError, IConst, INT, INeg, IVar, Lambda, Mu, Nu, Or, PROP, Sub,
    TRUE, Var, alpha_eq, app, arrow, beta_step, beta_step_anywhere, children,
    dualize, eval_int, free_vars, int_vars, is_predicate_type, is_pure, lam,
    map_children, order_of, spine, subst_ints, substitute, typecheck,
    unfold_fixpoint, NotAFixpoint, NoRedex,
)
from hflz.chc import chc_to_hfl, hfl_to_chc
from hflz.parser import parse_formula
from hflz.pretty import to_text
from hflz.programs import parse_program, translate_program
from hflz.transforms import (
    BoundExpr, PredicateSet, WindowEntailment, abstract_predicates,
    desugar_quantifiers, eliminate_mu,
)


def test_arrow_result_must_be_predicate():
    with pytest.raises(HflTypeError):
        Arrow(PROP, INT)
    assert arrow(INT, INT, PROP) == Arrow(INT, Arrow(INT, PROP))


def test_order_of():
    assert order_of(PROP) == 0
    assert order_of(INT) == 0
    assert order_of(arrow(INT, PROP)) == 1
    assert order_of(arrow(arrow(PROP, PROP), PROP)) == 2
    assert order_of(arrow(INT, arrow(INT, PROP))) == 1
    assert is_predicate_type(arrow(INT, PROP))
    assert not is_predicate_type(INT)


def test_typecheck_examples():
    phi = parse_formula(r"nu x: prop -> prop. \y: prop. y \/ <a> x(<b> y)")
    assert typecheck(phi) == arrow(PROP, PROP)
    assert typecheck(parse_formula("true /\\ false")) == PROP
    with pytest.raises(HflTypeError):
        typecheck(App(parse_formula("true"), TRUE))


def test_typecheck_fixpoint_body_type_mismatch():
    bad = Mu("x", PROP, Lambda("y", PROP, Var("y", PROP)))
    with pytest.raises(HflTypeError):
        typecheck(bad)


def test_substitute_capture_avoiding():
    # (\y. x) [x := y] must not capture the free y
    inner = Lambda("y", PROP, Var("x", PROP))
    out = substitute(inner, {"x": Var("y", PROP)})
    assert isinstance(out, Lambda)
    assert out.var != "y"
    assert free_vars(out) == {"y"}


def test_substitute_int():
    phi = parse_formula("x <= 3", {"x": INT})
    out = substitute(phi, {"x": IConst(5)})
    assert out == Atom("<=", IConst(5), IConst(3))


def test_substitute_is_parallel():
    x, y = Var("x", PROP), Var("y", PROP)
    assert substitute(Or(x, Diamond("a", y)), {"x": y, "y": x}) == \
        Or(y, Diamond("a", x))
    phi = parse_formula("x <= y", {"x": INT, "y": INT})
    assert substitute(phi, {"x": IVar("y"), "y": IVar("x")}) == \
        Atom("<=", IVar("y"), IVar("x"))


def test_substitute_renames_a_capturing_binder():
    # (\y. x /\ y)[x := y, z := true]: the free y of the replacement must
    # stay free, so the binder y is renamed
    y = Var("y", PROP)
    phi = Lambda("y", PROP, And(Var("x", PROP), y))
    out = substitute(phi, {"x": y, "z": TRUE})
    assert out.var != "y"
    assert out.body == And(y, Var(out.var, PROP))
    # an integer binder is renamed the same way; below a binder that
    # shadows j, j is left alone
    i, j = IVar("i"), IVar("j")
    phi = Exists("i", And(Atom("<", i, j),
                          Exists("j", Atom("=", j, IConst(0)))))
    out = substitute(phi, {"j": i})
    assert out.var != "i"
    assert out.body == And(Atom("<", IVar(out.var), i), phi.body.rhs)


def test_substitute_keeps_the_type_errors():
    phi = parse_formula("(\\y: int. y <= 0)(x)", {"x": INT})
    with pytest.raises(HflTypeError, match="formula for integer variable"):
        substitute(phi, {phi.arg.name: TRUE})
    with pytest.raises(HflTypeError, match="integer expression for formula"):
        substitute(Var("p", PROP), {"p": IConst(1)})


_TWO_WALKS = (r"forall i. (mu x: int -> prop. \y: int. y <= 3 \/ x(y - 1))(i)"
              r" /\ (\v: int. exists j. (mu x: int -> prop. \y: int."
              r" y >= v \/ x(y + 1))(j))(3)")
_PHI, _COPY = parse_formula(_TWO_WALKS), parse_formula(_TWO_WALKS)
_DESUGARED = desugar_quantifiers(_PHI)
_ELIMINATED = eliminate_mu(_DESUGARED, BoundExpr.const(4))
_CLAUSES = hfl_to_chc(_ELIMINATED)
_NU_WALK = parse_formula(
    r"(nu x: int -> prop. \y: int. y >= 0 /\ x(y + 1))(1)")
_REDEX = parse_formula(r"<a> (\y: prop. y \/ <b> y)(true)")
_PROGRAM_TEXT = (pathlib.Path(__file__).resolve().parent.parent / "corpus"
                 / "file_rec.prog").read_text()
_PROGRAM = parse_program(_PROGRAM_TEXT)
_PASSES = {
    "substitute": lambda: substitute(_PHI.body, {_PHI.var: IConst(2)}),
    "eliminate_mu": lambda: eliminate_mu(_DESUGARED, BoundExpr.const(4)),
    "desugar_quantifiers": lambda: desugar_quantifiers(_PHI),
    "to_text": lambda: to_text(_PHI),
    "alpha_eq": lambda: alpha_eq(_PHI, _COPY),
    "hfl_to_chc": lambda: hfl_to_chc(_ELIMINATED),
    "chc_to_hfl": lambda: chc_to_hfl(_CLAUSES),
    "abstract_predicates": lambda: abstract_predicates(
        _NU_WALK, PredicateSet.parse("y: y > 0"), WindowEntailment(4)),
    "beta_step_anywhere": lambda: beta_step_anywhere(_REDEX),
    "parse_program": lambda: parse_program(_PROGRAM_TEXT),
    "translate_program": lambda: translate_program(_PROGRAM),
}


@pytest.mark.parametrize("name", list(_PASSES))
def test_pass_leaves_no_cyclic_garbage(name):
    # garbage in a cycle lives until the cyclic collector runs, so the
    # peak memory of a long pass would depend on when that happens
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            _PASSES[name]()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_dualize_involution_and_atoms():
    phi = parse_formula(
        r"forall i. (mu x: int -> prop. \y: int. y <= 0 \/ x(y - 1))(i)")
    assert alpha_eq(dualize(dualize(phi)), phi)
    assert dualize(parse_formula("x = 0", {"x": INT})) == \
        Atom("!=", IVar("x"), IConst(0))
    assert dualize(TRUE) == FALSE


def test_unfold_and_beta():
    phi = parse_formula(r"nu x: prop. <a> x")
    unf = unfold_fixpoint(phi)
    assert alpha_eq(unf, parse_formula(r"<a> nu x: prop. <a> x"))
    with pytest.raises(NotAFixpoint):
        unfold_fixpoint(TRUE)

    redex = App(Lambda("y", PROP, Or(Var("y", PROP), Var("y", PROP))), TRUE)
    assert beta_step(redex) == Or(TRUE, TRUE)
    with pytest.raises(NoRedex):
        beta_step(TRUE)
    with pytest.raises(NoRedex):
        beta_step_anywhere(TRUE)


def test_is_pure():
    assert is_pure(parse_formula(r"nu x: prop. <a> x \/ true"))
    assert not is_pure(parse_formula("x <= 3", {"x": INT}))
    assert not is_pure(parse_formula("exists x. x = 0"))


def test_alpha_eq_distinguishes():
    a = parse_formula(r"\y: prop. y")
    b = parse_formula(r"\z: prop. z")
    assert alpha_eq(a, b)
    c = parse_formula(r"\y: prop. true")
    assert not alpha_eq(a, c)


def test_app_lam_helpers():
    f = lam([("a", INT), ("b", INT)],
            Atom("<=", IVar("a"), IVar("b")))
    assert typecheck(f) == arrow(INT, INT, PROP)
    assert typecheck(app(f, IConst(1), IConst(2))) == PROP
    assert spine(app(f, IConst(1), IConst(2))) == (f, [IConst(1), IConst(2)])
    head, args = spine(app(f, IConst(1)))
    assert app(head, *args) == app(f, IConst(1))
    assert spine(f) == (f, [])


def _one_node_of_each_kind():
    """(node, its formula children) for each of the 14 formula kinds; App
    appears twice, with a formula and with an integer argument."""
    p, q = Var("p", PROP), Var("q", PROP)
    f = Var("f", arrow(PROP, PROP))
    g = Var("g", arrow(INT, PROP))
    atom = Atom("<=", IVar("x"), IConst(3))
    return [
        (p, []), (TRUE, []), (FALSE, []), (atom, []),
        (Or(p, q), [p, q]), (And(q, p), [q, p]),
        (Diamond("a", p), [p]), (Box("b", q), [q]),
        (Mu("m", PROP, p), [p]), (Nu("n", PROP, q), [q]),
        (Lambda("y", INT, atom), [atom]),
        (App(f, p), [f, p]), (App(g, Add(IVar("x"), IConst(1))), [g]),
        (Exists("x", atom, (IConst(0),)), [atom]),
        (Forall("x", atom, (IVar("z"),)), [atom]),
    ]


def test_map_children_and_children_agree_on_every_kind():
    nodes = _one_node_of_each_kind()
    assert len({type(n) for n, _ in nodes}) == 14
    for node, kids in nodes:
        assert children(node) == kids
        assert map_children(node, lambda c: c) == node
        seen = []
        map_children(node, lambda c: seen.append(c) or c)
        assert seen == kids
        replaced = map_children(node, lambda c: TRUE)
        assert type(replaced) is type(node)
        assert children(replaced) == [TRUE] * len(kids)
    # integer arguments and quantifier bounds are kept as they are
    int_app = App(Var("g", arrow(INT, PROP)), IVar("x"))
    assert map_children(int_app, lambda c: TRUE) == App(TRUE, IVar("x"))
    bounded = Forall("x", TRUE, (IVar("z"),))
    assert map_children(bounded, lambda c: FALSE) == \
        Forall("x", FALSE, (IVar("z"),))
    with pytest.raises(TypeError):
        map_children(IConst(1), lambda c: c)


def test_int_kernel():
    e = Add(IVar("x"), Sub(IVar("y"), INeg(IVar("x"))))
    assert int_vars(e) == ["x", "y", "x"]
    assert eval_int(e, {"x": 2, "y": 5}) == 9
    # parallel: swapping x and y turns x - y into y - x
    swapped = subst_ints(Sub(IVar("x"), IVar("y")),
                         {"x": IVar("y"), "y": IVar("x")})
    assert swapped == Sub(IVar("y"), IVar("x"))


def test_beta_step_anywhere_reduces_leftmost_outermost():
    idp = Lambda("y", PROP, Var("y", PROP))
    left, right = App(idp, TRUE), App(idp, FALSE)
    assert beta_step_anywhere(Or(left, right)) == Or(TRUE, right)
    # the outer redex goes first; the one in its body is kept
    inner = App(Lambda("z", PROP, Var("z", PROP)), Var("y", PROP))
    outer = App(Lambda("y", PROP, inner), TRUE)
    assert beta_step_anywhere(outer) == \
        App(Lambda("z", PROP, Var("z", PROP)), TRUE)
    # a redex in the argument waits for the one in the function position
    pp = arrow(PROP, PROP)
    nested = App(App(Lambda("x", pp, Var("x", pp)),
                     Lambda("w", PROP, Var("w", PROP))), right)
    assert beta_step_anywhere(nested) == \
        App(Lambda("w", PROP, Var("w", PROP)), right)
