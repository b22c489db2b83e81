import pytest

from hflz.lts import Lts, LtsFormatError, parse_lts, trivial_model


GOOD = """\
states: q0 q1 q2
labels: read close end
initial: q0
trans:
  q0 read q0
  q0 close q1
  q1 end q2
"""


def test_parse():
    m = parse_lts(GOOD)
    assert m.states == ("q0", "q1", "q2")
    assert m.initial == "q0"
    assert m.successors("q0", "read") == {"q0"}


def test_trivial_model():
    m = trivial_model()
    assert m.states == ("*",)
    assert m.transitions == frozenset()
    assert m.initial == "*"
    # one shared instance, so its index is built once per process
    assert trivial_model() is m


def test_labels_inferred_when_undeclared():
    m = parse_lts("states: a b\ninitial: a\ntrans:\n a x b\n")
    assert m.labels == frozenset({"x"})


def test_errors():
    with pytest.raises(LtsFormatError, match="initial"):
        parse_lts("states: a\ntrans:\n")
    with pytest.raises(LtsFormatError, match="undeclared"):
        parse_lts("states: a\nlabels: x\ninitial: a\ntrans:\n a y a\n")
    with pytest.raises(LtsFormatError, match="duplicate"):
        parse_lts("states: a a\ninitial: a\n")
    with pytest.raises(LtsFormatError, match="src label dst"):
        parse_lts("states: a\ninitial: a\ntrans:\n a b\n")
    with pytest.raises(LtsFormatError):
        Lts(states=("a",), labels=frozenset(), transitions=frozenset(),
            initial="b")


def test_nondeterminism_allowed():
    m = parse_lts("states: a b c\ninitial: a\ntrans:\n a x b\n a x c\n")
    assert m.successors("a", "x") == {"b", "c"}
