"""Finite labeled transition systems and their text format."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .syntax import HflError


class LtsFormatError(HflError):
    pass


# A label's predecessor index: masks[i] is the set of states with a
# transition into state i (bit j stands for states[j]); tables[k] maps a
# byte value v to the union of masks[8k + j] over the bits j set in v,
# each entry filled on first use.
PreIndex = tuple[list[int], list[dict[int, int]]]


def pre_image(index: PreIndex | None, b: int) -> int:
    """The states with a label-transition into the state set b: the union
    of the table entries of b's nonzero bytes."""
    if index is None:
        return 0
    masks, tables = index
    out = 0
    for k, v in enumerate(b.to_bytes(len(tables), "little")):
        if v:
            m = tables[k].get(v)
            if m is None:
                m, bits, base = 0, v, 8 * k
                while bits:
                    low = bits & -bits
                    m |= masks[base + low.bit_length() - 1]
                    bits ^= low
                # two threads filling one entry write the same value
                tables[k][v] = m
            out |= m
    return out


@dataclass(frozen=True)
class Lts:
    """States keep declaration order; determinism is not required."""

    states: tuple[str, ...]
    labels: frozenset[str]
    transitions: frozenset[tuple[str, str, str]]
    initial: str

    def __post_init__(self):
        declared = set(self.states)
        if len(declared) != len(self.states):
            raise LtsFormatError("duplicate state ids")
        if self.initial not in declared:
            raise LtsFormatError(f"initial state {self.initial!r} not declared")
        # sorted, so that of several faults the same one is always named
        for src, lbl, dst in sorted(self.transitions):
            for s in (src, dst):
                if s not in declared:
                    raise LtsFormatError(f"undeclared state {s!r} in "
                                         f"transition {src} {lbl} {dst}")
            if lbl not in self.labels:
                raise LtsFormatError(
                    f"transition {src} {lbl} {dst} uses an undeclared label")

    @cached_property
    def pre_index(self) -> dict[str, PreIndex]:
        """Each label's predecessor index, built on first use and kept,
        filled table entries included, for as long as the model lives: an
        entry depends on the model alone."""
        index = {s: i for i, s in enumerate(self.states)}
        masks: dict[str, list[int]] = {}
        for src, lbl, dst in self.transitions:
            m = masks.setdefault(lbl, [0] * len(self.states))
            m[index[dst]] |= 1 << index[src]
        nbytes = (len(self.states) + 7) // 8
        return {lbl: (m, [{} for _ in range(nbytes)])
                for lbl, m in masks.items()}

    def successors(self, state: str, label: str) -> set[str]:
        return {dst for src, lbl, dst in self.transitions
                if src == state and lbl == label}


_TRIVIAL = Lts(states=("*",), labels=frozenset(), transitions=frozenset(),
               initial="*")


def trivial_model() -> Lts:
    """The single-state, transition-free model used for validity checking:
    one shared instance, frozen and with no index tables to fill."""
    return _TRIVIAL


def parse_lts(text: str) -> Lts:
    states: dict[str, None] = {}  # a set that keeps declaration order
    declared_labels: list[str] | None = None
    transitions: list[tuple[str, str, str]] = []
    initial: str | None = None
    in_trans = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("states:"):
            for s in line[len("states:"):].split():
                if s in states:
                    raise LtsFormatError(f"line {lineno}: duplicate state {s!r}")
                states[s] = None
            continue
        if line.startswith("labels:"):
            declared_labels = line[len("labels:"):].split()
            continue
        if line.startswith("initial:"):
            initial = line[len("initial:"):].strip()
            continue
        if line.startswith("trans:"):
            in_trans = True
            rest = line[len("trans:"):].strip()
            if rest:
                transitions.append(_parse_transition(rest, lineno))
            continue
        if in_trans:
            transitions.append(_parse_transition(line, lineno))
            continue
        raise LtsFormatError(f"line {lineno}: unrecognized line {line!r}")

    if initial is None:
        raise LtsFormatError("missing initial declaration")
    used_labels = {lbl for _, lbl, _ in transitions}
    if declared_labels is not None:
        undeclared = used_labels - set(declared_labels)
        if undeclared:
            raise LtsFormatError(
                f"undeclared labels: {', '.join(sorted(undeclared))}")
        labels = frozenset(declared_labels)
    else:
        labels = frozenset(used_labels)
    return Lts(states=tuple(states), labels=labels,
               transitions=frozenset(transitions), initial=initial)


def _parse_transition(line: str, lineno: int) -> tuple[str, str, str]:
    parts = line.split()
    if len(parts) != 3:
        raise LtsFormatError(
            f"line {lineno}: transition must be 'src label dst', got {line!r}")
    return parts[0], parts[1], parts[2]
