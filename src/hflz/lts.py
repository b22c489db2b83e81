"""Finite labeled transition systems and their text format."""

from __future__ import annotations

from dataclasses import dataclass, field

from .syntax import HflError


class LtsFormatError(HflError):
    pass


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
        for src, lbl, dst in self.transitions:
            if src not in declared or dst not in declared:
                raise LtsFormatError(
                    f"transition {src} {lbl} {dst} uses an undeclared state")
            if lbl not in self.labels:
                raise LtsFormatError(
                    f"transition {src} {lbl} {dst} uses an undeclared label")

    def successors(self, state: str, label: str) -> set[str]:
        return {dst for src, lbl, dst in self.transitions
                if src == state and lbl == label}


def trivial_model() -> Lts:
    """The single-state, transition-free model used for validity checking."""
    return Lts(states=("*",), labels=frozenset(), transitions=frozenset(),
               initial="*")


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
    if initial not in states:
        raise LtsFormatError(f"initial state {initial!r} not declared")
    used_labels = {lbl for _, lbl, _ in transitions}
    if declared_labels is not None:
        undeclared = used_labels - set(declared_labels)
        if undeclared:
            raise LtsFormatError(
                f"undeclared labels: {', '.join(sorted(undeclared))}")
        labels = frozenset(declared_labels)
    else:
        labels = frozenset(used_labels)
    for src, lbl, dst in transitions:
        for s in (src, dst):
            if s not in states:
                raise LtsFormatError(f"undeclared state {s!r} in transition "
                                     f"{src} {lbl} {dst}")
    return Lts(states=tuple(states), labels=labels,
               transitions=frozenset(transitions), initial=initial)


def _parse_transition(line: str, lineno: int) -> tuple[str, str, str]:
    parts = line.split()
    if len(parts) != 3:
        raise LtsFormatError(
            f"line {lineno}: transition must be 'src label dst', got {line!r}")
    return parts[0], parts[1], parts[2]


def lts_to_text(m: Lts) -> str:
    lines = ["states: " + " ".join(m.states)]
    if m.labels:
        lines.append("labels: " + " ".join(sorted(m.labels)))
    lines.append(f"initial: {m.initial}")
    lines.append("trans:")
    order = {s: i for i, s in enumerate(m.states)}
    for src, lbl, dst in sorted(m.transitions,
                                key=lambda t: (order[t[0]], t[1], order[t[2]])):
        lines.append(f"  {src} {lbl} {dst}")
    return "\n".join(lines) + "\n"
