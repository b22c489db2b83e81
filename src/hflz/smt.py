"""SMT-LIB s-expression helpers and the external-solver runner shared by
the CHC bridge and the entailment oracles."""

from __future__ import annotations

import math
import os
import re
import shlex
import subprocess
import tempfile
import threading
import time
from functools import reduce

from .syntax import (
    Add, And, Atom, FalseF, HflError, IConst, INeg, IVar, IntExpr, Or, Sub,
    TrueF, Formula, eval_int, int_vars,
)


_SIMPLE_SYMBOL = re.compile(
    r"[A-Za-z~!@$%^&*_+=<>.?/-][A-Za-z0-9~!@$%^&*_+=<>.?/-]*")
_RESERVED_WORDS = frozenset({
    "!", "_", "as", "BINARY", "DECIMAL", "exists", "forall", "HEXADECIMAL",
    "let", "match", "NUMERAL", "par", "STRING"})


def symbol(name: str) -> str:
    """name as an SMT-LIB symbol: unchanged when it is a simple symbol,
    otherwise quoted as |name| (source names may contain an apostrophe)."""
    if _SIMPLE_SYMBOL.fullmatch(name) and name not in _RESERVED_WORDS:
        return name
    return f"|{name}|"


def int_expr_to_sexpr(e: IntExpr) -> str:
    match e:
        case IConst(n):
            return str(n) if n >= 0 else f"(- {-n})"
        case IVar(x):
            return symbol(x)
        case Add(l, r):
            return f"(+ {int_expr_to_sexpr(l)} {int_expr_to_sexpr(r)})"
        case Sub(l, r):
            return f"(- {int_expr_to_sexpr(l)} {int_expr_to_sexpr(r)})"
        case INeg(b):
            return f"(- {int_expr_to_sexpr(b)})"
    raise TypeError(f"not an integer expression: {e!r}")


def atom_to_sexpr(a: Atom) -> str:
    l, r = int_expr_to_sexpr(a.lhs), int_expr_to_sexpr(a.rhs)
    if a.op == "!=":
        return f"(not (= {l} {r}))"
    return f"({a.op} {l} {r})"


def qf_formula_to_sexpr(phi: Formula) -> str:
    match phi:
        case Atom(_, _, _):
            return atom_to_sexpr(phi)
        case And(l, r):
            return f"(and {qf_formula_to_sexpr(l)} {qf_formula_to_sexpr(r)})"
        case Or(l, r):
            return f"(or {qf_formula_to_sexpr(l)} {qf_formula_to_sexpr(r)})"
        case TrueF():
            return "true"
        case FalseF():
            return "false"
    raise HflError(
        f"not a quantifier-free arithmetic formula: {type(phi).__name__}")


# ---------------------------------------------------------------------------
# External solver runner


class SolverError(HflError):
    pass


def run_solver(command: str, script: str, timeout: float,
               cancel: threading.Event | None = None) -> tuple[str, str]:
    """Run an external solver on an SMT-LIB script; (kind, detail).

    command is a shell-ish template; its {file} placeholder becomes the path
    of a temporary .smt2 file holding script, removed once the solver has
    ended.  kind is the first non-empty output line when that is sat, unsat
    or unknown (detail: the remaining lines); otherwise kind is unknown and
    detail is "timeout", "cancelled" or the malformed output.  A command
    without the placeholder or a solver that cannot start raises.
    """
    if "{file}" not in command:
        raise SolverError("solver command must contain a {file} placeholder")
    fd, path = tempfile.mkstemp(suffix=".smt2")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(script)
        argv = [a.replace("{file}", path) for a in shlex.split(command)]
        try:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, text=True)
        except OSError as e:
            raise SolverError(
                f"could not start solver {argv[0]!r}: {e}") from e
        deadline = time.monotonic() + timeout
        while True:
            # communicate keeps draining both pipes, so a chatty solver
            # cannot block on a full one; a retry loses no output
            try:
                out, err = proc.communicate(timeout=0.02)
                break
            except subprocess.TimeoutExpired:
                pass
            if cancel is not None and cancel.is_set():
                stop = "cancelled"
            elif time.monotonic() > deadline:
                stop = "timeout"
            else:
                continue
            # no communicate after kill: an orphaned child of a script
            # solver may hold the pipes open
            proc.kill()
            proc.wait()
            return "unknown", stop
    finally:
        os.unlink(path)
    lines = [ln.strip() for ln in out.splitlines() if ln.strip()]
    if lines and lines[0] in ("sat", "unsat", "unknown"):
        return lines[0], "\n".join(lines[1:])
    return "unknown", f"malformed solver output: {out!r} {err!r}"


# ---------------------------------------------------------------------------
# Minimal s-expression reader (for the HORN reader and solver output)


# a comment, a parenthesis, a quoted symbol (unterminated when it lacks
# its closing |) or any other word
_SEXPR_TOKEN = re.compile(r";[^\n]*|[()]|\|[^|]*\|?|[^ \t\r\n();]+")


def parse_sexprs(text: str) -> list:
    """Parse a sequence of s-expressions into nested lists of strings."""
    top: list = []
    stack: list[list] = []
    for tok in _SEXPR_TOKEN.findall(text):
        c = tok[0]
        if c == "(":
            stack.append(top)
            top = []
        elif c == ")":
            if not stack:
                raise HflError("unbalanced ')' in s-expression input")
            done, top = top, stack.pop()
            top.append(done)
        elif c == "|":
            if len(tok) == 1 or tok[-1] != "|":
                rest = tok.partition("\n")[0]
                raise HflError(f"unterminated quoted symbol {rest!r}")
            top.append(tok[1:-1])
        elif c != ";":
            top.append(tok)
    if stack:
        raise HflError("unbalanced '(' in s-expression input")
    return top


class ChcShapeError(HflError):
    """The formula or clause set falls outside the supported fragment."""


def sexpr_text(s) -> str:
    """An s-expression written back as text, quoting aside."""
    return s if isinstance(s, str) else f"({' '.join(map(sexpr_text, s))})"


# an SMT-LIB numeral, here also with a leading '-'
_NUMERAL = re.compile(r"-?[0-9]+")


def sexpr_to_int_expr(s) -> IntExpr:
    if isinstance(s, str):
        return IConst(int(s)) if _NUMERAL.fullmatch(s) else IVar(s)
    if len(s) < 2:
        raise ChcShapeError(f"malformed arithmetic term {sexpr_text(s)}")
    head, *args = s
    if head not in ("+", "-", "*"):
        raise ChcShapeError(
            f"unsupported arithmetic operator {sexpr_text(head)!r}")
    terms = [sexpr_to_int_expr(a) for a in args]
    if head == "+":
        return reduce(Add, terms)
    if head == "-":
        return reduce(Sub, terms) if len(terms) > 1 else INeg(terms[0])
    # the constant factors fold; at most one factor may have variables
    factors = [e for e in terms if int_vars(e)]
    if len(factors) > 1:
        raise ChcShapeError("nonlinear multiplication in HORN input")
    c = math.prod(eval_int(e, {}) for e in terms if not int_vars(e))
    return _times(c, factors[0]) if factors else IConst(c)


def _times(c: int, e: IntExpr) -> IntExpr:
    """c·e as a sum of copies of e, built by doubling: O(log |c|) deep"""
    if c < 0:
        return INeg(_times(-c, e))
    if c <= 1:
        return e if c else IConst(0)
    half = _times(c // 2, e)
    return Add(Add(half, half), e) if c % 2 else Add(half, half)


# a tuple, not a set: a list in operator position must not raise TypeError
_SMT_CMP = ("<=", "<", ">=", ">", "=")


def sexpr_to_atom(s) -> Atom:
    if not isinstance(s, list) or not s:
        raise ChcShapeError(f"expected an atom, got {sexpr_text(s)!r}")
    head, *args = s
    if head == "not" and len(args) == 1 and isinstance(args[0], list) \
            and len(args[0]) == 3 and args[0][0] == "=":
        _, l, r = args[0]
        return Atom("!=", sexpr_to_int_expr(l), sexpr_to_int_expr(r))
    if head in _SMT_CMP and len(args) == 2:
        return Atom(head, sexpr_to_int_expr(args[0]),
                    sexpr_to_int_expr(args[1]))
    raise ChcShapeError(f"unsupported atom head {sexpr_text(head)!r}")
