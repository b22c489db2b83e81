"""Concrete-syntax printer.

Internal binder names carry uniquifying suffixes; printing regenerates
readable names, so print . parse is the identity only up to alpha
equivalence (which is what the round-trip tests check).
"""

from __future__ import annotations

from .syntax import (
    Add, And, App, Atom, Box, Diamond, Exists, FalseF, Forall, IConst, INeg,
    IVar, IntExpr, Lambda, Mu, Nu, Or, Sub, TrueF, Var,
    Formula, base_name, free_vars, readable_name, spine,
)

# precedence levels, loosest to tightest
_TERM, _OR, _AND, _OPERAND = 0, 1, 2, 3


# The printer is module-level functions, not nested closures that call
# themselves through their own cells, so a call leaves no cyclic garbage.


def int_to_text(e: IntExpr, names: dict[str, str] | None = None) -> str:
    return _int_text(e, names or {}, 1)


def _int_text(e: IntExpr, names: dict[str, str], level: int) -> str:
    match e:
        case IConst(n):
            return str(n) if n >= 0 else _wrap(str(n), 2, level)
        case IVar(x):
            return names.get(x, base_name(x))
        case Add(l, r):
            return _wrap(f"{_int_text(l, names, 1)} + "
                         f"{_int_text(r, names, 2)}", 1, level)
        case Sub(l, r):
            return _wrap(f"{_int_text(l, names, 1)} - "
                         f"{_int_text(r, names, 2)}", 1, level)
        case INeg(b):
            return _wrap(f"-{_int_text(b, names, 3)}", 2, level)
    raise TypeError(f"not an integer expression: {e!r}")


def _wrap(s: str, have: int, need: int) -> str:
    return s if have >= need else f"({s})"


def to_text(phi: Formula) -> str:
    """Deterministic readable rendering; reparses to an alpha-equivalent
    formula."""
    # readable_name skips keywords; max is not one, but heads a bound
    reserved = {base_name(v) for v in free_vars(phi)} | {"max"}
    return _text(phi, {}, reserved, _TERM)


def _text(phi: Formula, names: dict[str, str], taken: set[str],
          level: int) -> str:
    match phi:
        case Var(x, _):
            return names.get(x, base_name(x))
        case TrueF():
            return "true"
        case FalseF():
            return "false"
        case Or(l, r) | And(l, r):
            op, have = ("\\/", _OR) if isinstance(phi, Or) else ("/\\", _AND)
            s = (f"{_text(l, names, taken, have)} {op} "
                 f"{_text(r, names, taken, have + 1)}")
            return _wrap(s, have, level)
        case Diamond(a, b) | Box(a, b):
            op = f"<{a}>" if isinstance(phi, Diamond) else f"[{a}]"
            return _wrap(f"{op} {_text(b, names, taken, _OPERAND)}",
                         _OPERAND, level)
        case Mu(x, _, b) | Nu(x, _, b) | Exists(x, b, _) | Forall(x, b, _):
            d, decl = readable_name(x, taken), ""
            if isinstance(phi, (Mu, Nu)):
                decl = f": {phi.vtype}"
            elif phi.lower:
                decl = ", ".join(int_to_text(p, names) for p in phi.lower)
                decl = f" >= {decl}" if len(phi.lower) == 1 \
                    else f" >= max({decl})"
            # the keyword is the node's name: mu, nu, exists, forall
            s = f"{type(phi).__name__.lower()} {d}{decl}. " + _text(
                b, {**names, x: d}, taken | {d}, _TERM)
            return _wrap(s, _TERM, level)
        case Lambda(_, _, _):
            # collapse consecutive lambdas into tuple notation
            binds = []
            body = phi
            nm, tk = dict(names), set(taken)
            while isinstance(body, Lambda):
                d = readable_name(body.var, tk)
                binds.append(f"{d}: {body.vtype}")
                nm[body.var] = d
                tk.add(d)
                body = body.body
            head = (f"\\{binds[0]}" if len(binds) == 1
                    else "\\(" + ", ".join(binds) + ")")
            return _wrap(f"{head}. {_text(body, nm, tk, _TERM)}", _TERM, level)
        case App(_, _):
            head, args = spine(phi)
            if isinstance(head, Var):
                hs = names.get(head.name, base_name(head.name))
            else:
                hs = f"({_text(head, names, taken, _TERM)})"
            rendered = ", ".join(
                int_to_text(a, names) if isinstance(a, IntExpr)
                else _text(a, names, taken, _TERM)
                for a in args)
            return _wrap(f"{hs}({rendered})", _OPERAND, level)
        case Atom(op, l, r):
            s = f"{int_to_text(l, names)} {op} {int_to_text(r, names)}"
            return _wrap(s, _OPERAND, level)
    raise TypeError(f"not a formula: {phi!r}")
