"""Seeded instance families with known answers.

Every instance carries the answer it must get.  Answers of the fixed corpus
cases are written by hand; answers of the seeded families come from
closed-form arithmetic or from how the instance is built (a planted path, a
planted edge), never from hflz.  This module does not import hflz, so the
harness can build and check the instance list without it.

A workload is a stream of cycles.  Each cycle mixes every family of the
workload in a fixed proportion, and a run measures whole cycles.  The sizes
that drive the cost (chain length, LTS size, window, conjunct count, the
walk constant's side of the solver window) are fixed by the position of an
instance in its cycle, so every cycle of a workload has the same mix of
costs.  The seed picks the rest: constants, planted structure, the
instances' order, and with them the ids.  So the seed changes the instances
but hardly the cost of a run, nor where its median and tail fall.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# The validity pipeline runs the bundled naive HORN solver with this window;
# its "sat" answers are only window-limited.
SOLVER_WINDOW = 6
VALIDITY_WINDOW = 8

# Documented defects of the current pipeline.  An instance tagged with one
# may get a wrong verdict; the wrong verdict is still counted and listed.
KNOWN_DEFECTS = {
    "solver-window-sat": (
        "validity prints the naive solver's window-limited 'sat' as a plain "
        "verdict, so an ascending walk (its refutation climbs out of the "
        "solver window) comes out Valid, and its exists/nu dual Invalid"),
    "dual-race": (
        "validity of a walk whose constant sits at or beyond the edge of the "
        "solver window: both the formula and its dual can be 'proved' "
        "through the solver, and whichever thread finishes first decides "
        "(Valid, Invalid or exit 3)"),
    "higher-order-mu": (
        "eliminate_mu raises HigherOrderMuError inside a racing thread on "
        "the recursive file program; the traceback goes to stderr and the "
        "verdict is Unknown"),
    "deep-recursion": (
        "eliminate_mu recurses once per conjunct and raises RecursionError "
        "near 330 walks under the default recursion limit"),
}

WORKLOADS = ("validity_pipeline", "pure_model_check", "bounded_int_eval",
             "syntax_passes")
# Not in BENCHMARK.json: the instances that fail or race on today's code.
EXTRA_WORKLOADS = ("defects",)


@dataclass
class Instance:
    id: str
    kind: str
    expected: bool
    spec: dict = field(default_factory=dict)
    known_defect: str = ""
    first: bool = False         # first instance of its cycle


# ---------------------------------------------------------------------------
# formula text helpers (HFL(Z) surface syntax)


def walk(c: int, k: int, start: str, up: bool = False) -> str:
    """(mu x. \\y. y <= c \\/ x(y -/+ k))(start): reaches y <= c."""
    op = "+" if up else "-"
    return (f"(mu x: int -> prop. \\y: int. y <= {c} \\/ x(y {op} {k}))"
            f"({start})")


def walk_dual(c: int, k: int, start: str, up: bool = False) -> str:
    op = "+" if up else "-"
    return (f"(nu x: int -> prop. \\y: int. y > {c} /\\ x(y {op} {k}))"
            f"({start})")


def parity(n: int, odd: bool) -> str:
    target = 1 if odd else 0
    return f"(mu x: int -> prop. \\y: int. y = {target} \\/ x(y - 2))({n})"


def parity_holds(n: int, odd: bool) -> bool:
    return n >= (1 if odd else 0) and n % 2 == (1 if odd else 0)


def chain_of_walks(k: int, rng: random.Random) -> str:
    parts = []
    for j in range(k):
        c, s, n = rng.randint(-9, 12), rng.randint(1, 3), rng.randint(-12, 15)
        parts.append(f"(mu x{j}: int -> prop. \\y: int. y <= {c} "
                     f"\\/ x{j}(y - {s}))({n})")
    return " /\\ ".join(parts)


def spaced(lo: int, hi: int, count: int) -> list[int]:
    """`count` sizes spread evenly over [lo, hi]: midpoints of equal strata."""
    return [lo + (hi - lo) * (2 * j + 1) // (2 * count) for j in range(count)]


def lts_text(n: int, edges: list[tuple[int, str, int]],
             labels: str = "a b c") -> str:
    lines = ["states: " + " ".join(f"s{i}" for i in range(n)),
             f"labels: {labels}", "initial: s0", "trans:"]
    lines += [f"  s{i} {lbl} s{j}" for i, lbl, j in edges]
    return "\n".join(lines) + "\n"


REACH = "mu y: prop. <b> true \\/ <a> y"
SAFE = "nu y: prop. [c] false /\\ [a] y"
EX22_APPLIED = "(nu x: prop -> prop. \\y: prop. y \\/ <a> x(<b> y))(<c> true)"
RING = "(nu f: prop -> prop. \\p: prop. p /\\ f(<a> p))(true)"


def chain_lts(n: int, mark: str | None) -> str:
    """a-chain s0 -> ... -> s(n-1); optionally a `mark`-edge back to s0.

    Where the mark-edge leads changes the cost of a check by up to a third,
    so it is fixed.
    """
    edges = [(i, "a", i + 1) for i in range(n - 1)]
    if mark:
        edges.append((n - 1, mark, 0))
    return lts_text(n, edges)


def sparse_lts(n: int, rng: random.Random, mark: str,
               reachable_mark: bool) -> str:
    """Random sparse LTS whose a-reachable part R from s0 is planted.

    R = s0 plus 3n/4 - 1 other states; each state of R gets an a-edge from
    an earlier state of R (a random tree), plus about |R|/2 extra a-edges
    inside R.  The other states U get a-edges into R or inside U only, so
    nothing in U is reachable.  One `mark`-edge is planted in R when
    `reachable_mark`, else only in U, which fixes the answer of REACH
    (mark b) and SAFE (mark c) without a search.

    The shape comes from a generator fixed by the arguments, because the
    cost of a check depends on it (tree depth, where the mark sits); `rng`
    renames the states other than s0, which leaves the cost alone.
    """
    shape = random.Random(f"sparse:{n}:{mark}:{reachable_mark}")
    r = 3 * n // 4
    order = [0] + shape.sample(range(1, n), n - 1)
    inside, outside = order[:r], order[r:]
    edges = set()
    for idx in range(1, r):
        edges.add((inside[shape.randrange(idx)], "a", inside[idx]))
    for _ in range(r // 2):
        edges.add((shape.choice(inside), "a", shape.choice(inside)))
    for u in outside:
        edges.add((u, "a", shape.choice(inside + outside)))
    host = shape.choice(inside if reachable_mark else outside)
    edges.add((host, mark, shape.randrange(n)))
    name = [0] + rng.sample(range(1, n), n - 1)
    return lts_text(n, sorted((name[a], lbl, name[b]) for a, lbl, b in edges))


def word_lts(word: str) -> str:
    return lts_text(len(word) + 1,
                    [(i, ch, i + 1) for i, ch in enumerate(word)])


def ring_lts(n: int, closed: bool) -> str:
    edges = [(i, "a", i + 1) for i in range(n - 1)]
    if closed:
        edges.append((n - 1, "a", 0))
    return lts_text(n, edges, labels="a")


MULT_FLIPPED_SMT2 = """(set-logic HORN)
(declare-fun mult (Int Int Int) Bool)
(assert (forall ((x Int) (y Int) (r Int)) (=> (and (= y 0) (= r 0)) (mult x y r))))
(assert (forall ((x Int) (y Int) (r Int) (s Int)) (=> (and (not (= y 0)) (mult x (- y 1) s) (= r (+ s x))) (mult x y r))))
(assert (forall ((x Int) (y Int) (r Int)) (=> (and (mult x y r) (> x 0) (>= r y)) false)))
(check-sat)
"""


# ---------------------------------------------------------------------------
# cycles, one function per workload; `small` is the smoke-test size


def _cli(iid, expected, *, text=None, path=None, window=None, lts=None,
         defect=""):
    return Instance(iid, "cli", expected,
                    {"text": text, "path": path,
                     "window": window or VALIDITY_WINDOW, "lts": lts},
                    defect)


def validity_cycle(rng: random.Random, small: bool) -> list[Instance]:
    """One cycle holds every corpus case and a seeded set of the same shape.

    By cost the instances fall into three groups: about 0.2 s (true
    even/odd, constant walks, the file programs), about 0.5 s (false
    even/odd, walks whose constant lies beyond the solver window, sec42)
    and 1-5 s (the rest).  The counts put the median in the middle of the
    0.5 s group, so that no seed moves it into a gap between two groups.
    The seed picks the constants, never the group.
    """
    fixed = [
        _cli("sec41", True, path="corpus/sec41.hfl"),
        _cli("sec42", True, path="corpus/sec42.hfl"),
        _cli("mult_smt2", True, path="corpus/mult.smt2", window=1),
        _cli("file_straight", True, path="corpus/file_straight.prog",
             lts="corpus/mfile.lts"),
        _cli("file_mutated", False, path="corpus/file_mutated.prog",
             lts="corpus/mfile.lts"),
        # the scratch-run finds: truly Invalid, printed Valid, and its
        # exists/nu dual: truly Valid, printed Invalid
        _cli("asc_c2_k1", False, text=f"forall i. {walk(2, 1, 'i', up=True)}",
             defect="solver-window-sat"),
        _cli("asc_c2_k1_dual", True,
             text=f"exists i. {walk_dual(2, 1, 'i', up=True)}",
             defect="solver-window-sat"),
    ]
    seeded = []
    # descending walks always reach y <= c: Valid; their duals Invalid.
    # With c inside the solver window they take 1-3 s, beyond it 0.5 s.
    for k, (lo, hi) in ((1, (-6, 2)), (3, (-6, 2)), (1, (SOLVER_WINDOW + 1,
                                                         12)),
                        (3, (SOLVER_WINDOW + 1, 12))):
        c = rng.randint(lo, hi)
        seeded.append(_cli(f"desc_c{c}_k{k}", True,
                           text=f"forall i. {walk(c, k, 'i')}"))
        seeded.append(_cli(f"desc_c{c}_k{k}_dual", False,
                           text=f"exists i. {walk_dual(c, k, 'i')}"))
    # ascending walks: i = c + 1 never comes down, so Invalid; dual Valid
    c, k = rng.randint(SOLVER_WINDOW + 1, 12), rng.randint(1, 2)
    seeded.append(_cli(f"asc_c{c}_k{k}", False,
                       text=f"forall i. {walk(c, k, 'i', up=True)}",
                       defect="solver-window-sat"))
    seeded.append(_cli(f"asc_c{c}_k{k}_dual", True,
                       text=f"exists i. {walk_dual(c, k, 'i', up=True)}",
                       defect="solver-window-sat"))
    # even/odd of constants well inside the solver window: the true ones
    # take 0.2 s, the false ones 0.5 s.  Near the window's edge both sides
    # can be "proved" and the verdict races (see defects).
    for holds in (True, False):
        for odd in (False, True, bool(rng.randrange(2))):
            n = rng.choice([n for n in range(SOLVER_WINDOW + 1)
                            if parity_holds(n, odd) == holds])
            seeded.append(_cli(f"{'odd' if odd else 'even'}_{n}", holds,
                               text=parity(n, odd)))
    for up in (False, True, bool(rng.randrange(2))):
        c, k = rng.randint(-4, 4), rng.randint(1, 3)
        n = rng.randint(c - 4, c) if up else rng.randint(-4, SOLVER_WINDOW)
        seeded.append(_cli(f"{'asc' if up else 'desc'}_c{c}_k{k}_at{n}",
                           True, text=walk(c, k, str(n), up)))
    if small:
        return _interleave(fixed[3:4], seeded[4:5] + seeded[-5:-3])
    return _interleave(fixed, seeded)


def pure_cycle(rng: random.Random, small: bool) -> list[Instance]:
    formulas = []   # (id, formula, lts, expected)
    lo, hi = (12, 20) if small else (50, 200)
    mid = (lo + hi) // 2
    # reachability of a b-edge along a-steps (mu): cubic in the chain length.
    # Up to 155 states: the longest chains then cost about as much as ring10
    # and ex22_a4b4, and p95 falls among them rather than in a gap.
    for n in spaced(lo, 170 if not small else hi, 1 if small else 4):
        formulas.append((f"chain{n}_reach", REACH,
                         chain_lts(n, "b"), True))
    formulas.append((f"chain{mid}_reach_none", REACH,
                     chain_lts(mid, None), False))
    # safety: no c-edge along a-steps (nu)
    for bad in (False, True):
        formulas.append((f"chain{mid}_safe{'_bad' if bad else ''}", SAFE,
                         chain_lts(mid, "c" if bad else None), not bad))
    for formula, mark in ((REACH, "b"), (SAFE, "c")):
        for planted in (True, False):
            for n in spaced(lo, hi, 1 if small else 7):
                holds = planted if mark == "b" else not planted
                formulas.append((f"sparse{n}_{mark}{int(planted)}", formula,
                                 sparse_lts(n, rng, mark, planted), holds))
    # ex22 on a^n b^m c: true iff n = m
    for n in range(1, 5):
        for a, b in ((n, n), (n, n % 4 + 1)):
            formulas.append((f"ex22_a{a}b{b}", EX22_APPLIED,
                             word_lts("a" * a + "b" * b + "c"), a == b))
    # the order-1 ring formula on every size: true iff the ring is closed
    for size in range(6, 8) if small else range(8, 13):
        closed = size % 2 == 0
        formulas.append((f"ring{size}{'' if closed else '_open'}", RING,
                         ring_lts(size, closed), closed))
    out = []
    for iid, formula, lts, expected in formulas:
        for kind in ("check_pure", "eval_pure"):
            out.append(Instance(f"{iid}/{kind}", kind, expected,
                                {"formula": formula, "lts": lts}))
    rng.shuffle(out)
    return out[:8] if small else out


def bounded_cycle(rng: random.Random, small: bool) -> list[Instance]:
    cheap, heavy = [], []
    windows = (8, 10, 12, 14, 16)
    # mult over the grid x, y in [-3, 3], one cell per slot; every fourth a
    # false z, and every fourth a true one whose walk leaves the window
    for j in range(4 if small else 48):
        w = windows[j % len(windows)]
        x, y = j // 7 % 7 - 3, j % 7 - 3
        kind = j % 4
        if kind == 3:
            x = 3 + j // 4 % 2
            y = spaced(w // 3 + 2, w // 2 + 3, 2)[j // 4 % 2]
        z = x * y + (rng.choice((-2, -1, 1, 2)) if kind == 2 else 0)
        cheap.append(Instance(f"mult_{x}_{y}_{z}_w{w}", "eval",
                              z == x * y, {"mult": [x, y, z], "window": w}))
    for j in range(2 if small else 16):
        w = windows[j % len(windows)]
        n = spaced(-2 * w, 2 * w, 8)[j % 8] + 2 * rng.randint(0, 1)
        odd = bool(j % 2)
        cheap.append(Instance(f"{'odd' if odd else 'even'}_{n}_w{w}",
                              "eval", parity_holds(n, odd),
                              {"formula": parity(n, odd), "window": w}))
    rng.shuffle(cheap)
    # fixpoints closed over the desugared forall walk: never cached today.
    # A forall walk cannot be certified by window evaluation (the walk over
    # i leaves the window), so the Valid half stays undecided.  Per cycle
    # one costs about 2 s; the next four, with mult_dual, about 0.9 s; p95
    # falls among those four, not in a gap.
    slots = [(8, False, 0), (8, True, 0)] if small else [
        (12, False, 4), (10, False, 0), (12, True, -2), (10, False, 6),
        (8, False, 0), (8, True, 0)]
    for w, up, c in slots:
        heavy.append(Instance(
            f"elim_{'asc' if up else 'desc'}_c{c}_k3_b4_w{w}",
            "eval", not up,
            {"formula": f"forall i. {walk(c, 3, 'i', up)}", "window": w,
             "elim_bound": 4}))
    if not small:
        heavy.append(Instance("mult_dual_w1", "eval", True,
                              {"smt2_dual": MULT_FLIPPED_SMT2, "window": 1}))
    return _interleave(heavy, cheap)


def syntax_cycle(rng: random.Random, small: bool) -> list[Instance]:
    out = []
    for k in (8,) if small else spaced(10, 300, 4):
        out.append(Instance(f"walks{k}", "chain", True,
                            {"text": chain_of_walks(k, rng), "walks": k}))
    absts = []
    for j, m in enumerate(spaced(4, 8, 2) if small else spaced(10, 40, 24)):
        valid = j % 2 == 0
        parts, preds = [], []
        for q in range(m):
            a, k = rng.randint(-5, 5), rng.randint(1, 3)
            n = a + rng.randint(1, 4)
            # ascending from above a keeps y >= a forever (Valid); one
            # descending conjunct makes the whole conjunction Invalid
            up = valid or q != m // 2
            op = "+" if up else "-"
            parts.append(f"(nu x{q}: int -> prop. \\y{q}: int. y{q} >= {a} "
                         f"/\\ x{q}(y{q} {op} {k}))({n})")
            preds.append(f"y{q}: y{q} > {a}")
        absts.append(Instance(f"abstract{m}{'' if valid else '_desc'}",
                              "abstract", valid,
                              {"text": " /\\ ".join(parts),
                               "preds": "\n".join(preds), "width": 16}))
    rng.shuffle(absts)
    return _interleave(out, absts)


def defects_cycle(rng: random.Random, small: bool) -> list[Instance]:
    """Instances that fail or race on today's code; not a timed workload."""
    out = [_cli("file_rec", True, path="corpus/file_rec.prog",
                lts="corpus/mfile.lts", defect="higher-order-mu"),
           _cli("even_7", False, text=parity(7, False),
                defect="dual-race")]
    for odd in (False, True):
        for n in (rng.randint(SOLVER_WINDOW + 1, 15), -rng.randint(5, 6)):
            out.append(_cli(f"{'odd' if odd else 'even'}_{n}",
                            parity_holds(n, odd), text=parity(n, odd),
                            defect="dual-race"))
    # an ascending walk started above c climbs out of the solver window
    c, k = rng.randint(-4, 3), rng.randint(1, 2)
    n = rng.randint(max(c + 1, 4), SOLVER_WINDOW)
    out.append(_cli(f"asc_c{c}_k{k}_at{n}", False,
                    text=walk(c, k, str(n), up=True), defect="dual-race"))
    k = rng.randint(8, 12) if small else rng.randint(340, 400)
    out.append(Instance(f"walks{k}", "chain", True,
                        {"text": chain_of_walks(k, rng), "walks": k},
                        "" if small else "deep-recursion"))
    return out


CYCLES = {"validity_pipeline": validity_cycle, "pure_model_check": pure_cycle,
          "bounded_int_eval": bounded_cycle, "syntax_passes": syntax_cycle,
          "defects": defects_cycle}

# cycles generated and loaded at set-up: more than one run can finish
CYCLE_COUNT = {"validity_pipeline": 3, "pure_model_check": 5,
               "bounded_int_eval": 8, "syntax_passes": 12, "defects": 2}


def _interleave(major: list, minor: list) -> list:
    """Spread `major` evenly through `minor`, keeping both orders."""
    out, step = [], (len(minor) + 1) / (len(major) + 1)
    mi = 0
    for j, inst in enumerate(major):
        take = round((j + 1) * step)
        out.extend(minor[mi:take])
        mi = max(mi, take)
        out.append(inst)
    out.extend(minor[mi:])
    return out


def build(workload: str, seed: int, small: bool = False) -> list[Instance]:
    """The instance stream of one run: CYCLE_COUNT cycles, ids unique."""
    rng = random.Random(f"{workload}:{seed}")
    cycles = 1 if small else CYCLE_COUNT[workload]
    out = []
    for i in range(cycles):
        for j, inst in enumerate(CYCLES[workload](rng, small)):
            inst.id, inst.first = f"c{i}.{j}/{inst.id}", j == 0
            out.append(inst)
    return out
