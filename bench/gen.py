"""Seeded input generator for the benchmark.

Every query reaches the library as text: spec files, program files,
memory files and formula files, in the formats the CLI reads.  The same
seed yields byte-identical inputs (`digest` below); `check_parses` proves
that every emitted text parses before any timing starts.  Only the parser
and the closure size of a spec are taken from the library; the generator
shares no code with the test suite.

A query is a plain dict:

    {"id": str, "verb": str, "texts": {name: text}, "args": {...}}

with `verb` one of check-implies, check-sat, reduce, vc, inductive,
reach and wp.  Ids of the fixed (seed-independent) corpus start with a
letter; ids of seeded random queries start with `r`.
"""

from __future__ import annotations

import hashlib
import json
import random

# ---------------------------------------------------------------------------
# The worked examples, as spec text

LIST_TEXT = """\
CONCEPT L
NOMINAL head
FROLE next
top <= top
REACH <head> {next} <L>
"""

ALIST_TEXT = LIST_TEXT + "not (L <= E next.top)\n"

CLIST_TEXT = LIST_TEXT + "head <= E next^-.L\n"

TREE_TEXT = """\
CONCEPT T
NOMINAL root
FROLE left right
root <= !(E left^-.T) & !(E right^-.T)
T & !root <= (E=1 left^-.T & !(E right^-.T)) | (E=1 right^-.T & !(E left^-.T))
REACH <root> {left, right} <T>
"""

WORKED = {"list": LIST_TEXT, "alist": ALIST_TEXT, "clist": CLIST_TEXT,
          "tree": TREE_TEXT}

# ---------------------------------------------------------------------------
# Random reach specs: at most 3 concepts, 2 functional roles, 2 reach
# assertions, counting bounds at most 2, shallow bases


def _concept(rng: random.Random, atoms: list[str], roles: list[str],
             depth: int) -> str:
    if depth <= 0 or rng.random() < 0.35:
        return rng.choice(atoms + ["top"])
    k = rng.randint(0, 4)
    sub = lambda: _concept(rng, atoms, roles, depth - 1)  # noqa: E731
    if k == 0:
        return f"({sub()} & {sub()})"
    if k == 1:
        return f"({sub()} | {sub()})"
    if k == 2:
        return f"!({sub()})"
    r = rng.choice(roles) + ("^-" if rng.random() < 0.4 else "")
    if k == 3:
        return f"E {r}.({sub()})"
    return f"E<={rng.randint(0, 2)} {r}.({sub()})"


def _formula(rng: random.Random, atoms: list[str], roles: list[str],
             depth: int, cdepth: int) -> str:
    if depth <= 0 or rng.random() < 0.4:
        left = _concept(rng, atoms, roles, cdepth)
        right = _concept(rng, atoms, roles, cdepth)
        return f"{left} {'==' if rng.random() < 0.3 else '<='} {right}"
    k = rng.randint(0, 2)
    sub = lambda: _formula(rng, atoms, roles, depth - 1, cdepth)  # noqa: E731
    if k == 0:
        return f"({sub()}) and ({sub()})"
    if k == 1:
        return f"({sub()}) or ({sub()})"
    return f"not ({sub()})"


def random_spec_text(rng: random.Random, rich: bool) -> str:
    """A compatible reach spec: overlapping role sets get a DISJ line, and
    two assertions never share a target under shared roles."""
    concepts = ["A", "B", "C"][: 3 if rich else 2]
    froles = ["r", "s"][: 2 if rich else 1]
    assertions: list[tuple[str, tuple[str, ...], str]] = []
    disj: set[tuple[str, str]] = set()
    for _ in range(rng.randint(1, 2 if rich else 1)):
        for _attempt in range(20):
            target = rng.choice(concepts)
            source = rng.choice(["o"] + concepts)
            roles = tuple(sorted(rng.sample(froles, rng.randint(1, len(froles)))))
            if any(a[0] == source and a[1] == roles and a[2] == target
                   for a in assertions):
                continue
            clash = [a for a in assertions if set(a[1]) & set(roles)]
            if any(a[2] == target for a in clash):
                continue
            for a in clash:
                disj.add((a[2], target))
            assertions.append((source, roles, target))
            break
    base = _formula(rng, concepts + ["o"], froles, rng.randint(0, 1), 1)
    lines = [f"CONCEPT {' '.join(concepts)}", "NOMINAL o",
             f"FROLE {' '.join(froles)}", base]
    lines += [f"REACH <{s}> {{{', '.join(r)}}} <{t}>" for s, r, t in assertions]
    lines += [f"DISJ({a}, {b})" for a, b in sorted(disj)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Programs

WALKER_TEXT = """\
FIELDS next
VARS e hd
FORMULA pre: Alloc <= E next.(Alloc | null) and hd <= Alloc | null
FORMULA inv: Alloc <= E next.(Alloc | null) and hd <= Alloc | null and e <= Alloc | null
NODE lb cnt=pre
NODE ll cnt=inv
NODE le cnt=inv
EDGE lb -> ll { e := hd }
EDGE ll -> ll { assume(~(e = null)); e := e.next }
EDGE ll -> le { assume(e = null) }
"""

WALKER_MEMORY = """\
MEMORY
FIELDS next
VARS e hd
UNIVERSE 0..6
CONCEPT Addresses: 3 4 5 6
CONCEPT Alloc: 3 4
CONCEPT Aux: 0 1 2
CONCEPT MemPool: 5 6
CONCEPT PossibleTargets:
FROLE next: (3,4) (4,0) (5,0) (6,0)
FROLE next_gho: (3,4) (4,0) (5,0) (6,0)
NOMINAL F = 2
NOMINAL T = 1
NOMINAL e = 0
NOMINAL e_gho = 0
NOMINAL hd = 3
NOMINAL hd_gho = 3
NOMINAL null = 0
"""

BUILDER_TEXT = """\
FIELDS next
VARS x hd
FORMULA inv: Alloc <= E next.(Alloc | null) and hd <= Alloc | null
NODE lb cnt=inv
NODE ll cnt=inv
EDGE lb -> ll { skip }
EDGE ll -> ll { x := new; x.next := hd; hd := x }
"""


def memory_text(fields: list[str], variables: list[str], alloc: dict[int, dict[str, int]],
                pool: int, values: dict[str, int], concepts: dict[str, list[int]] | None = None
                ) -> str:
    """A MEMORY file: aux cells 0..2 (null, T, F), allocated cells from 3
    on, then `pool` pool cells; ghost copies snapshot the current state."""
    cells = sorted(alloc)
    first_pool = 3 + len(cells)
    pool_cells = list(range(first_pool, first_pool + pool))
    n = first_pool + pool
    lines = ["MEMORY", f"FIELDS {' '.join(fields)}", f"VARS {' '.join(variables)}"]
    if concepts:
        lines.append(f"CONCEPTS {' '.join(sorted(concepts))}")
    lines += [f"UNIVERSE 0..{n - 1}",
              "CONCEPT Addresses: " + " ".join(map(str, cells + pool_cells)),
              "CONCEPT Alloc: " + " ".join(map(str, cells)),
              "CONCEPT Aux: 0 1 2",
              "CONCEPT MemPool: " + " ".join(map(str, pool_cells)),
              "CONCEPT PossibleTargets:"]
    for name, members in sorted((concepts or {}).items()):
        lines.append(f"CONCEPT {name}: " + " ".join(map(str, members)))
        lines.append(f"CONCEPT {name}_gho: " + " ".join(map(str, members)))
    for f in fields:
        pairs = [(c, alloc[c].get(f, 0)) for c in cells] + [(p, 0) for p in pool_cells]
        body = " ".join(f"({a},{b})" for a, b in pairs)
        lines += [f"FROLE {f}: {body}", f"FROLE {f}_gho: {body}"]
    noms = {"null": 0, "T": 1, "F": 2}
    for v in variables:
        noms[v] = noms[f"{v}_gho"] = values.get(v, 0)
    lines += [f"NOMINAL {k} = {v}" for k, v in sorted(noms.items())]
    return "\n".join(lines) + "\n"


def _edge_prog(code: str, cnt_a: str = "top <= top", cnt_b: str = "top <= top") -> str:
    """A criterion-8-style one-edge program over fields f, variables x y
    and the data concept P1."""
    return (f"FIELDS f\nVARS x y\nCONCEPTS P1\nFORMULA pa: {cnt_a}\n"
            f"FORMULA pb: {cnt_b}\nNODE a cnt=pa\nNODE b cnt=pb\n"
            f"EDGE a -> b {{ {code} }}\n")


# (name, program text, expected: every VC valid == inductive, initial
# variable values); the verdicts are those of acceptance criterion 8
WALKER_STEP_TEXT = """\
FIELDS next
VARS e hd
NODE a
NODE b
EDGE a -> b { assume(~(e = null)); e := e.next }
"""

EDGE_CORPUS = [
    ("skip-trivial", _edge_prog("skip"), True, {}),
    ("null-assign-good", _edge_prog("x := null", cnt_b="x == null"), True, {}),
    ("null-assign-bad", _edge_prog("x := null", cnt_b="x <= Alloc"), False, {}),
    ("new-allocates", _edge_prog("x := new", cnt_b="x <= Alloc"), True, {}),
    ("skip-propagates", _edge_prog("skip", "x == null", "x == null"), True, {}),
    ("rem-pinning", _edge_prog("skip", "P1 == P1_gho", "P1 == P1_gho"), False, {}),
    ("ghost-stable", _edge_prog("x := y", "x_gho == y_gho", "x_gho == y_gho"), True, {}),
    ("if-branch", _edge_prog("if x = null then y := null fi",
                             cnt_b="not (x == null) or y == null"), True, {}),
    ("field-write", _edge_prog("x.f := null", "x <= Alloc", "x <= E f.null"), True,
     {"x": 3}),
]


def _edge_memory(values: dict[str, int], pool: int = 2) -> str:
    return memory_text(["f"], ["x", "y"], {3: {}}, pool, values, {"P1": []})


# ---------------------------------------------------------------------------
# Random loopless statements and heap formulas over the criterion-8 heap
# (field f, variables x y, data concept P1)

_VARS = ["x", "y"]
_FIELDS = ["f"]


def _expr(rng: random.Random) -> str:
    k = rng.randint(0, 5)
    return ["null", "T", "F"][k] if k < 3 else rng.choice(_VARS)


def _bool(rng: random.Random, depth: int = 1) -> str:
    if depth <= 0 or rng.random() < 0.5:
        # the left side is a variable or a field read: the parser reads a
        # leading T or F as the boolean constant, not as an expression
        left = rng.choice(_VARS)
        if rng.random() < 0.4:
            left += f".{rng.choice(_FIELDS)}"
        return f"{left} = {_expr(rng)}"
    k = rng.randint(0, 2)
    if k == 0:
        return f"~({_bool(rng, depth - 1)})"
    op = "and" if k == 1 else "or"
    return f"({_bool(rng, depth - 1)}) {op} ({_bool(rng, depth - 1)})"


def _atomic_stmt(rng: random.Random) -> str:
    k = rng.randint(0, 6)
    v = rng.choice(_VARS)
    if k == 0:
        return "skip"
    if k == 1:
        return f"{v} := {_expr(rng)}"
    if k == 2:
        return f"{v} := {rng.choice(_VARS)}.{rng.choice(_FIELDS)}"
    if k == 3:
        return f"{v}.{rng.choice(_FIELDS)} := {_expr(rng)}"
    if k == 4:
        return f"{v} := new"
    if k == 5:
        return f"dispose({v})"
    return f"assume({_bool(rng)})"


def random_stmt_text(rng: random.Random, size: int) -> str:
    if size <= 1:
        return _atomic_stmt(rng)
    if rng.random() < 0.25:
        half = size // 2
        return (f"if {_bool(rng)} then {random_stmt_text(rng, half)} "
                f"else {random_stmt_text(rng, size - half)} fi")
    return f"{_atomic_stmt(rng)}; {random_stmt_text(rng, size - 1)}"


_HEAP_ATOMS = ["Alloc", "Addresses", "Aux", "P1", "P1_gho", "null", "T", "F",
               "x", "y", "x_gho", "y_gho"]
_HEAP_ROLES = ["f", "f_gho"]


def random_heap_formula_text(rng: random.Random) -> str:
    return _formula(rng, _HEAP_ATOMS, _HEAP_ROLES, 1, 2)


def random_edge_prog(rng: random.Random, size: int) -> str:
    return ("FIELDS f\nVARS x y\nCONCEPTS P1\n"
            f"FORMULA post: {random_heap_formula_text(rng)}\n"
            "NODE a\nNODE b cnt=post\n"
            f"EDGE a -> b {{ {random_stmt_text(rng, size)} }}\n")


# ---------------------------------------------------------------------------
# Workloads
#
# Each workload is a fixed corpus plus a seeded random part of fixed size
# and composition.  The random parts are drawn so that their cost does not
# swing the run from seed to seed: random implication and satisfiability
# queries run at universe 3 (at universe 4 their cost is heavy-tailed,
# 5 ms to 1.6 s), random reduce specs are drawn by closure size, the main
# driver of their cost, and random programs feed wp and reach but not vc
# (bounded VC search on random programs ran from 1 ms to 35 s).  The pass
# sizes put the p90 of each workload inside a group of queries of similar
# cost, not at its edge.

RANDOM_PAIRS = 28          # check-implies at universe RANDOM_PAIR_UNIVERSE
RANDOM_SAT = 7             # check-sat at universe RANDOM_PAIR_UNIVERSE
RANDOM_PAIR_UNIVERSE = 3
# random reduce specs per closure size; closure 6 gets poly and exp with
# the round trip, 7..9 poly with the round trip, 10..13 poly output only
RANDOM_REDUCE = {6: 12, 7: 12, 8: 12, 9: 8, 10: 3, 11: 2, 12: 2, 13: 1}
RANDOM_PROGRAMS = 28       # one wp and one reach query each

EXP_CLOSURE = 6            # exp variant only where 2^|closure| <= 64
WITNESS_CLOSURE = 9        # round trip only where the counter part <= 512


def implies_search(rng: random.Random) -> list[dict]:
    out = []
    names = ("list", "alist", "clist")
    for n in (4, 5):
        for a in names:
            for b in names:
                if a != b or n == 4:
                    out.append({"id": f"k-{a}-{b}-{n}", "verb": "check-implies",
                                "texts": {"spec1": WORKED[a], "spec2": WORKED[b]},
                                "args": {"max_universe": n}})
    out.append({"id": "k-tree-tree-3", "verb": "check-implies",
                "texts": {"spec1": TREE_TEXT, "spec2": TREE_TEXT},
                "args": {"max_universe": 3}})
    for name in ("list", "alist", "clist", "tree"):
        out.append({"id": f"sat-{name}-5", "verb": "check-sat",
                    "texts": {"spec": WORKED[name]}, "args": {"max_universe": 5}})
    for i in range(RANDOM_PAIRS):
        out.append({"id": f"r-k{i}", "verb": "check-implies",
                    "texts": {"spec1": random_spec_text(rng, False),
                              "spec2": random_spec_text(rng, False)},
                    "args": {"max_universe": RANDOM_PAIR_UNIVERSE}})
    for i in range(RANDOM_SAT):
        out.append({"id": f"r-sat{i}", "verb": "check-sat",
                    "texts": {"spec": random_spec_text(rng, False)},
                    "args": {"max_universe": RANDOM_PAIR_UNIVERSE}})
    return out


def closure_size(spec_text: str) -> int:
    """|closure(semi(spec))|: the order gadget has 2^this many elements."""
    from reachdl.parser import parse_spec_file
    from reachdl.reduction import semi_formula
    from reachdl.syntax import closure_concepts

    return len(closure_concepts(semi_formula(parse_spec_file(spec_text)[1])))


def _reduce_queries(qid: str, text: str, k: int) -> list[dict]:
    variants = ("poly", "exp") if k <= EXP_CLOSURE else ("poly",)
    return [{"id": f"{qid}-{v}", "verb": "reduce", "texts": {"spec": text},
             "args": {"ord": v, "witness": k <= WITNESS_CLOSURE}} for v in variants]


def reduce_witness(rng: random.Random) -> list[dict]:
    out = []
    for name, text in WORKED.items():
        out += _reduce_queries(f"red-{name}", text, closure_size(text))
    quota = dict(RANDOM_REDUCE)
    i = 0
    while any(quota.values()):
        text = random_spec_text(rng, rng.random() < 0.25)
        k = closure_size(text)
        if quota.get(k):
            quota[k] -= 1
            out += _reduce_queries(f"r-red{i}", text, k)
            i += 1
    return out


def heap_verify(rng: random.Random) -> list[dict]:
    walker = {"program": WALKER_TEXT}
    out = [{"id": "vc-walker", "verb": "vc", "texts": walker, "args": {"bound": 3}},
           {"id": "ind-walker", "verb": "inductive",
            "texts": {**walker, "memory": WALKER_MEMORY}, "args": {"bound": 3}},
           {"id": "reach-walker", "verb": "reach",
            "texts": {**walker, "memory": WALKER_MEMORY}, "args": {"depth": 5}},
           {"id": "reach-builder", "verb": "reach",
            "texts": {"program": BUILDER_TEXT,
                      "memory": memory_text(["next"], ["x", "hd"], {}, 6, {})},
            "args": {"depth": 7}},
           {"id": "wp-walker-step", "verb": "wp",
            "texts": {"program": WALKER_STEP_TEXT,
                      "formula": "Alloc <= E next.(Alloc | null) and e <= Alloc | null"},
            "args": {}}]
    for name, prog, _, values in EDGE_CORPUS:
        texts = {"program": prog, "memory": _edge_memory(values)}
        out.append({"id": f"vc-{name}", "verb": "vc", "texts": texts, "args": {"bound": 3}})
        out.append({"id": f"ind-{name}", "verb": "inductive", "texts": texts,
                    "args": {"bound": 3}})
    for i in range(RANDOM_PROGRAMS):
        prog = random_edge_prog(rng, rng.randint(1, 4))
        out.append({"id": f"r-wp{i}", "verb": "wp",
                    "texts": {"program": prog, "formula": random_heap_formula_text(rng)},
                    "args": {}})
        # a pool cell for each of the at most 4 commands, so `new` never
        # runs out of cells
        out.append({"id": f"r-reach{i}", "verb": "reach",
                    "texts": {"program": prog, "memory": _edge_memory({"x": 3}, pool=4)},
                    "args": {"depth": 1}})
    return out


WORKLOADS = {"implies-search": implies_search, "reduce-witness": reduce_witness,
             "heap-verify": heap_verify}


def check_parses(queries: list[dict]) -> None:
    """Parse every generated text; a text that does not parse raises."""
    from reachdl.parser import (parse_formula_file, parse_memory_file,
                                parse_program_file, parse_spec_file)

    for q in queries:
        t = q["texts"]
        for key in ("spec", "spec1", "spec2"):
            if key in t:
                parse_spec_file(t[key])
        if "program" in t:
            prog = parse_program_file(t["program"])
            if "memory" in t:
                parse_memory_file(t["memory"])
            if "formula" in t:
                parse_formula_file(t["formula"], base=prog.vocabulary())


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's queries for one seed, every text checked to parse."""
    # one stream per workload, so adding a workload leaves the others as they are
    queries = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    check_parses(queries)
    return queries


def digest(queries: list[dict]) -> str:
    """Digest of the generated texts: equal seeds give equal digests."""
    blob = json.dumps(queries, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
