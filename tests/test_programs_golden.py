"""Goldens for the statement walks and the step relation.

The CLI cases run `run`, `reach`, `vc --bound 2` and `wp --json` on the
benchmark's fixed heap programs (the walker, the list builder and the nine
one-edge criterion-8 programs, copied here).  The walk digests hash the
output of relabel, instrument_abort, touched_symbols and parse_block on
200 seeded statements.  None of these programs disposes a cell.

Re-record (only on purpose, saying why):
    PYTHONPATH=src:tests python tests/test_programs_golden.py --record
"""

import hashlib
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from reachdl.cli import main
from reachdl.memory import PoolExhaustedError
from reachdl.parser import parse_block, parse_program_file
from reachdl.programs import (ABORT, AndB, Assign, Assume, Dispose, EqB,
                              FalseE, FieldE, New, NotB, NullE, OrB,
                              ReadField, Seq, Skip, TrueB, TrueE, VarE,
                              WriteField, commands, instrument_abort,
                              relabel, run_all, run_labeled, run_loopless,
                              touched_symbols)
from gen import DEFAULT_HEAP, random_memory, random_stmt

GOLDEN = Path(__file__).with_name("golden_programs.json")

WALKER = """\
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

BUILDER = """\
FIELDS next
VARS x hd
FORMULA inv: Alloc <= E next.(Alloc | null) and hd <= Alloc | null
NODE lb cnt=inv
NODE ll cnt=inv
EDGE lb -> ll { skip }
EDGE ll -> ll { x := new; x.next := hd; hd := x }
"""

WALKER_STEP = """\
FIELDS next
VARS e hd
NODE a
NODE b
EDGE a -> b { assume(~(e = null)); e := e.next }
"""


def memory_text(fields, variables, alloc, pool, values, concepts=()):
    """Aux cells 0..2, allocated cells from 3 on (fields at null unless
    given), then `pool` pool cells; ghosts snapshot the current state."""
    cells = sorted(alloc)
    pool_cells = list(range(3 + len(cells), 3 + len(cells) + pool))
    lines = ["MEMORY", f"FIELDS {' '.join(fields)}", f"VARS {' '.join(variables)}"]
    if concepts:
        lines.append(f"CONCEPTS {' '.join(concepts)}")
    lines += [f"UNIVERSE 0..{2 + len(cells) + pool}",
              "CONCEPT Addresses: " + " ".join(map(str, cells + pool_cells)),
              "CONCEPT Alloc: " + " ".join(map(str, cells)),
              "CONCEPT Aux: 0 1 2",
              "CONCEPT MemPool: " + " ".join(map(str, pool_cells)),
              "CONCEPT PossibleTargets:"]
    for name in concepts:
        lines += [f"CONCEPT {name}:", f"CONCEPT {name}_gho:"]
    for f in fields:
        pairs = [(c, alloc[c].get(f, 0)) for c in cells] + [(p, 0) for p in pool_cells]
        body = " ".join(f"({a},{b})" for a, b in pairs)
        lines += [f"FROLE {f}: {body}", f"FROLE {f}_gho: {body}"]
    noms = {"null": 0, "T": 1, "F": 2}
    for v in variables:
        noms[v] = noms[f"{v}_gho"] = values.get(v, 0)
    lines += [f"NOMINAL {k} = {v}" for k, v in sorted(noms.items())]
    return "\n".join(lines) + "\n"


def edge_prog(code, cnt_a="top <= top", cnt_b="top <= top"):
    return (f"FIELDS f\nVARS x y\nCONCEPTS P1\nFORMULA pa: {cnt_a}\n"
            f"FORMULA pb: {cnt_b}\nNODE a cnt=pa\nNODE b cnt=pb\n"
            f"EDGE a -> b {{ {code} }}\n")


EDGE_CORPUS = [
    ("skip-trivial", edge_prog("skip"), {}),
    ("null-assign-good", edge_prog("x := null", cnt_b="x == null"), {}),
    ("null-assign-bad", edge_prog("x := null", cnt_b="x <= Alloc"), {}),
    ("new-allocates", edge_prog("x := new", cnt_b="x <= Alloc"), {}),
    ("skip-propagates", edge_prog("skip", "x == null", "x == null"), {}),
    ("rem-pinning", edge_prog("skip", "P1 == P1_gho", "P1 == P1_gho"), {}),
    ("ghost-stable", edge_prog("x := y", "x_gho == y_gho", "x_gho == y_gho"), {}),
    ("if-branch", edge_prog("if x = null then y := null fi",
                            cnt_b="not (x == null) or y == null"), {}),
    ("field-write", edge_prog("x.f := null", "x <= Alloc", "x <= E f.null"), {"x": 3}),
]

WALKER_MEMORY = memory_text(["next"], ["e", "hd"], {3: {"next": 4}, 4: {}}, 2,
                            {"hd": 3})
BUILDER_MEMORY = memory_text(["next"], ["x", "hd"], {}, 6, {})

# (name, program, memory, run path, reach depth, wp formula or None)
CASES = [
    ("walker", WALKER, WALKER_MEMORY, "lb,ll,ll,ll,le", 5, None),
    ("builder", BUILDER, BUILDER_MEMORY, "lb,ll,ll,ll", 7, None),
    ("walker-step", WALKER_STEP, WALKER_MEMORY, "a,b", 1,
     "Alloc <= E next.(Alloc | null) and e <= Alloc | null"),
] + [(name, prog, memory_text(["f"], ["x", "y"], {3: {}}, 2, values, ("P1",)),
      "a,b", 3, "x <= E f.(null | Alloc)")
     for name, prog, values in EDGE_CORPUS]


def _cli(tmp_path, case):
    name, prog, memory, path, depth, formula = case
    files = {"prog": prog, "mem": memory}
    if formula is not None:
        files["phi"] = formula + "\n"
    for key, text in files.items():
        (tmp_path / key).write_text(text)
    p = {key: str(tmp_path / key) for key in files}
    runs = {"run": ["run", p["prog"], p["mem"], "--path", path],
            "reach": ["reach", p["prog"], p["mem"], "--depth", str(depth)],
            "vc": ["vc", p["prog"], "--bound", "2",
                   "--cex-prefix", str(tmp_path / "cex")]}
    if formula is not None:
        runs["wp"] = ["wp", "--json", p["prog"], p["phi"]]
    out = {}
    for verb, argv in runs.items():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(argv)
        out[verb] = [code, buf.getvalue().replace(str(tmp_path), "<tmp>")]
    for cex in sorted(tmp_path.glob("cex_*")):
        out[f"cex {cex.name}"] = [0, cex.read_text()]
    return out


# ---------------------------------------------------------------------------
# Walk digests over seeded statements


_BOOL_OPS = {AndB: "and", OrB: "or"}


def expr_text(e):
    if isinstance(e, VarE):
        return e.name
    if isinstance(e, FieldE):
        return f"{e.var}.{e.fieldname}"
    return {NullE: "null", TrueE: "T", FalseE: "F"}[type(e)]


def bool_text(b):
    if isinstance(b, EqB):
        return f"{expr_text(b.left)} = {expr_text(b.right)}"
    if isinstance(b, NotB):
        return f"~({bool_text(b.inner)})"
    if isinstance(b, (AndB, OrB)):
        return f"({bool_text(b.left)}) {_BOOL_OPS[type(b)]} ({bool_text(b.right)})"
    return "T" if isinstance(b, TrueB) else "F"


def stmt_text(s):
    """Surface syntax; an if with a skip else branch prints without else,
    so parsing it exercises the desugaring."""
    if isinstance(s, Seq):
        return f"{stmt_text(s.first)}; {stmt_text(s.second)}"
    if isinstance(s, Skip):
        return "skip"
    if isinstance(s, Assign):
        return f"{s.var} := {expr_text(s.expr)}"
    if isinstance(s, ReadField):
        return f"{s.var} := {s.src}.{s.fieldname}"
    if isinstance(s, WriteField):
        return f"{s.var}.{s.fieldname} := {expr_text(s.expr)}"
    if isinstance(s, New):
        return f"{s.var} := new"
    if isinstance(s, Dispose):
        return f"dispose({s.var})"
    if isinstance(s, Assume):
        return f"assume({bool_text(s.cond)})"
    tail = "" if s.els == Skip() else f" else {stmt_text(s.els)}"
    return f"if {bool_text(s.cond)} then {stmt_text(s.then)}{tail} fi"


def seeded_statements(n=200):
    rng = random.Random(2718)
    return [random_stmt(rng, DEFAULT_HEAP, rng.randint(1, 8)) for _ in range(n)]


def _sha(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def walk_digests():
    stmts = seeded_statements()
    labeled = [relabel(s, start=1 + i % 3) for i, s in enumerate(stmts)]
    out = {
        "relabel": _sha(repr(s) for s in labeled),
        "instrument-semantic": _sha(repr(instrument_abort(s)) for s in labeled),
        "instrument-null-test": _sha(repr(instrument_abort(s, "null-test"))
                                     for s in labeled),
        "touched": _sha(repr(tuple(sorted(part) for part in touched_symbols(s)))
                        for s in stmts),
    }
    # every fourth block gains a field-to-field write, which desugars
    # through a fresh temporary
    texts = [stmt_text(s) + ("; x.f := y.g" if i % 4 == 0 else "")
             for i, s in enumerate(stmts)]
    out["parse-block"] = _sha(repr(parse_block(t)) for t in texts)
    # the program parser renames each block's temporaries apart
    prog_text = "FIELDS f g\nVARS x y z\nCONCEPTS P1\n" + "".join(
        f"NODE n{i}\n" for i in range(21)) + "".join(
        f"EDGE n{i} -> n{i + 1} {{ {t} }}\n" for i, t in enumerate(texts[:20]))
    prog = parse_program_file(prog_text)
    out["parse-program"] = _sha([repr(prog.heap)] + [repr((e, prog.code[e]))
                                                     for e in sorted(prog.code)])
    return out


def record():
    golden = {"walks": walk_digests(), "cli": {}}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            golden["cli"][case[0]] = _cli(Path(tmp), case)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Tests


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_cli_golden(case, tmp_path):
    want = json.loads(GOLDEN.read_text())["cli"][case[0]]
    assert _cli(tmp_path, case) == want


def test_walk_digests_golden():
    assert walk_digests() == json.loads(GOLDEN.read_text())["walks"]


def test_least_cell_run_is_one_of_all_runs():
    """run_loopless's outcome is among run_all's, and its allocations take
    the pool cells in increasing order, the least free one each time."""
    rng = random.Random(3141)
    checked = 0
    for _ in range(300):
        m = random_memory(rng)
        s = relabel(random_stmt(rng, DEFAULT_HEAP, rng.randint(1, 6)))
        trace = {}
        try:
            one = run_loopless(m, s, trace=trace)
        except PoolExhaustedError:
            with pytest.raises(PoolExhaustedError):
                run_all(m, s)
            continue
        assert one in run_all(m, s)
        news = {c.label for c in commands(s) if isinstance(c, New)}
        cells = [v for lab, v in trace.items() if lab in news]
        assert cells == sorted(m.pool())[:len(cells)]
        if one is not ABORT:
            assert run_labeled(m, s, trace) == one
        checked += 1
    assert checked > 200


if __name__ == "__main__" and "--record" in sys.argv:
    record()
