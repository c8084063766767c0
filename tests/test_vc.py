import os
import random
import subprocess
import sys
from copy import deepcopy
from itertools import islice
from pathlib import Path

import pytest

from reachdl.memory import (HeapVocabulary, MemorySearch, MemoryStructure,
                            PoolExhaustedError, make_memory)
from reachdl.models import CeilingExceededError, formula_plan
from reachdl.parser import parse_formula, parse_memory_file, parse_program_file
from reachdl.programs import (ABORT, Program, relabel, Assign, NullE, Skip, New,
                              WriteField, run_all)
from reachdl.structures import MissingNominalError, eval_formula
from reachdl.syntax import (FAnd, FNot, FOr, Incl, Eq, Not, ReachDLError, TRUE,
                            Vocabulary, to_text)
from reachdl.vc import (MissingAnnotationError, _rem_variants, check_all_vcs,
                        check_inductive, check_reach_soundness, check_vc,
                        vc_formula)
from gen import (DEFAULT_HEAP, random_concept, random_formula, random_heap_formula,
                 random_memory, random_program_stmt)

HEAP = HeapVocabulary(fields=("f",), variables=("x", "y"), data_concepts=("P1",))
V = HEAP.vocabulary()


def tiny_program(code, cnt_a=TRUE, cnt_b=TRUE, shp_a=TRUE, shp_b=TRUE):
    return Program(HEAP, ("a", "b"), (("a", "b"),), "a",
                   {"a": shp_a, "b": shp_b}, {"a": cnt_a, "b": cnt_b},
                   {("a", "b"): relabel(code)})


def test_vc_trivial_head_annotation_valid():
    prog = tiny_program(Skip())
    entry = check_vc(prog, ("a", "b"), bound=2)
    assert entry.verdict == "valid-up-to-bound"


def test_vc_missing_annotation():
    prog = Program(HEAP, ("a", "b"), (("a", "b"),), "a", {"a": TRUE}, {},
                   {("a", "b"): relabel(Skip())})
    with pytest.raises(MissingAnnotationError):
        vc_formula(prog, ("a", "b"))


def test_vc_null_assignment_valid():
    cnt_b = parse_formula("x == null", V)
    prog = tiny_program(Assign("x", NullE()), cnt_b=cnt_b)
    entry = check_vc(prog, ("a", "b"), bound=2)
    assert entry.verdict == "valid-up-to-bound"


def test_vc_new_allocates_valid():
    cnt_b = parse_formula("x <= Alloc", V)
    prog = tiny_program(New("x"), cnt_b=cnt_b)
    entry = check_vc(prog, ("a", "b"), bound=2)
    assert entry.verdict == "valid-up-to-bound"


def test_vc_wrong_annotation_counterexample():
    cnt_b = parse_formula("x <= Alloc", V)
    prog = tiny_program(Assign("x", NullE()), cnt_b=cnt_b)
    entry = check_vc(prog, ("a", "b"), bound=2)
    assert entry.verdict == "counterexample"
    # the reported structure satisfies the negation of the VC
    vc = vc_formula(prog, ("a", "b"))
    assert not eval_formula(entry.counterexample, vc)


def test_vc_bound_exhausted():
    prog = tiny_program(Skip())
    assert check_vc(prog, ("a", "b"), bound=0).verdict == "bound-exhausted"


def two_skip_edges():
    return Program(HEAP, ("a", "b", "c"), (("a", "b"), ("a", "c")), "a",
                   {"a": TRUE, "b": TRUE, "c": TRUE},
                   {"a": TRUE, "b": TRUE, "c": TRUE},
                   {("a", "b"): relabel(Skip()), ("a", "c"): relabel(Skip())})


def test_check_all_vcs_sorted():
    entries = check_all_vcs(two_skip_edges(), 1)
    assert [e.edge for e in entries] == [("a", "b"), ("a", "c")]


def test_check_all_vcs_reports_serial_fallback(monkeypatch):
    """Without a process pool the edges are checked serially, with the same
    entries, and the fallback is reported."""
    import concurrent.futures

    prog = Program(HEAP, ("a", "b", "c"), (("a", "b"), ("a", "c")), "a",
                   {"a": TRUE, "b": TRUE, "c": TRUE},
                   {"a": TRUE, "b": TRUE, "c": parse_formula("x <= Alloc", V)},
                   {("a", "b"): relabel(Skip()), ("a", "c"): relabel(Assign("x", NullE()))})
    serial = check_all_vcs(prog, 1)

    def no_pool(*args, **kwargs):
        raise OSError("no semaphores")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pytest.warns(UserWarning, match="no semaphores"):
        assert check_all_vcs(prog, 1, jobs=2) == serial
    assert [e.verdict for e in serial] == ["valid-up-to-bound", "counterexample"]


def test_vc_entry_formula_is_built_when_read():
    """`VCEntry.formula` is the update-free VC on every verdict, built on
    first read; entries compare equal and survive pickling before and
    after it is built."""
    import pickle

    prog = Program(HEAP, ("a", "b", "c"), (("a", "b"), ("a", "c")), "a",
                   {"a": TRUE, "b": TRUE, "c": TRUE},
                   {"a": TRUE, "b": TRUE, "c": parse_formula("x <= Alloc", V)},
                   {("a", "b"): relabel(WriteField("x", "f", NullE())),
                    ("a", "c"): relabel(Assign("x", NullE()))})
    entries = [check_vc(prog, e, b) for e in sorted(prog.edges) for b in (0, 1)]
    assert [e.verdict for e in entries] == ["bound-exhausted", "valid-up-to-bound",
                                            "bound-exhausted", "counterexample"]
    for e in entries:
        assert "formula" not in vars(e) or e.verdict == "counterexample"
        before = pickle.loads(pickle.dumps(e))
        assert e.formula == vc_formula(prog, e.edge) == before.formula
        assert before == e == pickle.loads(pickle.dumps(e))


def test_check_all_vcs_caps_the_pool_at_the_edges(monkeypatch):
    """A pool never gets more workers than there are edges: under fork it
    starts them all at the first submit.  The stand-in records the size
    and runs the calls on threads, which start only as calls arrive."""
    import concurrent.futures

    prog = two_skip_edges()
    asked = []

    def recording_pool(max_workers):
        asked.append(max_workers)
        return concurrent.futures.ThreadPoolExecutor(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    assert check_all_vcs(prog, 1, jobs=10**6) == check_all_vcs(prog, 1)
    assert asked == [2]


def test_inductive_trivial_and_broken():
    prog = tiny_program(Assign("x", NullE()),
                        cnt_b=parse_formula("x == null", V))
    init = [MemoryStructure(HEAP, make_memory(HEAP, alloc=1, pool=1).fs)]
    ok, witness = check_inductive(prog, init, bound=2)
    assert ok and witness is None
    broken = tiny_program(Assign("x", NullE()),
                          cnt_b=parse_formula("x <= Alloc", V))
    ok2, witness2 = check_inductive(broken, init, bound=2)
    assert not ok2 and witness2.edge == ("a", "b")


def test_bounds_over_the_ceiling_raise(monkeypatch):
    """check_vc, check_all_vcs and check_inductive refuse a bound whose
    universe, 3 + bound, exceeds the search ceiling, before any check (a
    failing initial structure included); bound 0 searches nothing."""
    prog = tiny_program(Skip(), cnt_a=parse_formula("x <= Alloc", V))
    init = [make_memory(HEAP, alloc=1, pool=1)]
    monkeypatch.setenv("REACHDL_CEILING", "5")
    for call in (lambda: check_vc(prog, ("a", "b"), 3), lambda: check_all_vcs(prog, 3),
                 lambda: check_inductive(prog, init, 3)):
        with pytest.raises(CeilingExceededError, match="bound 3 needs universe 6"):
            call()
    assert check_vc(prog, ("a", "b"), 2).verdict == "valid-up-to-bound"
    assert check_inductive(prog, init, 2)[1].edge is None
    monkeypatch.setenv("REACHDL_CEILING", "1")
    assert check_vc(prog, ("a", "b"), 0).verdict == "bound-exhausted"
    assert check_inductive(prog, init, 0)[1].edge is None


def test_inductive_rejects_bad_init():
    prog = tiny_program(Skip(), cnt_a=parse_formula("x <= Alloc", V))
    init = [make_memory(HEAP, alloc=1, pool=1)]  # x defaults to null
    ok, witness = check_inductive(prog, init, bound=1)
    assert not ok and witness.edge is None


def test_inductive_rem_relations_enumerated():
    """Unconstrained relations take arbitrary post-values, so an annotation
    pinning P1 against its ghost is not inductive even under skip."""
    cnt = parse_formula("P1 == P1_gho", V)
    prog = tiny_program(Skip(), cnt_a=cnt, cnt_b=cnt)
    m = make_memory(HEAP, alloc=1, pool=1)
    ok, witness = check_inductive(prog, [m], bound=1)
    assert not ok
    # ... and the VC agrees (coherence on this instance)
    assert check_vc(prog, ("a", "b"), bound=1).verdict == "counterexample"


def test_vc_inductive_coherence_small_corpus():
    cases = [
        tiny_program(Skip()),
        tiny_program(Assign("x", NullE()), cnt_b=parse_formula("x == null", V)),
        tiny_program(Assign("x", NullE()), cnt_b=parse_formula("x <= Alloc", V)),
        tiny_program(New("x"), cnt_b=parse_formula("x <= Alloc", V)),
        tiny_program(Skip(), cnt_a=parse_formula("x == null", V),
                     cnt_b=parse_formula("x == null", V)),
    ]
    init = [make_memory(HEAP, alloc=1, pool=1)]
    for prog in cases:
        entries = check_all_vcs(prog, 2)
        all_valid = all(e.verdict == "valid-up-to-bound" for e in entries)
        inductive, _ = check_inductive(prog, init, bound=2)
        if all_valid:
            assert inductive or not eval_formula(init[0].fs, prog.cnt["a"])
        else:
            assert not inductive


def test_reach_soundness_walker():
    text = """
FIELDS next
VARS e hd
FORMULA einl: e <= Alloc or e == null
NODE lb
NODE ll cnt=einl
NODE le cnt=einl
EDGE lb -> ll { e := hd }
EDGE ll -> ll { assume(~(e = null)); e := e.next }
EDGE ll -> le { assume(e = null) }
"""
    prog = parse_program_file(text)
    m = make_memory(prog.heap, alloc=2, targets=0, pool=2,
                    fields={"next": {3: 4, 4: 0}}, variables={"hd": 3, "e": 0})
    assert check_reach_soundness(prog, [m], depth=6)
    # a dangling list breaks the annotation: point hd's next outside Alloc
    bad = make_memory(prog.heap, alloc=1, targets=1, pool=2,
                      fields={"next": {3: 4, 4: 0}}, variables={"hd": 3, "e": 0})
    assert not check_reach_soundness(prog, [bad], depth=6)


@pytest.mark.parametrize("code, cnt_a, cnt_b, want", [
    ("x.f := x; dispose(x)", "x <= Alloc and Addresses & !Alloc <= E f.(null | F)",
     "Addresses & !Alloc <= E f.(null | F)", True),
    ("x.f := y; dispose(x)", "x <= Alloc", "x <= E f.null", True),
    ("x.f := y; dispose(y)", "x <= Alloc", "x <= E f.y", False),
    ("x.f := y; dispose(x)", "x <= Alloc and not (y == null)", "x <= E f.y", False),
    ("skip", "x <= E r.top", "x <= E r.top", False),
    ("x := null", "E r.top <= E r.top | x", "E r.top <= E r.top | x", True),
])
def test_write_then_dispose_vc_agrees_with_inductive(code, cnt_a, cnt_b, want):
    """Bound 2: every VC valid iff the edge is inductive, on programs that
    write a field of a cell and then dispose of it; and at bound 1 on
    programs whose head annotation names the data role r, whose post-state
    copy r_ext the VC search binds (bound 2 does not finish in minutes)."""
    roles = "ROLES r\n" if " r." in cnt_b else ""
    bound = 1 if roles else 2
    prog = parse_program_file(
        f"FIELDS f\nVARS x y\n{roles}FORMULA pa: {cnt_a}\nFORMULA pb: {cnt_b}\n"
        f"NODE a cnt=pa\nNODE b cnt=pb\nEDGE a -> b {{ {code} }}\n")
    all_valid = all(e.verdict == "valid-up-to-bound" for e in check_all_vcs(prog, bound))
    inductive, _ = check_inductive(prog, [], bound)
    assert all_valid == inductive == want


def test_reduced_post_states_keep_the_inductive_witness(monkeypatch):
    """check_inductive returns the same verdict and witness (edge, pre-
    and post-state), or raises the same error, on the VC golden's seeded
    programs at bound 2 whether a post-state's allocations take the least
    cell of each class of interchangeable pool cells or every pool cell."""
    import json

    import reachdl.programs as programs
    from test_vc_golden import GOLDEN, seeded_program

    names = sorted(name for name in json.loads(GOLDEN.read_text()) if name.startswith("seeded-"))
    progs = [parse_program_file(seeded_program(int(name.split("-")[1]))) for name in names]
    merged = []
    leaders = programs._class_leaders

    def counting_leaders(ms, cells):
        out = leaders(ms, cells)
        merged.append(len(out) < len(cells))
        return out

    def results():
        out = []
        for prog in progs:
            try:
                ok, witness = check_inductive(prog, [], 2)
            except ReachDLError as err:
                out.append(type(err))
                continue
            out.append((ok, witness and (witness.edge, witness.before, witness.after)))
        return out

    monkeypatch.setattr(programs, "_class_leaders", counting_leaders)
    reduced = results()
    assert any(merged)
    monkeypatch.setattr(programs, "_class_leaders", lambda ms, cells: cells)
    assert results() == reduced
    assert {True, False, PoolExhaustedError} <= {r if isinstance(r, type) else r[0]
                                                 for r in reduced}


WITNESS_SCRIPT = """
from reachdl.parser import parse_program_file, structure_to_text
from reachdl.vc import check_inductive
prog = parse_program_file(
    "FIELDS f\\nVARS x y\\nCONCEPTS P1\\nFORMULA pa: top <= top\\n"
    "FORMULA pb: x <= null\\nNODE a cnt=pa\\nNODE b cnt=pb\\n"
    "EDGE a -> b { x := new }\\n")
ok, witness = check_inductive(prog, [], 2, min_pool=2)
print(ok, witness.edge)
print(structure_to_text(witness.after), end="")
"""


def test_inductive_witness_independent_of_hash_seed():
    """The pre-state has two pool cells, so `x := new` has two failing
    outcomes; the witness is the run allocating the lesser cell, whatever
    the hash seed (a set of outcomes was iterated in hash order)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", WITNESS_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        outs.append(run.stdout)
    assert outs[0] == outs[1]
    assert outs[0].startswith("False ('a', 'b')\n") and "NOMINAL x = 3\n" in outs[0]


WALKER_SEED_SCRIPT = """
import hashlib
from reachdl.memory import make_memory
from reachdl.parser import parse_program_file, structure_to_text
from reachdl.programs import reach_sets
from reachdl.vc import check_inductive
prog = parse_program_file(
    "FIELDS next\\nVARS e hd\\nFORMULA pre: hd <= Alloc | null\\n"
    "FORMULA inv: e <= Alloc | null\\nNODE lb cnt=pre\\nNODE ll cnt=inv\\n"
    "NODE le cnt=inv\\nEDGE lb -> ll { e := hd }\\n"
    "EDGE ll -> ll { assume(~(e = null)); e := e.next }\\n"
    "EDGE ll -> le { assume(e = null) }\\n")
m = make_memory(prog.heap, alloc=2, pool=2, fields={"next": {3: 4, 4: 0}},
                variables={"hd": 3, "e": 0})
ok, witness = check_inductive(prog, [m], 2)
print(ok, witness.edge)
print(structure_to_text(witness.before), structure_to_text(witness.after), end="")
for node, states in sorted(reach_sets(prog, [m], 6).items()):
    texts = "".join(sorted(structure_to_text(s.fs) for s in states))
    print(node, len(states), hashlib.sha256(texts.encode()).hexdigest())
"""


def test_walker_witness_and_reach_sets_independent_of_hash_seed():
    """States hash by a tuple of ints: the walker's inductiveness witness
    and its reachable sets come out the same under hash seeds 0 and 1."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", WALKER_SEED_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        outs.append(run.stdout)
    assert outs[0] == outs[1]
    assert outs[0].startswith("False ('ll', 'll')\n")
    assert [line.split()[:2] for line in outs[0].splitlines()[-3:]] == \
        [["lb", "1"], ["le", "1"], ["ll", "3"]]


def _plan_formulas(rng, heap, count):
    """Random annotations, formulas that also name a concept and a nominal
    no structure interprets, and formulas sharing subterms (one object
    read twice, and a structurally equal copy)."""
    vocab = heap.annotation_vocabulary()
    wider = Vocabulary(vocab.concepts | {"Q"}, vocab.roles, vocab.functional,
                       vocab.nominals | {"w"})
    out = []
    for _ in range(count):
        out.append(random_heap_formula(rng, heap))
        out.append(random_formula(rng, wider, depth=1, cdepth=2))
        c, d = random_concept(rng, vocab, 2), random_concept(rng, vocab, 2)
        out.append(FAnd(FOr(Incl(c, d), Eq(d, Not(c))), FNot(Incl(deepcopy(c), Not(d)))))
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MissingNominalError:
        return "missing"


def _assert_plans_agree(plans, structures):
    for phi, plan in plans:
        for m in structures:
            assert _outcome(plan, m) == _outcome(eval_formula, m.fs, phi), \
                (to_text(phi), m.fs)


def test_formula_plan_matches_eval_formula():
    """One plan per formula, evaluated over many structures, agrees with a
    fresh evaluator on each: the structures MemorySearch yields (the first
    1,500 of each search), the outcomes of random statements, and their
    _rem_variants."""
    rng = random.Random("formula-plan")
    heap = HEAP
    plans = [(phi, formula_plan(phi)) for phi in _plan_formulas(rng, heap, 6)]
    for n_addr in (1, 2):
        for _ in range(4):
            search = MemorySearch(heap, n_addr, (random_heap_formula(rng, heap),))
            _assert_plans_agree(plans, list(islice(search, 1500)))
    heap = DEFAULT_HEAP
    plans = [(phi, formula_plan(phi)) for phi in _plan_formulas(rng, heap, 6)]
    for _ in range(60):
        m = random_memory(rng, heap, max_cells=4)
        try:
            outs = [m2 for m2 in run_all(m, random_program_stmt(rng, heap, 3))
                    if m2 is not ABORT]
        except PoolExhaustedError:
            continue
        _assert_plans_agree(plans, outs)
        for m2 in outs[:2]:
            _assert_plans_agree(plans, list(_rem_variants(m2, ["P1"], [])))


def test_formula_plan_reads_a_missing_role_as_empty():
    """A state read from a file need not have an entry for every role; the
    plan reads such a role as empty, as `eval_formula` does."""
    heap = HeapVocabulary(fields=("f",), variables=("x",), data_roles=("r",))
    text = ("MEMORY\nFIELDS f\nVARS x\nROLES r\nUNIVERSE 0..4\nCONCEPT Addresses: 3 4\n"
            "CONCEPT Alloc: 3\nCONCEPT Aux: 0 1 2\nCONCEPT MemPool: 4\n"
            "FROLE f: (3,0) (4,0)\nFROLE f_gho: (3,0) (4,0)\n"
            "NOMINAL null = 0\nNOMINAL T = 1\nNOMINAL F = 2\nNOMINAL x = 3\n"
            "NOMINAL x_gho = 3\n")
    m = parse_memory_file(text, heap)
    assert "r" not in m.fs.roles
    vocab = heap.vocabulary()
    for phi in ("x <= E r.top", "E r^-.top <= bot", "x <= E<=0 r.top",
                "x <= E f.null and E r_gho.top == bot"):
        phi = parse_formula(phi, vocab)
        assert formula_plan(phi)(m) == eval_formula(m.fs, phi)
