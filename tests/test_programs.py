import random
from itertools import product

import pytest

from reachdl.memory import HeapVocabulary, MemoryStructure, make_memory
from reachdl.parser import parse_block, parse_program_file
from reachdl.programs import (ABORT, ERR, Assign, Assume, Dispose, EqB, FalseB,
                              FalseE, FieldE, If, New, NotB, NullE, OrB,
                              Program, ReadField, Seq, Skip, StateCapError,
                              TrueB, TrueE, UnallocB, VarE, WriteField,
                              eval_bool, eval_expr, instrument_abort, labels_of,
                              reach_sets, relabel, run_all, run_labeled,
                              run_loopless, run_path, seq)
from gen import DEFAULT_HEAP, random_bool, random_memory, random_stmt

HEAP = HeapVocabulary(fields=("f",), variables=("x", "y"), data_concepts=("P1",))


def mem(**kw):
    return make_memory(HEAP, **kw)


# ---------------------------------------------------------------------------
# Expressions


def test_eval_expr_rows():
    m = mem(alloc=1, pool=2, variables={"x": 3, "y": 0}, fields={"f": {3: 0}})
    assert eval_expr(m, VarE("x")) == 3          # bare reads are total
    assert eval_expr(m, VarE("y")) == 0          # even when pointing at null
    assert eval_expr(m, NullE()) == m.null()
    assert eval_expr(m, TrueE()) == m.true_elem()
    assert eval_expr(m, FieldE("x", "f")) == 0   # allocated base: field image
    assert eval_expr(m, FieldE("y", "f")) is ERR  # unallocated base errs


def test_eval_bool_rows():
    m = mem(alloc=1, pool=2, variables={"x": 3, "y": 3})
    assert eval_bool(m, EqB(VarE("x"), VarE("y"))) is True
    assert eval_bool(m, EqB(VarE("x"), NullE())) is False
    assert eval_bool(m, NotB(EqB(VarE("x"), NullE()))) is True
    m2 = mem(alloc=1, pool=2, variables={"x": 0, "y": 3})
    assert eval_bool(m2, EqB(FieldE("x", "f"), VarE("y"))) is ERR
    # strict propagation through the connectives
    assert eval_bool(m2, OrB(EqB(VarE("x"), VarE("x")),
                             EqB(FieldE("x", "f"), VarE("y")))) is ERR
    assert eval_bool(m2, UnallocB("x")) is True


# ---------------------------------------------------------------------------
# Steps


def test_skip_and_assume():
    m = mem(alloc=1, pool=2, variables={"x": 0})
    assert run_loopless(m, Skip()) == m
    # assume(x = null) with x at null leaves the structure unchanged
    assert run_loopless(m, Assume(EqB(VarE("x"), NullE()))) == m
    assert run_loopless(m, Assume(NotB(EqB(VarE("x"), NullE())))) is ABORT


def test_new_then_dispose_cell_movement():
    m = mem(alloc=0, pool=3)
    s = relabel(seq(New("x"), Dispose("x")))
    out = run_loopless(m, s)
    assert out is not ABORT
    cell = out.var("x")
    assert cell == 3  # least pool element was allocated
    assert cell in out.targets() and cell not in out.alloc() and cell not in out.pool()


def test_dispose_unallocated_aborts():
    m = mem(alloc=0, pool=2, variables={"x": 0})
    assert run_loopless(m, Dispose("x")) is ABORT


def test_read_write_and_abort():
    m = mem(alloc=2, pool=2, variables={"x": 3, "y": 4}, fields={"f": {3: 4, 4: 0}})
    out = run_loopless(m, ReadField("y", "x", "f"))
    assert out.var("y") == 4
    out2 = run_loopless(m, WriteField("x", "f", NullE()))
    assert out2.field_value("f", 3) == 0
    dangling = mem(alloc=1, pool=2, variables={"x": 0, "y": 3})
    assert run_loopless(dangling, ReadField("y", "x", "f")) is ABORT
    assert run_loopless(dangling, WriteField("x", "f", NullE())) is ABORT


def test_memory_axioms_preserved_random():
    rng = random.Random(71)
    for _ in range(300):
        m = random_memory(rng)
        s = relabel(random_stmt(rng, DEFAULT_HEAP, rng.randint(1, 5)))
        try:
            out = run_loopless(m, s)
        except Exception as exc:
            from reachdl.memory import PoolExhaustedError

            assert isinstance(exc, PoolExhaustedError)
            continue
        if out is not ABORT:
            assert out.violations(min_pool=0) == [], (s, out.violations(0))
            # ghost interpretations never change
            for name in out.fs.roles:
                if name.endswith("_gho"):
                    assert out.fs.role_ext(name) == m.fs.role_ext(name)
            for name in out.fs.concepts:
                if name.endswith("_gho"):
                    assert out.fs.concept_ext(name) == m.fs.concept_ext(name)


# ---------------------------------------------------------------------------
# Labeled runs


def test_run_labeled_examples():
    m = mem(alloc=2, pool=2, variables={"x": 3, "y": 4}, fields={"f": {3: 4, 4: 0}})
    s = relabel(ReadField("y", "x", "f"))
    lab = labels_of(s)[0]
    good = run_labeled(m, s, {lab: 4})
    assert good is not ABORT and good.var("y") == 4
    assert run_labeled(m, s, {lab: 0}) is ABORT


def test_labeled_equivalence_with_nondet():
    """The main observation: a step exists iff some label assignment
    realizes it, checked by exhaustive enumeration."""
    rng = random.Random(73)
    for _ in range(120):
        m = random_memory(rng, max_cells=4)
        s = relabel(random_stmt(rng, DEFAULT_HEAP, rng.randint(1, 3)))
        try:
            nondet = {r for r in run_all(m, s) if r is not ABORT}
        except Exception:
            continue
        labs = labels_of(s)
        relevant = [c.label for c in _read_new(s)]
        labeled = set()
        for combo in product(sorted(m.universe()), repeat=len(relevant)):
            d = dict(zip(relevant, combo))
            out = run_labeled(m, s, d)
            if out is not ABORT:
                labeled.add(out)
        assert labeled == nondet


def _read_new(s):
    from reachdl.programs import atomic_commands

    return [c for c in atomic_commands(s) if isinstance(c, (ReadField, New))]


# ---------------------------------------------------------------------------
# Instrumentation


def test_instrument_skip():
    sbar = instrument_abort(relabel(Skip()))
    assert isinstance(sbar, Seq)
    assert isinstance(sbar.first, Assign) and sbar.first.var == "abo"
    assert isinstance(sbar.first.expr, FalseE)


def test_instrument_read_guard():
    sbar = instrument_abort(relabel(ReadField("x", "y", "f")))
    guard = sbar.second
    assert isinstance(guard, If) and guard.cond == UnallocB("y")
    assert isinstance(guard.then, Assign) and guard.then.var == "abo"
    assert guard.els == ReadField("x", "y", "f", label=1)


def test_instrument_labels_extend():
    s = relabel(seq(ReadField("x", "y", "f"), New("z")))
    sbar = instrument_abort(s)
    labs = set(labels_of(sbar))
    assert set(labels_of(s)) <= labs and len(labs) > len(labels_of(s))


def test_instrument_differential_500():
    """S aborts exactly when S-bar finishes with the abo flag raised, and
    non-aborting runs produce the same structure."""
    rng = random.Random(79)
    heap2 = DEFAULT_HEAP.with_variables(("abo",))
    for _ in range(500):
        m = random_memory(rng)
        m = MemoryStructure(heap2, m.fs.with_nominal("abo", rng.choice((1, 2)))
                            .with_nominal("abo_gho", 2))
        s = relabel(random_stmt(rng, DEFAULT_HEAP, rng.randint(1, 5)))
        sbar = instrument_abort(s)
        try:
            plain = run_loopless(m, s)
            bar = run_loopless(m, sbar)
        except Exception:
            continue
        assert bar is not ABORT  # property 1: S-bar never aborts
        aborted = plain is ABORT
        assert (bar.var("abo") == bar.true_elem()) == aborted  # property 2
        if not aborted:  # property 3: result transport
            assert bar.fs.with_nominal("abo", 0) == plain.fs.with_nominal("abo", 0)


def test_instrument_null_test_mode_diverges_on_dangling():
    # the syntactic variant misses dangling (non-null unallocated) bases
    m = mem(alloc=0, targets=1, pool=2, variables={"x": 3, "y": 0})
    s = relabel(ReadField("y", "x", "f"))
    assert run_loopless(m, s) is ABORT
    heap2 = HEAP.with_variables(("abo",))
    mb = MemoryStructure(heap2, m.fs.with_nominal("abo", 2).with_nominal("abo_gho", 2))
    sem = run_loopless(mb, instrument_abort(s, "semantic"))
    syn = run_loopless(mb, instrument_abort(s, "null-test"))
    assert sem.var("abo") == sem.true_elem()
    # the null guard does not fire on a dangling base, so the guarded read
    # still aborts: the syntactic variant loses property 1 here
    assert syn is ABORT


# ---------------------------------------------------------------------------
# Programs, paths and reachable sets


def build_walker():
    text = """
FIELDS next
VARS e hd
NODE lb
NODE ll
NODE le
EDGE lb -> ll { e := hd }
EDGE ll -> ll { assume(~(e = null)); e := e.next }
EDGE ll -> le { assume(e = null) }
"""
    return parse_program_file(text)


def walker_memory():
    heap = HeapVocabulary(fields=("next",), variables=("e", "hd"))
    return make_memory(heap, alloc=2, targets=0, pool=2,
                       fields={"next": {3: 4, 4: 0}}, variables={"hd": 3, "e": 0})


@pytest.mark.parametrize("cond, want", [
    ("T = x", EqB(TrueE(), VarE("x"))),
    ("F = x", EqB(FalseE(), VarE("x"))),
    ("~(T = x)", NotB(EqB(TrueE(), VarE("x")))),
    ("x = T", EqB(VarE("x"), TrueE())),
    ("T", TrueB()),
    ("F", FalseB()),
    ("~F or T", OrB(NotB(FalseB()), TrueB())),
])
def test_parse_conditions_with_literals(cond, want):
    stmt, _ = parse_block(f"assume({cond})")
    assert isinstance(stmt, Assume) and stmt.cond == want


def test_program_validation():
    prog = build_walker()
    with pytest.raises(Exception):
        Program(prog.heap, prog.nodes, prog.edges + (("ll", "lb"),), "lb",
                {}, {}, dict(prog.code))


def test_run_path_examples():
    prog = build_walker()
    m = walker_memory()
    m = MemoryStructure(prog.heap, m.fs)
    assert run_path(m, prog, []) == frozenset({m})
    # full traversal of the 2-element list, matching the hand trace
    path = [("lb", "ll"), ("ll", "ll"), ("ll", "ll"), ("ll", "le")]
    (out,) = run_path(m, prog, path)
    assert out.var("e") == out.null()
    # a path whose first block aborts yields the empty set
    bad = MemoryStructure(prog.heap, m.fs.with_nominal("hd", 0))
    # hd = null: first edge sets e := hd = null; the self-loop then aborts
    assert run_path(bad, prog, [("lb", "ll"), ("ll", "ll")]) == frozenset()


def test_reach_sets_walker():
    prog = build_walker()
    m = MemoryStructure(prog.heap, walker_memory().fs)
    reached0 = reach_sets(prog, [m], 0)
    assert reached0["lb"] == frozenset({m}) and reached0["ll"] == frozenset()
    reached = reach_sets(prog, [m], 6)
    assert len(reached["le"]) == 1
    (final,) = reached["le"]
    assert final.var("e") == final.null()
    # fixpoint: deeper exploration adds nothing on this list
    assert reach_sets(prog, [m], 10) == reached


def test_reach_sets_cap():
    prog = build_walker()
    m = MemoryStructure(prog.heap, walker_memory().fs)
    with pytest.raises(StateCapError):
        reach_sets(prog, [m], 6, cap=1)
