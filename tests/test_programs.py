import random
from itertools import product

import pytest

from reachdl.memory import (HeapVocabulary, MemoryStructure, PoolExhaustedError,
                            make_memory)
import reachdl.programs as programs
from reachdl.parser import (parse_block, parse_memory_file, parse_program_file,
                            structure_to_text)
from reachdl.programs import (ABORT, ERR, AndB, Assign, Assume, Dispose, EqB, FalseB,
                              FalseE, FieldE, If, New, NotB, NullE, OrB,
                              Program, ReadField, Seq, Skip, StateCapError,
                              TrueB, TrueE, UnallocB, VarE, WriteField, commands,
                              eval_bool, eval_expr, instrument_abort, labels_of,
                              reach_sets, relabel, run_all, run_labeled,
                              run_loopless, run_path, run_representatives, seq,
                              touched_symbols)
from reachdl.structures import FiniteStructure, MissingNominalError
from reachdl.syntax import ReachDLError
from gen import DEFAULT_HEAP, random_bool, random_memory, random_stmt

HEAP = HeapVocabulary(fields=("f",), variables=("x", "y"), data_concepts=("P1",))


def mem(**kw):
    return make_memory(HEAP, **kw)


# ---------------------------------------------------------------------------
# Expressions


def test_program_file_comments_and_spread_blocks():
    """`#` starts a comment inside EDGE blocks too, and a block may span
    lines; the program is the one of the one-line file."""
    one_line = "FIELDS f\nVARS x y\nNODE a\nNODE b\nEDGE a -> b { x := y; x.f := y.f }\n"
    spread = ("FIELDS f  # the one field\nVARS x y\n\nNODE a\nNODE b\n"
              "EDGE a -> b {  # copy y\n  x := y;  # a } in a comment\n"
              "  x.f := y.f\n}\n")
    assert parse_program_file(spread) == parse_program_file(one_line)


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


def test_relabel_numbers_commands_in_order():
    s = relabel(seq(New("x"), If(TrueB(), Skip(), Dispose("x"))), start=4)
    assert labels_of(s) == [4, 5, 6, 7]


def test_relabel_duplicate_labels_raise(monkeypatch):
    """The uniqueness check is an error, not an assert (it holds under -O)."""
    import reachdl.programs as programs

    monkeypatch.setattr(programs, "labels_of", lambda s: [1, 1])
    with pytest.raises(ReachDLError, match="duplicate labels"):
        programs.relabel(seq(Skip(), Skip()))


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
    from reachdl.programs import commands

    return [c for c in commands(s) if isinstance(c, (ReadField, New))]


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


# ---------------------------------------------------------------------------
# Allocation up to address permutation


def _every_cell(monkeypatch):
    """Make run_representatives, and so reach_sets and check_inductive,
    allocate every pool cell, as run_all does."""
    monkeypatch.setattr(programs, "_class_leaders", lambda ms, cells: cells)


def _builder():
    from test_programs_golden import BUILDER, BUILDER_MEMORY

    prog = parse_program_file(BUILDER)
    m = parse_memory_file(BUILDER_MEMORY, prog.heap)
    return prog, MemoryStructure(prog.heap, m.fs).check(min_pool=0)


def _symmetry_cases():
    """(program, memory, depth): the builder at pool 6 and depth 7; a
    state outside the memory axioms, with pool cells 4 to 7 of which 4 is
    in P1, y points to 6 and f maps cell 3 to 7, under `x := new`; then
    random memories under a three-edge program whose first block
    allocates at least once, at depth 3."""
    prog, m = _builder()
    cases = [(prog, m, 7)]
    heap = DEFAULT_HEAP
    m = make_memory(heap, alloc=1, pool=4)
    rows = m.rsucc["f"][:3] + (1 << 7,) + m.rsucc["f"][4:]
    code = {("a", "b"): relabel(New("x"))}
    cases.append((Program(heap, ("a", "b"), tuple(code), "a", {}, {}, code),
                  m._with(cons={**m.cons, "P1": 1 << 4}, rsucc={**m.rsucc, "f": rows},
                          noms={**m.noms, "y": 6}), 1))
    rng = random.Random("step-symmetry")
    for _ in range(150):
        m = random_memory(rng, heap, max_cells=4, max_pool=3)
        first = seq(random_stmt(rng, heap, rng.randint(1, 2)), New(rng.choice(heap.variables)),
                    random_stmt(rng, heap, rng.randint(1, 2)))
        code = {("a", "b"): relabel(first),
                ("b", "b"): relabel(random_stmt(rng, heap, rng.randint(1, 3))),
                ("b", "c"): relabel(random_stmt(rng, heap, rng.randint(1, 3)))}
        cases.append((Program(heap, ("a", "b", "c"), tuple(code), "a", {}, {}, code), m, 3))
    return cases


def _step_and_reach(prog, m, depth):
    """run_representatives's outcomes of the least edge's block from m,
    and reach_sets from m; or PoolExhaustedError."""
    try:
        return run_representatives(m, prog.code[min(prog.edges)]), reach_sets(prog, [m], depth)
    except PoolExhaustedError:
        return PoolExhaustedError


def _closure(states):
    """The states' images under every permutation of the addresses."""
    from itertools import permutations

    from test_memory import _permuted

    return {_permuted(m, perm) for m in states
            for perm in permutations(range(len(m.elements) - 3))}


def _agree(reduced, full) -> bool:
    """Both raise or neither does; both steps list ABORT or neither does;
    and each set of reduced states is a subset of the full one, which in
    turn lies in the reduced set's closure under address permutation (so
    the two sets have the same closure)."""
    if PoolExhaustedError in (reduced, full):
        return reduced is full
    (step, reached), (full_step, full_reached) = reduced, full
    if (ABORT in step) != (ABORT in full_step):
        return False
    pairs = [(set(step) - {ABORT}, set(full_step) - {ABORT})]
    pairs += [(reached[v], full_reached[v]) for v in full_reached]
    return all(r <= f and (r == f or f <= _closure(r)) for r, f in pairs)


def _symmetry_runs(monkeypatch):
    """The cases, their reduced runs, their runs over every pool cell, and
    the cases where the two disagree."""
    cases = _symmetry_cases()
    reduced = [_step_and_reach(*case) for case in cases]
    with monkeypatch.context() as patch:
        _every_cell(patch)
        full = [_step_and_reach(*case) for case in cases]
    bad = [case for case, r, f in zip(cases, reduced, full) if not _agree(r, f)]
    return cases, reduced, full, bad


def test_reduced_allocation_yields_every_state_up_to_address_permutation(monkeypatch):
    """One run_representatives step and reach_sets, which allocate the
    least cell of each class of interchangeable pool cells, give subsets
    of the runs over every pool cell with the same closure under every
    address permutation, on the builder, a state outside the axioms and
    150 random memories and programs; both raise PoolExhaustedError or
    neither does.  The run over every pool cell is run_all's."""
    cases, reduced, full, bad = _symmetry_runs(monkeypatch)
    assert not bad, bad[:3]
    for (prog, m, _), f in zip(cases, full):
        if f is not PoolExhaustedError:
            assert f[0] == run_all(m, prog.code[min(prog.edges)])
    assert [sum(map(len, r[1].values())) for r in (reduced[0], full[0])] == [8, 1958]
    ran = [(r, f) for r, f in zip(reduced, full) if f is not PoolExhaustedError]
    assert len(ran) >= 100
    assert sum(r[0] != f[0] for r, f in ran) >= 10
    assert sum(r[1] != f[1] for r, f in ran) >= 10


def test_a_class_key_without_rows_is_caught(monkeypatch):
    """Mutation check of the test above: a class key that drops the rows
    merges pool cells whose ghost fields map to null and to F."""
    monkeypatch.setattr(programs, "_cell_key",
                        lambda ms, cell: tuple(mask >> cell & 1 for mask in ms.cons.values()))
    assert _symmetry_runs(monkeypatch)[3]


def test_reach_sets_cap_counts_representatives(monkeypatch):
    """The builder reaches 1,958 states at depth 7 over every pool cell
    and 8 representatives up to address permutation; `cap` counts the
    representatives."""
    prog, m = _builder()
    assert sum(map(len, reach_sets(prog, [m], 7, cap=100).values())) == 8
    _every_cell(monkeypatch)
    with pytest.raises(StateCapError):
        reach_sets(prog, [m], 7, cap=100)


def test_flat_block_is_not_nested(capsys, tmp_path):
    """A long flat block goes through the walks, the step and the
    transformer without RecursionError; only nesting may exhaust the stack."""
    from reachdl.cli import main
    from reachdl.syntax import TRUE
    from reachdl.wp import theta_full

    body = "; ".join(["x := null"] * 5000)
    s, _ = parse_block(body)
    assert labels_of(s) == list(range(1, 5001))
    assert touched_symbols(s) == ({"x"}, set())
    assert len(labels_of(instrument_abort(s))) == 5001
    m = mem(alloc=1, pool=2, variables={"x": 3})
    out = run_loopless(m, s)
    assert out.var("x") == out.null()
    assert run_all(m, s) == (out,)
    assert theta_full(s, TRUE, HEAP).formula is not None
    prog = tmp_path / "flat.prog"
    prog.write_text("FIELDS f\nVARS x y\nNODE a\nNODE b\nEDGE a -> b { " + body + " }\n")
    post = tmp_path / "post.formula"
    post.write_text("x == null\n")
    assert main(["vc", str(prog), "--bound", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "EDGE a->b: VALID_UPTO 1\n" and captured.err == ""
    assert main(["wp", str(prog), str(post)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("null == null and F == F\n") and captured.err == ""


# ---------------------------------------------------------------------------
# The step on masks against the step on FiniteStructure
#
# The reference below is the step relation as it was written over
# FiniteStructure, before states held masks: every update goes through
# with_nominal / with_concept / with_role, and pool cells are read off the
# structure's sets.  It works on (heap, fs) pairs and returns structures.


def _ref_field(fs, src, fieldname):
    for a, b in fs.role_ext(fieldname):
        if a == src:
            return b
    raise ReachDLError(f"field {fieldname} undefined on {src}")


def _ref_expr(fs, e):
    if isinstance(e, VarE):
        return fs.nominal_elem(e.name)
    if isinstance(e, NullE):
        return fs.nominal_elem("null")
    if isinstance(e, TrueE):
        return fs.nominal_elem("T")
    if isinstance(e, FalseE):
        return fs.nominal_elem("F")
    base = fs.nominal_elem(e.var)
    if base not in fs.concept_ext("Alloc"):
        return ERR
    return _ref_field(fs, base, e.fieldname)


def _ref_bool(fs, b):
    if isinstance(b, TrueB):
        return True
    if isinstance(b, FalseB):
        return False
    if isinstance(b, UnallocB):
        return fs.nominal_elem(b.var) not in fs.concept_ext("Alloc")
    if isinstance(b, EqB):
        l, r = _ref_expr(fs, b.left), _ref_expr(fs, b.right)
        return ERR if l is ERR or r is ERR else l == r
    if isinstance(b, NotB):
        v = _ref_bool(fs, b.inner)
        return ERR if v is ERR else not v
    l, r = _ref_bool(fs, b.left), _ref_bool(fs, b.right)
    if l is ERR or r is ERR:
        return ERR
    return (l and r) if isinstance(b, AndB) else (l or r)


def _ref_set_field(fs, fieldname, src, tgt):
    pairs = {p for p in fs.role_ext(fieldname) if p[0] != src}
    return fs.with_role(fieldname, pairs | {(src, tgt)})


def _ref_exec(heap, fs, c, policy, trace):
    if isinstance(c, Skip):
        return fs
    if isinstance(c, Assume):
        return fs if _ref_bool(fs, c.cond) is True else ABORT
    if isinstance(c, (Assign, ReadField)):
        val = _ref_expr(fs, c.expr if isinstance(c, Assign) else FieldE(c.src, c.fieldname))
        if val is ERR:
            return ABORT
        if isinstance(c, ReadField):
            if isinstance(policy, dict) and val != policy.get(c.label):
                return ABORT
            if trace is not None:
                trace[c.label] = val
        return fs.with_nominal(c.var, val)
    cell = fs.nominal_elem(c.var)
    if cell not in fs.concept_ext("Alloc"):
        return ABORT
    if isinstance(c, WriteField):
        val = _ref_expr(fs, c.expr)
        return ABORT if val is ERR else _ref_set_field(fs, c.fieldname, cell, val)
    fs = fs.with_concept("Alloc", fs.concept_ext("Alloc") - {cell})
    fs = fs.with_concept("PossibleTargets", fs.concept_ext("PossibleTargets") | {cell})
    for f in heap.fields:
        fs = _ref_set_field(fs, f, cell, fs.nominal_elem("null"))
    return fs


def _ref_run(heap, fs, s, policy, trace=None):
    states, aborted = [fs], False
    for c in commands(s, branches=False):
        nxt = []
        for m in states:
            if isinstance(c, If):
                tv = _ref_bool(m, c.cond)
                outs = [ABORT] if tv is ERR else _ref_run(heap, m, c.then if tv else c.els,
                                                          policy, trace)
            elif isinstance(c, New):
                pool = m.concept_ext("MemPool")
                if isinstance(policy, dict):
                    cells = [policy[c.label]] if policy.get(c.label) in pool else []
                elif not pool:
                    raise PoolExhaustedError("memory pool exhausted (finite stand-in)")
                else:
                    cells = sorted(pool) if policy == "every" else sorted(pool)[:1]
                if trace is not None and cells:
                    trace[c.label] = cells[0]
                outs = [m.with_symbols(concepts={"MemPool": pool - {cell},
                                                 "Alloc": m.concept_ext("Alloc") | {cell}},
                                       nominals={c.var: cell})
                        for cell in cells] or [ABORT]
            else:
                outs = [_ref_exec(heap, m, c, policy, trace)]
            for r in outs:
                if r is ABORT:
                    aborted = True
                else:
                    nxt.append(r)
        states = nxt
        if not states:
            break
    return states + [ABORT] if aborted else states


def _outcomes(run, *args):
    """The outcome list of a run, structures as (structure, text) pairs
    (the text shows which names have entries), or the error it raised."""
    try:
        outs = run(*args)
    except (PoolExhaustedError, MissingNominalError) as exc:
        return type(exc).__name__
    if not isinstance(outs, (list, tuple)):
        outs = [outs]
    return [r if r is ABORT else (getattr(r, "fs", r), structure_to_text(getattr(r, "fs", r)))
            for r in outs]


def _scrambled(rng, m):
    """m with its elements renamed (no longer range(n)) and listed in a
    shuffled order, so that bit order and element order differ."""
    fs = m.fs
    names = rng.sample(range(10, 40), len(fs.universe))
    rename = dict(zip(fs.universe, names))
    universe = [rename[u] for u in fs.universe]
    rng.shuffle(universe)
    return MemoryStructure(m.heap, FiniteStructure(
        tuple(universe), {k: {rename[u] for u in v} for k, v in fs.concepts.items()},
        {k: {(rename[a], rename[b]) for a, b in v} for k, v in fs.roles.items()},
        {k: rename[u] for k, u in fs.nominals.items()}))


def test_mask_step_matches_structure_step():
    """run_all, run_loopless (with its trace) and run_labeled agree with the
    FiniteStructure step on 1,200 random statements and memories, half of
    them with scrambled universes: the same outcomes in the same order,
    ABORT last, with the same entries; the same errors.  (About 400 of the
    cases end in a state, 66 in several.)  Ten more cases run a block
    whose runs repeat a state, so run_all must list it once."""
    rng = random.Random(89)
    heap = DEFAULT_HEAP
    # two allocations whose order is forgotten: runs that repeat a state
    forget, _ = parse_block("x := new; y := new; x := null; y := null")
    for case in range(1210):
        m = random_memory(rng, heap, max_cells=5)
        if case % 2:
            m = _scrambled(rng, m)
        s = relabel(random_stmt(rng, heap, rng.randint(1, 4))) if case < 1200 else forget
        want = _outcomes(lambda: list(dict.fromkeys(_ref_run(heap, m.fs, s, "every"))))
        assert _outcomes(run_all, m, s) == want, (s, m)
        if isinstance(want, list):
            assert want[:-1].count(ABORT) == 0
        trace, ref_trace = {}, {}
        assert _outcomes(run_loopless, m, s, trace) == \
            _outcomes(lambda: _ref_run(heap, m.fs, s, "least", ref_trace)[0]), (s, m)
        assert trace == ref_trace
        universe = list(m.universe())
        d = {c.label: rng.choice(universe) for c in _read_new(s) if rng.random() < 0.9}
        assert _outcomes(run_labeled, m, s, d) == \
            _outcomes(lambda: _ref_run(heap, m.fs, s, d)[0]), (s, m, d)
