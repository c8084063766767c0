"""The acceptance gate: one test per criterion, each printing a pass line
with its campaign statistics.  Budgets are desk scale; every tolerance is
exact (verdict agreement and invariant checks are all-or-nothing)."""

import random
from itertools import product

from reachdl.memory import HeapVocabulary, MemoryStructure, make_memory
from reachdl.models import (SwapTuple, apply_swap, dfs_labeling, find_model,
                            find_semi_useful_model, graph_value,
                            labeling_is_useful, repair, type_concepts,
                            useful_labeling, value_from_components)
from reachdl.parser import parse_formula
from reachdl.programs import (ABORT, Assign, Assume, EqB, FieldE, If, New,
                              NullE, ReadField, Program, Skip, VarE,
                              WriteField, commands, relabel,
                              run_loopless, seq)
from reachdl.reach import (ReachAssertion, ReachSpec, alist_spec, check_spec,
                           check_semi_connected, clist_spec, list_spec,
                           tree_spec, LIST_VOCAB, TREE_VOCAB)
from reachdl.reduction import (bc_lift, boolean_closure_reduction,
                               implication_reduction, nnf, ord_labelings,
                               ord_lift, ord_membership, ord_reduction_poly,
                               ord_substructure, sat_pipeline_full)
from reachdl.structures import eval_concept, eval_formula, structure, types_of_all
from reachdl.syntax import (AtMost, Atomic, Exists, Not, TRUE, Vocabulary,
                            closure_concepts, to_text)
from reachdl.vc import check_all_vcs, check_inductive, check_reach_soundness
from reachdl.wp import psi, theta_full, theta_structure
from reachdl import graphs
from gen import (DEFAULT_HEAP, connected_instance, random_formula,
                 random_memory, random_reach_spec, random_stmt,
                 random_structure, scramble_same_type)


# ---------------------------------------------------------------------------
# Criterion 1: reduction equisatisfiability campaign


def test_criterion_1_reduction_equisatisfiability():
    rng = random.Random(1001)
    total, sat, lifted = 0, 0, 0
    while total < 200:
        vocab, spec = random_reach_spec(rng, rich=(total % 4 == 0))
        total += 1
        direct = find_model(spec, vocab, 1, 5)
        semi = find_semi_useful_model(spec, vocab, 1, 5)
        # bounded verdict agreement between the direct search and the
        # semi-connected+useful-labeling realization of the pipeline output
        assert (direct is None) == (semi is None)
        if semi is None:
            continue
        sat += 1
        labelings = {}
        for h in range(1, len(spec.re) + 1):
            labelings[h] = useful_labeling(semi, spec, h)
            assert labelings[h] is not None
        # repair-based witness extraction, checked exactly
        fixed = repair(semi, spec, labelings or None)
        assert check_spec(fixed, spec)
        # constructive pipeline witness wherever the counter part stays
        # desk-sized: evaluate the emitted formulas directly
        res = sat_pipeline_full(spec, vocab, "poly")
        if res.ext.order_size() > 256:
            continue
        n, ext = ord_lift(semi, spec, "poly", labelings)
        assert eval_formula(n, res.ord_formula)
        assert ord_membership(n, spec, "poly", ext)
        nb, psi_out, info = bc_lift(nnf(res.ord_formula), n)
        assert psi_out == res.formula
        assert eval_formula(nb, res.formula)
        # extraction from the pipeline witness back to a checked model
        stripped = info.strip(nb.fs if hasattr(nb, "fs") else nb)
        assert ord_membership(stripped, spec, "poly", ext)
        sub = ord_substructure(stripped, ext)
        labs = ord_labelings(stripped, spec, ext)
        fixed2 = repair(sub, spec, labs)
        assert check_spec(fixed2, spec)
        lifted += 1
    assert sat >= 50 and lifted >= 40
    print(f"\nACCEPTANCE 1 PASS: {total} specs, verdict agreement 100% "
          f"({sat} sat, {total - sat} unsat), {lifted} pipeline witnesses checked")


# ---------------------------------------------------------------------------
# Criterion 2: repair correctness


def test_criterion_2_repair_correctness():
    rng = random.Random(1002)
    total = 0
    step_total = 0
    for i in range(500):
        vocab, spec, m0 = connected_instance(rng, two_assertions=(i % 3 == 0))
        hs = range(1, len(spec.re) + 1)
        m = scramble_same_type(rng, m0, spec, swaps=rng.randint(0, 6))
        assert check_semi_connected(m, spec)
        if i % 5 == 0:
            labelings = {h: useful_labeling(m, spec, h) for h in hs}
        else:
            labelings = {h: dfs_labeling(m0, spec, h) for h in hs}
        for h in hs:
            assert labeling_is_useful(m, spec, h, labelings[h])
        concepts = type_concepts(spec)
        before_types = types_of_all(m, concepts)
        initial = tuple(graph_value(m, spec, h, labelings[h]) for h in hs)
        trace = []
        fixed = repair(m, spec, labelings, trace)
        assert check_spec(fixed, spec)
        assert types_of_all(fixed, concepts) == before_types
        assert len(trace) <= sum(initial)
        for step in trace:
            assert step.values_after[step.h - 1] < step.values_before[step.h - 1]
            for other in hs:
                if other != step.h:
                    assert step.values_after[other - 1] == step.values_before[other - 1]
        total += 1
        step_total += len(trace)
    assert total == 500
    print(f"\nACCEPTANCE 2 PASS: {total} semi-connected instances repaired, "
          f"{step_total} swap steps, values monotone, types preserved")


# ---------------------------------------------------------------------------
# Criterion 3: swap invariance


def test_criterion_3_swap_invariance():
    rng = random.Random(1003)
    vocab = Vocabulary(concepts={"A", "B"}, roles={"r", "s"},
                       functional={"r", "s"}, nominals={"o"})
    done = 0
    saw_inverse = saw_counting = 0
    while done < 1000:
        m = random_structure(rng, vocab, 5, min_size=2)
        phi = random_formula(rng, vocab, depth=1, cdepth=2)
        cs = closure_concepts(phi)
        types = types_of_all(m, cs)
        pairs = [(u, w) for u in m.universe for w in m.universe
                 if u < w and types[u] == types[w]]
        if not pairs:
            continue
        done += 1
        text = to_text(phi)
        saw_inverse += "^-" in text
        saw_counting += "E<=" in text
        a0, a1 = rng.choice(pairs)
        t = SwapTuple(a0, a1, rng.choice(("r", "s")))
        swapped = apply_swap(m, t)
        for c in cs:
            assert eval_concept(m, c) == eval_concept(swapped, c)
        assert types_of_all(swapped, cs) == types
        assert eval_formula(m, phi) == eval_formula(swapped, phi)
    assert saw_inverse > 100 and saw_counting > 100  # construct coverage
    print(f"\nACCEPTANCE 3 PASS: 1000 swaps concept-invariant "
          f"({saw_inverse} with inverses, {saw_counting} with counting)")


# ---------------------------------------------------------------------------
# Criterion 4: value and base lemmas, exhaustive on <= 4 vertices


def _exhaustive_min_bases(reach_masks, full, verts, sources, labeling):
    """Independent oracle: minimize the label sum over all covering subsets."""
    best = None
    bases = []
    for bits in range(1 << len(verts)):
        cover = 0
        val = 0
        for i, v in enumerate(verts):
            if bits >> i & 1:
                cover |= reach_masks[v]
                if v not in sources:
                    val += labeling[v]
        if cover != full:
            continue
        if best is None or val < best:
            best = val
            bases = []
        if val == best:
            bases.append([verts[i] for i in range(len(verts)) if bits >> i & 1])
    return best, bases


def test_criterion_4_value_and_base_lemmas():
    for n in range(1, 5):
        verts = list(range(n))
        full = (1 << n) - 1
        labelings = [{v: v + 1 for v in verts}]
        if n <= 3:
            labelings.append({v: (v * 3) % 4 + 1 for v in verts})
        pairs = [(a, b) for a in verts for b in verts]
        for bits in range(1 << (n * n)):
            succ = {v: [] for v in verts}
            for i, (a, b) in enumerate(pairs):
                if bits >> i & 1:
                    succ[a].append(b)
            comps = graphs.source_components(succ)
            cycles = graphs.cycle_vertices(succ)
            reach_masks = {}
            for v in verts:
                mask = 0
                for w in graphs.reachable_from(succ, [v]):
                    mask |= 1 << w
                reach_masks[v] = mask
            for bbits in range(1 << n):
                sources = {v for v in verts if bbits >> v & 1}
                bmask = 0
                for v in sources:
                    bmask |= reach_masks[v]
                connected = bmask == full
                semi = True
                for v in verts:
                    ok = bmask >> v & 1 or any(reach_masks[c] >> v & 1 for c in cycles)
                    if not ok:
                        semi = False
                        break
                for labeling in labelings:
                    val = value_from_components(comps, sources, labeling)
                    best, bases = _exhaustive_min_bases(reach_masks, full, verts,
                                                        sources, labeling)
                    assert val == best  # condensation value == subset minimum
                    assert (val == 0) == connected  # value zero exactly on connected graphs
                    if semi:
                        # min-value base elements are sources or on cycles
                        for base in bases:
                            for x in base:
                                assert x in sources or x in cycles
    print("\nACCEPTANCE 4 PASS: all digraphs on <= 4 vertices, all source "
          "sets: value-zero<->connected, SCC value == exhaustive value, "
          "min-base elements in B or on cycles (semi-connected instances)")


# ---------------------------------------------------------------------------
# Criterion 5: backwards-propagation round trip


def _relevant_labels(s):
    return [c.label for c in commands(s) if isinstance(c, (ReadField, New))]


def _stmt_sized(rng, heap, max_relevant=3):
    while True:
        s = relabel(random_stmt(rng, heap, rng.randint(1, 6)))
        if len(_relevant_labels(s)) <= max_relevant:
            return s


def test_criterion_5_backwards_round_trip():
    rng = random.Random(1005)
    heap = DEFAULT_HEAP
    heap_abo = heap.with_variables(("abo",))
    done = aborts = 0
    while done < 1000:
        m1 = random_memory(rng, max_cells=6)
        s = _stmt_sized(rng, heap)
        phi = random_formula(rng, heap.annotation_vocabulary(), depth=1, cdepth=2)
        res = theta_full(s, phi, heap)
        mb = MemoryStructure(heap_abo, m1.fs.with_nominal("abo", rng.choice((1, 2)))
                             .with_nominal("abo_gho", 2))
        trace = {}
        try:
            mbar = run_loopless(mb, res.instrumented, trace=trace)
            plain = run_loopless(m1, s)
        except Exception:
            continue  # pool exhausted; semantics out of the finite stand-in
        assert mbar is not ABORT
        done += 1
        if plain is ABORT:
            aborts += 1
            assert mbar.var("abo") == mbar.true_elem()
            # every label assignment refutes the transformed formula
            labs = _relevant_labels(s)
            universe = sorted(m1.universe())
            ext_variants = [
                {c: m1.fs.concept_ext(c) for c in heap.data_concepts},
                {c: frozenset() for c in heap.data_concepts},
                {c: frozenset(rng.sample(universe, rng.randint(0, len(universe))))
                 for c in heap.data_concepts},
            ]
            for combo in product(universe, repeat=len(labs)):
                d = dict(zip(labs, combo))
                for ev in ext_variants:
                    fake = MemoryStructure(m1.heap, _override_concepts(m1.fs, ev))
                    for d_abo in (1, 2):
                        ext = theta_structure(m1, fake, d, d_abo)
                        assert not eval_formula(ext, res.formula)
        else:
            assert mbar.var("abo") == mbar.false_elem()
            want = eval_formula(plain.fs, phi)
            for d_abo in (1, 2):  # the abo seed plays no role
                ext = theta_structure(m1, plain, trace, d_abo)
                assert eval_formula(ext, res.formula) == want
    assert aborts >= 150
    print(f"\nACCEPTANCE 5 PASS: 1000 runs round-tripped "
          f"({aborts} aborting, refuted under every label assignment; "
          f"abo-seed irrelevant throughout)")


def _override_concepts(fs, values):
    out = fs
    for name, v in values.items():
        out = out.with_concept(name, v)
    return out


# ---------------------------------------------------------------------------
# Criterion 6: boolean-closure and first-order oracles


def test_criterion_6_boolean_closure_corpus():
    rng = random.Random(1006)
    vocab = Vocabulary(concepts={"A", "B"}, roles={"f"}, functional={"f"},
                       nominals={"o"})
    sat_cases = unsat_cases = 0
    for _ in range(100):
        phi = nnf(random_formula(rng, vocab, depth=2, cdepth=1))
        psi_out, info = boolean_closure_reduction(phi)
        out_vocab = info.extend(vocab)
        models = {}
        for size in (2, 3, 4):
            models[size] = find_model(phi, vocab, size, size)
        if any(m is not None for m in models.values()):
            sat_cases += 1
            for size, m in models.items():
                if m is None:
                    continue
                # same-universe witness extension satisfies the output ...
                n, psi2, _ = bc_lift(phi, m)
                assert psi2 == psi_out
                assert eval_formula(n, psi_out)
                # ... and the tau-restriction of the extension is the model
                assert eval_formula(m, phi)
        else:
            unsat_cases += 1
        # blind-search agreement per size where the canonicalized space is
        # small; the restriction direction covers the rest of the bound
        for size in (2, 3):
            sat_in = models.get(size) is not None
            found = find_model(psi_out, out_vocab, size, size,
                               role_canon=info.role_canon)
            assert (found is not None) == sat_in
            if found is not None:
                assert eval_formula(found, psi_out)
    assert sat_cases + unsat_cases == 100 and unsat_cases >= 5
    print(f"\nACCEPTANCE 6a PASS: 100-formula closure corpus equisatisfiable "
          f"at the bound ({sat_cases} sat, {unsat_cases} unsat)")


def test_criterion_6_first_order_agreement():
    from reachdl.fol import fo_eval, to_first_order

    rng = random.Random(1066)
    vocab = Vocabulary(concepts={"A", "B"}, roles={"r", "s"}, functional={"r"},
                       nominals={"o"})
    for _ in range(1000):
        m = random_structure(rng, vocab, 4)
        phi = random_formula(rng, vocab, depth=2, cdepth=2)
        assert eval_formula(m, phi) == fo_eval(m, to_first_order(phi))
    print("\nACCEPTANCE 6b PASS: 1000 first-order translation agreements")


# ---------------------------------------------------------------------------
# Criterion 7: running-example golden files


def test_criterion_7_running_example_goldens():
    heap = HeapVocabulary(fields=("wrkFor", "next"), variables=("e", "proj"),
                          data_concepts=("P1",))
    phi = parse_formula("P1 & E wrkFor_gho.null == P1 & E wrkFor.proj",
                        heap.vocabulary())
    got = psi(WriteField("e", "wrkFor", VarE("proj")), phi, heap)
    assert to_text(got) == "P1 & E wrkFor_gho.null == P1 & E wrkFor[e -> proj].proj"

    for spec, vocab in ((list_spec(), LIST_VOCAB), (alist_spec(), LIST_VOCAB),
                        (clist_spec(), LIST_VOCAB), (tree_spec(), TREE_VOCAB)):
        assert find_model(spec, vocab, 1, 4) is not None

    k1, fresh1 = implication_reduction(alist_spec(), list_spec())
    assert find_model(k1, LIST_VOCAB.with_concepts(fresh1), 1, 4) is None
    k2, fresh2 = implication_reduction(list_spec(), alist_spec())
    cex = find_model(k2, LIST_VOCAB.with_concepts(fresh2), 1, 4)
    assert cex is not None and cex.role_ext("next") == frozenset({(0, 0)})
    print("\nACCEPTANCE 7 PASS: transformer golden matches; the four "
          "data-structure specs admit bounded models; aList => List "
          "verified and List => aList yields the cyclic counterexample")


# ---------------------------------------------------------------------------
# Criterion 8: VC / inductiveness coherence on a program corpus


HEAP8 = HeapVocabulary(fields=("f",), variables=("x", "y"), data_concepts=("P1",))
V8 = HEAP8.vocabulary()


def _edge_prog(code, cnt_a=TRUE, cnt_b=TRUE):
    return Program(HEAP8, ("a", "b"), (("a", "b"),), "a",
                   {"a": TRUE, "b": TRUE}, {"a": cnt_a, "b": cnt_b},
                   {("a", "b"): relabel(code)})


def _walker_prog(invariant_text):
    heap = HeapVocabulary(fields=("next",), variables=("e", "hd"))
    v = heap.vocabulary()
    pre = parse_formula("Alloc <= E next.(Alloc | null) and hd <= Alloc | null", v)
    inv = parse_formula(invariant_text, v)
    body = relabel(seq(Assume(__notnull("e")), ReadField("e", "e", "next")))
    enter = relabel(Assign("e", VarE("hd")), )
    leave = relabel(Assume(EqB(VarE("e"), NullE())))
    return Program(heap, ("lb", "ll", "le"),
                   (("lb", "ll"), ("ll", "ll"), ("ll", "le")), "lb",
                   {n: TRUE for n in ("lb", "ll", "le")},
                   {"lb": pre, "ll": inv, "le": inv},
                   {("lb", "ll"): enter, ("ll", "ll"): body, ("ll", "le"): leave})


def __notnull(var):
    from reachdl.programs import NotB

    return NotB(EqB(VarE(var), NullE()))


def _corpus():
    f = lambda t: parse_formula(t, V8)
    strong_inv = ("Alloc <= E next.(Alloc | null) and hd <= Alloc | null "
                  "and e <= Alloc | null")
    weak_inv = "e <= Alloc | null"
    return [
        ("skip-trivial", _edge_prog(Skip()), True),
        ("null-assign-good", _edge_prog(Assign("x", NullE()), cnt_b=f("x == null")), True),
        ("null-assign-bad", _edge_prog(Assign("x", NullE()), cnt_b=f("x <= Alloc")), False),
        ("new-allocates", _edge_prog(New("x"), cnt_b=f("x <= Alloc")), True),
        ("skip-propagates", _edge_prog(Skip(), cnt_a=f("x == null"),
                                       cnt_b=f("x == null")), True),
        ("rem-pinning", _edge_prog(Skip(), cnt_a=f("P1 == P1_gho"),
                                   cnt_b=f("P1 == P1_gho")), False),
        ("ghost-stable", _edge_prog(Assign("x", VarE("y")),
                                    cnt_a=f("x_gho == y_gho"),
                                    cnt_b=f("x_gho == y_gho")), True),
        ("if-branch", _edge_prog(If(EqB(VarE("x"), NullE()),
                                    Assign("y", NullE()), Skip()),
                                 cnt_b=f("not (x == null) or y == null")), True),
        ("field-write", _edge_prog(WriteField("x", "f", NullE()),
                                   cnt_a=f("x <= Alloc"),
                                   cnt_b=f("x <= E f.null")), True, {"x": 3}),
        ("walker-strong", _walker_prog(strong_inv), True),
        ("walker-weak", _walker_prog(weak_inv), False),
    ]


def _init_for(prog, variables=None):
    if prog.heap is HEAP8:
        m = make_memory(HEAP8, alloc=1, pool=2, variables=variables or {})
    else:
        m = make_memory(prog.heap, alloc=2, targets=0, pool=2,
                        fields={"next": {3: 4, 4: 0}}, variables={"hd": 3, "e": 0})
    return [m]


def test_criterion_8_vc_inductive_coherence():
    results = []
    for entry in _corpus():
        name, prog, expected = entry[0], entry[1], entry[2]
        overrides = entry[3] if len(entry) > 3 else None
        init = _init_for(prog, overrides)
        # the theorem's premise: initial structures satisfy the annotations
        for m in init:
            assert eval_formula(m.fs, prog.cnt[prog.initial]), name
        entries = check_all_vcs(prog, bound=2)
        all_valid = all(e.verdict == "valid-up-to-bound" for e in entries)
        inductive, witness = check_inductive(prog, init, bound=2)
        assert all_valid == inductive == expected, (name, all_valid, inductive)
        if all_valid:
            assert check_reach_soundness(prog, init, depth=5)
        results.append((name, all_valid))
    valid_count = sum(1 for _, ok in results if ok)
    print(f"\nACCEPTANCE 8 PASS: {len(results)}-program corpus coherent "
          f"(all-VCs-valid == inductive on every program; {valid_count} valid), "
          f"reachable sets sound whenever VCs pass")
