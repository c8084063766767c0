import random
from itertools import combinations, product

import pytest

from reachdl.models import (Kernel, NotConnectedError, PremiseViolationError,
                            SearchStats, StagedSearch, SwapTuple, _decode_map,
                            apply_swap, check_model, dfs_labeling, env_structure,
                            exhaustive_graph_value, find_model,
                            find_semi_useful_model, functional_selectors,
                            functional_slot, graph_value, labeling_is_useful,
                            min_value_base, naive_find_model, relations, repair,
                            subsets, symbol_slot, type_concepts, useful_labeling)
from reachdl.parser import parse_formula, structure_to_text
from reachdl.reach import (ReachAssertion, ReachSpec, alist_spec,
                           check_semi_connected, check_spec, clist_spec,
                           list_spec, reach_formula, tree_spec, LIST_VOCAB,
                           TREE_VOCAB)
from reachdl.reduction import (boolean_closure_reduction, implication_reduction,
                               nnf)
from reachdl.structures import eval_concept, eval_formula, structure, types_of_all
from reachdl.syntax import (AtMost, Atomic, Exists, FAnd, Incl, Nominal, TOP,
                            TRUE, Vocabulary, closure_concepts, concepts_of, conj,
                            formula_symbols, inv, map_concept, map_sides,
                            subconcepts)
from gen import (connected_instance, random_formula, random_reach_spec,
                 random_structure, scramble_same_type)

CHAIN = structure(range(3), {"L": [0, 1, 2]}, {"next": [(0, 1), (1, 2)]}, {"head": 0})


# ---------------------------------------------------------------------------
# Swap


def test_swap_examples():
    m = structure(range(5), {}, {"r": [(1, 2), (3, 4)]}, {})
    assert apply_swap(m, SwapTuple(1, 1, "r")) == m
    swapped = apply_swap(m, SwapTuple(1, 3, "r"))
    assert swapped.role_ext("r") == frozenset({(1, 4), (3, 2)})
    # asymmetric: a0 without successor takes a1's, a1 loses its own
    m2 = structure(range(3), {}, {"r": [(1, 2)]}, {})
    assert apply_swap(m2, SwapTuple(0, 1, "r")).role_ext("r") == frozenset({(0, 2)})


def test_swap_involution():
    rng = random.Random(2)
    v = Vocabulary(concepts={"A"}, roles={"r"}, functional={"r"}, nominals=set())
    for _ in range(100):
        m = random_structure(rng, v, 5)
        if len(m.universe) < 2:
            continue
        a0, a1 = rng.sample(m.universe, 2)
        t = SwapTuple(a0, a1, "r")
        assert apply_swap(apply_swap(m, t), t) == m


def test_swap_preserves_functionality():
    rng = random.Random(3)
    v = Vocabulary(roles={"r"}, functional={"r"})
    for _ in range(100):
        m = random_structure(rng, v, 5)
        if len(m.universe) < 2:
            continue
        a0, a1 = rng.sample(m.universe, 2)
        out = apply_swap(m, SwapTuple(a0, a1, "r"))
        out.validate(v)


def test_swap_invariance_same_type():
    """Same-type swaps leave every formula concept's extension unchanged
    (the core lemma behind repair), including inverse and counting forms.
    Types must agree on the subconcept closure: agreement on the inclusion
    sides alone is not sufficient (see the regression test below)."""
    rng = random.Random(5)
    v = Vocabulary(concepts={"A", "B"}, roles={"r", "s"}, functional={"r", "s"},
                   nominals={"o"})
    hits = 0
    while hits < 300:
        m = random_structure(rng, v, 5, min_size=2)
        phi = random_formula(rng, v, depth=1, cdepth=2)
        cs = closure_concepts(phi)
        types = types_of_all(m, cs)
        pairs = [(u, w) for u in m.universe for w in m.universe
                 if u < w and types[u] == types[w]]
        if not pairs:
            continue
        hits += 1
        a0, a1 = rng.choice(pairs)
        t = SwapTuple(a0, a1, rng.choice(["r", "s"]))
        swapped = apply_swap(m, t)
        for c in cs:
            assert eval_concept(m, c) == eval_concept(swapped, c)
        assert types_of_all(swapped, cs) == types
        assert eval_formula(m, phi) == eval_formula(swapped, phi)


def test_side_types_alone_do_not_protect_swaps():
    """Regression: two elements agreeing on every inclusion side can still
    be distinguished by a nominal inside a filler; swapping them changes a
    side's extension.  This is why the type basis is subconcept-closed."""
    m = structure(range(4), {}, {"s": [(3, 0)]}, {"o": 3})
    phi = Incl(Exists(inv("s"), Nominal("o")), Exists(inv("s"), Nominal("o")))
    sides = concepts_of(phi)
    types = types_of_all(m, sides)
    assert types[1] == types[3]  # sides cannot tell 1 and 3 apart
    swapped = apply_swap(m, SwapTuple(1, 3, "s"))
    side = sides[0]
    assert eval_concept(m, side) != eval_concept(swapped, side)
    closed = types_of_all(m, closure_concepts(phi))
    assert closed[1] != closed[3]  # the closure does tell them apart


# ---------------------------------------------------------------------------
# Labelings


def test_dfs_labeling_examples():
    spec = list_spec()
    # three distinct types is impossible on the plain list spec: the two
    # interior elements share a type and reuse one number
    labels = dfs_labeling(CHAIN, spec, 1)
    assert labels == {0: 1, 1: 2, 2: 2}
    assert labeling_is_useful(CHAIN, spec, 1, labels)


def test_dfs_labeling_three_types():
    # distinguish the three chain elements via an extra concept in the base
    base = Incl(Atomic("M"), Atomic("L"))
    spec = ReachSpec(base, (ReachAssertion(Nominal("head"), frozenset({"next"}), "L"),))
    m = structure(range(3), {"L": [0, 1, 2], "M": [1]}, {"next": [(0, 1), (1, 2)]},
                  {"head": 0})
    labels = dfs_labeling(m, spec, 1)
    assert labels == {0: 1, 1: 2, 2: 3}


def test_dfs_labeling_not_connected():
    spec = list_spec()
    m = structure(range(2), {"L": [0, 1]}, {"next": []}, {"head": 0})
    with pytest.raises(NotConnectedError):
        dfs_labeling(m, spec, 1)


def test_dfs_all_sources_vacuous():
    # every element a start vertex: condition 2 is vacuous
    spec = ReachSpec(TRUE, (ReachAssertion("L", frozenset({"next"}), "L"),))
    m = structure(range(2), {"L": [0, 1]}, {"next": []}, {})
    labels = dfs_labeling(m, spec, 1)
    assert labeling_is_useful(m, spec, 1, labels)


def test_dfs_labeling_always_useful():
    rng = random.Random(7)
    for _ in range(150):
        vocab, spec, m = connected_instance(rng, two_assertions=rng.random() < 0.4)
        for h in range(1, len(spec.re) + 1):
            labels = dfs_labeling(m, spec, h)
            assert labeling_is_useful(m, spec, h, labels)


def test_labeling_usefulness_counterexamples():
    spec = list_spec()
    m = structure(range(2), {"L": [0, 1], "M": []}, {"next": [(0, 1)]}, {"head": 0})
    # constant labeling on two elements of different types breaks condition 1
    assert not labeling_is_useful(m, spec, 1, {0: 1, 1: 1})
    # isolated non-source element with no predecessor breaks condition 2
    m2 = structure(range(2), {"L": [0, 1]}, {"next": []}, {"head": 0})
    assert not labeling_is_useful(m2, spec, 1, {0: 1, 1: 2})


# ---------------------------------------------------------------------------
# Values and bases


def test_graph_value_examples():
    spec = list_spec()
    labels = dfs_labeling(CHAIN, spec, 1)
    assert graph_value(CHAIN, spec, 1, labels) == 0
    # detached 2-cycle with labels 2: value 2 (exhaustive over bases)
    m = structure(range(6), {"L": [0, 4, 5]}, {"next": [(4, 5), (5, 4)]}, {"head": 0})
    lab = {0: 1, 4: 2, 5: 2}
    assert graph_value(m, spec, 1, lab) == 2
    assert exhaustive_graph_value(m, spec, 1, lab) == 2
    # two disjoint unreachable cycles with min labels 2 and 3
    m2 = structure(range(7), {"L": [0, 1, 2, 3, 4]},
                   {"next": [(1, 2), (2, 1), (3, 4), (4, 3)]}, {"head": 0})
    lab2 = {0: 1, 1: 2, 2: 4, 3: 3, 4: 5}
    assert graph_value(m2, spec, 1, lab2) == 5
    assert exhaustive_graph_value(m2, spec, 1, lab2) == 5


def test_min_value_base_deterministic():
    spec = list_spec()
    m = structure(range(4), {"L": [0, 1, 2, 3]}, {"next": [(0, 1), (2, 3), (3, 2)]},
                  {"head": 0})
    lab = useful_labeling(m, spec, 1)
    assert min_value_base(m, spec, 1, lab) == frozenset({0, 2})


# ---------------------------------------------------------------------------
# Repair


def test_repair_identity_on_models():
    spec = list_spec()
    trace = []
    assert repair(CHAIN, spec, trace=trace) == CHAIN
    assert trace == []


def test_repair_figure_one_scenario():
    spec = list_spec()
    m = structure(range(4), {"L": [0, 1, 2, 3]}, {"next": [(0, 1), (2, 3), (3, 2)]},
                  {"head": 0})
    lab = useful_labeling(m, spec, 1)
    trace = []
    fixed = repair(m, spec, {1: lab}, trace)
    assert check_spec(fixed, spec)
    assert len(trace) == 1 and trace[0].tuple == SwapTuple(1, 2, "next")
    cs = type_concepts(spec)
    assert types_of_all(m, cs) == types_of_all(fixed, cs)


def test_repair_premise_rejected():
    spec = list_spec()
    bad = structure(range(2), {"L": [0, 1]}, {"next": []}, {"head": 0})
    with pytest.raises(PremiseViolationError):
        repair(bad, spec)
    # semi-connected but uselessly labeled input is rejected too
    m = structure(range(3), {"L": [0, 1, 2]}, {"next": [(1, 2), (2, 1)]}, {"head": 0})
    assert check_semi_connected(m, spec)
    with pytest.raises(PremiseViolationError):
        repair(m, spec, {1: {0: 1, 1: 2, 2: 2}})


def test_repair_campaign_small():
    rng = random.Random(11)
    for _ in range(60):
        vocab, spec, m0 = connected_instance(rng, two_assertions=rng.random() < 0.4)
        labelings = {h: dfs_labeling(m0, spec, h) for h in range(1, len(spec.re) + 1)}
        m = scramble_same_type(rng, m0, spec, swaps=rng.randint(0, 5))
        assert check_semi_connected(m, spec)
        for h, lab in labelings.items():
            assert labeling_is_useful(m, spec, h, lab)
        trace = []
        fixed = repair(m, spec, labelings, trace)
        assert check_spec(fixed, spec)
        initial = tuple(graph_value(m, spec, h, labelings[h])
                        for h in range(1, len(spec.re) + 1))
        assert len(trace) <= sum(initial)
        for step in trace:
            h = step.h
            assert step.values_after[h - 1] < step.values_before[h - 1]
            for other in range(len(spec.re)):
                if other != h - 1:
                    assert step.values_after[other] == step.values_before[other]


# ---------------------------------------------------------------------------
# Model finding


def test_find_model_examples():
    from reachdl.syntax import BOT, TOP

    # top <= bot has no nonempty model, and the nominal forces nonemptiness
    v = Vocabulary(nominals={"o"})
    assert find_model(Incl(TOP, BOT), v, 1, 3) is None
    m = find_model(alist_spec(), LIST_VOCAB, 1, 4)
    assert m is not None and len(m.universe) == 1 and m.role_ext("next") == frozenset()
    m2 = find_model(clist_spec(), LIST_VOCAB, 1, 4)
    assert m2 is not None and m2.role_ext("next") == frozenset({(0, 0)})


def test_find_model_sound():
    rng = random.Random(13)
    for _ in range(60):
        vocab, spec = random_reach_spec(rng, rich=True)
        m = find_model(spec, vocab, 1, 3)
        if m is not None:
            assert check_model(m, spec)
            m.validate(vocab)


def test_find_model_complete_vs_naive():
    rng = random.Random(17)
    v = Vocabulary(concepts={"A"}, roles={"r"}, functional={"r"}, nominals={"o"})
    for _ in range(40):
        phi = random_formula(rng, v, depth=1, cdepth=2)
        for size in (1, 2, 3):
            fast = find_model(phi, v, size, size)
            naive = naive_find_model(phi, v, size)
            assert (fast is None) == (naive is None), (phi, size)
            if fast is not None:
                assert eval_formula(fast, phi)
    # reach specs: naive_find_model checks them through the reach graphs
    for rich, sizes in ((False, (1, 2, 3)), (True, (1, 2))):
        for _ in range(20):
            vocab, spec = random_reach_spec(rng, rich=rich)
            for size in sizes:
                fast = find_model(spec, vocab, size, size)
                naive = naive_find_model(spec, vocab, size)
                assert (fast is None) == (naive is None), (spec, size)
                if fast is not None:
                    assert check_spec(fast, spec)


def test_subsets_are_the_avoiding_masks_ascending():
    for n in range(5):
        for avoid in range(1 << n):
            allowed = [u for u in range(n) if not avoid >> u & 1]
            expected = sorted(sum(1 << u for u in c) for k in range(len(allowed) + 1)
                              for c in combinations(allowed, k))
            assert subsets(n, avoid) == expected, (n, avoid)
    assert subsets(3) == list(range(8))


def test_relations_are_the_avoiding_row_tuples_in_product_order():
    for n in range(4):
        for avoid in range(1 << n):
            expected = [rows for rows in product(range(1 << n), repeat=n)
                        if all(not row & avoid and not (row and avoid >> u & 1)
                               for u, row in enumerate(rows))]
            assert list(relations(n, avoid)) == expected, (n, avoid)
    assert list(relations(2)) == list(product(range(4), repeat=2))


def _reference_colorings(n, placed, ncolors, nconcepts):
    """The concept-mask tuples of every coloring of [0,n), colors over the
    free elements then the placed ones in product order, kept when the free
    elements' colors are nondecreasing."""
    free = [u for u in range(n) if u not in placed]
    elems = free + sorted(placed)
    out = []
    for colors in product(range(ncolors), repeat=n):
        low = colors[:len(free)]
        if any(a > b for a, b in zip(low, low[1:])):
            continue
        out.append(tuple(sum(1 << u for u, c in zip(elems, colors) if c >> ci & 1)
                         for ci in range(nconcepts)))
    return out


@pytest.mark.parametrize("concepts", [("A",), ("A", "B")])
@pytest.mark.parametrize("nominals", [(), ("o",), ("o", "p")])
def test_find_model_colorings_match_sorted_brute_force(concepts, nominals):
    """Per nominal placement, find_model's colorings slot yields the
    concept masks of a brute-force reference, in the same order."""
    v = Vocabulary(concepts=set(concepts), nominals=set(nominals))
    phi = conj([Incl(Atomic(c), Atomic(c)) for c in concepts]
               + [Incl(Nominal(o), Nominal(o)) for o in nominals])
    for n in range(0 if not nominals else 1, 4):
        seen = []

        def record(m):
            masks = tuple(sum(1 << u for u in m.concept_ext(c)) for c in sorted(concepts))
            seen.append((tuple(m.nominals[o] for o in sorted(nominals)), masks))
            return False

        assert find_model(phi, v, n, n, extra_pred=record) is None
        placements = list(dict.fromkeys(p for p, _ in seen))
        assert len(placements) == (1 if len(nominals) < 2 or n == 1 else 2)
        for p in placements:
            got = [masks for q, masks in seen if q == p]
            assert got == _reference_colorings(n, set(p), 1 << len(concepts),
                                               len(concepts)), (n, p)


def test_find_model_ceiling():
    from reachdl.models import CeilingExceededError

    with pytest.raises(CeilingExceededError):
        find_model(TRUE, LIST_VOCAB, 1, 50)


def test_semi_useful_matches_direct_sat():
    """Satisfiability coincides with the existence of a semi-connected
    structure with useful labelings, size for size."""
    rng = random.Random(19)
    for _ in range(40):
        vocab, spec = random_reach_spec(rng)
        direct = find_model(spec, vocab, 1, 3)
        semi = find_semi_useful_model(spec, vocab, 1, 3)
        assert (direct is None) == (semi is None)
        if semi is not None:
            labelings = {h: useful_labeling(semi, spec, h)
                         for h in range(1, len(spec.re) + 1)}
            fixed = repair(semi, spec, labelings)
            assert check_spec(fixed, spec)


def test_repair_step_invariants_detailed():
    """The repair-step lemma items one by one: untouched assertion graphs
    identical, values elsewhere unchanged, semi-connectedness preserved,
    and the supplied labelings stay useful after every step."""
    rng = random.Random(23)
    from reachdl.models import RepairStep
    from reachdl.reach import reach_graph, check_semi_connected as semi_ok

    checked_steps = 0
    for i in range(120):
        vocab, spec, m0 = connected_instance(rng, two_assertions=(i % 2 == 0))
        hs = range(1, len(spec.re) + 1)
        labelings = {h: dfs_labeling(m0, spec, h) for h in hs}
        m = scramble_same_type(rng, m0, spec, swaps=rng.randint(1, 5))
        trace: list[RepairStep] = []
        current = m
        repair(m, spec, labelings, trace)
        for step in trace:
            nxt = apply_swap(current, step.tuple)
            for ell in hs:
                if ell != step.h:
                    assert reach_graph(current, spec.assertion(ell)) == \
                        reach_graph(nxt, spec.assertion(ell))
            assert semi_ok(nxt, spec)
            for h in hs:
                assert labeling_is_useful(nxt, spec, h, labelings[h])
            current = nxt
            checked_steps += 1
    assert checked_steps > 20


# ---------------------------------------------------------------------------
# Golden enumeration: counters and first models of the staged search


def _filled(spec: ReachSpec, concept: str) -> ReachSpec:
    """The spec with every element in its reach target."""
    return ReachSpec(FAnd(spec.base, Incl(TOP, Atomic(concept))), spec.re, spec.di)


def _kappa(s1: ReachSpec, s2: ReachSpec, vocab: Vocabulary = LIST_VOCAB):
    kappa, fresh = implication_reduction(s1, s2)
    return kappa, vocab.with_concepts(fresh)


_PLAIN_VOCAB = Vocabulary(concepts={"A", "B"}, roles={"r"}, functional=set(),
                          nominals={"o"})
_TWO_VOCAB = Vocabulary(roles={"f", "g"}, functional={"f", "g"}, nominals={"o", "p"})
_THREE_VOCAB = Vocabulary(roles={"f", "g", "h"}, functional={"f", "g", "h"},
                          nominals={"o", "p", "q"})


def _golden_cases():
    list4 = "UNIVERSE 0..3\nCONCEPT L: 0\nFROLE next: \nNOMINAL head = 0\n"
    chain4 = ("UNIVERSE 0..3\nCONCEPT {}: 0 1 2 3\n{}FROLE {}: (0,1) (1,2) (2,3)\n"
              "NOMINAL {} = 0\n")
    yield "list", list_spec(), LIST_VOCAB, 4, 4, (1, 1, list4)
    yield "alist", alist_spec(), LIST_VOCAB, 4, 4, (1, 1, list4)
    yield "tree", tree_spec(), TREE_VOCAB, 4, 4, (
        1, 1, "UNIVERSE 0..3\nCONCEPT T: 0\nFROLE left: \nFROLE right: \n"
              "NOMINAL root = 0\n")
    yield "list-full", _filled(list_spec(), "L"), LIST_VOCAB, 4, 4, (
        1, 352, chain4.format("L", "", "next", "head"))
    # an at-most over a functional role that every element satisfies, so
    # L is every element, as in list-full; read at next's slot, it fails
    # every map of each coloring where L is not every element
    atmost = parse_formula("E<=1 next.L == L", LIST_VOCAB)
    yield "list-atmost", ReachSpec(FAnd(list_spec().base, atmost), list_spec().re,
                                   list_spec().di), LIST_VOCAB, 4, 4, (
        1, 2224, chain4.format("L", "", "next", "head"))
    yield "alist-full", _filled(alist_spec(), "L"), LIST_VOCAB, 4, 4, (
        1, 352, chain4.format("L", "", "next", "head"))
    yield "tree-full", _filled(tree_spec(), "T"), TREE_VOCAB, 4, 4, (
        1, 352, chain4.format("T", "FROLE left: \n", "right", "root"))
    yield "kappa-alist-list", *_kappa(alist_spec(), list_spec()), 1, 4, (0, 26426, None)
    yield "kappa-alist-list-5", *_kappa(alist_spec(), list_spec()), 1, 5, (0, 570816, None)
    yield "kappa-clist-list-5", *_kappa(clist_spec(), list_spec()), 1, 5, (0, 570816, None)
    yield "kappa-alist-list-6", *_kappa(alist_spec(), list_spec()), 6, 6, (0, 13176800, None)
    yield "kappa-clist-list-6", *_kappa(clist_spec(), list_spec()), 6, 6, (0, 13176800, None)
    # the default ceiling: each reach assertion unrolled 6 steps
    yield "kappa-alist-list-7", *_kappa(alist_spec(), list_spec()), 7, 7, (0, 352321704, None)
    yield "kappa-list-alist", *_kappa(list_spec(), alist_spec()), 3, 3, (
        1, 17, "UNIVERSE 0..2\nCONCEPT L: 0\nCONCEPT __imp_X1: \nFROLE next: (0,0)\n"
               "NOMINAL head = 0\n")
    yield "plain-role", parse_formula("A <= E r.B and B <= !A and o <= A", _PLAIN_VOCAB), \
        _PLAIN_VOCAB, 3, 3, (1, 1287, "UNIVERSE 0..2\nCONCEPT A: 0\nCONCEPT B: 2\n"
                                      "ROLE r: (0,2)\nNOMINAL o = 0\n")
    # two functional roles, g with more single-role conjuncts: roles are
    # enumerated in name order, f outermost
    yield "two-roles", parse_formula("o & p <= bot and p <= E g.top and o <= E g.top and "
                                     "(o <= E f.p or o <= E g.p)", _TWO_VOCAB), \
        _TWO_VOCAB, 3, 3, (1, 37, "UNIVERSE 0..2\nFROLE f: \nFROLE g: (0,1) (1,0)\n"
                                  "NOMINAL o = 0\nNOMINAL p = 1\n")
    # two functional roles and no conjunct on left alone
    yield "kappa-tree-tree", *_kappa(tree_spec(), tree_spec(), TREE_VOCAB), 1, 3, (
        0, 82606, None)
    # three functional roles, every conjunct on h: f and g have no
    # conjunct of their own, yet the first model needs them non-empty
    yield "three-roles", parse_formula(
        "o & p <= bot and o & q <= bot and p & q <= bot and o <= E f.E h.p and "
        "p <= E g.E h.q and q <= E h.o", _THREE_VOCAB), _THREE_VOCAB, 1, 3, (
        1, 66102, "UNIVERSE 0..2\nFROLE f: (0,0)\nFROLE g: (1,1)\nFROLE h: (0,1) (1,2) (2,0)\n"
                  "NOMINAL o = 0\nNOMINAL p = 1\nNOMINAL q = 2\n")


@pytest.mark.parametrize("case", list(_golden_cases()), ids=lambda c: c[0])
def test_find_model_golden(case):
    """Exact counters and first model: any change to the enumeration order,
    the check schedule or the pruning shows here."""
    _, target, vocab, lo, hi, (candidates, pruned, text) = case
    stats = SearchStats()
    m = find_model(target, vocab, lo, hi, stats=stats)
    assert (stats.candidates, stats.pruned) == (candidates, pruned)
    assert (None if m is None else structure_to_text(m, vocab.functional)) == text


def test_find_model_golden_role_canon():
    """The boolean-closure auxiliary roles pinned by role_canon."""
    rng = random.Random(61)
    v = Vocabulary(concepts={"A"}, roles={"f"}, functional={"f"}, nominals={"o"})
    phi = nnf(random_formula(rng, v, depth=1, cdepth=1))
    psi, info = boolean_closure_reduction(phi)
    vocab = info.extend(v)
    stats = SearchStats()
    m = find_model(psi, vocab, 3, 3, role_canon=info.role_canon, stats=stats)
    assert (stats.candidates, stats.pruned) == (1, 204)
    assert structure_to_text(m, vocab.functional) == (
        "UNIVERSE 0..2\nCONCEPT A: \nROLE __bc_r1: (0,1) (1,1) (2,1)\nFROLE f: \n"
        "NOMINAL __bc_o2 = 0\nNOMINAL __bc_o3 = 1\nNOMINAL __bc_o4 = 1\n"
        "NOMINAL __bc_o5 = 0\nNOMINAL __bc_o6 = 0\nNOMINAL __bc_o7 = 0\nNOMINAL o = 1\n")


def test_find_model_role_free_builds_no_map_table(monkeypatch):
    """A target with no functional role to enumerate never builds the
    selectors of the (n+1)^n functional maps, and a run of roles past
    MAX_SLICE_BITS never builds the selectors of their product; model and
    counters are unchanged."""
    import reachdl.models as models

    built = []

    def one_role_table(n, k=1):
        if k > 1:
            raise AssertionError("product selectors built")
        built.append(n)
        return functional_selectors(n)

    def no_table(n, k=1):
        raise AssertionError("functional map selectors built")

    monkeypatch.setattr(models, "functional_selectors", no_table)
    v = Vocabulary(concepts={"A", "B"}, roles={"f"}, functional={"f"}, nominals={"o"})
    phi = parse_formula("o <= A and not (top <= A) and not (!A <= B) and not (!A <= !B)", v)
    stats = SearchStats()
    m = find_model(phi, v, 1, 4, stats=stats)
    assert (stats.candidates, stats.pruned) == (1, 29)
    assert structure_to_text(m, v.functional) == (
        "UNIVERSE 0..2\nCONCEPT A: 0\nCONCEPT B: 2\nFROLE f: \nNOMINAL o = 0\n")
    # (6^5)^2 maps of f and g at universe 5 are past the bound
    monkeypatch.setattr(models, "functional_selectors", one_role_table)
    phi = parse_formula("o & p <= bot and p <= E f.E g.o", _TWO_VOCAB)
    stats = SearchStats()
    m = find_model(phi, _TWO_VOCAB, 5, 5, stats=stats)
    assert built == [5]
    assert (stats.candidates, stats.pruned) == (1, 1680913)
    assert structure_to_text(m, _TWO_VOCAB.functional) == (
        "UNIVERSE 0..4\nFROLE f: (1,0)\nFROLE g: (0,0)\nNOMINAL o = 0\nNOMINAL p = 1\n")


def test_find_model_role_free_needs_no_map_mask():
    """A search with no sliced slot never builds a mask over the (n+1)^n
    functional maps: at universe 16 that mask would have 17^16 bits, more
    than any address space holds, yet a role-free target over a vocabulary
    with a functional role finds its model at once."""
    v = Vocabulary(concepts={"A"}, roles={"f"}, functional={"f"}, nominals={"o"})
    stats = SearchStats()
    m = find_model(parse_formula("o <= A", v), v, 16, 16, ceiling=16, stats=stats)
    assert (stats.candidates, stats.pruned) == (1, 1)
    assert m.concepts["A"] == frozenset({0})


# ---------------------------------------------------------------------------
# The cached kernel against the semantic evaluator


_KERNEL_VOCAB = Vocabulary(concepts={"A", "B"}, roles={"r", "s", "t"}, functional={"s", "t"},
                           nominals={"o", "p"})


def _with_updates(rng: random.Random, phi):
    """phi with some role restrictions over updated roles r[o1->o2]...,
    which the random generator never produces."""

    def update(c):
        if isinstance(c, (Exists, AtMost)) and rng.random() < 0.5:
            r = c.role
            for _ in range(rng.randint(1, 2)):
                r = r.updated(rng.choice("op"), rng.choice("op"))
            return Exists(r, c.inner) if isinstance(c, Exists) else AtMost(c.bound, r, c.inner)
        return c

    return map_sides(phi, lambda side: map_concept(side, update))


def _map_rows(n):
    """Every partial function on [0,n) as a successor mask per element, map
    by map in product(range(-1, n), repeat=n) order."""
    return [[0 if t < 0 else 1 << t for t in fmap] for fmap in product(range(-1, n), repeat=n)]


def _kernel_slots(order, sliced):
    """One slot per symbol in order; s and t are sliced when `sliced`, else
    per-value slots over every map in the same order."""
    values = {
        "concepts": lambda env: range(1 << env["n"]),
        "roles": lambda env: product(range(1 << env["n"]), repeat=env["n"]),
        "nominals": lambda env: range(env["n"]),
    }
    return [(functional_slot(name) if sliced
             else symbol_slot(kind, name, lambda env: _map_rows(env["n"])))
            if name in "st" else symbol_slot(kind, name, values[kind]) for kind, name in order]


def _snapshot(env):
    return (tuple(sorted(env["cons"].items())), tuple(sorted(env["noms"].items())),
            tuple((r, tuple(row)) for r, row in sorted(env["rsucc"].items())))


def _pinned_env(n, pinned):
    """An env of universe size n with the symbols in `pinned` fixed: A to
    the even elements, B to the last, r to a chain of shrinking rows, s to
    the constant map to the last element, t to the successor map modulo n,
    o to the first element and p to the last."""
    env = {"n": n, "full": (1 << n) - 1, "cons": {}, "noms": {}, "rsucc": {}}
    fixed = {"A": sum(1 << u for u in range(0, n, 2)), "B": 1 << n - 1,
             "r": [env["full"] >> u for u in range(n)], "s": [1 << n - 1] * n,
             "t": [1 << (u + 1) % n for u in range(n)], "o": 0, "p": n - 1}
    for name in pinned:
        env["rsucc" if name in "rst" else "noms" if name in "op" else "cons"][name] = fixed[name]
    return env


def test_kernel_matches_eval_formula_over_slot_orders(monkeypatch):
    """StagedSearch yields exactly the enumerated structures that satisfy
    the formulas under structures.eval_formula, in enumeration order, for
    random formulas (with updated roles, inverses and at-most bounds 0-2)
    and random slot orders.  The functional roles s and t are pinned, or
    bound by sliced slots, s right before t, at a random position for n =
    1, 2, 3 (some other symbols pinned to keep the space small).  The
    sliced search yields what per-value slots over the same maps yield,
    with the same prune count, both where s and t are one stage (s has no
    conjunct of its own) and with MAX_SLICE_BITS at 1, which slices each
    role alone."""
    import reachdl.models as models

    rng = random.Random(404)
    symbols = [("concepts", "A"), ("roles", "r"), ("nominals", "o"), ("nominals", "p"),
               ("concepts", "B")]
    # (n, pinned symbols): the first space pins s and t, the last o and p
    spaces = [(2, {"s", "t"}), (1, set()), (2, {"r", "t"}), (2, {"r", "A", "B"}),
              (3, {"r", "A", "B", "s"}), (2, {"o", "p", "r", "B"})]
    merged = 0
    for _ in range(8):
        order = rng.sample(symbols, len(symbols))
        at = rng.randint(0, len(order))
        order[at:at] = [("roles", "s"), ("roles", "t")]
        runs = []
        for n, pinned in spaces:
            sub = [sym for sym in order if sym[1] not in pinned]
            env = _pinned_env(n, pinned)
            space = [(_snapshot(e), env_structure(e, ("A", "B"), ("r", "s", "t")))
                     for e in StagedSearch(_kernel_slots(sub, True), []).search(env)]
            runs.append((sub, env, space))
        for _ in range(10):
            formulas = [_with_updates(rng, random_formula(rng, _KERNEL_VOCAB, depth=1, cdepth=2))
                        for _ in range(rng.randint(1, 3))]
            for sub, env, space in runs:
                want = [key for key, m in space
                        if all(eval_formula(m, phi) for phi in formulas)]
                got = []
                for sliced, bound in ((True, models.MAX_SLICE_BITS), (True, 1), (False, 1)):
                    monkeypatch.setattr(models, "MAX_SLICE_BITS", bound)
                    stats = SearchStats()
                    engine = StagedSearch(_kernel_slots(sub, sliced), formulas, stats)
                    got.append(([_snapshot(e) for e in engine.search(env)], stats.pruned))
                    if bound > 1:
                        merged += any(first < end for first, end in engine.plans)
                    monkeypatch.undo()
                assert got[0][0] == want, (sub, formulas)
                assert got[0] == got[1] == got[2], (sub, formulas)
    assert merged >= 100


def _concept_objects(phi):
    """The distinct concept objects of the inclusion phi's DAG, by id."""
    objects, stack = {}, [phi.left, phi.right]
    while stack:
        c = stack.pop()
        if id(c) not in objects:
            objects[id(c)] = c
            stack += [getattr(c, f) for f in ("left", "right", "inner") if hasattr(c, f)]
    return objects


def _concept_references(phi):
    """The concept references of the inclusion phi's DAG: its two sides,
    and each child of each distinct compound concept object once."""
    return 2 + sum(hasattr(c, f) for c in _concept_objects(phi).values()
                   for f in ("left", "right", "inner"))


def test_reach_formula_is_walked_once_per_object(monkeypatch):
    """A 6-role assertion unrolled 6 steps is a DAG of O(steps * k)
    objects, though its tree form holds 6^6 copies of R_0: subconcepts,
    the walk under formula_symbols, yields each distinct object once, and
    the kernel compiles it into O(steps * k) nodes, expanding every shared
    object once, one call per reference."""
    steps, roles = 6, [f"s{i}" for i in range(6)]
    phi = reach_formula(ReachAssertion(Nominal("o"), frozenset(roles), "A"), steps)
    refs = _concept_references(phi)
    assert refs <= 4 * steps * len(roles)
    walked = [id(c) for c in subconcepts(phi)]
    assert sorted(walked) == sorted(_concept_objects(phi))
    assert len(walked) <= 4 * steps * len(roles)
    assert formula_symbols(phi) == {"concepts": {"A"}, "roles": set(roles), "nominals": {"o"}}
    calls = []
    real_concept = Kernel.concept

    def count_concept(self, c):
        calls.append(c)
        return real_concept(self, c)

    monkeypatch.setattr(Kernel, "concept", count_concept)
    kernel = Kernel({})
    kernel.root(kernel.formula(phi))
    assert len(calls) == refs
    assert len(kernel.levels) <= 3 * steps * len(roles)


def test_sliced_mask_matches_eval_formula_per_map():
    """Kernel.sliced over random formulas (nested formula connectives,
    updated and inverted roles, at-most bounds 0-2) with every other symbol
    bound: bit K of the mask is set exactly when structures.eval_formula
    holds with s bound to map K, or, sliced as the pair (s, t), with s and
    t bound to digits 0 and 1 of K in base (n+1)^n."""
    rng = random.Random(405)
    for roles, n, draws in ((("s",), 1, 40), (("s",), 2, 40), (("s",), 3, 40),
                            (("s", "t"), 1, 20), (("s", "t"), 2, 20), (("s", "t"), 3, 3)):
        rows = list(product(_map_rows(n), repeat=len(roles)))
        for _ in range(draws):
            env = {"n": n, "full": (1 << n) - 1,
                   "cons": {c: rng.randrange(1 << n) for c in "AB"},
                   "noms": {o: rng.randrange(n) for o in "op"},
                   "rsucc": {"r": [rng.randrange(1 << n) for _ in range(n)],
                             "t": [rng.choice((0, 1 << rng.randrange(n))) for _ in range(n)]}}
            formulas = [_with_updates(rng, random_formula(rng, _KERNEL_VOCAB, depth=2, cdepth=2))
                        for _ in range(rng.randint(1, 3))]
            kernel = Kernel({})
            roots = [kernel.formula(phi) for phi in formulas]
            mask = kernel.sliced(roots, roles, kernel.compile())(env)
            want = 0
            for k, maps in enumerate(rows):
                env["rsucc"].update(zip(roles, maps))
                m = env_structure(env, ("A", "B"), ("r", "s", "t"))
                if all(eval_formula(m, phi) for phi in formulas):
                    want |= 1 << k
            assert mask == want, formulas


def test_functional_selectors_match_map_order():
    """The arithmetic selectors equal the ones built map by map from
    product order, and each map decodes back to its rows; for a run of k
    roles, bit K of role j's matrix is set when digit j of K in base
    (n+1)^n, outer first, is a map that sends a to b."""
    for n in range(1, 6):
        rows = _map_rows(n)
        want = [[sum(1 << k for k, row in enumerate(rows) if row[a] == 1 << b)
                 for b in range(n)] for a in range(n)]
        assert functional_selectors(n) == want
        assert [_decode_map(k, n) for k in range(len(rows))] == rows
    for k, top in ((2, 3), (3, 2)):
        for n in range(1, top + 1):
            tuples = list(product(_map_rows(n), repeat=k))
            sel = functional_selectors(n, k)
            assert len(sel) == k * n
            for j in range(k):
                want = [[sum(1 << K for K, maps in enumerate(tuples) if maps[j][a] == 1 << b)
                         for b in range(n)] for a in range(n)]
                assert sel[j * n:j * n + n] == want
