import random

import pytest

from reachdl import graphs
from reachdl.reach import (CompatibilityError, DisjAssertion, ReachAssertion,
                           ReachSpec, alist_spec, assoc_formula,
                           check_compatibility, check_semi_connected,
                           check_spec, clist_spec, graph_sources, list_spec,
                           reach_formula, reach_graph, tree_spec, LIST_VOCAB)
from reachdl.reduction import semi_formula
from reachdl.structures import eval_formula, structure
from reachdl.syntax import Atomic, Nominal, TRUE, Vocabulary, conjuncts
from gen import random_reach_spec, random_structure

CHAIN = structure(range(3), {"L": [0, 1, 2]}, {"next": [(0, 1), (1, 2)]}, {"head": 0})


def _ra(source, roles, target):
    return ReachAssertion(source, frozenset(roles), target)


def test_compatibility_examples():
    re = (_ra("h1", {"next"}, "L1"), _ra("h2", {"next"}, "L2"))
    ok, _ = check_compatibility(re, frozenset({DisjAssertion("L1", "L2")}))
    assert ok
    ok, bad = check_compatibility(re, frozenset())
    assert not ok and bad == [(1, 2)]
    re2 = (_ra("h1", {"next1"}, "L1"), _ra("h2", {"next2"}, "L2"))
    ok, _ = check_compatibility(re2, frozenset())
    assert ok


def test_incompatible_spec_rejected():
    re = (_ra("h1", {"next"}, "L1"), _ra("h2", {"next"}, "L2"))
    with pytest.raises(CompatibilityError):
        ReachSpec(TRUE, re)


def test_duplicate_assertion_rejected():
    with pytest.raises(Exception):
        ReachSpec(TRUE, (_ra("h", {"next"}, "L"), _ra("h", {"next"}, "L")))


def test_disj_order_insensitive():
    assert DisjAssertion("B", "A") == DisjAssertion("A", "B")


def test_assoc_formula_conjunct_count():
    spec = ReachSpec(TRUE,
                     (_ra("h1", {"r1"}, "L1"), _ra("h2", {"r2"}, "L2")),
                     frozenset({DisjAssertion("L1", "L2")}))
    parts = list(conjuncts(assoc_formula(spec)))
    assert len(parts) == 1 + len(spec.re) + len(spec.di)


def test_assoc_list_containment():
    parts = list(conjuncts(assoc_formula(list_spec())))
    assert parts == [TRUE, __import__("reachdl.syntax", fromlist=["Incl"]).Incl(
        Nominal("head"), Atomic("L"))]


def test_reach_graph_examples():
    a = list_spec().assertion(1)
    succ = reach_graph(CHAIN, a)
    assert succ == {0: [1], 1: [2], 2: []}
    empty = structure(range(2), {"L": []}, {"next": [(0, 1)]}, {"head": 0})
    assert reach_graph(empty, a) == {}
    # edge leaving the induced set is excluded
    leak = structure(range(10), {"L": [0, 1]}, {"next": [(0, 1), (1, 9)]}, {"head": 0})
    assert reach_graph(leak, a) == {0: [1], 1: []}


def test_check_spec_examples():
    spec = list_spec()
    assert check_spec(CHAIN, spec)
    broken = structure(range(3), {"L": [0, 1, 2]}, {"next": [(0, 1)]}, {"head": 0})
    assert not check_spec(broken, spec)
    no_re = ReachSpec(assoc_formula(spec))
    assert check_spec(CHAIN, no_re) == eval_formula(CHAIN, assoc_formula(no_re))


def test_semi_connected_examples():
    spec = list_spec()
    assert check_semi_connected(CHAIN, spec)  # connected implies semi
    cyc = structure(range(3), {"L": [1, 2]}, {"next": [(1, 2), (2, 1)]}, {"head": 0})
    # head outside L: containment head <= L fails, so assoc fails
    assert not check_semi_connected(cyc, spec)
    cyc2 = structure(range(3), {"L": [0, 1, 2]}, {"next": [(1, 2), (2, 1)]}, {"head": 0})
    assert check_semi_connected(cyc2, spec) and not check_spec(cyc2, spec)
    isolated = structure(range(2), {"L": [0, 1]}, {"next": []}, {"head": 0})
    assert not check_semi_connected(isolated, spec)


def test_semi_formula_is_semi_connectedness():
    """The defining lemma of the encoding: the formula holds exactly on the
    semi-connected structures."""
    rng = random.Random(31)
    checked = 0
    for _ in range(300):
        vocab, spec = random_reach_spec(rng, rich=True)
        m = random_structure(rng, vocab, 4)
        assert eval_formula(m, semi_formula(spec)) == check_semi_connected(m, spec)
        checked += 1
    assert checked == 300


def _closure_covers(m, a):
    succ = reach_graph(m, a)
    return graphs.transitive_closure_reach(succ, sorted(graph_sources(m, a))) == set(succ)


def test_connected_iff_closure_covers():
    """Comment-1 equivalence, with the closure computed independently."""
    rng = random.Random(37)
    for _ in range(300):
        vocab, spec = random_reach_spec(rng, rich=True)
        m = random_structure(rng, vocab, 4)
        assert check_spec(m, spec) == (eval_formula(m, assoc_formula(spec))
                                       and all(_closure_covers(m, a) for a in spec.re))


def test_reach_formula_matches_transitive_closure():
    """The unrolled formula against the Warshall oracle on random
    structures of up to 5 elements, unrolled to the exact bound n-1 and
    past it to n+2, from nominal and concept sources over 1-3 roles."""
    rng = random.Random(43)
    roles = ("r1", "r2", "r3")
    vocab = Vocabulary(concepts={"A", "B"}, roles=set(roles), functional=set(roles),
                       nominals={"o"})
    seen = set()
    for _ in range(4000):
        m = random_structure(rng, vocab, 5)
        n = len(m.universe)
        source = rng.choice([Nominal("o"), Atomic("B")])
        a = _ra(source, rng.sample(roles, rng.randint(1, 3)), "A")
        expected = _closure_covers(m, a)
        for steps in (max(n - 1, 0), n + 2):
            assert eval_formula(m, reach_formula(a, steps)) == expected, (m, a, steps)
        seen.add((type(source), len(a.roles), expected))
    assert len(seen) == 12  # every source kind and role count, both verdicts


def test_reach_formula_needs_every_step_on_a_chain():
    """On a chain of n elements the last one is n-1 steps from the source,
    so n-2 steps fall short."""
    for n in range(2, 7):
        m = structure(range(n), {"L": range(n)}, {"next": [(u, u + 1) for u in range(n - 1)]},
                      {"head": 0})
        a = _ra(Nominal("head"), {"next"}, "L")
        assert _closure_covers(m, a)
        assert eval_formula(m, reach_formula(a, n - 1))
        assert not eval_formula(m, reach_formula(a, n - 2))


def test_spec_implies_semi_random():
    rng = random.Random(41)
    for _ in range(200):
        vocab, spec = random_reach_spec(rng)
        m = random_structure(rng, vocab, 4)
        if check_spec(m, spec):
            assert check_semi_connected(m, spec)


def test_worked_example_specs_have_models():
    from reachdl.models import find_model
    from reachdl.reach import TREE_VOCAB

    assert find_model(list_spec(), LIST_VOCAB, 1, 3) is not None
    assert find_model(alist_spec(), LIST_VOCAB, 1, 3) is not None
    assert find_model(clist_spec(), LIST_VOCAB, 1, 3) is not None
    assert find_model(tree_spec(), TREE_VOCAB, 1, 3) is not None
