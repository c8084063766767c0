import random

import pytest

from reachdl.parser import ParseError, parse_formula, parse_spec_file
from reachdl.syntax import (And, AtMost, Atomic, Eq, Exists, FAnd, Incl,
                            Nominal, Not, Or, Role, TOP, UnknownSymbolError,
                            Vocabulary, closure_concepts, concepts_of,
                            formula_size, inv, map_concept, map_sides, role,
                            subconcepts, to_text)
from gen import random_formula

V = Vocabulary(concepts={"L", "A", "B"}, roles={"next", "left", "r"},
               functional={"next", "left"}, nominals={"head"})


def test_parse_basic_inclusion():
    phi = parse_formula("L & !head <= E next^-.L", V)
    assert phi == Incl(And(Atomic("L"), Not(Nominal("head"))),
                       Exists(inv("next"), Atomic("L")))


def test_parse_exactly_expands():
    phi = parse_formula("E=1 left^-.L <= top", V)
    # E=1 r.C expands to E<=1 r.C & !E<=0 r.C
    want = And(AtMost(1, inv("left"), Atomic("L")),
               Not(AtMost(0, inv("left"), Atomic("L"))))
    assert phi == Incl(want, TOP)


def test_parse_atleast_expands():
    phi = parse_formula("E>=2 r.A <= top", V)
    assert phi == Incl(Not(AtMost(1, role("r"), Atomic("A"))), TOP)


def test_unknown_symbol_rejected():
    with pytest.raises(ParseError):
        parse_formula("Unknown <= L", V)
    with pytest.raises(ParseError):
        parse_formula("L <= E missing.L", V)


def test_update_roles_need_flag():
    with pytest.raises(ParseError):
        parse_formula("top <= E next[head -> head].L", V)
    phi = parse_formula("top <= E next[head -> head].L", V, allow_updates=True)
    assert to_text(phi) == "top <= E next[head -> head].L"


def test_round_trip_random():
    rng = random.Random(11)
    for _ in range(300):
        phi = random_formula(rng, V, depth=2, cdepth=3)
        text = to_text(phi)
        assert parse_formula(text, V) == phi, text


def test_concepts_of_examples():
    a, b = Atomic("A"), Atomic("B")
    assert concepts_of(Incl(a, b)) == (a, b)
    assert concepts_of(FAnd(Incl(a, b), Incl(b, a))) == (a, b)
    # equality counts as inclusions both ways
    assert concepts_of(Eq(a, b)) == (a, b)


def test_concepts_of_tree_clauses():
    from reachdl.reach import assoc_formula, tree_spec

    spec = tree_spec()
    cs = concepts_of(spec.base)
    # clauses (a) and (b): two inclusions, four distinct sides
    assert len(cs) == 4
    assert Nominal("root") in cs
    assert And(Atomic("T"), Not(Nominal("root"))) in cs
    # the associated formula adds the containment root <= T
    cs2 = concepts_of(assoc_formula(spec))
    assert len(cs2) == 5
    assert Atomic("T") in cs2


def test_map_concept_is_post_order_and_keeps_unchanged_nodes():
    a, b = Atomic("A"), Atomic("B")
    c = And(Not(a), Exists(role("r"), b))
    seen = []
    assert map_concept(c, lambda n: seen.append(n) or n) is c
    assert seen == [a, Not(a), b, Exists(role("r"), b), c]
    out = map_concept(c, lambda n: b if n == a else n)
    assert out == And(Not(b), Exists(role("r"), b))
    assert out.right is c.right


def test_map_sides_identity_returns_input():
    rng = random.Random(5)
    for _ in range(50):
        phi = random_formula(rng, V, depth=2, cdepth=3)
        assert map_sides(phi, lambda c: c) is phi


def test_subconcepts_preorder_matches_closure_order():
    """Fresh-symbol numbering follows closure_concepts' order, which must be
    first occurrence in a left-to-right preorder over the sides."""
    from reachdl.reach import tree_spec
    from reachdl.reduction import ord_reduction, semi_formula

    def preorder(c):
        yield c
        if isinstance(c, (And, Or)):
            yield from preorder(c.left)
            yield from preorder(c.right)
        elif isinstance(c, (Not, Exists, AtMost)):
            yield from preorder(c.inner)

    for phi in (semi_formula(tree_spec()), ord_reduction(tree_spec(), "poly")[0]):
        want = tuple(dict.fromkeys(c for side in concepts_of(phi) for c in preorder(side)))
        assert closure_concepts(phi) == want
        assert tuple(dict.fromkeys(subconcepts(phi))) == want


def test_role_inverse_normalizes():
    r = role("next")
    assert r.inverse().inverse() == r


def test_vocabulary_disjointness():
    with pytest.raises(Exception):
        Vocabulary(concepts={"x"}, nominals={"x"})
    with pytest.raises(Exception):
        Vocabulary(roles={"r"}, functional={"s"})


def test_formula_size_counts_nodes():
    phi = parse_formula("A <= B", V)
    assert formula_size(phi) == 3


def test_spec_file_round_trip():
    text = """
CONCEPT L
NOMINAL head
FROLE next
top <= top
REACH <head> {next} <L>
"""
    vocab, spec = parse_spec_file(text)
    assert spec.re[0].source == Nominal("head")
    assert spec.re[0].target == "L"
    assert spec.re[0].roles == frozenset({"next"})
