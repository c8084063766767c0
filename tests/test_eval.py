import random
from itertools import product

import pytest

from reachdl.fol import fo_eval, to_first_order
from reachdl import parser
from reachdl.parser import ParseError, parse_formula, parse_structure_file
from reachdl.structures import (Evaluator, FiniteStructure, MissingNominalError,
                                env_structure, eval_concept, eval_formula,
                                mask_view, structure, type_of, types_of_all)
from reachdl.syntax import (And, AtMost, Atomic, Bot, Eq, Exists, FAnd, FNot,
                            FOr, Incl, Nominal, Not, Or, Role, TOP, Top,
                            UpdatePoint, Vocabulary, closure_concepts,
                            concepts_of, exactly, inv, map_concept, map_sides,
                            ReachDLError, role, to_text)
from reachdl.wp import eliminate_updates
from gen import random_formula, random_structure

V = Vocabulary(concepts={"L", "A", "B"}, roles={"next", "r"},
               functional={"next"}, nominals={"head", "proj", "e"})

CHAIN = structure(range(3), {"L": [0, 1, 2]}, {"next": [(0, 1), (1, 2)]},
                  {"head": 0, "proj": 0, "e": 0})


def test_not_top_is_empty():
    assert eval_concept(CHAIN, Not(TOP)) == frozenset()


def test_exists_next_top():
    # direct enumeration of the pairs: sources of next edges
    assert eval_concept(CHAIN, Exists(role("next"), TOP)) == frozenset({0, 1})


def test_update_role_override():
    # universe with proj=5 available; update next at e=2 to point at proj
    m = structure(range(6), {}, {"next": [(0, 1), (1, 2), (2, 3)]},
                  {"e": 2, "proj": 5})
    u = Role("next", updates=(UpdatePoint("e", "proj"),))
    # brute force: e's successors become {proj}; others unchanged
    assert eval_concept(m, Exists(u, Nominal("proj"))) == frozenset({2})
    assert eval_concept(m, Exists(u, TOP)) == frozenset({0, 1, 2})


def test_update_then_invert():
    m = structure(range(3), {}, {"next": [(0, 1)]}, {"e": 0, "proj": 2})
    u = Role("next", updates=(UpdatePoint("e", "proj"),))
    # updated relation is {(0,2)}; its inverse is {(2,0)}
    assert eval_concept(m, Exists(u.inverse(), TOP)) == frozenset({2})
    assert eval_concept(m, Exists(u.inverse(), Nominal("e"))) == frozenset({2})
    assert eval_concept(m, Exists(u.inverse(), Nominal("proj"))) == frozenset()
    assert eval_concept(m, AtMost(0, u.inverse(), TOP)) == frozenset({0, 1})


def test_bot_inclusion_always_true():
    rng = random.Random(3)
    for _ in range(20):
        m = random_structure(rng, V, 4)
        assert eval_formula(m, Incl(Bot(), Atomic("A")))


def test_chain_predecessor_formula():
    phi = parse_formula("L & !head <= E next^-.L", V)
    assert eval_formula(CHAIN, phi)
    broken = structure(range(3), {"L": [0, 1, 2]}, {"next": [(0, 1)]},
                       {"head": 0, "proj": 0, "e": 0})
    assert not eval_formula(broken, phi)  # element 2 has no predecessor


def test_counting_expansion_matches_direct_count():
    # E=n r.C agrees with counting successors directly
    rng = random.Random(5)
    for _ in range(100):
        m = random_structure(rng, V, 4)
        c = Atomic("A")
        for n in range(3):
            got = eval_concept(m, exactly(n, role("r"), c))
            want = frozenset(
                u for u in m.universe
                if sum(1 for a, b in m.role_ext("r")
                       if a == u and b in m.concept_ext("A")) == n)
            assert got == want


def test_type_of_examples():
    phi = Incl(Atomic("A"), Atomic("B"))
    m = structure(range(2), {"A": [0], "B": [0]}, {}, {})
    assert type_of(m, phi, 0) == frozenset({Atomic("A"), Atomic("B")})
    assert type_of(m, phi, 1) == frozenset()


def test_type_of_distinguishes_head():
    from reachdl.reach import list_spec, assoc_formula

    phi = assoc_formula(list_spec())
    types = types_of_all(CHAIN, concepts_of(phi))
    assert types[0] != types[1]
    assert types[1] == types[2]


def test_lemma_types_same_types_agree():
    """Mutating concepts outside the formula leaves satisfaction unchanged
    whenever all element types agree."""
    rng = random.Random(17)
    for _ in range(200):
        m = random_structure(rng, V, 4)
        phi = random_formula(rng, V, depth=1, cdepth=2)
        cs = concepts_of(phi)
        used = {c.name for c in cs if isinstance(c, Atomic)}
        spare = sorted(V.concepts - used)
        if not spare:
            continue
        mutated = m.with_concept(spare[0],
                                 frozenset(u for u in m.universe if rng.random() < 0.5))
        if types_of_all(m, cs) == types_of_all(mutated, cs):
            assert eval_formula(m, phi) == eval_formula(mutated, phi)


def test_empty_universe_admitted_without_nominals():
    m = structure((), {}, {}, {})
    assert eval_formula(m, Incl(TOP, Bot()))  # vacuous over the empty universe


# ---------------------------------------------------------------------------
# Differential check against the first-order oracle

DV = Vocabulary(concepts={"A", "B"}, roles={"r", "s"}, functional={"r"},
                nominals={"o", "p"})
PROBE = "__probe"


def _gapped(rng: random.Random, m: FiniteStructure) -> FiniteStructure:
    """m with element i renamed to a gapped label, the universe listed in
    an unsorted order (as (7, 3, 12, 4))."""
    n = len(m.universe)
    labels = rng.sample(range(3 * n + 5), n)
    if n > 1 and labels == sorted(labels):
        labels.reverse()
    to = dict(zip(m.universe, labels))
    return FiniteStructure(tuple(labels),
                           {k: frozenset(to[u] for u in v) for k, v in m.concepts.items()},
                           {k: frozenset((to[a], to[b]) for a, b in v)
                            for k, v in m.roles.items()},
                           {k: to[e] for k, e in m.nominals.items()})


def _oracle(m: FiniteStructure, phi) -> bool:
    return fo_eval(m, to_first_order(eliminate_updates(phi)))


def _check_against_oracle(m: FiniteStructure, phi) -> None:
    assert eval_formula(m, phi) == _oracle(m, phi), to_text(phi)
    for c in closure_concepts(phi):
        ext = eval_concept(m, c)
        assert ext <= frozenset(m.universe)
        for u in m.universe:
            probe = m.with_nominal(PROBE, u)
            assert (u in ext) == _oracle(probe, Incl(Nominal(PROBE), c)), (to_text(phi), u)


def test_eval_matches_first_order_oracle_on_gapped_universes():
    rng = random.Random(41)
    for _ in range(150):
        m = _gapped(rng, random_structure(rng, DV, 5))
        _check_against_oracle(m, random_formula(rng, DV, depth=2, cdepth=2))


def _with_updates(rng: random.Random, phi, limit: int = 3):
    """phi with some role restrictions given one or two update points."""
    count = 0

    def upd(c):
        nonlocal count
        if isinstance(c, (Exists, AtMost)) and count < limit and rng.random() < 0.6:
            count += 1
            r = c.role
            for _ in range(rng.randint(1, 2)):
                r = Role(r.name, r.inverted, r.updates + (UpdatePoint(
                    rng.choice(("o", "p")), rng.choice(("o", "p"))),))
            return Exists(r, c.inner) if isinstance(c, Exists) else AtMost(c.bound, r, c.inner)
        return c

    return map_sides(phi, lambda c: map_concept(c, upd))


def test_eval_with_update_points_matches_oracle():
    rng = random.Random(43)
    for _ in range(120):
        m = _gapped(rng, random_structure(rng, DV, 4))
        _check_against_oracle(m, _with_updates(rng, random_formula(rng, DV, depth=1, cdepth=2)))


# ---------------------------------------------------------------------------
# Error semantics: which missing nominals raise

NO_O = structure(range(2), {"A": [0]}, {"r": [(0, 1)]}, {"p": 1})


def test_inclusion_evaluates_both_sides():
    # the left side is empty, yet the right side's missing nominal raises
    with pytest.raises(MissingNominalError, match="nominal o is not interpreted"):
        eval_formula(NO_O, Incl(Bot(), Nominal("o")))
    with pytest.raises(MissingNominalError):
        eval_formula(NO_O, Incl(Not(TOP), Nominal("o")))
    with pytest.raises(MissingNominalError):
        eval_formula(NO_O, Eq(Nominal("o"), Bot()))
    with pytest.raises(MissingNominalError):
        eval_concept(NO_O, And(Bot(), Nominal("o")))


def test_missing_nominal_in_update_point_raises():
    u = Role("r", updates=(UpdatePoint("o", "p"),))
    with pytest.raises(MissingNominalError, match="nominal o is not interpreted"):
        eval_concept(NO_O, Exists(u, TOP))
    with pytest.raises(MissingNominalError):
        eval_concept(NO_O, Exists(u, Bot()))  # even when the filler is empty
    with pytest.raises(MissingNominalError):
        eval_concept(NO_O, AtMost(0, u.inverse(), TOP))


def test_formula_connectives_short_circuit():
    missing = Incl(Nominal("o"), TOP)
    false, true = Incl(TOP, Bot()), Incl(Bot(), TOP)
    assert eval_formula(NO_O, FAnd(false, missing)) is False
    assert eval_formula(NO_O, FOr(true, missing)) is True
    assert eval_formula(NO_O, FNot(FOr(true, missing))) is False
    with pytest.raises(MissingNominalError):
        eval_formula(NO_O, FAnd(true, missing))
    with pytest.raises(MissingNominalError):
        eval_formula(NO_O, FOr(false, missing))


# ---------------------------------------------------------------------------
# The evaluator: depth safety and the count of subterms computed

RING = structure(range(3), {"A": [0]}, {"r": [(0, 1), (1, 2), (2, 0)]}, {"o": 2})


def test_deep_not_chain():
    c = Atomic("A")
    for _ in range(10_000):
        c = Not(c)
    assert eval_concept(RING, c) == frozenset({0})
    assert eval_concept(RING, Not(c)) == frozenset({1, 2})
    phi = Incl(c, Atomic("A"))
    for _ in range(10_001):
        phi = FNot(phi)
    assert eval_formula(RING, phi) is False


def test_deep_exists_chain():
    c = Nominal("o")
    for _ in range(10_000):
        c = Exists(role("r"), c)
    # 10,000 r-steps from u reach u + 10,000 = u + 1 (mod 3)
    assert eval_concept(RING, c) == frozenset({1})
    d = Atomic("A")
    for _ in range(10_000):
        d = Exists(inv("r"), d)
    assert eval_concept(RING, d) == frozenset({1})


def test_evaluator_computes_each_subterm_once():
    ev = Evaluator(RING)
    c = Exists(role("r"), And(Atomic("A"), Not(Nominal("o"))))  # A, o, Not, And, E
    phi = Incl(c, Atomic("A"))
    chain = phi
    for _ in range(9):
        chain = FAnd(chain, phi)
    assert ev.formula(chain) is False  # E r.(A & !o) = {2}, A = {0}
    assert ev.computed == 7 + 9  # c's five objects, the second A, phi, 9 FAnds
    assert ev.concept(c) == 0b100 and ev.formula(chain) is False
    assert ev.computed == 16  # each object is computed once
    # a shared operand is one object: 200 nested And(d, d) are 201 objects
    d = Atomic("A")
    for _ in range(200):
        d = And(d, d)
    assert ev.concept(d) == 0b1 and ev.computed == 16 + 201
    # a deciding left operand leaves the right one uncomputed
    right = Incl(Exists(role("r"), Atomic("B")), Nominal("o"))
    assert ev.formula(FOr(Incl(c, TOP), right)) is True
    assert ev.computed == 217 + 3  # TOP, the Incl, the FOr
    assert ev.formula(FAnd(Incl(TOP, c), right)) is False
    assert ev.computed == 220 + 2  # the Incl and the FAnd: TOP is one object
    # a structurally equal copy is another object, and is computed anew
    copy = Exists(role("r"), And(Atomic("A"), Not(Nominal("o"))))
    assert copy == c and ev.concept(copy) == 0b100
    assert ev.computed == 222 + 5


def test_with_symbols_validates_the_new_entries():
    """A with_* update checks the entry it adds or replaces (the rest came
    from a valid structure); the constructor checks every entry."""
    m = structure(range(3), {"A": {0}}, {"r": {(0, 1)}}, {"o": 2})
    updates = [lambda: m.with_nominal("o", 3), lambda: m.with_concept("B", {0, 5}),
               lambda: m.with_role("r", {(0, 1), (1, 4)}),
               lambda: FiniteStructure((0, 1), {"A": frozenset({0})}, {"r": {(1, 2)}})]
    for bad in updates:
        with pytest.raises(ReachDLError, match="outside the universe"):
            bad()
    assert m.with_symbols(concepts={"A": {1}}, nominals={"p": 0}) == structure(
        range(3), {"A": {1}}, {"r": {(0, 1)}}, {"o": 2, "p": 0})
    assert m.with_role("r", ()).with_concept("B", ()) == structure(range(3), {"A": {0}},
                                                                   {}, {"o": 2})


def test_mask_view_inverts_to_the_structure():
    rng = random.Random(47)
    for _ in range(30):
        m = random_structure(rng, DV, 5)
        assert env_structure(mask_view(m), sorted(DV.concepts), sorted(DV.roles)) == m
        gapped = _gapped(rng, m)
        view, bit = mask_view(gapped), gapped.universe.index
        assert view["noms"] == {k: bit(e) for k, e in gapped.nominals.items()}
        assert view["cons"]["A"] == sum(1 << bit(u) for u in gapped.concept_ext("A"))
        assert view["rsucc"]["s"] == [sum(1 << bit(b) for a, b in gapped.role_ext("s") if a == u)
                                      for u in gapped.universe]


def test_universe_listing_an_element_twice_is_rejected():
    """`UNIVERSE 3 3 4` with `CONCEPT A: 4` used to evaluate `A <= top` to
    False: the mask index kept one bit for the two 3s, so 4 fell outside
    `top`.  The constructor rejects the universe, and the parser names its
    line."""
    with pytest.raises(ReachDLError, match="lists element 3 twice"):
        FiniteStructure((3, 3, 4), {"A": frozenset({4})})
    with pytest.raises(ReachDLError, match="lists element 0 twice"):
        structure([0, 1, 0])
    with pytest.raises(ParseError, match="lists element 3 twice") as exc:
        parse_structure_file("CONCEPT A: 4\nUNIVERSE 3 3 4\n")
    assert exc.value.line == 2


def test_universe_range_is_checked_before_it_is_built(monkeypatch):
    """A `UNIVERSE lo..hi` line longer than parser.MAX_UNIVERSE is an error
    on its line, raised before the range is built: a range of 10^18
    elements is rejected with a peak of well under a megabyte."""
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="more than the limit") as exc:
            parse_structure_file("UNIVERSE 0..2\nUNIVERSE 0..999999999999999999\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.line == 2 and peak < 10**6
    monkeypatch.setattr(parser, "MAX_UNIVERSE", 4)
    assert parse_structure_file("UNIVERSE 0..3\n")[1].universe == (0, 1, 2, 3)
    for line in ("UNIVERSE 0..4", "UNIVERSE 0 1 2 3 4"):
        with pytest.raises(ParseError, match="5 elements, more than the limit of 4"):
            parse_structure_file(line + "\n")
