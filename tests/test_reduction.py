import random

import pytest

from reachdl.models import (find_model, find_semi_useful_model, repair,
                            useful_labeling)
from reachdl.reach import (DisjAssertion, ReachAssertion, ReachSpec,
                           alist_spec, check_semi_connected, check_spec,
                           clist_spec, list_spec, tree_spec, LIST_VOCAB,
                           TREE_VOCAB)
from reachdl.reduction import (LimitExceededError, NonNNFError, bc_lift,
                               boolean_closure_reduction, implication_reduction,
                               is_negation_free, is_nnf, nnf, ord_labelings,
                               ord_lift, ord_membership, ord_positions,
                               ord_reduction, ord_reduction_exp,
                               ord_reduction_poly, ord_vocabulary,
                               ord_substructure, owl_export, sat_pipeline_full,
                               semi_formula)
from reachdl.structures import eval_formula, structure
from reachdl.syntax import (And, Atomic, Eq, Exists, FAnd, FNot, FOr, Formula,
                            Incl, Nominal, Not, TRUE, Vocabulary,
                            closure_concepts, conjuncts, formula_size, inv,
                            to_text)
from gen import random_formula, random_reach_spec, random_structure

CHAIN = structure(range(3), {"L": [0, 1, 2]}, {"next": [(0, 1), (1, 2)]}, {"head": 0})


# ---------------------------------------------------------------------------
# semi


def test_semi_formula_list():
    got = to_text(semi_formula(list_spec()))
    assert got == "top <= top and head <= L and L & !head <= E next^-.L"


def test_semi_formula_empty_re():
    spec = ReachSpec(TRUE)
    assert semi_formula(spec) == TRUE


def test_semi_formula_two_role_disjunction():
    got = to_text(semi_formula(tree_spec()))
    assert "T & !root <= E left^-.T | E right^-.T" in got


# ---------------------------------------------------------------------------
# the exponential encoding


def test_exp_smallest_instance_shape():
    # a single side (top) gives k = 2 ladder nominals and theta3 over the
    # single i<j pair
    spec = ReachSpec(TRUE)
    formula, ext = ord_reduction_exp(spec)
    assert len(ext.ladder) == 2
    text = to_text(formula)
    assert "E __ord_ord.__ord_o2" in text
    assert ext.label_roles == ()


def test_exp_list_label_role_domain():
    spec = list_spec()
    formula, ext = ord_reduction_exp(spec)
    assert len(ext.label_roles) == 1
    assert f"E {ext.label_roles[0]}.top == L & {ext.marker}" in to_text(formula)
    # k is the full type space over the closure: six concepts here
    assert len(ext.ladder) == 64


def test_exp_limit_guard():
    # 13 distinct sides blow past the 2^12 nominal limit
    parts = [Incl(Atomic("L"), Exists(Role("next") if False else inv("next"),
                                      Atomic("L")))]
    from reachdl.syntax import Role, conj, role

    base = conj([Incl(AtMostN(i), AtMostN(i + 1)) for i in range(7)])
    spec = ReachSpec(base, (ReachAssertion(Nominal("head"), frozenset({"next"}), "L"),))
    with pytest.raises(LimitExceededError):
        ord_reduction_exp(spec)


def AtMostN(i: int):
    from reachdl.syntax import AtMost, TOP, role

    return AtMost(i, role("next"), TOP)


def test_ord_lift_and_membership_both_variants():
    spec = list_spec()
    for variant in ("exp", "poly"):
        formula, ext = ord_reduction(spec, variant)
        n, ext2 = ord_lift(CHAIN, spec, variant)
        assert ext2 == ext
        assert eval_formula(n, formula)
        assert ord_membership(n, spec, variant)
        assert ord_substructure(n, ext) == CHAIN


def test_ord_membership_mutations():
    spec = list_spec()
    n, ext = ord_lift(CHAIN, spec, "exp")
    # break property 3 by deleting one ord edge
    ordext = n.role_ext(ext.order_role)
    broken = n.with_role(ext.order_role, frozenset(list(sorted(ordext))[1:]))
    assert not ord_membership(broken, spec, "exp", ext)
    # break usefulness (5b) by relabeling: point every element at the same
    # ladder nominal as element 0 -- types of head and interior differ, so 5a
    # breaks; pointing interior elements at the first label breaks 5b
    f1 = ext.label_roles[0]
    first = n.nominal_elem(ext.ladder[0])
    relabeled = n.with_role(f1, frozenset((u, first) for u, _ in n.role_ext(f1)))
    assert not ord_membership(relabeled, spec, "exp", ext)
    # displacing a tau-nominal into the order part breaks property 1
    displaced = n.with_nominal("head", n.nominal_elem(ext.ladder[0]))
    assert not ord_membership(displaced, spec, "exp", ext)


def test_ord_vocabulary_is_the_reductions():
    tree = structure(range(3), {"T": [0, 1, 2]}, {"left": [(0, 1)], "right": [(0, 2)]},
                     {"root": 0})
    for spec, m in ((list_spec(), CHAIN), (alist_spec(), CHAIN), (tree_spec(), tree)):
        for variant in ("exp", "poly"):
            try:
                want = ord_reduction(spec, variant)[1]
            except LimitExceededError as e:
                message = str(e)
                for call in (lambda: ord_vocabulary(spec, variant),
                             lambda: ord_lift(m, spec, variant),
                             lambda: ord_membership(m, spec, variant)):
                    with pytest.raises(LimitExceededError) as got:
                        call()
                    assert str(got.value) == message
                continue
            assert ord_vocabulary(spec, variant) == want
            n, ext = ord_lift(m, spec, variant)
            assert ext == want
            assert ord_membership(n, spec, variant) == ord_membership(n, spec, variant, want)
    assert "2^21 nominals" in message  # tree_spec's exponential encoding


def test_ord_positions_read_the_lifted_order():
    for variant in ("exp", "poly"):
        n, ext = ord_lift(CHAIN, list_spec(), variant)
        o_elems = sorted(set(n.universe) - set(CHAIN.universe))
        assert ord_positions(n, ext) == {u: v for v, u in enumerate(o_elems, start=1)}


def test_poly_counter_shapes():
    # one side: k = 1, counter has two values
    spec = ReachSpec(TRUE)
    formula, ext = ord_reduction_poly(spec)
    assert len(ext.counters) == 1
    assert ext.order_size() == 2
    text = to_text(formula)
    assert f"{ext.start} == !{ext.marker} & !{ext.counters[0]}" in text
    # zeta_last: successor domain is the non-marker non-maximal part
    assert f"E {ext.succ_role}.top == !{ext.marker} & !{ext.counters[0]}" in text


def test_poly_consec_branch_count():
    # two sides: zeta_consec has exactly two branches
    spec = ReachSpec(Incl(Atomic("L"), Exists(inv("next"), Atomic("L"))),
                     ())
    # sides: L and E next^-.L; closure adds nothing new beyond these two? the
    # closure of E next^-.L includes L again only
    formula, ext = ord_reduction_poly(spec)
    assert len(ext.counters) == 2
    consec = [cj for cj in conjuncts(formula)][2]
    # the disjunction on the right of zeta_consec has exactly 2 branches
    text = to_text(consec)
    assert text.count(f"!{ext.counters[0]} & E {ext.succ_role}.{ext.counters[0]}") == 1
    assert text.count(f"!{ext.counters[1]} & E {ext.succ_role}.{ext.counters[1]}") == 1


def test_poly_size_affine_in_k():
    sizes = []
    for k in range(1, 9):
        from reachdl.syntax import conj

        base = conj([Incl(Atomic("L"), Atomic("L"))] * 1)
        # k distinct atomic sides via a chain of inclusions over fresh names
        names = [f"C{i}" for i in range(k)]
        base = conj([Incl(Atomic(n), Atomic(n)) for n in names])
        spec = ReachSpec(base, (ReachAssertion(Nominal("head"), frozenset({"next"}), "L"),))
        formula, ext = ord_reduction_poly(spec)
        sizes.append(formula_size(formula))
    # affine growth: constant second differences
    diffs = [b - a for a, b in zip(sizes, sizes[1:])]
    second = {b - a for a, b in zip(diffs, diffs[1:])}
    assert len(second) == 1


def test_exp_poly_agree_on_satisfiability():
    """Both encodings answer exactly like the semi-connected+useful-labeling
    characterization; their lifts satisfy their formulas.  The exponential
    variant only runs where its nominal count stays small (it is retained
    for cross-validation, guarded by the limit)."""
    rng = random.Random(43)
    lifted = 0
    for _ in range(25):
        vocab, spec = random_reach_spec(rng)
        m = find_semi_useful_model(spec, vocab, 1, 3)
        if m is None:
            continue
        formula, ext = ord_reduction_poly(spec)
        if ext.order_size() > 512:
            continue  # the counter part would dwarf the model; covered elsewhere
        n, _ = ord_lift(m, spec, "poly")
        assert eval_formula(n, formula)
        assert ord_membership(n, spec, "poly", ext)
        exp = _exp_or_none(spec)
        if exp is not None:
            formula_e, ext_e = exp
            ne, _ = ord_lift(m, spec, "exp")
            assert eval_formula(ne, formula_e)
            assert ord_membership(ne, spec, "exp", ext_e)
        lifted += 1
    assert lifted >= 3


# ---------------------------------------------------------------------------
# implication


def test_implication_alist_list():
    k1, fresh1 = implication_reduction(alist_spec(), list_spec())
    v1 = LIST_VOCAB.with_concepts(fresh1)
    assert find_model(k1, v1, 1, 5) is None  # implication holds

    k2, fresh2 = implication_reduction(list_spec(), alist_spec())
    v2 = LIST_VOCAB.with_concepts(fresh2)
    m = k2 and find_model(k2, v2, 1, 4)
    assert m is not None and len(m.universe) == 1
    assert m.role_ext("next") == frozenset({(0, 0)})  # the cyclic witness


def test_implication_trivial_consequent():
    spec2 = ReachSpec(TRUE)
    kappa, fresh = implication_reduction(list_spec(), spec2)
    assert fresh == ()
    assert find_model(kappa, LIST_VOCAB, 1, 4) is None


def test_implication_sound_direction_random():
    """kappa satisfiable really does exhibit an implication failure."""
    rng = random.Random(47)
    for _ in range(40):
        v1, s1 = random_reach_spec(rng)
        v2, s2 = random_reach_spec(rng)
        kappa, fresh = implication_reduction(s1, s2)
        vocab = v1.merge(v2).with_concepts(fresh)
        m = find_model(kappa, vocab, 1, 3)
        if m is not None:
            assert check_spec(m, s1)
            assert not check_spec(m, s2)


# ---------------------------------------------------------------------------
# NNF and boolean closure


def test_nnf_examples():
    a, b = Incl(Atomic("L"), Atomic("L")), Incl(Atomic("L"), Not(Atomic("L")))
    assert nnf(FNot(FAnd(a, b))) == FOr(FNot(a), FNot(b))
    assert nnf(FNot(FNot(a))) == a
    got = nnf(FNot(Eq(Atomic("L"), Atomic("L"))))
    want = FOr(FNot(Incl(Atomic("L"), Atomic("L"))),
               FNot(Incl(Atomic("L"), Atomic("L"))))
    assert got == want
    assert is_nnf(nnf(FNot(FOr(a, FNot(b)))))


def test_bc_base_and_negation_cases():
    a = Incl(Atomic("L"), Atomic("L"))
    psi, info = boolean_closure_reduction(a)
    assert psi == a and not info.nominals and not info.roles
    psi2, info2 = boolean_closure_reduction(FNot(Incl(Atomic("C_"), Atomic("D_")))
                                            if False else FNot(a))
    assert to_text(psi2) == "__bc_o1 <= L and L <= !__bc_o1"


def test_bc_rejects_non_nnf():
    a = Incl(Atomic("L"), Atomic("L"))
    with pytest.raises(NonNNFError):
        boolean_closure_reduction(FNot(FAnd(a, a)))


def test_bc_output_negation_free_random():
    rng = random.Random(53)
    v = Vocabulary(concepts={"A", "B"}, roles={"f"}, functional={"f"}, nominals={"o"})
    for _ in range(100):
        phi = nnf(random_formula(rng, v, depth=2, cdepth=1))
        psi, info = boolean_closure_reduction(phi)
        assert is_negation_free(psi)


def test_bc_lift_and_restriction():
    """Structure lifting: a model of the NNF input extends on
    the same universe to a model of the reduction output, whose tau part
    still satisfies the input."""
    rng = random.Random(59)
    v = Vocabulary(concepts={"A", "B"}, roles={"f"}, functional={"f"}, nominals={"o"})
    lifted_count = 0
    for _ in range(200):
        phi = nnf(random_formula(rng, v, depth=2, cdepth=1))
        m = random_structure(rng, v, 3, min_size=2)
        if not eval_formula(m, phi):
            continue
        lifted_count += 1
        n, psi, info = bc_lift(phi, m)
        assert eval_formula(n, psi)
        # restriction: dropping the fresh symbols gives back m itself
        assert eval_formula(m, phi)
    assert lifted_count > 50


def _exp_or_none(spec):
    try:
        return ord_reduction_exp(spec, limit=256)
    except LimitExceededError:
        return None


def test_bc_equisatisfiable_small():
    """Blind search agreement at tiny sizes, using the role canonicalization
    for the auxiliary roles."""
    rng = random.Random(61)
    v = Vocabulary(concepts={"A"}, roles={"f"}, functional={"f"}, nominals={"o"})
    for _ in range(25):
        phi = nnf(random_formula(rng, v, depth=1, cdepth=1))
        psi, info = boolean_closure_reduction(phi)
        out_vocab = info.extend(v)
        for size in (2, 3):
            sat_in = find_model(phi, v, size, size) is not None
            sat_out = find_model(psi, out_vocab, size, size,
                                 role_canon=info.role_canon) is not None
            assert sat_in == sat_out, (to_text(phi), size)


# ---------------------------------------------------------------------------
# sharing: the reductions build each distinct subterm once


def _objects_and_distinct(root) -> tuple[int, int]:
    """The number of concept and formula node objects reachable from root,
    and the number of structurally distinct ones."""
    ids: dict[int, int] = {}
    table: dict[tuple, int] = {}

    def canon(x) -> int:
        got = ids.get(id(x))
        if got is None:
            kids = tuple(canon(getattr(x, f)) for f in ("left", "right", "inner")
                         if hasattr(x, f))
            key = (type(x), getattr(x, "name", None), getattr(x, "bound", None),
                   getattr(x, "role", None), kids)
            got = ids[id(x)] = table.setdefault(key, len(table))
        return got

    canon(root)
    return len(ids), len(table)


def test_relativization_rewrites_each_side_object_once():
    """relativize_formula, and the boolean-closure side rewrite under one
    and under two stacked disjunct guards, rewrite each distinct side
    object once."""
    from reachdl.reduction import _guarded, relativize_concept, relativize_formula
    from reachdl.syntax import map_sides

    c, d = And(Atomic("A"), Nominal("o")), Exists(inv("r"), Atomic("A"))
    phi = FAnd(Incl(c, d), FOr(Eq(d, c), Incl(c, Not(d))))
    guard, inner = Atomic("M"), Atomic("N")
    outer_side = _guarded(None, guard)
    nested_side = _guarded(outer_side, inner)
    for out, want in ((relativize_formula(phi, guard), relativize_concept(c, guard)),
                      (map_sides(phi, outer_side), And(c, guard)),
                      (map_sides(phi, nested_side), And(And(c, inner), guard))):
        assert out.left.left == want
        assert out.left.left is out.right.left.right is out.right.right.left
        assert out.left.right is out.right.left.left
    # the nested rewrite reuses the enclosing one's memo for what it wraps
    assert nested_side(c) is outer_side(nested_side(c).left)


@pytest.mark.parametrize("variant", ["exp", "poly"])
@pytest.mark.parametrize("make", [list_spec, alist_spec, clist_spec, tree_spec])
def test_ord_and_bc_outputs_are_shared(make, variant):
    # each repeated subterm built anew gave 2.0-7.2 objects per distinct node
    try:
        ord_formula, _ = ord_reduction(make(), variant)
    except LimitExceededError:
        assert (make, variant) == (tree_spec, "exp")
        return
    bc_formula, _ = boolean_closure_reduction(nnf(ord_formula))
    for phi in (ord_formula, bc_formula):
        objects, distinct = _objects_and_distinct(phi)
        assert objects <= 1.1 * distinct


# ---------------------------------------------------------------------------
# pipeline and export


def test_pipeline_negation_free_and_deterministic():
    spec = alist_spec()
    out1 = sat_pipeline_full(spec, LIST_VOCAB, "poly").formula
    out2 = sat_pipeline_full(spec, LIST_VOCAB, "poly").formula
    assert out1 == out2
    assert is_negation_free(out1)
    assert to_text(out1) == to_text(out2)


def test_pipeline_full_manifest_and_owl():
    res = sat_pipeline_full(list_spec(), LIST_VOCAB, "poly")
    assert any(line.startswith("variant poly") for line in res.manifest())
    owl = owl_export(res.formula, res.vocabulary)
    assert "SubClassOf" in owl and "Ontology(" in owl
    assert "FunctionalObjectProperty(:next)" in owl


def test_pipeline_end_to_end_on_list():
    """A model of the list spec lifts through ord and bc to a model of the final
    pipeline output; membership extraction plus repair recovers a model."""
    spec = list_spec()
    res = sat_pipeline_full(spec, LIST_VOCAB, "poly")
    n, ext = ord_lift(CHAIN, spec, "poly")
    nb, psi, info = bc_lift(nnf(res.ord_formula), n)
    assert psi == res.formula
    assert eval_formula(nb, res.formula)
    assert ord_membership(nb, spec, "poly", ext)
    sub = ord_substructure(nb, ext)
    labs = ord_labelings(nb, spec, ext)
    fixed = repair(sub, spec, labs)
    assert check_spec(fixed, spec)


def test_blind_found_ext_models_are_members():
    """Soundness direction of the defining lemma on a searchable instance:
    every structure the finder returns for the encoding output passes the
    semantic membership check."""
    spec = ReachSpec(TRUE)  # no assertions: the order part is two cells
    for variant in ("poly", "exp"):
        formula, ext = ord_reduction(spec, variant)
        vocab = ext.extend(Vocabulary())
        for size in (2, 3, 4):
            n = find_model(formula, vocab, size, size)
            if n is not None:
                assert ord_membership(n, spec, variant, ext)
        assert find_model(formula, vocab, 2, 4) is not None


def test_pipeline_unsat_spec():
    # L == bot together with the containment head <= L is contradictory
    from reachdl.parser import parse_spec_file

    vocab, spec = parse_spec_file("""
CONCEPT L
NOMINAL head
FROLE next
L == bot
REACH <head> {next} <L>
""")
    assert find_model(spec, vocab, 1, 4) is None
    assert find_semi_useful_model(spec, vocab, 1, 4) is None
