import hashlib
from itertools import islice

import pytest

from reachdl.memory import (HeapVocabulary, MemoryAxiomError, MemorySearch,
                            MemoryStructure, ghost, infer_memory, make_memory)
from reachdl.parser import parse_formula, parse_memory_file, structure_to_text
from reachdl.structures import eval_formula, structure
from reachdl.syntax import Atomic, Incl, Nominal, ReachDLError

HEAP = HeapVocabulary(fields=("f",), variables=("x", "y"), data_concepts=("P1",))


def test_make_memory_valid():
    m = make_memory(HEAP, alloc=2, targets=1, pool=3)
    assert m.violations() == []
    assert m.alloc() == frozenset({3, 4})
    assert m.targets() == frozenset({5})
    assert m.pool() == frozenset({6, 7, 8})
    assert m.var("x") == m.null()
    # fields are total on addresses, pool cells map to null
    for a in sorted(m.addresses()):
        assert m.field_value("f", a) is not None
    # ghosts snapshot the current interpretation
    assert m.fs.role_ext(ghost("f")) == m.fs.role_ext("f")


def test_heap_vocabulary_reserved_names():
    with pytest.raises(ReachDLError):
        HeapVocabulary(fields=("Alloc",))
    with pytest.raises(ReachDLError):
        HeapVocabulary(variables=("x_gho",))


def test_tau_rem_is_data_relations():
    heap = HeapVocabulary(fields=("f",), variables=("x",),
                          data_concepts=("P1",), data_roles=("rel",))
    assert heap.tau_rem() == ("P1", "rel")


def test_axiom_violations_reported():
    m = make_memory(HEAP, alloc=1, targets=0, pool=2)
    # point a constant into the pool
    bad = m.with_fs(m.fs.with_nominal("x", sorted(m.pool())[0]))
    assert any("MemPool" in v for v in bad.violations())
    # a field leaking into the pool
    bad2 = m.with_fs(m.fs.with_function_value("f", 3, sorted(m.pool())[0]))
    assert any("maps 3 into MemPool" in v for v in bad2.violations())
    # data concept touching the pool
    bad3 = m.with_fs(m.fs.with_concept("P1", m.pool()))
    assert any("P1" in v for v in bad3.violations())
    # broken partition
    bad4 = m.with_fs(m.fs.with_concept("Alloc", m.alloc() | m.pool()))
    assert any("partition" in v for v in bad4.violations())
    with pytest.raises(MemoryAxiomError):
        bad.check()


def test_pool_reserve_parameter():
    m = make_memory(HEAP, alloc=1, targets=0, pool=1)
    assert m.violations(min_pool=1) == []
    assert any("MemPool" in v for v in m.violations(min_pool=2))


def test_memory_file_round_trip(tmp_path):
    m = make_memory(HEAP, alloc=1, targets=0, pool=2,
                    variables={"x": 3}, concepts={"P1": {3}})
    text = "MEMORY\nFIELDS f\nVARS x y\nCONCEPTS P1\n" + structure_to_text(
        m.fs, m.heap.vocabulary().functional)
    back = parse_memory_file(text)
    assert back.fs == m.fs
    assert back.heap.fields == ("f",)


def test_infer_memory():
    m = make_memory(HEAP, alloc=1, targets=0, pool=2, concepts={"P1": {3}})
    inferred = infer_memory(m.fs)
    assert set(inferred.heap.fields) == {"f"}
    assert set(inferred.heap.variables) == {"x", "y"}
    assert set(inferred.heap.data_concepts) == {"P1"}


def test_memory_search_finds_annotated_structures():
    phi = Incl(Nominal("x"), Atomic("Alloc"))
    found = []
    for m in MemorySearch(HEAP, 2, (phi,)):
        assert eval_formula(m.fs, phi)
        assert m.violations(min_pool=0) == []
        found.append(m)
        if len(found) >= 50:
            break
    assert found


def test_memory_search_respects_unsat():
    phi = Incl(Nominal("null"), Atomic("Alloc"))  # null is never allocated
    assert list(MemorySearch(HEAP, 2, (phi,))) == []


# ---------------------------------------------------------------------------
# Golden enumeration: the exact sequence MemorySearch yields

RHEAP = HeapVocabulary(fields=("f",), variables=("x",), data_roles=("rel",))
CRHEAP = HeapVocabulary(fields=("f",), variables=("x",), data_concepts=("P1",),
                        data_roles=("rel",))

_GOLDEN = [
    # (heap, formula, search options, addresses, limit, count, sha256 of the texts)
    (HEAP, "x <= Alloc and Alloc <= E f.(Alloc | null) and P1 <= Alloc", {}, 1, None,
     4, "ffef88aa9a224841556cc68a108142e02306dcfcf9a78b1d8291526636dbbcac"),
    (HEAP, "x <= Alloc and Alloc <= E f.(Alloc | null) and P1 <= Alloc", {}, 2, None,
     128, "0410793ebf3c5aa015d22b5456a584f793d965951db1d286c21514a2c5daa876"),
    (RHEAP, "Alloc <= E rel.(Alloc | x) and x <= Alloc and "
            "Aux | PossibleTargets <= !E rel.top", {}, 1, None,
     8, "747f80de453add28aa83c21de03d507f0aa2898175adb52771d8695ebc4347b5"),
    (RHEAP, "Alloc <= E rel.(Alloc | x) and x <= Alloc and "
            "Aux | PossibleTargets <= !E rel.top", {}, 2, 300,
     300, "58fdc79510111e7b5d1909e7c3d57127ded0962d53ad78ac6ce9fba1eeb32481"),
    (CRHEAP, "x <= Alloc and P1 <= Alloc and E rel.top <= Alloc and E rel^-.top <= Alloc",
     {}, 1, None,
     4, "9ecdca3e8e8ffc4cd8ed101b02b37a7b90e0ac4b449bd9855dd71fbe93c6531a"),
    (HEAP, "y <= Alloc | null", {"need_roles": ("f",), "need_nominals": ("x",)}, 1, None,
     54, "cf9849f042cb09321208041cd3e552cc0d8fb488de9f20e296f138b0c2c88447"),
    (HEAP, "y <= Alloc | null", {"need_roles": ("f",), "need_nominals": ("x",)}, 2, None,
     1204, "e0a4dafbd7cc4d59f7ba7cd2e16023f55c1e5d71de67c4ef61d2162040743638"),
    (HEAP, "lab1 <= P1_ext and P1_ext <= Alloc | lab1 and x <= Alloc",
     {"extra_nominals": ("lab1",), "extra_concepts": ("P1_ext",)}, 1, None,
     7, "769786b4ace60f7ef2107d0a4fc30007cc62c1654b6b90e77bf932fcac9cbe60"),
    (HEAP, "lab1 <= P1_ext and P1_ext <= Alloc | lab1 and x <= Alloc",
     {"extra_nominals": ("lab1",), "extra_concepts": ("P1_ext",)}, 2, None,
     68, "4de0e2d6c0ec2fb7dd5396114cebff02cc00dec08d479cbf6a857534ccd8d11e"),
]


@pytest.mark.parametrize("heap,text,options,n_addresses,limit,count,digest", _GOLDEN,
                         ids=["field-1", "field-2", "data-role-1", "data-role-2",
                              "data-concept-and-role-1", "need-1", "need-2", "extra-1",
                              "extra-2"])
def test_memory_search_golden(heap, text, options, n_addresses, limit, count, digest):
    """Exact enumeration order: the texts of the yielded structures, in order,
    hash to a recorded value."""
    vocab = heap.vocabulary().with_nominals(options.get("extra_nominals", ())) \
        .with_concepts(options.get("extra_concepts", ()))
    phi = parse_formula(text, vocab)
    search = MemorySearch(heap, n_addresses, (phi,), **options)
    texts = [structure_to_text(m.fs) for m in islice(search, limit)]
    assert len(texts) == count
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == digest
