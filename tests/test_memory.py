import hashlib
import json
import random
import signal
import sys
from itertools import islice
from pathlib import Path

import pytest

from reachdl.memory import (SEARCH_PINS, HeapVocabulary, MemoryAxiomError, MemorySearch,
                            MemoryStructure, PoolExhaustedError, ghost, infer_memory,
                            make_memory)
from reachdl.parser import (parse_formula, parse_memory_file, parse_structure_file,
                            structure_to_text)
from reachdl.structures import eval_formula, structure
from reachdl.syntax import (FALSE, TRUE, Atomic, Eq, FAnd, FNot, FOr, Incl, Nominal, ReachDLError,
                            fold_constants, formula_symbols, to_text)

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
    bad = MemoryStructure(HEAP, m.fs.with_nominal("x", sorted(m.pool())[0]))
    assert any("MemPool" in v for v in bad.violations())
    # a field leaking into the pool
    leak = {p for p in m.fs.role_ext("f") if p[0] != 3} | {(3, sorted(m.pool())[0])}
    bad2 = MemoryStructure(HEAP, m.fs.with_role("f", leak))
    assert any("maps 3 into MemPool" in v for v in bad2.violations())
    # data concept touching the pool
    bad3 = MemoryStructure(HEAP, m.fs.with_concept("P1", m.pool()))
    assert any("P1" in v for v in bad3.violations())
    # broken partition
    bad4 = MemoryStructure(HEAP, m.fs.with_concept("Alloc", m.alloc() | m.pool()))
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
# Golden enumeration: the exact sequence MemorySearch yields.  The count and
# the sha256 of the texts of the yielded structures, in order, are recorded
# in golden_memory_search.json.  Re-record (only on purpose, saying why; it
# keeps the case set and prints every case and key it changes):
#     PYTHONPATH=src:tests python tests/test_memory.py --record

MEMORY_GOLDEN = Path(__file__).with_name("golden_memory_search.json")
RHEAP = HeapVocabulary(fields=("f",), variables=("x",), data_roles=("rel",))
CRHEAP = HeapVocabulary(fields=("f",), variables=("x",), data_concepts=("P1",),
                        data_roles=("rel",))
_NEED = (("nominals", "x"), ("roles", "f"))

_GOLDEN = {
    # name: (heap, formula, search options, addresses, limit)
    "field-1": (HEAP, "x <= Alloc and Alloc <= E f.(Alloc | null) and P1 <= Alloc", {}, 1, None),
    "field-2": (HEAP, "x <= Alloc and Alloc <= E f.(Alloc | null) and P1 <= Alloc", {}, 2, None),
    "data-role-1": (RHEAP, "Alloc <= E rel.(Alloc | x) and x <= Alloc and "
                           "Aux | PossibleTargets <= !E rel.top", {}, 1, None),
    "data-role-2": (RHEAP, "Alloc <= E rel.(Alloc | x) and x <= Alloc and "
                           "Aux | PossibleTargets <= !E rel.top", {}, 2, 300),
    "data-concept-and-role-1": (
        CRHEAP, "x <= Alloc and P1 <= Alloc and E rel.top <= Alloc and E rel^-.top <= Alloc",
        {}, 1, None),
    "need-1": (HEAP, "y <= Alloc | null", {"need": _NEED}, 1, None),
    "need-2": (HEAP, "y <= Alloc | null", {"need": _NEED}, 2, None),
    "extra-1": (HEAP, "lab1 <= P1_ext and P1_ext <= Alloc | lab1 and x <= Alloc", {}, 1, None),
    "extra-2": (HEAP, "lab1 <= P1_ext and P1_ext <= Alloc | lab1 and x <= Alloc", {}, 2, None),
}


def _enumeration(name: str) -> dict:
    heap, text, options, n_addresses, limit = _GOLDEN[name]
    # a label nominal and a post-state copy, outside every heap
    vocab = heap.vocabulary().with_nominals(("lab1",)).with_concepts(("P1_ext",))
    phi = parse_formula(text, vocab)
    search = MemorySearch(heap, n_addresses, (phi,), **options)
    texts = [structure_to_text(m.fs) for m in islice(search, limit)]
    return {"count": len(texts), "sha256": hashlib.sha256("".join(texts).encode()).hexdigest()}


def record_memory_golden() -> None:
    from test_vc_golden import print_changes

    old = json.loads(MEMORY_GOLDEN.read_text()) if MEMORY_GOLDEN.exists() else {}
    new = {name: _enumeration(name) for name in _GOLDEN}
    print_changes(old, new)
    MEMORY_GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")


@pytest.mark.parametrize("name", list(_GOLDEN))
def test_memory_search_golden(name):
    """Exact enumeration order: the texts of the yielded structures, in order,
    hash to a recorded value."""
    assert _enumeration(name) == json.loads(MEMORY_GOLDEN.read_text())[name]


def test_need_only_symbols_are_bound_last():
    """x and f, which no conjunct names, vary fastest: the first states
    differ only in them."""
    phi = parse_formula("y <= Alloc | null and P1 <= Alloc", HEAP.vocabulary())
    first = list(islice(MemorySearch(HEAP, 2, (phi,), _NEED), 10))
    rest = {(m.cons["P1"], m.cons["MemPool"], m.cons["Alloc"], m.noms["y"]) for m in first}
    assert len(rest) == 1 and len({m.key for m in first}) == 10


@pytest.mark.parametrize("n", [1, 2])
def test_need_only_symbols_take_every_value(n):
    """The search with `need` yields the formula-only search's states, each
    with x at every cell outside the pool and f at every field map (total
    on the addresses, a pool cell to null or F, any other cell outside the
    pool), and nothing else."""
    from itertools import product

    phi = parse_formula("y <= Alloc | null", HEAP.vocabulary())
    want = set()
    for m in MemorySearch(HEAP, n, (phi,)):
        pool = m.cons["MemPool"]
        outside = [u for u in range(3 + n) if not pool >> u & 1]
        rows = [(0,) if u < 3 else (1, 4) if pool >> u & 1 else [1 << v for v in outside]
                for u in range(3 + n)]
        want |= {m._with(noms={**m.noms, "x": x}, rsucc={**m.rsucc, "f": f}).key
                 for x in outside for f in product(*rows)}
    got = [m.key for m in MemorySearch(HEAP, n, (phi,), _NEED)]
    assert len(got) == len(set(got)) and set(got) == want


# ---------------------------------------------------------------------------
# State identity: a state's int key against its structure


def _renamed(m, shift, order):
    """m's text with every element id shifted and the universe listed in
    `order` (a permutation of positions), read back against m's heap."""
    fs = m.fs
    universe = [fs.universe[i] + shift for i in order]
    text = structure_to_text(m.fs, memory=True)
    lines = ["MEMORY", "UNIVERSE " + " ".join(map(str, universe))]
    for line in text.splitlines()[2:]:
        head, _, body = line.partition(": ") if ":" in line else line.partition(" = ")
        ids = [str(int(t) + shift) for t in body.replace("(", " ").replace(")", " ")
               .replace(",", " ").split()]
        if line.startswith(("ROLE", "FROLE")):
            body = " ".join(f"({a},{b})" for a, b in zip(ids[::2], ids[1::2]))
            lines.append(f"{head}: {body}")
        elif line.startswith("CONCEPT"):
            lines.append(f"{head}: {' '.join(ids)}")
        else:
            lines.append(f"{head} = {ids[0]}")
    return parse_memory_file("\n".join(lines) + "\n", m.heap)


def _identity_states():
    """States from MemorySearch, from the step, and from parsed text: each
    search state read back from its text, the same text without its empty
    entries, and copies over universes that are not range(n) (shifted, and
    listed in reverse), states with names outside the heap, and step
    outcomes on some of them."""
    import random

    from reachdl.programs import ABORT, relabel, run_all
    from gen import random_stmt

    rng = random.Random(97)
    phi = parse_formula("P1 <= Alloc and x <= Alloc | null", HEAP.vocabulary())
    search = list(islice(MemorySearch(HEAP, 2, (phi,), (("roles", "f"), ("nominals", "y"))),
                         0, 1200, 40))
    states = list(search)
    for m in search[::3]:
        text = structure_to_text(m.fs, memory=True)
        states.append(parse_memory_file(text, HEAP))
        bare = "".join(line for line in text.splitlines(keepends=True)
                       if not line.rstrip().endswith(":"))
        if bare != text:
            states.append(parse_memory_file(bare, HEAP))
        n = len(m.universe())
        for shift, order in ((0, range(n)), (10, range(n)), (10, range(n - 1, -1, -1))):
            states.append(_renamed(m, shift, list(order)))
    # names outside the heap: a label nominal and a post-state copy
    phi = parse_formula("lab1 <= P1_ext and x <= Alloc",
                        HEAP.vocabulary().with_nominals(("lab1",)).with_concepts(("P1_ext",)))
    for m in MemorySearch(HEAP, 1, (phi,)):
        states += [m, MemoryStructure(HEAP, parse_structure_file(structure_to_text(m.fs))[1])]
    for m in list(states[::4]):
        s = relabel(random_stmt(rng, HEAP, rng.randint(1, 3)))
        try:
            states += [r for r in run_all(m, s) if r is not ABORT]
        except PoolExhaustedError:
            pass
    return states


def test_state_equality_is_structure_equality():
    """Two states are equal exactly when their structures are, and equal
    states hash alike, whatever made them: the search, the step or
    MemoryStructure(heap, fs) on parsed text, with a missing entry against
    an empty one and universes that are not range(n)."""
    states = _identity_states()
    texts = {structure_to_text(m.fs) for m in states}
    assert any("CONCEPT PossibleTargets: \n" in t for t in texts)
    assert any(t.startswith("UNIVERSE 10 11") for t in texts)
    assert any(t.startswith("UNIVERSE 14 13") for t in texts)
    equal = 0
    for i, a in enumerate(states):
        for b in states[i:]:
            same = a.fs == b.fs
            assert (a == b) == same, (a, b)
            if same:
                assert hash(a) == hash(b) and hash(a.fs) == hash(b.fs)
                equal += a is not b
    # equal pairs from different origins and with different entries
    assert equal >= 40
    # the same structure over another heap is another state
    other = HeapVocabulary(fields=("f",), variables=("x",), data_nominals=("y",),
                           data_concepts=("P1",))
    assert all(MemoryStructure(other, m.fs) != m for m in states[:20])
    empty = [m for m in states if "CONCEPT P1: \n" in structure_to_text(m.fs)]
    assert any(m == n and structure_to_text(m.fs) != structure_to_text(n.fs)
               for m in empty for n in states)


# ---------------------------------------------------------------------------
# Constant folding in the search: folded against unfolded, by both evaluators

# atoms that SEARCH_PINS decides, some only because the address cell is
# non-empty (top <= Aux, Addresses <= bot)
_CONSTANT_TEXTS = (
    "top <= Aux", "Addresses <= bot", "!Aux == Addresses", "Aux | Addresses == top",
    "not (null == T)", "null | T | F == Aux", "!(Aux | Addresses) <= x",
    "x <= Addresses | Aux", "Addresses & Aux <= bot", "not (Addresses <= Aux)",
    "top <= Addresses or x <= null", "x <= x and not (F <= T | null)",
    "not (E f.top <= !P1 | top) or P1 <= Alloc", "not (not (y == y) or x <= Alloc)",
    "not (T == F and x <= Alloc) and (null <= Addresses or P1_gho <= bot)",
    "null == Aux or x <= Alloc", "not (T == T | null) and !F == Addresses | null | T",
)
_LABELS = ("__lab_1", "__lab_2", "__lab_3")


def _fold_formulas(rng):
    """The hand-written constants, random heap formulas, and theta_full
    outputs of random statements (the last VC part: label nominals, P1_ext
    and update roles), each also negated."""
    from reachdl.wp import theta_full
    from gen import random_heap_formula, random_program_stmt

    out = [parse_formula(text, HEAP.vocabulary()) for text in _CONSTANT_TEXTS]
    out += [random_heap_formula(rng, HEAP) for _ in range(15)]
    while len(out) < len(_CONSTANT_TEXTS) + 30:
        post = FAnd(random_heap_formula(rng, HEAP), FNot(random_heap_formula(rng, HEAP)))
        stmt = random_program_stmt(rng, HEAP, rng.randint(1, 3))
        phi = theta_full(stmt, post, HEAP).formula
        if formula_symbols(phi)["nominals"] <= set(HEAP.all_nominals() + _LABELS):
            out.append(phi)
    return out + [FNot(phi) for phi in out]


def _search_states(rng, n, samples=80, each=12):
    """MemorySearch structures at n address cells with every field,
    variable, data concept, label and P1_ext enumerated: the first
    structures of searches for random conjunctions that narrow the
    partition and each of these symbols to a few values, so that the
    samples differ in all of them."""
    from reachdl.syntax import BOT, TOP, Exists, Or, Role, conj

    values = [Nominal("null"), Nominal("T"), Nominal("F"), Atomic("Alloc"),
              Atomic("PossibleTargets"), Atomic("Addresses"), Or(Nominal("null"), Atomic("Alloc"))]
    nominals = ("x", "y", "x_gho", "y_gho") + _LABELS
    empty = [Incl(Atomic(c), BOT) for c in ("Alloc", "PossibleTargets", "MemPool")]
    states = []
    for _ in range(samples):
        parts = [rng.choice((part, FNot(part), TRUE)) for part in empty]
        parts += [Incl(Nominal(v), Or(rng.choice(values), rng.choice(values)))
                  for v in nominals]
        parts += [Incl(Atomic("Addresses"), Exists(Role(f), Or(rng.choice(values),
                                                                 rng.choice(values))))
                  for f in ("f", "f_gho")]
        parts += [Eq(Atomic(c), rng.choice(values + [TOP, BOT]))
                  for c in ("P1", "P1_gho", "P1_ext")]
        states += islice(MemorySearch(HEAP, n, (conj(parts),)), each)
    return states


def _is_pushed_down(phi):
    if isinstance(phi, FNot):
        return isinstance(phi.inner, (Incl, Eq))
    if isinstance(phi, (FAnd, FOr)):
        return _is_pushed_down(phi.left) and _is_pushed_down(phi.right)
    return True


def test_fold_constants_matches_unfolded_on_search_structures():
    """fold_constants under SEARCH_PINS is equivalent to its input on the
    structures MemorySearch yields, by eval_formula and by fol.fo_eval (on
    the update-free forms); negations end up on atoms only."""
    from reachdl.fol import fo_eval, to_first_order
    from reachdl.wp import eliminate_updates

    rng = random.Random("fold-constants")
    states = [m.fs for n in (1, 2) for m in _search_states(rng, n)]
    for phi in _fold_formulas(rng):
        folded = fold_constants(phi, SEARCH_PINS)
        assert _is_pushed_down(folded), to_text(phi)
        fo_phi = to_first_order(eliminate_updates(phi))
        fo_folded = to_first_order(eliminate_updates(folded))
        for i, fs in enumerate(states):
            want = eval_formula(fs, phi)
            assert eval_formula(fs, folded) == want, (to_text(phi), fs)
            if i % 8 == 0:
                assert fo_eval(fs, fo_folded) == fo_eval(fs, fo_phi) == want


def test_fold_constants_keeps_unchanged_subtrees():
    vocab = HEAP.vocabulary()
    for text in ("x <= Alloc", "not (x <= Alloc) or E f.P1 <= P1_gho"):
        phi = parse_formula(text, vocab)
        assert fold_constants(phi, SEARCH_PINS) is phi
    # a negated disjunction is pushed down, its atoms kept
    phi = parse_formula("x <= Alloc and not (y == null or P1 <= Alloc)", vocab)
    folded = fold_constants(phi, SEARCH_PINS)
    assert folded.left is phi.left and folded.right.left.inner is phi.right.inner.left
    phi = parse_formula("x <= Alloc and not (T == F or null <= Aux)", vocab)
    assert fold_constants(phi, SEARCH_PINS) == FALSE
    phi = parse_formula("x <= Alloc and not (T == F and null <= Aux)", vocab)
    assert fold_constants(phi, SEARCH_PINS) is phi.left


@pytest.mark.parametrize("text,n", [("x <= x and P1 <= top", 1), ("not (y == y) or x <= Alloc", 2),
                                    ("E f.top <= top and x <= Alloc", 2)])
def test_search_symbols_come_from_the_unfolded_formulas(monkeypatch, text, n):
    """Folding drops x, y or f from these formulas, but the search still
    enumerates them: it yields the same states in the same order as with the
    fold replaced by the identity."""
    import reachdl.memory as memory

    phi = parse_formula(text, HEAP.vocabulary())
    folded = [m.key for m in MemorySearch(HEAP, n, (phi,))]
    monkeypatch.setattr(memory, "fold_constants", lambda phi, pinned: phi)
    assert folded == [m.key for m in MemorySearch(HEAP, n, (phi,))]
    assert len(folded) > 3 ** n


def test_memory_search_needs_an_address_cell():
    with pytest.raises(ReachDLError, match="address cell"):
        next(iter(MemorySearch(HEAP, 0, ())))


if __name__ == "__main__" and "--record" in sys.argv:
    record_memory_golden()


# ---------------------------------------------------------------------------
# Symmetry reduction: the sorted partition against the full one

# draws whose full search yields more structures or takes longer are
# skipped, for time
_FULL_LIMIT = 20000
_FULL_SECONDS = 1.0


class _Slow(Exception):
    pass


def _budgeted(fn):
    """fn(), or None when it takes over _FULL_SECONDS."""
    def alarm(signum, frame):
        raise _Slow

    old = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, _FULL_SECONDS)
    try:
        return fn()
    except _Slow:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _full_partition(monkeypatch):
    """Make MemorySearch enumerate every coloring of the addresses."""
    import reachdl.memory as memory
    from itertools import product

    monkeypatch.setattr(memory, "combinations_with_replacement",
                        lambda colors, k: product(colors, repeat=k))


def _permuted(m, perm):
    """m with address cell 3 + i renamed to 3 + perm[i]."""
    n = len(m.elements)
    to = list(range(3)) + [3 + p for p in perm]

    def mask(x):
        return sum(1 << to[u] for u in range(n) if x >> u & 1)

    rsucc = {}
    for name, rows in m.rsucc.items():
        new = [0] * n
        for u in range(n):
            new[to[u]] = mask(rows[u])
        rsucc[name] = tuple(new)
    return m._with(cons={name: mask(v) for name, v in m.cons.items()}, rsucc=rsucc,
                   noms={name: to[b] for name, b in m.noms.items()})


def _symmetry_cases():
    """Random heap formulas at 1-3 addresses, alone, with a label nominal
    and a post-state copy that conjuncts constrain, with code-touched
    symbols, or with a pool floor."""
    from gen import random_concept, random_heap_formula

    rng = random.Random("memory-symmetry")
    vocab = HEAP.annotation_vocabulary().with_nominals(("__lab_1",))
    cases = []
    for i in range(72):
        n = 1 + i % 3
        phi = random_heap_formula(rng, HEAP, depth=1)
        kind = i // 3 % 4
        options = {}
        if kind == 1:
            phi = FAnd(phi, FAnd(Incl(Nominal("__lab_1"), random_concept(rng, vocab, 1)),
                                 Incl(Atomic("P1_ext"), random_concept(rng, vocab, 1))))
        elif kind == 2:
            options["need"] = _NEED
        elif kind == 3:
            options["min_pool"] = 1
        cases.append((n, phi, options))
    return cases


def test_sorted_partition_yields_every_structure_up_to_address_permutation(monkeypatch):
    """The closure of the search's states under every permutation of the
    addresses is the set the search over every coloring yields, and the
    search yields no state twice."""
    from itertools import permutations

    cases, full_runs = _symmetry_cases(), []
    _full_partition(monkeypatch)
    for n, phi, options in cases:
        full = _budgeted(lambda: [m.key for m in islice(MemorySearch(HEAP, n, (phi,), **options),
                                                        _FULL_LIMIT + 1)])
        full_runs.append(None if full is None or len(full) > _FULL_LIMIT else full)
    monkeypatch.undo()
    checked = {1: 0, 2: 0, 3: 0}
    for (n, phi, options), full in zip(cases, full_runs):
        if full is None:
            continue
        reps = list(MemorySearch(HEAP, n, (phi,), **options))
        assert len({m.key for m in reps}) == len(reps)
        closure = {_permuted(m, perm).key for m in reps for perm in permutations(range(n))}
        assert closure == set(full), (n, to_text(phi), options)
        checked[n] += bool(full)
    assert min(checked.values()) >= 5, checked


def test_sorted_partition_keeps_vc_and_inductive_verdicts(monkeypatch):
    """check_vc and check_inductive give the same verdicts at bound 2 on
    the VC golden's seeded programs with the sorted partition as with
    every coloring."""
    from reachdl.parser import parse_program_file
    from reachdl.vc import check_inductive, check_vc
    from test_vc_golden import EDGE, GOLDEN, seeded_program

    names = sorted(name for name in json.loads(GOLDEN.read_text()) if name.startswith("seeded-"))
    progs = [parse_program_file(seeded_program(int(name.split("-")[1]))) for name in names]

    def inductive(prog):
        try:
            return check_inductive(prog, [], 2)[0]
        except ReachDLError as err:
            return type(err).__name__

    def verdicts():
        return [(check_vc(prog, EDGE, 2).verdict, inductive(prog)) for prog in progs]

    reduced = verdicts()
    _full_partition(monkeypatch)
    assert verdicts() == reduced
    assert {v for v, _ in reduced} == {"valid-up-to-bound", "counterexample"}
    assert {True, False} <= {ok for _, ok in reduced}
