"""Seeded random generators shared by the property campaigns and the
acceptance suite."""

from __future__ import annotations

import random
from itertools import product

from reachdl.memory import HeapVocabulary, MemoryStructure, ghost, make_memory
from reachdl.models import apply_swap, SwapTuple, dfs_labeling, type_concepts
from reachdl.programs import (AndB, Assign, Assume, Dispose, EqB, FalseE,
                              FieldE, If, New, NotB, NullE, OrB, ReadField,
                              Seq, Skip, TrueB, TrueE, VarE, WriteField,
                              relabel)
from reachdl.reach import DisjAssertion, ReachAssertion, ReachSpec, check_spec
from reachdl.structures import FiniteStructure, structure, types_of_all
from reachdl.syntax import (And, AtMost, Atomic, Eq, Exists, FAnd, FNot, FOr,
                            Formula, Incl, Nominal, Not, Or, Role, TOP, TRUE,
                            Vocabulary)


# ---------------------------------------------------------------------------
# Plain structures and formulas


def random_structure(rng: random.Random, vocab: Vocabulary, max_size: int,
                     min_size: int = 1) -> FiniteStructure:
    n = rng.randint(max(min_size, 1 if vocab.nominals else 0), max_size)
    universe = tuple(range(n))
    concepts = {c: frozenset(u for u in universe if rng.random() < 0.5)
                for c in vocab.concepts}
    roles = {}
    for r in vocab.roles:
        if r in vocab.functional:
            pairs = set()
            for u in universe:
                t = rng.randint(-1, n - 1)
                if t >= 0:
                    pairs.add((u, t))
            roles[r] = frozenset(pairs)
        else:
            roles[r] = frozenset(p for p in product(universe, universe)
                                 if rng.random() < 0.3)
    nominals = {o: rng.randrange(n) for o in vocab.nominals}
    return FiniteStructure(universe, concepts, roles, nominals)


def random_concept(rng: random.Random, vocab: Vocabulary, depth: int,
                   max_bound: int = 2):
    if depth <= 0 or rng.random() < 0.35:
        pool = []
        pool += [Atomic(c) for c in sorted(vocab.concepts)]
        pool += [Nominal(o) for o in sorted(vocab.nominals)]
        pool.append(TOP)
        return rng.choice(pool)
    k = rng.randint(0, 4)
    if k == 0:
        return And(random_concept(rng, vocab, depth - 1), random_concept(rng, vocab, depth - 1))
    if k == 1:
        return Or(random_concept(rng, vocab, depth - 1), random_concept(rng, vocab, depth - 1))
    if k == 2:
        return Not(random_concept(rng, vocab, depth - 1))
    r = Role(rng.choice(sorted(vocab.roles)), inverted=rng.random() < 0.4)
    if k == 3:
        return Exists(r, random_concept(rng, vocab, depth - 1))
    return AtMost(rng.randint(0, max_bound), r, random_concept(rng, vocab, depth - 1))


def random_formula(rng: random.Random, vocab: Vocabulary, depth: int,
                   cdepth: int = 2) -> Formula:
    if depth <= 0 or rng.random() < 0.4:
        left = random_concept(rng, vocab, cdepth)
        right = random_concept(rng, vocab, cdepth)
        return Eq(left, right) if rng.random() < 0.3 else Incl(left, right)
    k = rng.randint(0, 2)
    if k == 0:
        return FAnd(random_formula(rng, vocab, depth - 1, cdepth),
                    random_formula(rng, vocab, depth - 1, cdepth))
    if k == 1:
        return FOr(random_formula(rng, vocab, depth - 1, cdepth),
                   random_formula(rng, vocab, depth - 1, cdepth))
    return FNot(random_formula(rng, vocab, depth - 1, cdepth))


# ---------------------------------------------------------------------------
# Reach specs (the reduction campaign corpus)


def random_reach_spec(rng: random.Random, rich: bool = False
                      ) -> tuple[Vocabulary, ReachSpec]:
    """Compatible spec within the corpus caps: at most 3 concepts, 2
    functional roles, 2 reach assertions, counting bounds at most 2."""
    concepts = ("A", "B", "C")[: (3 if rich else 2)]
    froles = ("r", "s")[: (2 if rich else 1)]
    vocab = Vocabulary(concepts=frozenset(concepts), roles=frozenset(froles),
                       functional=frozenset(froles), nominals=frozenset({"o"}))
    n_assert = rng.randint(1, 2 if rich else 1)
    assertions: list[ReachAssertion] = []
    di: set[DisjAssertion] = set()
    for _ in range(n_assert):
        for _attempt in range(20):
            target = rng.choice(concepts)
            source = rng.choice([Nominal("o")] + [Atomic(c) for c in concepts])
            roles = frozenset(rng.sample(froles, rng.randint(1, len(froles))))
            cand = ReachAssertion(source, roles, target)
            if any(cand.same_assertion(a) for a in assertions):
                continue
            clash = [a for a in assertions if a.roles & roles]
            if any(a.target == target for a in clash):
                continue  # Disj(A,A) would empty the target
            for a in clash:
                di.add(DisjAssertion(a.target, target))
            assertions.append(cand)
            break
    # shallow bases keep the subconcept closure small, so the counter part
    # of the polynomial encoding stays liftable at desk scale
    base = random_formula(rng, vocab, depth=rng.randint(0, 1), cdepth=1)
    return vocab, ReachSpec(base, tuple(assertions), frozenset(di))


# ---------------------------------------------------------------------------
# Semi-connected repair instances


def connected_instance(rng: random.Random, two_assertions: bool = False
                       ) -> tuple[Vocabulary, ReachSpec, FiniteStructure]:
    """A structure satisfying a spec, built constructively: spanning edges
    from the source into each target, plus random extra functional edges."""
    concepts = ("A1", "A2")
    froles = ("r1", "r2")
    vocab = Vocabulary(concepts=frozenset(concepts), roles=frozenset(froles),
                       functional=frozenset(froles),
                       nominals=frozenset({"b1", "b2"}))
    n = rng.randint(3, 10)
    universe = tuple(range(n))
    assertions = [ReachAssertion(Nominal("b1"), frozenset({"r1"}), "A1")]
    if two_assertions:
        assertions.append(ReachAssertion(Nominal("b2"), frozenset({"r2"}), "A2"))
    targets: dict[str, list[int]] = {}
    roles: dict[str, set[tuple[int, int]]] = {r: set() for r in froles}
    nominals = {"b1": 0, "b2": 0}
    used_src: dict[str, set[int]] = {r: set() for r in froles}
    for idx, a in enumerate(assertions):
        role = sorted(a.roles)[0]
        size = rng.randint(1, max(1, n - 1))
        members = rng.sample(universe, size)
        start = members[0]
        nominals[f"b{idx + 1}"] = start
        targets[a.target] = members
        for i, u in enumerate(members[1:], start=1):
            choices = [p for p in members[:i] if p not in used_src[role]]
            p = rng.choice(choices) if choices else None
            if p is None:
                # every earlier member already has an out-edge; chain instead
                p = members[i - 1]
                roles[role] = {(x, y) for (x, y) in roles[role] if x != p}
            roles[role].add((p, u))
            used_src[role].add(p)
    # random extra edges on free slots (kept inside the target to preserve
    # connectivity trivially, or anywhere when the source slot is free)
    for r in froles:
        for u in universe:
            if u not in used_src[r] and rng.random() < 0.3:
                roles[r].add((u, rng.randrange(n)))
                used_src[r].add(u)
    cons = {c: frozenset(targets.get(c, ())) for c in concepts}
    m = structure(universe, cons, {r: frozenset(v) for r, v in roles.items()}, nominals)
    spec = ReachSpec(TRUE, tuple(assertions))
    if not check_spec(m, spec):
        return connected_instance(rng, two_assertions)
    return vocab, spec, m


def scramble_same_type(rng: random.Random, m: FiniteStructure, spec: ReachSpec,
                       swaps: int = 4) -> FiniteStructure:
    """Random swaps of same-type element pairs: preserves all concepts of
    the semi formula, semi-connectedness and labeling usefulness."""
    concepts = type_concepts(spec)
    froles = sorted({r for a in spec.re for r in a.roles})
    out = m
    for _ in range(swaps):
        types = types_of_all(out, concepts)
        by_type: dict[frozenset, list[int]] = {}
        for u, tp in types.items():
            by_type.setdefault(tp, []).append(u)
        pairs = [(u, v) for members in by_type.values()
                 for i, u in enumerate(members) for v in members[i + 1:]]
        if not pairs:
            break
        a0, a1 = rng.choice(pairs)
        out = apply_swap(out, SwapTuple(a0, a1, rng.choice(froles)))
    return out


# ---------------------------------------------------------------------------
# Memory structures and loopless programs


DEFAULT_HEAP = HeapVocabulary(fields=("f", "g"), variables=("x", "y", "z"),
                              data_concepts=("P1",))


def random_memory(rng: random.Random, heap: HeapVocabulary = DEFAULT_HEAP,
                  max_cells: int = 5, max_pool: int = 2) -> MemoryStructure:
    alloc = rng.randint(0, max_cells - 2)
    targets = rng.randint(0, 1)
    pool = rng.randint(1, max_pool)
    cells = list(range(3, 3 + alloc + targets))
    nonpool = [0, 1, 2] + cells
    fields = {f: {c: rng.choice(nonpool) for c in cells} for f in heap.fields}
    variables = {v: rng.choice(nonpool) for v in heap.variables}
    concepts = {}
    nominals = {}
    roles = {}
    for c in heap.data_concepts:
        concepts[c] = set(rng.sample(nonpool, rng.randint(0, len(nonpool))))
        concepts[ghost(c)] = set(rng.sample(nonpool, rng.randint(0, len(nonpool))))
    for v in heap.variables:
        nominals[ghost(v)] = rng.choice(nonpool)
    n = 3 + alloc + targets + pool
    for f in heap.fields:
        pairs = {(c, rng.choice(nonpool)) for c in cells}
        pairs |= {(p, rng.choice((0, 2))) for p in range(3 + alloc + targets, n)}
        roles[ghost(f)] = frozenset(pairs)
    return make_memory(heap, alloc, targets, pool, fields=fields,
                       variables=variables, concepts=concepts,
                       nominals=nominals, roles=roles)


def random_expr(rng: random.Random, heap: HeapVocabulary):
    k = rng.randint(0, 5)
    if k == 0:
        return NullE()
    if k == 1:
        return TrueE()
    if k == 2:
        return FalseE()
    return VarE(rng.choice(heap.variables))


def random_bool(rng: random.Random, heap: HeapVocabulary, depth: int = 1):
    if depth <= 0 or rng.random() < 0.5:
        if rng.random() < 0.4:
            left = FieldE(rng.choice(heap.variables), rng.choice(heap.fields))
        else:
            left = random_expr(rng, heap)
        return EqB(left, random_expr(rng, heap))
    k = rng.randint(0, 2)
    if k == 0:
        return NotB(random_bool(rng, heap, depth - 1))
    if k == 1:
        return AndB(random_bool(rng, heap, depth - 1), random_bool(rng, heap, depth - 1))
    return OrB(random_bool(rng, heap, depth - 1), random_bool(rng, heap, depth - 1))


def random_stmt(rng: random.Random, heap: HeapVocabulary, size: int):
    """A loopless statement with roughly `size` atomic commands."""
    if size <= 1:
        k = rng.randint(0, 6)
        v = rng.choice(heap.variables)
        if k == 0:
            return Skip()
        if k == 1:
            return Assign(v, random_expr(rng, heap))
        if k == 2:
            return ReadField(v, rng.choice(heap.variables), rng.choice(heap.fields))
        if k == 3:
            return WriteField(v, rng.choice(heap.fields), random_expr(rng, heap))
        if k == 4:
            return New(v)
        if k == 5:
            return Dispose(v)
        return Assume(random_bool(rng, heap))
    if rng.random() < 0.25:
        half = size // 2
        return If(random_bool(rng, heap), random_stmt(rng, heap, half),
                  random_stmt(rng, heap, size - half))
    return Seq(random_stmt(rng, heap, 1), random_stmt(rng, heap, size - 1))


def random_program_stmt(rng: random.Random, heap: HeapVocabulary, size: int):
    return relabel(random_stmt(rng, heap, size))


def random_heap_formula(rng: random.Random, heap: HeapVocabulary,
                        depth: int = 2) -> Formula:
    vocab = heap.annotation_vocabulary()
    return random_formula(rng, vocab, depth=1, cdepth=depth)
