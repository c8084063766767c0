"""Heap memory structures: the required partition symbols, field functions,
ghost copies, the axiom checker, builders, and an enumerator over small
memory structures used by the verification-condition search.

`MemorySearch` is a list of slots over `models.StagedSearch`, in this
order: the Alloc/PossibleTargets/MemPool partition of the addresses, then
one slot each for the variables, fields, data concepts, data roles,
extension concepts and label nominals the formulas or the caller need.

Universe layout convention: elements 0, 1, 2 interpret null, T and F (the
Aux cells); addresses follow.  The memory pool is a finite stand-in for
the unbounded pool: allocation raises once it is exhausted, and the axiom
checker takes the required reserve as a parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Iterable, Iterator, Mapping

from .models import StagedSearch, symbol_slot
from .structures import FiniteStructure, env_structure
from .syntax import Formula, ReachDLError, Vocabulary, conj, formula_symbols

GHOST_SUFFIX = "_gho"
REQUIRED_CONCEPTS = ("Addresses", "Alloc", "PossibleTargets", "MemPool", "Aux")
RESERVED_NOMINALS = ("null", "T", "F")


class MemoryAxiomError(ReachDLError):
    pass


class PoolExhaustedError(ReachDLError):
    pass


def ghost(name: str) -> str:
    return name + GHOST_SUFFIX


@dataclass(frozen=True)
class HeapVocabulary:
    """Program-visible symbols; ghost copies and the required memory
    symbols are derived."""

    fields: tuple[str, ...] = ()
    variables: tuple[str, ...] = ()
    data_concepts: tuple[str, ...] = ()
    data_nominals: tuple[str, ...] = ()
    data_roles: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in self.fields + self.variables + self.data_concepts \
                + self.data_nominals + self.data_roles:
            if name in REQUIRED_CONCEPTS or name in RESERVED_NOMINALS:
                raise ReachDLError(f"{name!r} is reserved")
            if name.endswith(GHOST_SUFFIX):
                raise ReachDLError(f"{name!r}: the ghost suffix is reserved")

    # -- derived name sets

    def ghost_fields(self) -> tuple[str, ...]:
        return tuple(ghost(f) for f in self.fields)

    def all_fieldlike(self) -> tuple[str, ...]:
        """Symbols obeying the field axioms (total on addresses, pool cells
        map to null or F): the fields and their ghost copies."""
        return self.fields + self.ghost_fields()

    def all_concepts(self) -> tuple[str, ...]:
        return REQUIRED_CONCEPTS + self.data_concepts \
            + tuple(ghost(c) for c in self.data_concepts)

    def all_nominals(self) -> tuple[str, ...]:
        return RESERVED_NOMINALS + self.variables \
            + tuple(ghost(v) for v in self.variables) \
            + self.data_nominals + tuple(ghost(o) for o in self.data_nominals)

    def all_roles(self) -> tuple[str, ...]:
        return self.all_fieldlike() + self.data_roles \
            + tuple(ghost(r) for r in self.data_roles)

    def tau_rem(self) -> tuple[str, ...]:
        """Non-field, non-ghost, non-required relation symbols: the ones the
        step relation leaves unconstrained."""
        return self.data_concepts + self.data_roles

    def with_variables(self, names: Iterable[str]) -> "HeapVocabulary":
        extra = tuple(v for v in names if v not in self.variables)
        return replace(self, variables=self.variables + extra)

    def vocabulary(self) -> Vocabulary:
        return Vocabulary(
            concepts=frozenset(self.all_concepts()),
            roles=frozenset(self.all_roles()),
            functional=frozenset(self.all_fieldlike()),
            nominals=frozenset(self.all_nominals()))

    def annotation_vocabulary(self) -> Vocabulary:
        """The vocabulary annotations and postconditions may use: the pool
        bookkeeping symbols are excluded (the step relation moves cells
        between them and backwards propagation has no rewriting for them)."""
        vocab = self.vocabulary()
        return Vocabulary(vocab.concepts - {"MemPool", "PossibleTargets"},
                          vocab.roles, vocab.functional, vocab.nominals)


@dataclass(frozen=True)
class MemoryStructure:
    heap: HeapVocabulary
    fs: FiniteStructure

    # -- accessors

    def universe(self) -> tuple[int, ...]:
        return self.fs.universe

    def null(self) -> int:
        return self.fs.nominal_elem("null")

    def true_elem(self) -> int:
        return self.fs.nominal_elem("T")

    def false_elem(self) -> int:
        return self.fs.nominal_elem("F")

    def alloc(self) -> frozenset[int]:
        return self.fs.concept_ext("Alloc")

    def pool(self) -> frozenset[int]:
        return self.fs.concept_ext("MemPool")

    def targets(self) -> frozenset[int]:
        return self.fs.concept_ext("PossibleTargets")

    def addresses(self) -> frozenset[int]:
        return self.fs.concept_ext("Addresses")

    def var(self, name: str) -> int:
        return self.fs.nominal_elem(name)

    def field_value(self, field: str, src: int) -> int | None:
        return self.fs.function_value(field, src)

    def with_fs(self, fs: FiniteStructure) -> "MemoryStructure":
        return MemoryStructure(self.heap, fs)

    # -- axioms

    def violations(self, min_pool: int = 1) -> list[str]:
        out: list[str] = []
        fs = self.fs
        uni = set(fs.universe)
        try:
            aux_named = {self.null(), self.true_elem(), self.false_elem()}
        except ReachDLError:
            return ["required constants null/T/F are not all interpreted"]
        aux = fs.concept_ext("Aux")
        if aux != frozenset(aux_named) or len(aux_named) != 3:
            out.append("Aux must be exactly the three distinct constants null, T, F")
        addresses = fs.concept_ext("Addresses")
        if addresses & aux or addresses | aux != uni:
            out.append("Addresses and Aux must partition the universe")
        alloc, pt, pool = self.alloc(), self.targets(), self.pool()
        if alloc | pt | pool != addresses or alloc & pt or alloc & pool or pt & pool:
            out.append("Alloc, PossibleTargets, MemPool must partition Addresses")
        nonpool = uni - pool
        for name, e in sorted(fs.nominals.items()):
            if e in pool:
                out.append(f"constant {name} interpreted inside MemPool")
        for f in self.heap.all_fieldlike():
            vals: dict[int, int] = {}
            for a, b in fs.role_ext(f):
                if a in vals:
                    out.append(f"field {f} is not functional at {a}")
                vals[a] = b
            for a in sorted(addresses):
                if a not in vals:
                    out.append(f"field {f} undefined on address {a}")
                elif vals[a] in pool:
                    out.append(f"field {f} maps {a} into MemPool")
            for a in sorted(pool):
                if vals.get(a) not in (self.null(), self.false_elem()):
                    out.append(f"field {f} maps pool cell {a} outside null/F")
            for a in sorted(set(vals) - addresses):
                out.append(f"field {f} defined on non-address {a}")
        for c in self.heap.data_concepts:
            for name in (c, ghost(c)):
                if fs.concept_ext(name) & pool:
                    out.append(f"relation {name} touches MemPool")
        for r in self.heap.data_roles:
            for name in (r, ghost(r)):
                for a, b in fs.role_ext(name):
                    if a in pool or b in pool:
                        out.append(f"relation {name} touches MemPool")
                        break
        if len(pool) < min_pool:
            out.append(f"MemPool has {len(pool)} cells, need at least {min_pool}")
        return out

    def check(self, min_pool: int = 1) -> "MemoryStructure":
        bad = self.violations(min_pool)
        if bad:
            raise MemoryAxiomError("; ".join(bad))
        return self


def make_memory(heap: HeapVocabulary, alloc: int = 1, targets: int = 0, pool: int = 8,
                fields: Mapping[str, Mapping[int, int]] | None = None,
                variables: Mapping[str, int] | None = None,
                concepts: Mapping[str, Iterable[int]] | None = None,
                nominals: Mapping[str, int] | None = None,
                roles: Mapping[str, Iterable[tuple[int, int]]] | None = None,
                min_pool: int = 0) -> MemoryStructure:
    """Build a valid memory structure: aux cells 0..2, then `alloc`
    allocated cells, `targets` possible-target cells, `pool` pool cells.
    Field entries default to null; the ghost copies snapshot the current
    interpretations unless overridden explicitly."""
    n_null, n_t, n_f = 0, 1, 2
    first = 3
    alloc_ids = frozenset(range(first, first + alloc))
    pt_ids = frozenset(range(first + alloc, first + alloc + targets))
    pool_ids = frozenset(range(first + alloc + targets, first + alloc + targets + pool))
    addresses = alloc_ids | pt_ids | pool_ids
    universe = tuple(range(first + alloc + targets + pool))

    con: dict[str, frozenset[int]] = {
        "Aux": frozenset({n_null, n_t, n_f}),
        "Addresses": addresses,
        "Alloc": alloc_ids,
        "PossibleTargets": pt_ids,
        "MemPool": pool_ids,
    }
    for c in heap.data_concepts:
        con[c] = frozenset((concepts or {}).get(c, ()))
    rol: dict[str, frozenset[tuple[int, int]]] = {}
    for f in heap.fields:
        given = dict((fields or {}).get(f, {}))
        pairs = set()
        for a in sorted(addresses):
            if a in pool_ids:
                pairs.add((a, n_null))
            else:
                pairs.add((a, given.get(a, n_null)))
        rol[f] = frozenset(pairs)
    for r in heap.data_roles:
        rol[r] = frozenset((roles or {}).get(r, ()))
    nom: dict[str, int] = {"null": n_null, "T": n_t, "F": n_f}
    for v in heap.variables:
        nom[v] = (variables or {}).get(v, n_null)
    for o in heap.data_nominals:
        nom[o] = (nominals or {}).get(o, n_null)
    # ghost copies snapshot the current state
    for f in heap.fields:
        rol[ghost(f)] = (roles or {}).get(ghost(f), rol[f])
    for r in heap.data_roles:
        rol[ghost(r)] = frozenset((roles or {}).get(ghost(r), rol[r]))
    for c in heap.data_concepts:
        con[ghost(c)] = frozenset((concepts or {}).get(ghost(c), con[c]))
    for v in heap.variables:
        nom[ghost(v)] = (nominals or {}).get(ghost(v), nom[v])
    for o in heap.data_nominals:
        nom[ghost(o)] = (nominals or {}).get(ghost(o), nom[o])
    ms = MemoryStructure(heap, FiniteStructure(universe, con, rol, nom))
    return ms.check(min_pool)


def infer_memory(fs: FiniteStructure) -> MemoryStructure:
    """Read a memory structure off a plain finite structure: non-ghost
    roles are fields, non-reserved non-ghost nominals are variables,
    non-required non-ghost concepts are data concepts."""
    fields = tuple(sorted(r for r in fs.roles
                          if not r.endswith(GHOST_SUFFIX)))
    variables = tuple(sorted(n for n in fs.nominals
                             if n not in RESERVED_NOMINALS and not n.endswith(GHOST_SUFFIX)))
    data_concepts = tuple(sorted(c for c in fs.concepts
                                 if c not in REQUIRED_CONCEPTS and not c.endswith(GHOST_SUFFIX)))
    heap = HeapVocabulary(fields=fields, variables=variables, data_concepts=data_concepts)
    return MemoryStructure(heap, fs).check(min_pool=0)


# ---------------------------------------------------------------------------
# Staged enumeration of small memory structures


@dataclass
class MemorySearch:
    """Enumerate memory structures with `n_addresses` address cells that
    satisfy a conjunction of formulas, assigning only the symbols the
    formulas or the caller need and pinning everything else.

    extra_nominals range over the whole universe (label constants), and
    extra_concepts over arbitrary subsets (the R^ext copies).  Partitions
    with fewer than `min_pool` MemPool cells are skipped before any other
    symbol is assigned."""

    heap: HeapVocabulary
    n_addresses: int
    formulas: tuple[Formula, ...]
    extra_nominals: tuple[str, ...] = ()
    extra_concepts: tuple[str, ...] = ()
    need_roles: tuple[str, ...] = ()      # code-touched fields to enumerate anyway
    need_nominals: tuple[str, ...] = ()   # code-touched variables
    min_pool: int = 0

    def __iter__(self) -> Iterator[MemoryStructure]:
        heap = self.heap
        n = 3 + self.n_addresses
        full = (1 << n) - 1

        support = formula_symbols(conj(self.formulas))
        support["roles"] |= set(self.need_roles)
        support["nominals"] |= set(self.need_nominals)

        fieldlike = set(heap.all_fieldlike())
        fields_on = [f for f in heap.all_fieldlike() if f in support["roles"]]
        droles_on = [r for r in heap.all_roles()
                     if r not in fieldlike and r in support["roles"]]
        vars_on = [v for v in heap.all_nominals()
                   if v not in RESERVED_NOMINALS and v in support["nominals"]]
        cons_on = [c for c in heap.all_concepts()
                   if c not in REQUIRED_CONCEPTS and c in support["concepts"]]

        def partition(env: dict) -> Iterator[None]:
            cons = env["cons"]
            for colors in product((0, 1, 2), repeat=self.n_addresses):
                masks = [0, 0, 0]
                for a, c in enumerate(colors, start=3):
                    masks[c] |= 1 << a
                if masks[2].bit_count() < self.min_pool:
                    continue
                cons["Alloc"], cons["PossibleTargets"], cons["MemPool"] = masks
                yield

        # the variables, fields and data relations range over the cells
        # outside MemPool, read off the partition; a pool cell's fields map
        # to null or F, and the Aux cells have no fields
        def cells(env: dict) -> list[int]:
            pool = env["cons"]["MemPool"]
            return [u for u in range(n) if not pool >> u & 1]

        def subsets(env: dict) -> list[int]:
            pool = env["cons"]["MemPool"]
            return [m for m in range(1 << n) if not m & pool]

        def field_maps(env: dict) -> Iterator[tuple[int, ...]]:
            pool = env["cons"]["MemPool"]
            targets = tuple(1 << u for u in cells(env))
            return product(*[(0,) if u < 3 else (1 << 0, 1 << 2) if pool >> u & 1 else targets
                             for u in range(n)])

        def relations(env: dict) -> Iterator[tuple[int, ...]]:
            pool = env["cons"]["MemPool"]
            rows = subsets(env)
            return product(*[(0,) if pool >> u & 1 else rows for u in range(n)])

        slots = [((("concepts", "Alloc"), ("concepts", "PossibleTargets"),
                   ("concepts", "MemPool")), partition)]
        slots += [symbol_slot("nominals", v, cells) for v in vars_on]
        slots += [symbol_slot("roles", f, field_maps) for f in fields_on]
        slots += [symbol_slot("concepts", c, subsets) for c in cons_on]
        slots += [symbol_slot("roles", r, relations) for r in droles_on]
        slots += [symbol_slot("concepts", c, lambda env: range(1 << n))
                  for c in self.extra_concepts]
        slots += [symbol_slot("nominals", o, lambda env: range(n))
                  for o in self.extra_nominals]

        # pin unsupported symbols: fields map every address to null
        env: dict = {"n": n, "full": full, "noms": {"null": 0, "T": 1, "F": 2},
                     "cons": {"Aux": 0b111, "Addresses": full & ~0b111}, "rsucc": {}}
        for f in heap.all_fieldlike():
            if f not in fields_on:
                env["rsucc"][f] = [1 if 3 <= u < n else 0 for u in range(n)]
        for r in heap.all_roles():
            if r not in fieldlike and r not in droles_on:
                env["rsucc"][r] = [0] * n
        for v in heap.all_nominals():
            if v not in RESERVED_NOMINALS and v not in vars_on:
                env["noms"][v] = 0
        for c in heap.all_concepts():
            if c not in REQUIRED_CONCEPTS and c not in cons_on:
                env["cons"][c] = 0

        concepts = heap.all_concepts() + self.extra_concepts
        roles = heap.all_roles()
        for _ in StagedSearch(slots, self.formulas).search(env):
            yield MemoryStructure(heap, env_structure(env, concepts, roles))
