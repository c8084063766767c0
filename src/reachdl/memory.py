"""Heap memory structures: the required partition symbols, field functions,
ghost copies, the axiom checker, builders, and an enumerator over small
memory structures used by the verification-condition search.

A `MemoryStructure` is the heap layer's state, and it holds masks: the
stored form is the staged search's env layout (element masks, successor
rows, nominal bits over one universe), hashed by a tuple of ints.  The
search yields states that wrap a snapshot of its env, the step relation
(programs) and `vc` build new states by replacing masks, and annotation
plans (`models.formula_plan`) read them directly.  The FiniteStructure of
a state (`fs`) is built only when it is read: for a witness, a printed
state, I/O, or the axiom checker.

`MemorySearch` is a list of slots over `models.StagedSearch`, read off
the heap and the formulas: the Alloc/PossibleTargets/MemPool partition,
the label nominals (outside the heap) over every cell, the heap symbols
the formulas name over the cells outside MemPool, the post-state copies
(concepts and roles outside the heap) over the subsets and relations that
avoid the pool cells no label names, and last the `need`-only symbols.
The partition is enumerated up to a permutation of the addresses (its
sorted colorings only); every later range depends only on the pool and
the label cells, which a permutation moves alike, so every structure of
the full enumeration is an address permutation of one the search yields.

Universe layout convention: elements 0, 1, 2 interpret null, T and F (the
Aux cells); addresses follow.  The memory pool is a finite stand-in for
the unbounded pool: allocation raises once it is exhausted, and the axiom
checker takes the required reserve as a parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations_with_replacement, product, repeat
from typing import Iterable, Iterator, Mapping

from .models import StagedSearch, symbol_slot
from .structures import (FiniteStructure, MissingNominalError, element_mask, from_masks,
                         mask_bits, successor_rows)
from .syntax import (Atomic, Formula, Nominal, ReachDLError, Vocabulary, conj,
                     fold_constants, formula_symbols)

GHOST_SUFFIX = "_gho"
REQUIRED_CONCEPTS = ("Addresses", "Alloc", "PossibleTargets", "MemPool", "Aux")
RESERVED_NOMINALS = ("null", "T", "F")
# what every MemorySearch structure interprets alike, as masks over four
# disjoint cells covering the universe: null, T, F (elements 0, 1, 2) and
# the addresses, which are never empty (see syntax.fold_constants)
SEARCH_PINS = {Nominal("null"): 1, Nominal("T"): 2, Nominal("F"): 4, Atomic("Aux"): 7,
               Atomic("Addresses"): 8}


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

    @cached_property
    def state_names(self) -> tuple[dict[str, None], dict[str, None], dict[str, None]]:
        """The concept, role and nominal names of the heap, in the order a
        state's key lists their values (dicts, for set tests on names)."""
        return (dict.fromkeys(self.all_concepts()), dict.fromkeys(self.all_roles()),
                dict.fromkeys(self.all_nominals()))

    def annotation_vocabulary(self) -> Vocabulary:
        """The vocabulary annotations and postconditions may use: the pool
        bookkeeping symbols are excluded (the step relation moves cells
        between them and backwards propagation has no rewriting for them)."""
        vocab = self.vocabulary()
        return Vocabulary(vocab.concepts - {"MemPool", "PossibleTargets"},
                          vocab.roles, vocab.functional, vocab.nominals)


class MemoryStructure:
    """A heap state, stored as masks in the layout of the search's env
    (models.StagedSearch): `elements` is the universe, bit i standing for
    elements[i], and `index` maps an element to its bit; `cons` maps a
    concept to its element mask, `rsucc` a role to a tuple of successor
    masks, one per element, and `noms` a nominal to its bit.  A name has an
    entry iff the state interprets it (an empty concept may have one, as in
    a file).  States are immutable: the step builds a new state that shares
    every dict it leaves unchanged.

    Equality and hashing read `key`, one tuple of ints built on first use
    (see `_state_key`), so two states of one heap are equal iff their
    structures are.  `fs`, the FiniteStructure, is built on first read and
    cached; `MemoryStructure(heap, fs)` keeps the fs it is given."""

    __slots__ = ("heap", "elements", "index", "cons", "rsucc", "noms", "_key", "_hash", "_fs")

    def __init__(self, heap: HeapVocabulary, fs: FiniteStructure) -> None:
        index = {u: i for i, u in enumerate(fs.universe)}
        _fill(self, heap, fs.universe, index,
              {name: element_mask(index, ext) for name, ext in fs.concepts.items()},
              {name: tuple(successor_rows(index, pairs)) for name, pairs in fs.roles.items()},
              {name: index[e] for name, e in fs.nominals.items()})
        self._fs = fs

    def _with(self, cons: dict | None = None, rsucc: dict | None = None,
              noms: dict | None = None) -> "MemoryStructure":
        """The state with the given tables replaced (trusted, not checked)."""
        return _fill(object.__new__(MemoryStructure), self.heap, self.elements, self.index,
                     self.cons if cons is None else cons,
                     self.rsucc if rsucc is None else rsucc,
                     self.noms if noms is None else noms)

    @property
    def fs(self) -> FiniteStructure:
        fs = self._fs
        if fs is None:
            fs = self._fs = from_masks(self.elements, self.cons, self.rsucc, self.noms)
        return fs

    @property
    def key(self) -> tuple[int, ...]:
        key = self._key
        if key is None:
            key = self._key = _state_key(self)
        return key

    def __eq__(self, other: object) -> bool:
        return self is other or (type(other) is MemoryStructure and self.key == other.key
                                 and (self.heap is other.heap or self.heap == other.heap))

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(self.key)
        return h

    def __repr__(self) -> str:
        return f"MemoryStructure({self.heap!r}, {self.fs!r})"

    # -- accessors

    def universe(self) -> tuple[int, ...]:
        return self.elements

    def bit(self, name: str) -> int:
        """The bit of nominal `name`."""
        try:
            return self.noms[name]
        except KeyError:
            raise MissingNominalError(f"nominal {name} is not interpreted") from None

    def _cells(self, concept: str) -> frozenset[int]:
        elements = self.elements
        return frozenset(elements[i] for i in mask_bits(self.cons.get(concept, 0)))

    def null(self) -> int:
        return self.var("null")

    def true_elem(self) -> int:
        return self.var("T")

    def false_elem(self) -> int:
        return self.var("F")

    def alloc(self) -> frozenset[int]:
        return self._cells("Alloc")

    def pool(self) -> frozenset[int]:
        return self._cells("MemPool")

    def targets(self) -> frozenset[int]:
        return self._cells("PossibleTargets")

    def addresses(self) -> frozenset[int]:
        return self._cells("Addresses")

    def var(self, name: str) -> int:
        return self.elements[self.bit(name)]

    def field_value(self, field: str, src: int) -> int | None:
        rows, bit = self.rsucc.get(field), self.index.get(src)
        if rows is None or bit is None or not rows[bit]:
            return None
        return self.elements[rows[bit].bit_length() - 1]

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


def _fill(ms: MemoryStructure, heap: HeapVocabulary, elements: tuple[int, ...],
          index: dict[int, int], cons: dict[str, int], rsucc: dict[str, tuple[int, ...]],
          noms: dict[str, int]) -> MemoryStructure:
    ms.heap, ms.elements, ms.index = heap, elements, index
    ms.cons, ms.rsucc, ms.noms = cons, rsucc, noms
    ms._key = ms._hash = ms._fs = None
    return ms


def _name_int(name: str) -> int:
    """An int that only `name` maps to."""
    return int.from_bytes(b"\x01" + name.encode("utf-8", "surrogatepass"), "big")


def _state_key(ms: MemoryStructure) -> tuple[int, ...]:
    """The ints a state's structure is read off: the universe size and
    elements, then the mask of every concept, the successor rows of every
    role and the bit of every nominal (-1 when missing) in the heap's
    `state_names` order, a missing concept or role counting as empty.
    Names outside the heap follow, sorted, each as a marker, the name as an
    int, and its value: a concept with a non-empty mask (-1), a role with a
    non-empty row (-2), every nominal (-3).  No string is hashed, so a
    state's hash is the same under every hash seed."""
    concepts, roles, nominals = ms.heap.state_names
    cons, rsucc, noms, elements = ms.cons, ms.rsucc, ms.noms, ms.elements
    n = len(elements)
    key = [n, *elements]
    key += map(cons.get, concepts, repeat(0))
    zero = (0,) * n
    for name in roles:
        key += rsucc.get(name, zero)
    key += map(noms.get, nominals, repeat(-1))
    if not cons.keys() <= concepts.keys():
        for name in sorted(cons.keys() - concepts.keys()):
            if cons[name]:
                key += (-1, _name_int(name), cons[name])
    if not rsucc.keys() <= roles.keys():
        for name in sorted(rsucc.keys() - roles.keys()):
            if any(rsucc[name]):
                key += (-2, _name_int(name), *rsucc[name])
    if not noms.keys() <= nominals.keys():
        for name in sorted(noms.keys() - nominals.keys()):
            key += (-3, _name_int(name), noms[name])
    return tuple(key)


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
    """Enumerate memory structures with `n_addresses` (at least 1) address
    cells that satisfy a conjunction of formulas.  Each slot and its range
    is read off the heap and the symbols the formulas name; the other heap
    symbols are pinned (null, empty, every field to null).  `need` lists the
    (kind, name) pairs of heap symbols that no formula names but that must
    be bound anyway (`vc.check_inductive` passes the code-touched variables
    and fields).  Partitions with fewer than `min_pool` MemPool cells are
    skipped before any other symbol is assigned.  The slots, in order:

    - the Alloc/PossibleTargets/MemPool partition;
    - the nominals outside the heap (labels), over every cell, so that
      conjuncts such as `__lab_2 <= MemPool` prune early;
    - the heap symbols the formulas name, in heap order (variables,
      fields, data concepts, data roles), over the cells outside MemPool
      (a pool cell's fields map to null or F);
    - the concepts and roles outside the heap (post-state copies), over
      the subsets and relations that avoid the pool cells no label names.
      The range is complete: a run allocates only cells a label names, so
      a copy touching another pool cell breaks axiom 9 after the run
      (`vc._realizable` checks the rest);
    - last, the `need`-only symbols, which no conjunct tests.

    The partition is enumerated up to a permutation of the addresses: only
    its sorted colorings (Alloc cells, then PossibleTargets, then MemPool,
    in address order).  The labels range over every cell, every later
    range depends only on the pool and the label cells, an address
    permutation moves both, and no formula names an address; so each
    structure of the full enumeration is an address permutation of one
    this search yields, and callers that only ask whether such a structure
    exists (`vc.check_vc`, `vc.check_inductive`) get the same answer.

    The slots are chosen from the symbols of the formulas as given; the
    search checks them with the constants that `SEARCH_PINS` decides
    folded out (`syntax.fold_constants`), so a conjunct hidden under a
    negation or next to a constant is checked as soon as its own symbols
    are bound.  Folding changes when a candidate is rejected, not which
    structures are yielded or in what order."""

    heap: HeapVocabulary
    n_addresses: int
    formulas: tuple[Formula, ...]
    need: tuple[tuple[str, str], ...] = ()
    min_pool: int = 0

    def __iter__(self) -> Iterator[MemoryStructure]:
        if self.n_addresses < 1:  # SEARCH_PINS has a non-empty address cell
            raise ReachDLError("MemorySearch needs at least one address cell")
        heap = self.heap
        n = 3 + self.n_addresses
        named = formula_symbols(conj(self.formulas))
        concepts, roles, nominals = heap.state_names
        fieldlike = heap.all_fieldlike()
        outside = {kind: sorted(named[kind] - names.keys()) for kind, names
                   in zip(("concepts", "roles", "nominals"), heap.state_names)}

        def partition(env: dict) -> Iterator[None]:
            cons = env["cons"]
            for colors in combinations_with_replacement((0, 1, 2), self.n_addresses):
                masks = [0, 0, 0]
                for a, c in enumerate(colors, start=3):
                    masks[c] |= 1 << a
                if masks[2].bit_count() < self.min_pool:
                    continue
                cons["Alloc"], cons["PossibleTargets"], cons["MemPool"] = masks
                yield

        def pool(env: dict) -> int:
            return env["cons"]["MemPool"]

        def unlabelled_pool(env: dict) -> int:
            return pool(env) & ~sum({1 << env["noms"][o] for o in outside["nominals"]})

        def slot(kind: str, name: str, blocked):
            """Bind a symbol to each of its values over the cells outside
            blocked(env): an element, a subset, a field map (the Aux cells
            map nowhere, a blocked cell to null or F) or a relation."""
            def values(env: dict):
                avoid = blocked(env)
                cells = [u for u in range(n) if not avoid >> u & 1]
                if kind == "nominals":
                    return cells
                if kind == "roles" and name in fieldlike:
                    return product(*[(0,) if u < 3 else (1 << 0, 1 << 2) if avoid >> u & 1
                                     else [1 << v for v in cells] for u in range(n)])
                rows = [m for m in range(1 << n) if not m & avoid]
                if kind == "concepts":
                    return rows
                return product(*[(0,) if avoid >> u & 1 else rows for u in range(n)])
            return symbol_slot(kind, name, values)

        free = [("nominals", v) for v in nominals if v not in RESERVED_NOMINALS]
        free += [("roles", f) for f in fieldlike]
        free += [("concepts", c) for c in concepts if c not in REQUIRED_CONCEPTS]
        free += [("roles", r) for r in roles if r not in fieldlike]
        tested = [(kind, name) for kind, name in free if name in named[kind]]
        enumerated = tested + [s for s in free if s in self.need and s not in tested]

        slots = [((("concepts", "Alloc"), ("concepts", "PossibleTargets"),
                   ("concepts", "MemPool")), partition)]
        slots += [slot("nominals", o, lambda env: 0) for o in outside["nominals"]]
        slots += [slot(kind, name, pool) for kind, name in tested]
        slots += [slot(kind, name, unlabelled_pool) for kind in ("concepts", "roles")
                  for name in outside[kind]]
        slots += [slot(kind, name, pool) for kind, name in enumerated[len(tested):]]

        # pin the other heap symbols: a field maps every address to null
        env: dict = {"n": n, "full": (1 << n) - 1, "noms": {"null": 0, "T": 1, "F": 2},
                     "cons": {"Aux": 0b111, "Addresses": (1 << n) - 8}, "rsucc": {}}
        tables = {"nominals": env["noms"], "concepts": env["cons"], "roles": env["rsucc"]}
        for kind, name in free:
            if (kind, name) not in enumerated:
                tables[kind][name] = 0 if kind != "roles" else (0,) * n if name not in fieldlike \
                    else tuple(1 if u >= 3 else 0 for u in range(n))

        # each state wraps a snapshot of the env; the search rebinds its
        # symbols in place, but never mutates a row
        universe = tuple(range(n))
        index = {u: u for u in universe}
        formulas = [fold_constants(phi, SEARCH_PINS) for phi in self.formulas]
        for _ in StagedSearch(slots, formulas).search(env):
            yield _fill(object.__new__(MemoryStructure), heap, universe, index,
                        dict(env["cons"]), dict(env["rsucc"]), dict(env["noms"]))
