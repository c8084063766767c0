"""Model tools: the successor-swap operation, useful labelings, graph
values, the repair loop, the staged search engine and the bounded
brute-force model finder.

`StagedSearch` is the one enumerator behind both bounded searches: it
assigns symbols slot by slot over bitmask interpretations and checks each
conjunct right after the slot that binds the last of its symbols.  Its
value ranges are `subsets` (concepts) and `relations` (plain roles).
`find_model` is one list of slots over it, per universe size: canonical
nominal placements (which also bind the `role_canon` roles), concept
colorings sorted over the unplaced elements, one slot per functional role
and one per plain role; reach assertions are conjuncts, unrolled by
`reach.reach_formula`.  `memory.MemorySearch` is the other list.

The functional-role slots of `find_model` are bit-sliced: bit k of a
Python int stands for map k of the (n+1)^n partial functions on [0,n), in
`product(range(-1, n), repeat=n)` order.  A stage's conjuncts are
evaluated once for every map at once, a concept as n row ints, a role view
as an n x n matrix of rows and a formula as one mask; the leaf is the
selector matrix of `functional_selectors` (bit k of `sel[a][b]` is set
when map k sends a to b).  The stage then tries the set bits of the pass
mask, lowest first, decoding each into successor masks.  A run of
functional slots whose slots but the last have no conjunct can be one
stage over the product of their maps (see StagedSearch).

`Kernel` is the search front-end of the one set of bitmask node rules
(`structures.update` / `invert` / `exists` / `image` / `at_most`); the
other front-end is `structures.Evaluator`, which evaluates over the mask
view of one finite structure and memoizes by object identity.  The kernel
hash-conses on (constructor, child node ids), because parsed conjuncts
repeat subterms as copies: a search compiles all its conjuncts into one
kernel, with one node per structurally distinct subterm (concepts,
formulas and the views of updated or inverted roles), shared across
conjuncts.  A node's level is the largest slot index among its symbols,
so its value can change only when that slot writes a new value.  A node
read at a later stage than its level, or read more than once, gets a cell
in the store of its level, so it is computed at most once per value of
that slot; other nodes are evaluated inline.  The reset points: each value
a slot writes clears that slot's store, and each `search(env)` clears them
all first.  `formula_plan` compiles one formula for evaluation over the
mask views of many structures, clearing its store per structure.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from typing import Callable, Iterable, Iterator, Mapping

from . import graphs
from .reach import (ReachSpec, assoc_formula, check_semi_connected, check_spec,
                    graph_sources, reach_formula, reach_graph)
from .reduction import semi_formula
from .structures import (FiniteStructure, at_most, env_structure, eval_formula, exists,
                         image, invert, types_of_all, update)
from .syntax import (And, AtMost, Atomic, Bot, Concept, Eq, Exists, FAnd, FNot,
                     FOr, Formula, Incl, Nominal, Not, Or, ReachDLError, Role,
                     Top, Vocabulary, closure_concepts, conj, conjuncts, formula_symbols)


class CeilingExceededError(ReachDLError):
    pass


class NotConnectedError(ReachDLError):
    pass


class PremiseViolationError(ReachDLError):
    pass


DEFAULT_CEILING = 7


def search_ceiling() -> int:
    """The largest universe size a search may be asked for: REACHDL_CEILING
    when set (an integer >= 1), else DEFAULT_CEILING."""
    text = os.environ.get("REACHDL_CEILING")
    if text is None:
        return DEFAULT_CEILING
    if not text.isdecimal() or int(text) < 1:
        raise ReachDLError(f"REACHDL_CEILING must be an integer >= 1, got {text!r}")
    return int(text)


# ---------------------------------------------------------------------------
# The swap operation


@dataclass(frozen=True)
class SwapTuple:
    a0: int
    a1: int
    role: str


def apply_swap(m: FiniteStructure, t: SwapTuple) -> FiniteStructure:
    """Exchange the r-edges out of a0 and a1; everything else unchanged.
    Functionality of r is preserved."""
    if t.a0 == t.a1:
        return m
    pairs = m.role_ext(t.role)
    swapped = set()
    for a, b in pairs:
        if a == t.a0:
            swapped.add((t.a1, b))
        elif a == t.a1:
            swapped.add((t.a0, b))
        else:
            swapped.add((a, b))
    return m.with_role(t.role, swapped)


# ---------------------------------------------------------------------------
# Types and labelings


def type_concepts(spec: ReachSpec) -> tuple[Concept, ...]:
    """The concept basis used for types in the repair machinery: the
    concepts of the semi-connectedness formula closed under subconcepts
    (the swap lemma needs agreement on fillers, not just on sides)."""
    return closure_concepts(semi_formula(spec))


def dfs_labeling(m: FiniteStructure, spec: ReachSpec, h: int,
                 concepts: tuple[Concept, ...] | None = None) -> dict[int, int]:
    """Depth-first labeling from the source set: each newly seen type gets
    the smallest unused number, repeats reuse their type's number."""
    concepts = type_concepts(spec) if concepts is None else concepts
    a = spec.assertion(h)
    succ = reach_graph(m, a)
    types = types_of_all(m, concepts)
    labels: dict[int, int] = {}
    type_number: dict[frozenset, int] = {}
    counter = 0
    visited: set[int] = set()
    for start in sorted(graph_sources(m, a)):
        if start in visited:
            continue
        stack = [start]
        while stack:
            v = stack.pop()
            if v in visited:
                continue
            visited.add(v)
            tp = types[v]
            if tp not in type_number:
                counter += 1
                type_number[tp] = counter
            labels[v] = type_number[tp]
            for w in reversed(succ[v]):
                if w not in visited:
                    stack.append(w)
    missing = set(succ) - visited
    if missing:
        raise NotConnectedError(f"assertion {h}: unreachable elements {sorted(missing)}")
    return labels


def labeling_is_useful(m: FiniteStructure, spec: ReachSpec, h: int,
                       labeling: Mapping[int, int],
                       concepts: tuple[Concept, ...] | None = None) -> bool:
    """Condition (1): equal labels imply equal types; condition (2): every
    non-source element's label value has an edge from a smaller label."""
    concepts = type_concepts(spec) if concepts is None else concepts
    a = spec.assertion(h)
    verts = m.concept_ext(a.target)
    if set(labeling) != set(verts):
        return False
    limit = 1 << len(concepts)
    if any(not 1 <= v <= limit for v in labeling.values()):
        return False
    types = types_of_all(m, concepts)
    by_label: dict[int, list[int]] = {}
    for u, v in labeling.items():
        by_label.setdefault(v, []).append(u)
    for members in by_label.values():
        if len({types[u] for u in members}) > 1:
            return False
    succ = reach_graph(m, a)
    sources = graph_sources(m, a)
    # label values that have an incoming edge from a strictly smaller label
    supported: set[int] = set()
    for w in verts:
        for v in succ[w]:
            if labeling[w] < labeling[v]:
                supported.add(labeling[v])
    for u in verts:
        if u in sources:
            continue
        if labeling[u] not in supported:
            return False
    return True


def useful_labeling(m: FiniteStructure, spec: ReachSpec, h: int,
                    concepts: tuple[Concept, ...] | None = None) -> dict[int, int] | None:
    """Construct a useful labeling greedily, or decide none exists.

    Equal labels force equal types, so a labeling amounts to an ordering of
    the type classes of A^M in which every class containing a non-source
    element has an edge from an earlier class; the least-fixpoint order is
    complete for that condition."""
    concepts = type_concepts(spec) if concepts is None else concepts
    a = spec.assertion(h)
    verts = sorted(m.concept_ext(a.target))
    types = types_of_all(m, concepts)
    classes: dict[frozenset, list[int]] = {}
    for u in verts:
        classes.setdefault(types[u], []).append(u)
    succ = reach_graph(m, a)
    sources = graph_sources(m, a)
    order: list[frozenset] = []
    placed_elems: set[int] = set()
    remaining = {tp: members for tp, members in classes.items()}
    while remaining:
        pick = None
        for tp in sorted(remaining, key=lambda tp: remaining[tp][0]):
            members = remaining[tp]
            if all(u in sources for u in members):
                pick = tp
                break
            if any(w in placed_elems for v in members for w in _preds(succ, v)):
                pick = tp
                break
        if pick is None:
            return None
        order.append(pick)
        placed_elems.update(remaining.pop(pick))
    numbering = {tp: i + 1 for i, tp in enumerate(order)}
    return {u: numbering[types[u]] for u in verts}


def _preds(succ: Mapping[int, list[int]], v: int) -> list[int]:
    return [w for w in succ if v in succ[w]]


def useful_labelings(m: FiniteStructure, spec: ReachSpec) -> dict[int, dict[int, int]]:
    """The useful labeling of each assertion h, keyed by h; raises
    PremiseViolationError for the first assertion that has none."""
    concepts = type_concepts(spec)
    out = {}
    for h in range(1, len(spec.re) + 1):
        lab = useful_labeling(m, spec, h, concepts)
        if lab is None:
            raise PremiseViolationError(f"no useful labeling exists for assertion {h}")
        out[h] = lab
    return out


def has_useful_labelings(m: FiniteStructure, spec: ReachSpec,
                         concepts: tuple[Concept, ...] | None = None) -> bool:
    concepts = type_concepts(spec) if concepts is None else concepts
    return all(useful_labeling(m, spec, h, concepts) is not None
               for h in range(1, len(spec.re) + 1))


# ---------------------------------------------------------------------------
# Bases and values


def value_from_components(components: Iterable[frozenset[int]], sources: set[int],
                          labeling: Mapping[int, int]) -> int:
    """Graph value given the source components of the condensation: each
    source component not containing a source vertex contributes its
    minimum label (a base must hit every source component, and members of
    the source set cost nothing)."""
    total = 0
    for comp in components:
        if comp & sources:
            continue
        total += min(labeling[x] for x in comp)
    return total


def graph_value(m: FiniteStructure, spec: ReachSpec, h: int,
                labeling: Mapping[int, int]) -> int:
    """Minimum over bases X of the label sum of X minus the source set,
    computed on the condensation."""
    a = spec.assertion(h)
    succ = reach_graph(m, a)
    return value_from_components(graphs.source_components(succ),
                                 graph_sources(m, a), labeling)


def exhaustive_graph_value(m: FiniteStructure, spec: ReachSpec, h: int,
                           labeling: Mapping[int, int], limit: int = 12) -> int:
    """Test oracle: minimize over all subsets whose closure covers A^M."""
    a = spec.assertion(h)
    succ = reach_graph(m, a)
    verts = sorted(succ)
    if len(verts) > limit:
        raise ReachDLError(f"exhaustive value limited to {limit} vertices")
    sources = graph_sources(m, a)
    best: int | None = None
    for bits in range(1 << len(verts)):
        x = [verts[i] for i in range(len(verts)) if bits >> i & 1]
        if graphs.reachable_from(succ, x) != set(verts):
            continue
        val = sum(labeling[u] for u in x if u not in sources)
        best = val if best is None else min(best, val)
    if best is None:  # only possible for empty vertex set
        return 0
    return best


def min_value_base(m: FiniteStructure, spec: ReachSpec, h: int,
                   labeling: Mapping[int, int]) -> frozenset[int]:
    """A canonical minimum-value base: per source component, the least
    source vertex if any, else the least vertex of minimum label."""
    a = spec.assertion(h)
    succ = reach_graph(m, a)
    sources = graph_sources(m, a)
    base: set[int] = set()
    for comp in graphs.source_components(succ):
        in_b = sorted(comp & sources)
        if in_b:
            base.add(in_b[0])
        else:
            best = min(labeling[x] for x in comp)
            base.add(min(x for x in comp if labeling[x] == best))
    return frozenset(base)


# ---------------------------------------------------------------------------
# Repair


@dataclass(frozen=True)
class RepairStep:
    h: int
    tuple: SwapTuple
    values_before: tuple[int, ...]
    values_after: tuple[int, ...]


def repair(m: FiniteStructure, spec: ReachSpec,
           labelings: Mapping[int, Mapping[int, int]] | None = None,
           trace: list[RepairStep] | None = None) -> FiniteStructure:
    """Drive all graph values to zero by repeated swaps, turning a
    semi-connected structure with useful labelings into a model of the spec.

    Labelings default to DFS labelings, which requires each reach graph to
    be connected already; for merely semi-connected inputs the caller
    supplies labelings (e.g. read off an ORD witness or built greedily)."""
    concepts = type_concepts(spec)
    if not check_semi_connected(m, spec):
        raise PremiseViolationError("structure is not semi-connected for the spec")
    hs = range(1, len(spec.re) + 1)
    if labelings is None:
        labelings = {h: dfs_labeling(m, spec, h, concepts) for h in hs}
    for h in hs:
        if not labeling_is_useful(m, spec, h, labelings[h], concepts):
            raise PremiseViolationError(f"labeling for assertion {h} is not useful")

    def values(mm: FiniteStructure) -> tuple[int, ...]:
        return tuple(graph_value(mm, spec, h, labelings[h]) for h in hs)

    current = m
    vals = values(current)
    while any(vals):
        h = next(h for h in hs if vals[h - 1] > 0)
        a = spec.assertion(h)
        f = labelings[h]
        succ = reach_graph(current, a)
        sources = graph_sources(current, a)
        base = min_value_base(current, spec, h, f)
        a1 = min(base - sources)
        a0 = w = None
        for cand in sorted(succ):
            if f[cand] != f[a1]:
                continue
            smaller = [p for p in _preds(succ, cand) if f[p] < f[cand]]
            if smaller:
                a0, w = cand, min(smaller)
                break
        if a0 is None:
            raise PremiseViolationError(f"no usefulness witness for assertion {h}")
        # the cycle edge out of a1: a successor from which a1 is reachable
        cyc = [b for b in succ[a1] if a1 in graphs.reachable_from(succ, [b])]
        if not cyc:
            raise PremiseViolationError(f"base element {a1} lies on no cycle")
        b1 = min(cyc)
        r = min(s for s in sorted(a.roles) if (a1, b1) in current.role_ext(s))
        t = SwapTuple(a0, a1, r)
        nxt = apply_swap(current, t)
        nvals = values(nxt)
        if not nvals[h - 1] < vals[h - 1]:  # pragma: no cover - guarded by theory
            raise ReachDLError("repair step failed to decrease the active value")
        if trace is not None:
            trace.append(RepairStep(h, t, vals, nvals))
        current, vals = nxt, nvals
    if not check_spec(current, spec):  # pragma: no cover - guarded by theory
        raise ReachDLError("repair terminated on a non-model")
    return current


# ---------------------------------------------------------------------------
# The evaluation kernel


class Kernel:
    """Bitmask evaluation of concepts and formulas over an env (see
    StagedSearch), compiled to one node per distinct subterm.

    Nodes are hash-consed on their constructor and child node ids, so a
    subterm repeated anywhere in the added formulas is one node.  A role
    expression is a chain of role views: the successor array, one node per
    update point, then an inversion; E r^-.C never needs the inversion, it
    is the image of C under r.  `slot_of` gives the slot index of each
    (kind, name) symbol, and each node has a level: the largest slot index
    among its symbols (0 if none), taken from its leaves' and children's
    levels.  A non-leaf node read at a later stage than its level (a parent
    has a higher level) or read more than once (several parents, or a
    parent and a root read) keeps its value in a cell of `stores[level]`;
    every other node is evaluated inline by its parent.  Whoever writes the
    symbols of a slot must clear that slot's store, so a cell never
    outlives the values it was computed from."""

    def __init__(self, slot_of: Mapping[tuple[str, str], int]) -> None:
        self.slot_of = slot_of
        self.levels: list[int] = []
        self.stores: dict[int, dict[int, object]] = {}
        self._keys: list[tuple] = []
        self._ids: dict[tuple, int] = {}
        self._reads: list[int] = []
        self._late: list[bool] = []
        self._selectors: dict[tuple[int, int], list[list[int]]] = {}
        self._objects: dict[int, tuple[Concept, int]] = {}

    def _node(self, key: tuple, children: tuple[int, ...] = (), level: int = 0) -> int:
        nid = self._ids.get(key)
        if nid is None:
            levels = self.levels
            for ch in children:
                if levels[ch] > level:
                    level = levels[ch]
            nid = self._ids[key] = len(self._keys)
            self._keys.append(key)
            levels.append(level)
            self._reads.append(0)
            self._late.append(False)
            for ch in children:
                self._reads[ch] += 1
                if levels[ch] < level:
                    self._late[ch] = True
        return nid

    def _leaf(self, tag: str, kind: str, name: str) -> int:
        return self._node((tag, name), level=self.slot_of.get((kind, name), 0))

    def _role(self, r: Role, inverted: bool) -> int:
        nid = self._leaf("succ", "roles", r.name)
        for p in r.updates:
            src = self._leaf("nom", "nominals", p.source)
            tgt = self._leaf("nom", "nominals", p.target)
            nid = self._node(("upd", nid, src, tgt), (nid, src, tgt))
        return self._node(("inv", nid), (nid,)) if inverted else nid

    def concept(self, c: Concept) -> int:
        """The node of concept c, added with its subterms if new.  A shared
        object is walked once: the memo holds it, so its id is not reused."""
        hit = self._objects.get(id(c))
        if hit is not None:
            return hit[1]
        t = type(c)
        if t is Atomic:
            nid = self._leaf("atom", "concepts", c.name)
        elif t is Nominal:
            nid = self._leaf("nom", "nominals", c.name)
        elif t is And or t is Or:
            left, right = self.concept(c.left), self.concept(c.right)
            nid = self._node((t.__name__, left, right), (left, right))
        elif t is Not:
            inner = self.concept(c.inner)
            nid = self._node(("Not", inner), (inner,))
        elif t is Exists:
            view, inner = self._role(c.role, False), self.concept(c.inner)
            nid = self._node(("image" if c.role.inverted else "Exists", view, inner),
                             (view, inner))
        elif t is AtMost:
            view, inner = self._role(c.role, c.role.inverted), self.concept(c.inner)
            nid = self._node(("AtMost", view, inner, c.bound), (view, inner))
        elif t is Top or t is Bot:
            nid = self._node((t.__name__,))
        else:  # pragma: no cover
            raise TypeError(f"not a concept: {c!r}")
        self._objects[id(c)] = (c, nid)
        return nid

    def formula(self, phi: Formula) -> int:
        """The node of formula phi, added with its subterms if new."""
        t = type(phi)
        if t is Incl or t is Eq:
            left, right = self.concept(phi.left), self.concept(phi.right)
        elif t is FAnd or t is FOr:
            left, right = self.formula(phi.left), self.formula(phi.right)
        elif t is FNot:
            inner = self.formula(phi.inner)
            return self._node(("FNot", inner), (inner,))
        else:  # pragma: no cover
            raise TypeError(f"not a formula: {phi!r}")
        return self._node((t.__name__, left, right), (left, right))

    def root(self, nid: int) -> int:
        """Count a read of node nid by the kernel's user; returns nid."""
        self._reads[nid] += 1
        return nid

    def compile(self) -> list[Callable[[dict], object]]:
        """The evaluation function of every node, by node id."""
        fns: list[Callable[[dict], object]] = []
        for nid, key in enumerate(self._keys):
            fn = _compile_node(key, fns)
            if key[0] not in _LEAVES and (self._reads[nid] > 1 or self._late[nid]):
                fn = _cell(fn, self.stores.setdefault(self.levels[nid], {}), nid)
            fns.append(fn)
        return fns

    def sliced(self, roots: Iterable[int], roles: tuple[str, ...],
               fns: list[Callable[[dict], object]]) -> Callable[[dict], int]:
        """The pass mask of the formula nodes `roots` over every tuple of
        maps of a run of functional roles at once: bit K is set when all of
        them hold with digit j of K in base (n+1)^n, outer first, as the
        map of roles[j] (see functional_selectors) and the env's values for
        every other symbol.  A node that depends on one of the roles gets a
        sliced value by the row rules of `_slice_node`; any other node it
        reads is evaluated once by its function in `fns` (from `compile`)
        and broadcast to all-ones or zero rows.  The roots are read in turn
        until the mask is empty.  The selectors are built once per size."""
        keys, levels, roots, k = self._keys, self.levels, tuple(roots), len(roles)
        leaves = {self._ids[key] for key in (("succ", r) for r in roles) if key in self._ids}
        low = min((levels[nid] for nid in leaves), default=0)
        # the nodes under the roots that may depend on the roles: none below
        # a node of a lower level than the first role's
        below: set[int] = set()
        stack = list(roots) if leaves else []
        while stack:
            nid = stack.pop()
            if nid not in below and levels[nid] >= low:
                below.add(nid)
                stack += _children(keys[nid])
        # the nodes read: the roots, the nodes that depend on the roles (all
        # of whose parents do too), and what those read as sliced values
        # (not the nominals of an update); a node read twice is memoized
        dep: set[int] = set()
        reads = dict.fromkeys(roots, 1)
        for nid in sorted(below):
            key = keys[nid]
            kids = _children(key)
            if nid in leaves or not dep.isdisjoint(kids):
                dep.add(nid)
                for ch in kids[:1] if key[0] == "upd" else kids:
                    reads[ch] = reads.get(ch, 0) + 1
        sfns: dict[int, Sliced] = {}
        for nid in sorted(reads):
            fn = (_slice_node(keys[nid], sfns, fns, dep) if nid in dep
                  else _broadcast(keys[nid][0], fns[nid]))
            sfns[nid] = _memo(fn, nid) if reads[nid] > 1 else fn
        checks = [sfns[nid] for nid in roots]

        leaves_of: dict[int, tuple[int, dict]] = {}

        def passing(env: dict) -> int:
            n = env["n"]
            if n not in leaves_of:
                sel = self._selectors.get((n, k))
                if sel is None:
                    sel = self._selectors[n, k] = functional_selectors(n, k)
                # the memo starts with each role's leaf, under its node key
                leaves_of[n] = ((1 << (n + 1) ** (n * k)) - 1,
                                {("succ", r): sel[j * n:j * n + n] for j, r in enumerate(roles)})
            ones, memo = leaves_of[n]
            mask, memo = ones, memo.copy()
            for check in checks:
                mask &= check(env, ones, memo)
                if not mask:
                    break
            return mask

        return passing


_LEAVES = frozenset({"atom", "nom", "succ", "Top", "Bot"})


def _cell(fn: Callable[[dict], object], store: dict, nid: int) -> Callable[[dict], object]:
    get = store.get

    def cell(env: dict) -> object:
        value = get(nid)
        if value is None:
            value = store[nid] = fn(env)
        return value

    return cell


def _compile_node(key: tuple, fns: list[Callable[[dict], object]]) -> Callable[[dict], object]:
    """The function of one kernel node over an env, from the shared node
    rules.  `fns` holds the functions of the nodes before this one, its
    children among them.  A concept gives an element mask, a role view one
    successor (predecessor, if inverted) mask per element, a formula a
    bool."""
    tag = key[0]
    if tag == "atom":
        name = key[1]
        return lambda env: env["cons"].get(name, 0)
    if tag == "nom":
        name = key[1]
        return lambda env: 1 << env["noms"][name]
    if tag == "succ":
        name = key[1]
        return lambda env: env["rsucc"][name]
    if tag == "Top":
        return lambda env: env["full"]
    if tag == "Bot":
        return lambda env: 0
    a = fns[key[1]]
    if tag == "Not":
        return lambda env: env["full"] & ~a(env)
    if tag == "FNot":
        return lambda env: not a(env)
    if tag == "inv":
        return lambda env: invert(a(env))
    b = fns[key[2]]
    if tag == "And":
        return lambda env: a(env) & b(env)
    if tag == "Or":
        return lambda env: a(env) | b(env)
    if tag == "FAnd":
        return lambda env: a(env) and b(env)
    if tag == "FOr":
        return lambda env: a(env) or b(env)
    if tag == "Eq":
        return lambda env: a(env) == b(env)
    if tag == "Incl":

        def incl(env: dict) -> bool:
            left = a(env)
            return not left or not left & ~b(env)

        return incl
    if tag == "upd":
        c = fns[key[3]]
        return lambda env: update(a(env), b(env), c(env))
    if tag == "Exists":
        return lambda env: exists(a(env), b(env))
    if tag == "image":
        return lambda env: image(a(env), b(env))
    if tag == "AtMost":
        bound = key[3]
        return lambda env: at_most(a(env), b(env), bound)
    raise TypeError(f"unknown kernel node {tag!r}")  # pragma: no cover


def formula_plan(phi: Formula) -> Callable[[object], bool]:
    """phi compiled once, for evaluation over many heap states
    (memory.MemoryStructure): the truth of phi in a state, as
    `eval_formula` gives it on the state's structure, read off the state's
    masks.  The kernel's one store is cleared per state, so a shared
    subterm is computed once per state; a role the state has no entry for
    reads as empty.  A state that does not interpret every nominal of phi
    goes to `eval_formula` on its structure, which raises where its
    evaluation reaches the missing one."""
    kernel = Kernel({})
    nid = kernel.root(kernel.formula(phi))
    fn = kernel.compile()[nid]
    stores = kernel.stores.values()
    syms = formula_symbols(phi)
    nominals, roles = syms["nominals"], syms["roles"]

    def holds(m) -> bool:
        if not nominals <= m.noms.keys():
            return eval_formula(m.fs, phi)
        rsucc = m.rsucc
        if not roles <= rsucc.keys():
            rsucc = {**dict.fromkeys(roles, (0,) * len(m.elements)), **rsucc}
        for store in stores:
            store.clear()
        return fn({"full": (1 << len(m.elements)) - 1, "noms": m.noms, "cons": m.cons,
                   "rsucc": rsucc})

    return holds


def functional_selectors(n: int, k: int = 1) -> list[list[int]]:
    """The leaves of a run of k sliced functional roles over [0,n): bit K
    of sel[j*n + a][b] is set when the map of role j in tuple K sends a to
    b.  K's digits in base n+1, role 0 and element 0 the most significant,
    are the values plus one (0 for undefined), as in
    `product(range(-1, n), repeat=k*n)`: role j's map is digit j of K in
    base (n+1)^n, outer first, and for k = 1 bit K of sel[a][b] is set
    when map K sends a to b.  Row p repeats a block of (n+1)^(kn-1-p) ones
    with period (n+1)^(kn-p)."""
    digits = k * n
    total = (n + 1) ** digits
    sel = []
    for p in range(digits):
        block = (n + 1) ** (digits - 1 - p)
        first = ((1 << block) - 1) << block  # p -> 0 in the first period
        width = block * (n + 1)
        while width < total:
            first |= first << width
            width *= 2
        first &= (1 << total) - 1
        sel.append([first << b * block for b in range(n)])
    return sel


# The largest pass mask of a stage over a run of k functional roles, in
# bits: where ((n+1)^n)^k is larger, the run's first role is a stage of its
# own and the rest of the run is tried in turn.  Two roles fit up to
# universe 4, three up to universe 3; one role is always a stage.
MAX_SLICE_BITS = 1 << 19


def _decode_map(k: int, n: int) -> list[int]:
    """Map k of functional_selectors' order, as a successor mask per
    element."""
    rows = [0] * n
    for a in range(n - 1, -1, -1):
        k, digit = divmod(k, n + 1)
        if digit:
            rows[a] = 1 << digit - 1
    return rows


def _children(key: tuple) -> tuple[int, ...]:
    if key[0] in _LEAVES:
        return ()
    return key[1:3] if key[0] == "AtMost" else key[1:]


def _rows(mask: int, n: int, ones: int) -> list[int]:
    return [ones if mask >> a & 1 else 0 for a in range(n)]


_FORMULA_TAGS = frozenset({"Incl", "Eq", "FAnd", "FOr", "FNot"})
_VIEW_TAGS = frozenset({"succ", "upd", "inv"})

# The sliced function of a node: its value for every map at once, from the
# env, the all-maps mask `ones` and the memo of one evaluation.  A concept
# is one row per element, a role view one row per (element, successor) pair
# and a formula one mask; every row is a subset of `ones`, bit k for map k.
Sliced = Callable[[dict, int, dict], object]


def _memo(fn: Sliced, nid: int) -> Sliced:
    def memo_fn(env: dict, ones: int, memo: dict) -> object:
        value = memo.get(nid)
        if value is None:
            value = memo[nid] = fn(env, ones, memo)
        return value

    return memo_fn


def _broadcast(tag: str, fn: Callable[[dict], object]) -> Sliced:
    """The sliced function of a node that does not depend on the sliced
    role: its one value, from fn, given to every map."""
    if tag in _FORMULA_TAGS:
        return lambda env, ones, memo: ones if fn(env) else 0
    if tag in _VIEW_TAGS:
        return lambda env, ones, memo: [_rows(row, env["n"], ones) for row in fn(env)]
    return lambda env, ones, memo: _rows(fn(env), env["n"], ones)


def _slice_node(key: tuple, sfns: Mapping[int, Sliced],
                fns: list[Callable[[dict], object]], dep: set[int]) -> Sliced:
    """The sliced function of one kernel node that depends on the sliced
    role, from the sliced functions of its children.  FAnd and FOr read a
    child that does not depend on the role first, and skip the other when
    it decides every map, as an Incl whose left side is empty does."""
    tag = key[0]
    if tag == "succ":
        return lambda env, ones, memo: memo[key]
    a = sfns[key[1]]
    if tag == "upd":
        src, tgt = fns[key[2]], fns[key[3]]

        def upd(env: dict, ones: int, memo: dict) -> list:
            view = list(a(env, ones, memo))
            view[src(env).bit_length() - 1] = _rows(tgt(env), len(view), ones)
            return view

        return upd
    if tag == "inv":
        return lambda env, ones, memo: [list(col) for col in zip(*a(env, ones, memo))]
    if tag == "Not":
        return lambda env, ones, memo: [ones ^ x for x in a(env, ones, memo)]
    if tag == "FNot":
        return lambda env, ones, memo: ones ^ a(env, ones, memo)
    b = sfns[key[2]]
    if tag == "FAnd" or tag == "FOr":
        if key[1] in dep and key[2] not in dep:
            a, b = b, a
        if tag == "FAnd":

            def fand(env: dict, ones: int, memo: dict) -> int:
                x = a(env, ones, memo)
                return x and x & b(env, ones, memo)

            return fand

        def for_(env: dict, ones: int, memo: dict) -> int:
            x = a(env, ones, memo)
            return x if x == ones else x | b(env, ones, memo)

        return for_
    rule = _ROW_RULES.get(tag)
    if rule is not None:
        bound = key[3] if tag == "AtMost" else 0
        return lambda env, ones, memo: rule(a(env, ones, memo), b(env, ones, memo), ones, bound)
    if tag == "Incl":

        def incl(env: dict, ones: int, memo: dict) -> int:
            left = a(env, ones, memo)
            if not any(left):
                return ones
            return ones ^ _meets(left, [ones ^ y for y in b(env, ones, memo)])

        return incl
    if tag == "Eq":

        def eq(env: dict, ones: int, memo: dict) -> int:
            out = 0
            for x, y in zip(a(env, ones, memo), b(env, ones, memo)):
                out |= x ^ y
            return ones ^ out

        return eq
    raise TypeError(f"unknown kernel node {tag!r}")  # pragma: no cover


def _meets(xs: Iterable[int], ys: Iterable[int]) -> int:
    """OR over i of xs[i] & ys[i]."""
    out = 0
    for x, y in zip(xs, ys):
        if y:
            out |= x & y
    return out


def _at_most_row(row: Iterable[int], cm: list[int], bound: int, ones: int) -> int:
    """The maps under which an element has at most `bound` successors in
    C, from its view row and C's rows: more[j] holds the maps with more
    than j of them, a saturating bit-sliced counter."""
    more = [0] * (bound + 1)
    for x, y in zip(row, cm):
        x &= y
        if x:
            for j in range(bound, 0, -1):
                more[j] |= more[j - 1] & x
            more[0] |= x
    return ones ^ more[bound]


# The sliced rules of the binary concept nodes: from the children's values
# (the view first for Exists, image and AtMost), `ones` and the bound.
_ROW_RULES: dict[str, Callable[[list, list, int, int], list[int]]] = {
    "And": lambda x, y, ones, bound: [p & q for p, q in zip(x, y)],
    "Or": lambda x, y, ones, bound: [p | q for p, q in zip(x, y)],
    "Exists": lambda view, c, ones, bound: [_meets(row, c) for row in view],
    "image": lambda view, c, ones, bound: [_meets(col, c) for col in zip(*view)],
    "AtMost": lambda view, c, ones, bound: [_at_most_row(row, c, bound, ones) for row in view],
}


# ---------------------------------------------------------------------------
# The staged search engine


@dataclass
class SearchStats:
    """`candidates`: the complete assignments that pass every conjunct (as
    find_model counts them); `pruned`: the failed checks."""
    candidates: int = 0
    pruned: int = 0


# A slot: the (kind, name) symbols it binds, kind as in formula_symbols, and
# either a function that writes each of the slot's values into env in turn
# and yields once per value, or the FunctionalMaps of a sliced slot.
Slot = tuple[tuple[tuple[str, str], ...], "Callable[[dict], Iterable[None]] | FunctionalMaps"]

_ENV_TABLE = {"concepts": "cons", "roles": "rsucc", "nominals": "noms"}


def symbol_slot(kind: str, name: str, values: Callable[[dict], Iterable]) -> Slot:
    """The slot binding one symbol to each of values(env) in turn."""

    def assign(env: dict) -> Iterator[None]:
        table = env[_ENV_TABLE[kind]]
        for value in values(env):
            table[name] = value
            yield

    return ((kind, name),), assign


def subsets(n: int, avoid: int = 0) -> list[int]:
    """The element masks over [0,n) that avoid the mask `avoid`, ascending."""
    return [m for m in range(1 << n) if not m & avoid]


def relations(n: int, avoid: int = 0) -> Iterator[tuple[int, ...]]:
    """The relations over [0,n) that touch no element of `avoid`: one row
    of `subsets(n, avoid)` per element, empty for an avoided one, in
    `product` order (the last row varies fastest)."""
    rows = subsets(n, avoid)
    return product(*[(0,) if avoid >> u & 1 else rows for u in range(n)])


@dataclass(frozen=True)
class FunctionalMaps:
    """The values of a sliced slot: every map of functional role `role`,
    in functional_selectors' order."""
    role: str


def functional_slot(role: str) -> Slot:
    """The bit-sliced slot binding functional role `role` to each of its
    maps in turn (see StagedSearch)."""
    return (("roles", role),), FunctionalMaps(role)


class StagedSearch:
    """Depth-first enumeration over a fixed order of slots.

    The env holds bitmask interpretations: `n`, `full`, `noms` (name ->
    element), `cons` (name -> mask) and `rsucc` (name -> successor mask per
    element).  All conjuncts of the formulas are compiled here into one
    Kernel over the slot index of each symbol (a symbol no slot binds
    counts as slot 0), and each conjunct is checked right after the slot of
    its level.  Each value a slot writes clears that slot's kernel store,
    and `search` clears every store first, so no value outlives the env it
    was computed from; one engine runs one search at a time.  `search`
    yields the env once per full assignment that passes every check.

    A sliced slot (`functional_slot`) and the sliced slots after it, up
    to the first with checks, are one stage when the product of their maps
    fits in MAX_SLICE_BITS; otherwise the slot is a stage of its own.  A
    stage checks its last slot's conjuncts for every tuple of the run's
    maps at once (`Kernel.sliced`, compiled on first entry), in the nested
    order of per-role stages.  It walks the pass mask in chunks of (n+1)^n
    bits, one per tuple of the outer maps, writing those once per chunk
    and the last role's map once per set bit, lowest first.  It counts the
    tuples that failed as it passes them, so a search that stops early
    counts exactly what per-value stages would."""

    def __init__(self, slots: Iterable[Slot], formulas: Iterable[Formula],
                 stats: SearchStats | None = None) -> None:
        slots = list(slots)
        self.stats = stats if stats is not None else SearchStats()
        kernel = Kernel({sym: i for i, (syms, _) in enumerate(slots) for sym in syms})
        roots = [kernel.root(kernel.formula(cj)) for phi in formulas for cj in conjuncts(phi)]
        fns = kernel.compile()
        checks: list[list[int]] = [[] for _ in slots]
        for nid in roots:
            checks[kernel.levels[nid]].append(nid)
        self.stores = list(kernel.stores.values())
        self.stages = stages = []
        for i, ((_, values), nids) in enumerate(zip(slots, checks)):
            clear = kernel.stores[i].clear if i in kernel.stores else None
            if not isinstance(values, FunctionalMaps):
                stages.append((values, tuple(fns[nid] for nid in nids), clear))
                continue
            # a sliced slot's tests: the last slot of its run
            end = i
            while not checks[end] and end + 1 < len(slots) \
                    and isinstance(slots[end + 1][1], FunctionalMaps):
                end += 1
            stages.append((values, end, clear))
        self.plans: dict[tuple[int, int], Callable[[dict], int]] = {}
        self._compile = lambda first, end: kernel.sliced(
            checks[end], tuple(stage[0].role for stage in stages[first:end + 1]), fns)

    def search(self, env: dict) -> Iterator[dict]:
        for store in self.stores:
            store.clear()
        stages, stats, last = self.stages, self.stats, len(self.stages)
        n, table = env["n"], env["rsucc"]
        # per sliced slot: its stage at this universe size (see sliced)
        runs: dict[int, tuple] = {}

        def rec(i: int) -> Iterator[dict]:
            if i == last:
                yield env
                return
            values, tests, clear = stages[i]
            if type(values) is FunctionalMaps:
                yield from sliced(i)
                return
            for _ in values(env):
                if clear is not None:
                    clear()
                for check in tests:
                    if not check(env):
                        stats.pruned += 1
                        break
                else:
                    yield from rec(i + 1)

        def sliced(first: int) -> Iterator[dict]:
            if first not in runs:
                size, end = (n + 1) ** n, stages[first][1]
                total = size ** (end - first + 1)
                if total > MAX_SLICE_BITS:
                    end, total = first, size
                if (first, end) not in self.plans:
                    self.plans[first, end] = self._compile(first, end)
                runs[first] = (self.plans[first, end], end, total, size, (1 << size) - 1,
                               stages[first:end], stages[end][0].role, stages[end][2])
            passing, end, total, size, ones, outer, role, clear = runs[first]
            rest, prev = passing(env), -1
            while rest:
                low = (rest & -rest).bit_length() - 1
                start = low - low % size  # the chunk of the lowest pass
                chunk = rest >> start & ones
                rest ^= chunk << start
                index = start // size
                for maps, _, outer_clear in reversed(outer):
                    index, digit = divmod(index, size)
                    table[maps.role] = _decode_map(digit, n)
                    if outer_clear is not None:
                        outer_clear()
                while chunk:
                    low = chunk & -chunk
                    chunk ^= low
                    k = start + low.bit_length() - 1
                    stats.pruned += k - prev - 1
                    prev = k
                    table[role] = _decode_map(k - start, n)
                    if clear is not None:
                        clear()
                    yield from rec(end + 1)
            stats.pruned += total - prev - 1

        try:
            yield from rec(0)
        finally:  # rec and sliced refer to each other: free them now
            rec = sliced = None


# ---------------------------------------------------------------------------
# The model finder


def _canonical_placements(m: int, n: int) -> Iterator[tuple[int, ...]]:
    """Assignments of m nominals to [0,n) where each value is at most one
    past the maximum used so far (canonical under element renaming)."""
    if m == 0:
        yield ()
        return

    def rec(prefix: tuple[int, ...], used_max: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == m:
            yield prefix
            return
        for v in range(min(used_max + 1, n - 1) + 1):
            yield from rec(prefix + (v,), max(used_max, v))

    yield from rec((), -1)


def find_model(target: Formula | ReachSpec, vocab: Vocabulary,
               min_size: int = 1, max_size: int = 6, *,
               ceiling: int | None = None,
               extra_pred: Callable[[FiniteStructure], bool] | None = None,
               role_canon: Mapping[str, str] | None = None,
               stats: SearchStats | None = None) -> FiniteStructure | None:
    """First model of the target over universes of size min..max, or None.

    Deterministic order: universe size ascending, canonical nominal
    placements lexicographic, concept colorings lexicographic (a color per
    element, bit i for the i-th concept by name; nondecreasing over the
    unplaced elements, then any over the placed ones), functional roles as
    partial functions, remaining roles over `relations`, each kind of role
    in name order.
    A ReachSpec is its associated formula and its `reach_formula`s
    unrolled max_size - 1 steps, exact at every size searched.
    Symbols the target does not mention are pinned (nominals to element 0,
    concepts and roles to empty).  role_canon maps a role name to a
    nominal: that role is interpreted as the total relation into that
    nominal instead of being enumerated (sound and complete for the
    boolean-closure auxiliary roles, which occur only under successor
    tests against their own nominals)."""
    ceiling = search_ceiling() if ceiling is None else ceiling
    if max_size > ceiling:
        raise CeilingExceededError(f"max universe {max_size} exceeds ceiling {ceiling}")
    stats = stats if stats is not None else SearchStats()
    role_canon = dict(role_canon or {})

    if isinstance(target, ReachSpec):
        # every reach assertion unrolled far enough for the largest universe
        steps = max(max_size - 1, 0)
        phi = conj([assoc_formula(target)] + [reach_formula(a, steps) for a in target.re])
    else:
        phi = target

    syms = formula_symbols(phi)
    syms["nominals"].update(role_canon.values())

    missing = syms["nominals"] - vocab.nominals
    if missing:
        raise ReachDLError(f"unknown nominals: {sorted(missing)}")
    unknown_roles = syms["roles"] - vocab.roles
    if unknown_roles:
        raise ReachDLError(f"unknown roles: {sorted(unknown_roles)}")
    nominals = sorted(syms["nominals"])
    concepts = sorted(syms["concepts"] & vocab.concepts)
    froles = sorted((syms["roles"] & vocab.functional) - set(role_canon))
    proles = sorted((syms["roles"] & vocab.roles) - vocab.functional - set(role_canon))
    pinned_noms = sorted(vocab.nominals - set(nominals))
    pinned_cons = sorted(vocab.concepts - set(concepts))
    pinned_roles = sorted(vocab.roles - set(froles) - set(proles) - set(role_canon))

    ncolors = 1 << len(concepts)

    def placements(env: dict) -> Iterator[None]:
        n = env["n"]
        for placement in _canonical_placements(len(nominals), n):
            noms = env["noms"] = dict(zip(nominals, placement))
            for pn in pinned_noms:
                noms[pn] = 0
            for rname, nom in role_canon.items():
                env["rsucc"][rname] = [1 << noms[nom]] * n
            yield

    def colorings(env: dict) -> Iterator[None]:
        cons, placed = env["cons"], sorted(set(env["noms"].values()))
        free = [u for u in range(env["n"]) if u not in placed]
        bits = [1 << u for u in free + placed]
        for low in combinations_with_replacement(range(ncolors), len(free)):
            for high in product(range(ncolors), repeat=len(placed)):
                colors = low + high
                for ci, cname in enumerate(concepts):
                    cons[cname] = sum(b for b, c in zip(bits, colors) if c >> ci & 1)
                yield

    slots: list[Slot] = [
        (tuple(("nominals", o) for o in nominals)
         + tuple(("roles", r) for r in role_canon), placements),
        (tuple(("concepts", c) for c in concepts), colorings)]
    slots += [functional_slot(r) for r in froles]
    slots += [symbol_slot("roles", r, lambda env: relations(env["n"])) for r in proles]
    engine = StagedSearch(slots, [phi], stats)

    for n in range(max(min_size, 1 if vocab.nominals else 0), max_size + 1):
        env = {"n": n, "full": (1 << n) - 1, "noms": {},
               "cons": dict.fromkeys(pinned_cons, 0),
               "rsucc": {r: [0] * n for r in pinned_roles}}
        for _ in engine.search(env):
            stats.candidates += 1
            m = env_structure(env, vocab.concepts, vocab.roles)
            if extra_pred is None or extra_pred(m):
                return m
    return None


def find_semi_useful_model(spec: ReachSpec, vocab: Vocabulary,
                           min_size: int = 1, max_size: int = 6, *,
                           ceiling: int | None = None,
                           stats: SearchStats | None = None) -> FiniteStructure | None:
    """First semi-connected structure with useful labelings for every
    assertion: the bounded realization of the ORD-output satisfiability
    question, one repair away from a genuine model."""
    phi = semi_formula(spec)
    concepts = closure_concepts(phi)
    return find_model(phi, vocab, min_size, max_size, ceiling=ceiling, stats=stats,
                      extra_pred=lambda m: has_useful_labelings(m, spec, concepts))


def check_model(m: FiniteStructure, target: Formula | ReachSpec) -> bool:
    """Dispatch to formula evaluation or full spec checking."""
    if isinstance(target, ReachSpec):
        return check_spec(m, target)
    return eval_formula(m, target)


def naive_find_model(target: Formula | ReachSpec, vocab: Vocabulary,
                     size: int) -> FiniteStructure | None:
    """Unpruned enumerator over one universe size, used as the completeness
    oracle for find_model: all nominal placements, all concept subsets, all
    role relations filtered for functionality."""
    universe = tuple(range(size))
    names_n = sorted(vocab.nominals)
    names_c = sorted(vocab.concepts)
    names_r = sorted(vocab.roles)
    all_pairs = [(a, b) for a in universe for b in universe]
    for nom_vals in product(universe, repeat=len(names_n)):
        noms = dict(zip(names_n, nom_vals))
        for con_bits in product(range(1 << size), repeat=len(names_c)):
            cons = {c: frozenset(u for u in universe if con_bits[i] >> u & 1)
                    for i, c in enumerate(names_c)}
            for role_bits in product(range(1 << (size * size)), repeat=len(names_r)):
                roles = {}
                ok = True
                for i, r in enumerate(names_r):
                    pairs = frozenset(p for j, p in enumerate(all_pairs)
                                      if role_bits[i] >> j & 1)
                    if r in vocab.functional:
                        firsts = [a for a, _ in pairs]
                        if len(firsts) != len(set(firsts)):
                            ok = False
                            break
                    roles[r] = pairs
                if not ok:
                    continue
                m = FiniteStructure(universe, cons, roles, noms)
                if check_model(m, target):
                    return m
    return None
