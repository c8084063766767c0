"""Model tools: the successor-swap operation, useful labelings, graph
values, the repair loop, and the bounded brute-force model finder.

The model finder enumerates interpretations over small universes with
symmetry pruning (canonical nominal placement, sorted colorings of the
unpinned elements) and stage-wise constraint checking: conjuncts are
evaluated as soon as all their symbols are assigned, over bitmask
interpretations compiled once per universe size.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping

from . import graphs
from .reach import (ReachSpec, check_semi_connected, check_spec,
                    graph_sources, reach_graph)
from .reduction import semi_formula
from .structures import FiniteStructure, eval_formula, types_of_all
from .syntax import (And, AtMost, Atomic, Bot, Concept, Eq, Exists, FAnd, FNot,
                     FOr, Formula, Incl, Nominal, Not, Or, ReachDLError, Role,
                     TOP, Top, Vocabulary, closure_concepts, conjuncts,
                     formula_symbols, map_concept, map_sides)


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
# Compiled bitmask evaluation


def _compile_role(r: Role) -> Callable[[dict], list[int]]:
    name = r.name
    updates = r.updates
    inverted = r.inverted

    def get(env: dict) -> list[int]:
        succ = env["rsucc"][name]
        if updates:
            succ = list(succ)
            for p in updates:
                succ[env["noms"][p.source]] = 1 << env["noms"][p.target]
        if inverted:
            n = env["n"]
            pred = [0] * n
            for u in range(n):
                m = succ[u]
                while m:
                    b = m & -m
                    pred[b.bit_length() - 1] |= 1 << u
                    m ^= b
            return pred
        return succ

    return get


def compile_concept(c: Concept) -> Callable[[dict], int]:
    if isinstance(c, Atomic):
        name = c.name
        return lambda env: env["cons"].get(name, 0)
    if isinstance(c, Nominal):
        name = c.name
        return lambda env: 1 << env["noms"][name]
    if isinstance(c, Top):
        return lambda env: env["full"]
    if isinstance(c, Bot):
        return lambda env: 0
    if isinstance(c, And):
        lf, rf = compile_concept(c.left), compile_concept(c.right)
        return lambda env: lf(env) & rf(env)
    if isinstance(c, Or):
        lf, rf = compile_concept(c.left), compile_concept(c.right)
        return lambda env: lf(env) | rf(env)
    if isinstance(c, Not):
        f = compile_concept(c.inner)
        return lambda env: env["full"] & ~f(env)
    if isinstance(c, Exists):
        rolef, innerf = _compile_role(c.role), compile_concept(c.inner)

        def ex(env: dict) -> int:
            succ = rolef(env)
            cm = innerf(env)
            out = 0
            for u in range(env["n"]):
                if succ[u] & cm:
                    out |= 1 << u
            return out

        return ex
    if isinstance(c, AtMost):
        rolef, innerf = _compile_role(c.role), compile_concept(c.inner)
        bound = c.bound

        def atm(env: dict) -> int:
            succ = rolef(env)
            cm = innerf(env)
            out = 0
            for u in range(env["n"]):
                if (succ[u] & cm).bit_count() <= bound:
                    out |= 1 << u
            return out

        return atm
    raise TypeError(f"not a concept: {c!r}")  # pragma: no cover


def compile_formula(phi: Formula) -> Callable[[dict], bool]:
    if isinstance(phi, Incl):
        lf, rf = compile_concept(phi.left), compile_concept(phi.right)
        return lambda env: not (lf(env) & (env["full"] & ~rf(env)))
    if isinstance(phi, Eq):
        lf, rf = compile_concept(phi.left), compile_concept(phi.right)
        return lambda env: lf(env) == rf(env)
    if isinstance(phi, FAnd):
        lf, rf = compile_formula(phi.left), compile_formula(phi.right)
        return lambda env: lf(env) and rf(env)
    if isinstance(phi, FOr):
        lf, rf = compile_formula(phi.left), compile_formula(phi.right)
        return lambda env: lf(env) or rf(env)
    if isinstance(phi, FNot):
        f = compile_formula(phi.inner)
        return lambda env: not f(env)
    raise TypeError(f"not a formula: {phi!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# The staged model finder


@dataclass
class SearchStats:
    candidates: int = 0
    pruned: int = 0


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


def _colorings(free: list[int], pinned: list[int], ncolors: int) -> Iterator[dict[int, int]]:
    """Color maps element -> color id; colors over the free elements are
    nondecreasing (canonical under permuting free elements)."""

    def rec_free(i: int, low: int, acc: dict[int, int]) -> Iterator[dict[int, int]]:
        if i == len(free):
            if pinned:
                for combo in product(range(ncolors), repeat=len(pinned)):
                    out = dict(acc)
                    out.update(zip(pinned, combo))
                    yield out
            else:
                yield dict(acc)
            return
        for color in range(low, ncolors):
            acc[free[i]] = color
            yield from rec_free(i + 1, color, acc)
        del acc[free[i]]

    yield from rec_free(0, 0, {})


def _simplify_functional(phi: Formula, functional: frozenset[str]) -> Formula:
    """Search-time rewriting sound over functional interpretations: a
    qualified at-most with bound >= 1 over a plain functional role holds of
    every element (there is at most one successor in total).  Dropping the
    role from such conjuncts moves them to earlier pruning stages."""

    def simp(c: Concept) -> Concept:
        if (isinstance(c, AtMost) and c.bound >= 1 and not c.role.inverted
                and not c.role.updates and c.role.name in functional):
            return TOP
        return c

    return map_sides(phi, lambda c: map_concept(c, simp))


def find_model(target: Formula | ReachSpec, vocab: Vocabulary,
               min_size: int = 1, max_size: int = 6, *,
               ceiling: int | None = None,
               extra_pred: Callable[[FiniteStructure], bool] | None = None,
               role_canon: Mapping[str, str] | None = None,
               stats: SearchStats | None = None) -> FiniteStructure | None:
    """First model of the target over universes of size min..max, or None.

    Deterministic order: universe size ascending, canonical nominal
    placements lexicographic, concept colorings lexicographic, functional
    roles as partial functions, remaining roles as adjacency masks.
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

    spec: ReachSpec | None = None
    if isinstance(target, ReachSpec):
        spec = target
        # the semi-connectedness clauses are implied by full connectivity,
        # so they are sound formula-level pruning on top of assoc
        phi = semi_formula(spec)
    else:
        phi = target
    phi = _simplify_functional(phi, vocab.functional)

    syms = formula_symbols(phi)
    if spec is not None:
        for a in spec.re:
            if isinstance(a.source, Nominal):
                syms["nominals"].add(a.source.name)
            else:
                syms["concepts"].add(a.source.name)
            syms["concepts"].add(a.target)
            syms["roles"].update(a.roles)
        for d in spec.di:
            syms["concepts"].add(d.left)
            syms["concepts"].add(d.right)
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

    # conjunct staging: 0 after nominals, 1 after concepts, 2+i after role i;
    # conjuncts supported by nominals and a single role alone filter that
    # role's maps once per placement instead of once per coloring.
    # Roles with more single-role conjuncts are enumerated first so their
    # pruning happens before the other roles multiply the space.
    def _constraint_count(rname: str) -> int:
        count = 0
        for cj in conjuncts(phi):
            mentioned = formula_symbols(cj)["roles"] & (set(froles) | set(proles))
            if mentioned == {rname}:
                count += 1
        return count

    froles.sort(key=lambda r: (-_constraint_count(r), r))
    proles.sort(key=lambda r: (-_constraint_count(r), r))
    enumerated_roles = froles + proles
    stage_of_role = {rname: 2 + i for i, rname in enumerate(enumerated_roles)}
    staged: dict[int, list[Callable[[dict], bool]]] = {}
    local_role_checks: dict[str, list[Callable[[dict], bool]]] = {r: [] for r in froles}
    for cj in conjuncts(phi):
        cs = formula_symbols(cj)
        enum_syms = [r for r in cs["roles"] if r in stage_of_role]
        if (not cs["concepts"] and len(enum_syms) == 1 and enum_syms[0] in froles):
            local_role_checks[enum_syms[0]].append(compile_formula(cj))
            continue
        stage = 0
        if cs["concepts"]:
            stage = 1
        for rname in cs["roles"]:
            stage = max(stage, stage_of_role.get(rname, 0))
        staged.setdefault(stage, []).append(compile_formula(cj))

    # mask-level connectivity per assertion, run on full candidates
    conn_checks: list[Callable[[dict], bool]] = []
    if spec is not None:
        for a in spec.re:
            srcf = compile_concept(a.source)
            tgt_name = a.target
            rnames = sorted(a.roles)

            def conn(env: dict, srcf=srcf, tgt_name=tgt_name, rnames=rnames) -> bool:
                tgt = env["cons"].get(tgt_name, 0)
                reach = srcf(env) & tgt
                frontier = reach
                while frontier:
                    step = 0
                    rest = frontier
                    while rest:
                        b = rest & -rest
                        u = b.bit_length() - 1
                        rest ^= b
                        for rn in rnames:
                            step |= env["rsucc"][rn][u]
                    frontier = step & tgt & ~reach
                    reach |= frontier
                return reach == tgt

            conn_checks.append(conn)

    def build(env: dict, n: int) -> FiniteStructure:
        cons = {name: _mask_to_set(env["cons"].get(name, 0)) for name in vocab.concepts}
        roles = {}
        for rname in vocab.roles:
            succ = env["rsucc"][rname]
            roles[rname] = frozenset((u, b.bit_length() - 1)
                                     for u in range(n)
                                     for b in _mask_bits(succ[u]))
        return FiniteStructure(tuple(range(n)), cons, roles, dict(env["noms"]))

    def checks_pass(env: dict, stage: int) -> bool:
        for check in staged.get(stage, ()):
            if not check(env):
                stats.pruned += 1
                return False
        return True

    sizes = range(max(min_size, 1 if vocab.nominals else 0), max_size + 1)
    for n in sizes:
        full = (1 << n) - 1
        env: dict = {"n": n, "full": full, "noms": {}, "cons": {}, "rsucc": {}}
        for rname in pinned_roles:
            env["rsucc"][rname] = [0] * n
        for cname in pinned_cons:
            env["cons"][cname] = 0
        all_frole_maps = [tuple(0 if t < 0 else 1 << t for t in fmap)
                          for fmap in product(range(-1, n), repeat=n)]
        ncolors = 1 << len(concepts)

        def role_stages(stage: int, maps: dict[str, list]) -> Iterator[None]:
            # entering stage s means symbols of stages < s+1 are assigned;
            # role i is assigned in the body of stage i+1 and its conjuncts
            # (stage value i+2) are checked on entering stage i+2
            if not checks_pass(env, stage):
                return
            i = stage - 1
            if i < len(enumerated_roles):
                rname = enumerated_roles[i]
                if rname in froles:
                    for fmap in maps[rname]:
                        env["rsucc"][rname] = fmap
                        yield from role_stages(stage + 1, maps)
                else:
                    for rows in product(range(1 << n), repeat=n):
                        env["rsucc"][rname] = rows
                        yield from role_stages(stage + 1, maps)
            else:
                stats.candidates += 1
                if all(conn(env) for conn in conn_checks):
                    yield None

        def candidates() -> Iterator[FiniteStructure]:
            for placement in _canonical_placements(len(nominals), n):
                env["noms"] = dict(zip(nominals, placement))
                for pn in pinned_noms:
                    env["noms"][pn] = 0
                for rname, nom in role_canon.items():
                    env["rsucc"][rname] = [1 << env["noms"][nom]] * n
                if not checks_pass(env, 0):
                    continue
                maps: dict[str, list] = {}
                dead = False
                for rname in froles:
                    if local_role_checks[rname]:
                        kept = []
                        for fmap in all_frole_maps:
                            env["rsucc"][rname] = fmap
                            if all(check(env) for check in local_role_checks[rname]):
                                kept.append(fmap)
                        maps[rname] = kept
                        if not kept:
                            dead = True
                            break
                    else:
                        maps[rname] = all_frole_maps
                if dead:
                    continue
                placed = sorted(set(env["noms"].values()))
                free = [u for u in range(n) if u not in placed]
                for coloring in _colorings(free, placed, ncolors):
                    for ci, cname in enumerate(concepts):
                        env["cons"][cname] = _color_mask(coloring, ci, n)
                    yield from (build(env, n) for _ in role_stages(1, maps))

        for m in candidates():
            if extra_pred is not None and not extra_pred(m):
                continue
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


def _mask_bits(mask: int):
    while mask:
        b = mask & -mask
        yield b
        mask ^= b


def _mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(b.bit_length() - 1 for b in _mask_bits(mask))


def _color_mask(coloring: Mapping[int, int], bit: int, n: int) -> int:
    out = 0
    for u in range(n):
        if coloring[u] >> bit & 1:
            out |= 1 << u
    return out


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
