"""Verification conditions per program edge, bounded validity checking,
bounded inductiveness, and the reachable-set soundness cross-check.

Bounded checking under-approximates validity: a verdict is always
"valid up to the bound", never "valid".  The search keeps update roles in
place.  Counterexamples are genuine: a candidate is kept only if a run
realizes its label assignment and its post-state relation copies fit that
run's pool, and it is re-validated against the update-free VC formula
and the memory axioms before being reported."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable

from .memory import HeapVocabulary, MemorySearch, MemoryStructure
from .models import (CeilingExceededError, formula_plan, relations, search_ceiling,
                     subsets)
from .programs import (ABORT, Program, Stmt, labels_of, reach_sets,
                       run_labeled, run_representatives, touched_symbols)
from .structures import FiniteStructure, eval_formula
from .syntax import (FAnd, FNot, Formula, ReachDLError, TRUE, conj,
                     formula_symbols)
from .wp import eliminate_updates, label_nominal, theta_full


class MissingAnnotationError(ReachDLError):
    pass


@dataclass(frozen=True)
class VCEntry:
    """One edge's verdict.  `negated` holds the conjuncts the VC negates,
    with update roles in place; `formula`, the update-free VC, is built
    from them on first read.  `candidates` counts the structures the search
    yielded (those with at least one pool cell), which represent the
    structures up to a permutation of the addresses (its partition sorted,
    `memory.MemorySearch`)."""

    edge: tuple[str, str]
    negated: tuple[Formula, ...]
    verdict: str  # "valid-up-to-bound" | "counterexample" | "bound-exhausted"
    bound: int
    counterexample: FiniteStructure | None = None
    candidates: int = 0

    @cached_property
    def formula(self) -> Formula:
        return _vc_of(self.negated)


def _annotation(prog: Program, node: str, which: str) -> Formula:
    table = prog.shp if which == "shp" else prog.cnt
    if node not in table:
        raise MissingAnnotationError(f"node {node} has no {which} annotation")
    return table[node]


def _negated_vc_parts(prog: Program, edge: tuple[str, str]) -> tuple[Formula, ...]:
    """shp(tail), cnt(tail) and Theta(shp(head) /\\ not cnt(head)), the
    conjuncts the VC negates, with the transformer's update roles in place."""
    tail, head = edge
    if edge not in prog.code:
        raise ReachDLError(f"not an edge: {edge}")
    post = FAnd(_annotation(prog, head, "shp"), FNot(_annotation(prog, head, "cnt")))
    res = theta_full(prog.code[edge], post, prog.heap)
    return (_annotation(prog, tail, "shp"), _annotation(prog, tail, "cnt"), res.formula)


def _vc_of(parts: tuple[Formula, ...]) -> Formula:
    return eliminate_updates(FNot(conj(parts)))


def vc_formula(prog: Program, edge: tuple[str, str]) -> Formula:
    """not [ shp(tail) /\\ cnt(tail) /\\ Theta(shp(head) /\\ not cnt(head)) ],
    with update roles eliminated from the transformer output."""
    return _vc_of(_negated_vc_parts(prog, edge))


def _check_ceiling(bound: int) -> None:
    """Raise CeilingExceededError when a search with `bound` address cells
    builds a universe, 3 + bound (null, T, F and the addresses), larger
    than models.search_ceiling().  Bound 0 builds none."""
    ceiling = search_ceiling()
    if bound >= 1 and 3 + bound > ceiling:
        raise CeilingExceededError(f"bound {bound} needs universe {3 + bound}, "
                                   f"which exceeds ceiling {ceiling}")


def check_vc(prog: Program, edge: tuple[str, str], bound: int) -> VCEntry:
    """Search for a memory structure with at most `bound` address cells,
    at least one of them in the pool, satisfying the negation of the VC,
    with the update roles in place and the labels and post-state copies it
    names bound by the search (`memory.MemorySearch`); a candidate counts
    only if a run realizes it (`_realizable`).  Re-validating a
    counterexample against the update-free VC checks the search's update
    rule against the eliminator; only a counterexample builds that VC here.
    A bound over the search ceiling raises CeilingExceededError first."""
    _check_ceiling(bound)
    parts = _negated_vc_parts(prog, edge)
    if bound < 1:
        return VCEntry(edge, parts, "bound-exhausted", bound)
    heap, code = prog.heap, prog.code[edge]
    candidates = 0
    for n_addr in range(1, bound + 1):
        for cand in MemorySearch(heap, n_addr, parts, min_pool=1):
            candidates += 1
            if not _realizable(cand, code):
                continue
            entry = VCEntry(edge, parts, "counterexample", bound, cand.fs, candidates)
            if eval_formula(cand.fs, entry.formula):  # re-validate: the VC must fail
                raise ReachDLError(f"edge {edge}: search returned a structure "
                                   "that does not falsify the VC")
            MemoryStructure(heap, _strip_extras(cand.fs, heap)).check(0)
            return entry
    return VCEntry(edge, parts, "valid-up-to-bound", bound, None, candidates)


def _strip_extras(fs: FiniteStructure, heap: HeapVocabulary) -> FiniteStructure:
    """fs without the symbols outside the heap (labels and copies)."""
    concepts, roles, nominals = heap.state_names
    return FiniteStructure(fs.universe,
                           {k: v for k, v in fs.concepts.items() if k in concepts},
                           {k: v for k, v in fs.roles.items() if k in roles},
                           {k: v for k, v in fs.nominals.items() if k in nominals})


def _realizable(cand: MemoryStructure, code: Stmt) -> bool:
    """The label assignment must be realized by a run, and the post-state
    copies (the concepts and roles outside the heap) must respect axiom 9
    against that run's remaining pool: no copy touches a pool cell."""
    d = {}
    for lab in labels_of(code):
        bit = cand.noms.get(label_nominal(lab))
        if bit is not None:
            d[lab] = cand.elements[bit]
    m2 = run_labeled(cand, code, d)
    if m2 is ABORT:
        return False
    pool = m2.cons["MemPool"]
    concepts, roles, _ = cand.heap.state_names
    return not any(mask & pool for name, mask in cand.cons.items() if name not in concepts) \
        and not any(rows[u] & pool or rows[u] and pool >> u & 1
                    for name, rows in cand.rsucc.items() if name not in roles
                    for u in range(len(rows)))


def check_all_vcs(prog: Program, bound: int, jobs: int = 1) -> list[VCEntry]:
    _check_ceiling(bound)  # before any worker starts
    edges = sorted(prog.edges)
    # under fork the pool starts all its workers at the first submit
    workers = min(jobs, len(edges))
    if workers > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(check_vc, prog, e, bound) for e in edges]
                return [f.result() for f in futures]
        except (OSError, ImportError) as err:
            warnings.warn(f"check_all_vcs: no process pool ({err!r}); checking serially",
                          stacklevel=2)
    return [check_vc(prog, e, bound) for e in edges]


# ---------------------------------------------------------------------------
# Inductiveness


@dataclass(frozen=True)
class InductiveWitness:
    edge: tuple[str, str] | None  # None: an initial structure fails
    before: FiniteStructure
    after: FiniteStructure | None


def _annotations(prog: Program, node: str) -> tuple[Formula, Formula]:
    return _annotation(prog, node, "shp"), _annotation(prog, node, "cnt")


def _rem_variants(m2: MemoryStructure, rem_concepts: list[str],
                  rem_roles: list[str]):
    """All axiom-compliant reinterpretations of the unconstrained relations
    (the step relation allows any post-state values outside the pool):
    each concept ranges over `models.subsets` and each role over
    `models.relations` of the cells outside the pool, in their orders, the
    last symbol varying fastest.  With nothing to vary, m2 itself."""
    if not rem_concepts and not rem_roles:
        yield m2
        return
    n, pool = len(m2.elements), m2.cons.get("MemPool", 0)
    rows = tuple(relations(n, pool)) if rem_roles else ()
    for cvals in product(subsets(n, pool), repeat=len(rem_concepts)):
        cons = {**m2.cons, **dict(zip(rem_concepts, cvals))} if rem_concepts else None
        for rvals in product(rows, repeat=len(rem_roles)):
            rsucc = {**m2.rsucc, **dict(zip(rem_roles, rvals))} if rem_roles else None
            yield m2._with(cons=cons, rsucc=rsucc)


def check_inductive(prog: Program, init: Iterable[MemoryStructure], bound: int,
                    min_pool: int = 1) -> tuple[bool, InductiveWitness | None]:
    """The definition directly, bounded: every initial structure satisfies
    the initial annotations, and for every edge, every annotated structure
    with at most `bound` address cells steps only into structures
    satisfying the head annotations (over all allocation choices and all
    post-values of the unconstrained relations).  The search skips
    pre-states with fewer than `min_pool` pool cells, binds the
    code-touched variables and fields no tail annotation names last (its
    `need`), and yields pre-states up to a permutation of the addresses
    (the step and the variants explore every choice, so a failing
    pre-state exists iff a yielded one fails); each edge's head annotation
    is compiled once (`models.formula_plan`).

    The post-states are those of `programs.run_representatives`, one or
    more per address-permutation class of run_all's outcomes.  No
    annotation names an address and the variants range over every
    post-value, so a post-state fails iff its permutations do; the first
    failing run of run_all allocates the least cell of its class at every
    `new` (else swapping that cell for the least one gives an earlier
    failing run), so the witness, and any PoolExhaustedError, are those of
    run_all.  A bound over the search ceiling raises CeilingExceededError
    before any check, as in check_vc."""
    _check_ceiling(bound)
    initial = FAnd(*_annotations(prog, prog.initial))
    for m in init:
        if not eval_formula(m.fs, initial):
            return False, InductiveWitness(None, m.fs, None)
    heap = prog.heap
    for edge in sorted(prog.edges):
        tail, head = edge
        t_shp, t_cnt = _annotations(prog, tail)
        h_shp, h_cnt = _annotations(prog, head)
        head_ann = FAnd(h_shp, h_cnt)
        holds = formula_plan(head_ann)
        head_syms = formula_symbols(head_ann)
        rem_concepts = [c for c in heap.data_concepts if c in head_syms["concepts"]]
        rem_roles = [r for r in heap.data_roles if r in head_syms["roles"]]
        code = prog.code[edge]
        variables, fields = touched_symbols(code)
        need = tuple(("nominals", v) for v in sorted(variables)) \
            + tuple(("roles", f) for f in sorted(fields))
        for n_addr in range(1, bound + 1):
            search = MemorySearch(heap, n_addr, (t_shp, t_cnt), need, min_pool)
            for m1 in search:
                for m2 in run_representatives(m1, code):
                    if m2 is ABORT:
                        continue
                    for m2v in _rem_variants(m2, rem_concepts, rem_roles):
                        if not holds(m2v):
                            return False, InductiveWitness(edge, m1.fs, m2v.fs)
    return True, None


def check_reach_soundness(prog: Program, init: Iterable[MemoryStructure],
                          depth: int, cap: int = 20000) -> bool:
    """The executable shadow of the soundness theorem: every structure
    reached within `depth` steps satisfies the content annotation of its
    node.  The states are `reach_sets`'s representatives; no annotation
    names an address, so the verdict is that of the full reachable sets.
    Each node's annotation is compiled once."""
    reached = reach_sets(prog, init, depth, cap=cap, nondet=True)
    for node in sorted(prog.nodes):
        holds = formula_plan(prog.cnt.get(node, TRUE))
        for m in reached[node]:
            if not holds(m):
                return False
    return True
