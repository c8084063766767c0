"""Verification conditions per program edge, bounded validity checking,
bounded inductiveness, and the reachable-set soundness cross-check.

Bounded checking under-approximates validity: a verdict is always
"valid up to the bound", never "valid".  Counterexamples are genuine: a
candidate found by the search is kept only if its label assignment is
realized by an actual run and its post-state relation copies are
consistent with that run's pool, and it is re-validated against the
formula and the memory axioms before being reported."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .memory import MemorySearch, MemoryStructure
from .programs import (ABORT, Program, Stmt, labels_of, reach_sets,
                       run_all, run_labeled, touched_symbols)
from .structures import FiniteStructure, eval_formula
from .syntax import (FAnd, FNot, Formula, ReachDLError, TRUE, conj,
                     formula_symbols)
from .wp import (LABEL_PREFIX, eliminate_updates, ext_name, label_nominal,
                 theta_full)


class MissingAnnotationError(ReachDLError):
    pass


@dataclass(frozen=True)
class VCEntry:
    edge: tuple[str, str]
    formula: Formula
    verdict: str  # "valid-up-to-bound" | "counterexample" | "bound-exhausted"
    bound: int
    counterexample: FiniteStructure | None = None
    candidates: int = 0


def _annotation(prog: Program, node: str, which: str) -> Formula:
    table = prog.shp if which == "shp" else prog.cnt
    if node not in table:
        raise MissingAnnotationError(f"node {node} has no {which} annotation")
    return table[node]


def _negated_vc_parts(prog: Program, edge: tuple[str, str]) -> tuple[Formula, ...]:
    """shp(tail), cnt(tail) and Theta(shp(head) /\\ not cnt(head)) with
    update roles eliminated: the conjuncts the VC negates."""
    tail, head = edge
    if edge not in prog.code:
        raise ReachDLError(f"not an edge: {edge}")
    post = FAnd(_annotation(prog, head, "shp"), FNot(_annotation(prog, head, "cnt")))
    res = theta_full(prog.code[edge], post, prog.heap)
    inner = eliminate_updates(res.formula)
    return (_annotation(prog, tail, "shp"), _annotation(prog, tail, "cnt"), inner)


def vc_formula(prog: Program, edge: tuple[str, str]) -> Formula:
    """not [ shp(tail) /\\ cnt(tail) /\\ Theta(shp(head) /\\ not cnt(head)) ],
    with update roles eliminated from the transformer output."""
    return FNot(conj(_negated_vc_parts(prog, edge)))


def check_vc(prog: Program, edge: tuple[str, str], bound: int,
             min_pool: int = 1) -> VCEntry:
    """Search for a memory structure with at most `bound` address cells
    (plus extension symbols) satisfying the negation of the VC."""
    parts = _negated_vc_parts(prog, edge)
    formula = FNot(conj(parts))
    if bound < 1:
        return VCEntry(edge, formula, "bound-exhausted", bound)
    heap = prog.heap
    syms = {"concepts": set(), "roles": set(), "nominals": set()}
    for p in parts:
        s = formula_symbols(p)
        for k in syms:
            syms[k] |= s[k]
    ext_concepts = tuple(ext_name(c) for c in heap.data_concepts
                         if ext_name(c) in syms["concepts"])
    labels = tuple(sorted(n for n in syms["nominals"] if n.startswith(LABEL_PREFIX)))
    code = prog.code[edge]
    candidates = 0
    for n_addr in range(1, bound + 1):
        search = MemorySearch(heap, n_addr, parts,
                              extra_nominals=labels, extra_concepts=ext_concepts)
        for cand in search:
            candidates += 1
            if len(cand.pool()) < min_pool:
                continue
            if not _realizable(cand, code, heap, ext_concepts):
                continue
            if not all(eval_formula(cand.fs, p) for p in parts):  # re-validate
                raise ReachDLError(f"edge {edge}: search returned a structure "
                                   "that does not falsify the VC")
            MemoryStructure(heap, _strip_extras(cand.fs, ext_concepts, labels)).check(0)
            return VCEntry(edge, formula, "counterexample", bound, cand.fs, candidates)
    return VCEntry(edge, formula, "valid-up-to-bound", bound, None, candidates)


def _strip_extras(fs: FiniteStructure, ext_concepts: Iterable[str],
                  labels: Iterable[str]) -> FiniteStructure:
    ext_concepts, labels = set(ext_concepts), set(labels)
    cons = {k: v for k, v in fs.concepts.items() if k not in ext_concepts}
    noms = {k: v for k, v in fs.nominals.items() if k not in labels}
    return FiniteStructure(fs.universe, cons, fs.roles, noms)


def _realizable(cand: MemoryStructure, code: Stmt, heap, ext_concepts) -> bool:
    """The label assignment must be realized by a run, and the extension
    relations must respect axiom 9 against that run's remaining pool."""
    d = {}
    for lab in labels_of(code):
        name = label_nominal(lab)
        if name in cand.fs.nominals:
            d[lab] = cand.fs.nominals[name]
    m2 = run_labeled(cand, code, d)
    if m2 is ABORT:
        return False
    for name in ext_concepts:
        if cand.fs.concept_ext(name) & m2.pool():
            return False
    return True


def check_all_vcs(prog: Program, bound: int, jobs: int = 1) -> list[VCEntry]:
    edges = sorted(prog.edges)
    if jobs > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = [pool.submit(check_vc, prog, e, bound) for e in edges]
                return [f.result() for f in futures]
        except (OSError, ImportError):  # pragma: no cover - platform dependent
            pass
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
    (the step relation allows any post-state values outside the pool)."""
    from itertools import product

    nonpool = sorted(set(m2.universe()) - m2.pool())
    cons_pools = [[frozenset(c) for c in _subsets(nonpool)] for _ in rem_concepts]
    role_pools = [[frozenset(p) for p in _subsets([(a, b) for a in nonpool for b in nonpool])]
                  for _ in rem_roles]
    for cvals in product(*cons_pools) if rem_concepts else [()]:
        for rvals in product(*role_pools) if rem_roles else [()]:
            fs = m2.fs
            for name, v in zip(rem_concepts, cvals):
                fs = fs.with_concept(name, v)
            for name, v in zip(rem_roles, rvals):
                fs = fs.with_role(name, v)
            yield m2.with_fs(fs)


def _subsets(items):
    n = len(items)
    for bits in range(1 << n):
        yield [items[i] for i in range(n) if bits >> i & 1]


def check_inductive(prog: Program, init: Iterable[MemoryStructure], bound: int,
                    min_pool: int = 1) -> tuple[bool, InductiveWitness | None]:
    """The definition directly, bounded: every initial structure satisfies
    the initial annotations, and for every edge, every annotated structure
    with at most `bound` address cells steps only into structures
    satisfying the head annotations (over all allocation choices and all
    post-values of the unconstrained relations)."""
    shp0, cnt0 = _annotations(prog, prog.initial)
    for m in init:
        if not (eval_formula(m.fs, shp0) and eval_formula(m.fs, cnt0)):
            return False, InductiveWitness(None, m.fs, None)
    heap = prog.heap
    for edge in sorted(prog.edges):
        tail, head = edge
        t_shp, t_cnt = _annotations(prog, tail)
        h_shp, h_cnt = _annotations(prog, head)
        head_syms = formula_symbols(FAnd(h_shp, h_cnt))
        rem_concepts = [c for c in heap.data_concepts if c in head_syms["concepts"]]
        rem_roles = [r for r in heap.data_roles if r in head_syms["roles"]]
        code = prog.code[edge]
        variables, fields = touched_symbols(code)
        for n_addr in range(1, bound + 1):
            search = MemorySearch(heap, n_addr, (t_shp, t_cnt),
                                  need_roles=tuple(sorted(fields)),
                                  need_nominals=tuple(sorted(variables)))
            for m1 in search:
                if len(m1.pool()) < min_pool:
                    continue
                for m2 in run_all(m1, code):
                    if m2 is ABORT:
                        continue
                    for m2v in _rem_variants(m2, rem_concepts, rem_roles):
                        if not (eval_formula(m2v.fs, h_shp) and eval_formula(m2v.fs, h_cnt)):
                            return False, InductiveWitness(edge, m1.fs, m2v.fs)
    return True, None


def check_reach_soundness(prog: Program, init: Iterable[MemoryStructure],
                          depth: int, cap: int = 20000) -> bool:
    """The executable shadow of the soundness theorem: every structure
    reached within `depth` steps satisfies the content annotation of its
    node."""
    reached = reach_sets(prog, init, depth, cap=cap, nondet=True)
    for node in sorted(prog.nodes):
        cnt = prog.cnt.get(node, TRUE)
        for m in reached[node]:
            if not eval_formula(m.fs, cnt):
                return False
    return True
