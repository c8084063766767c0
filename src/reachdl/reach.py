"""Reachability and disjointness assertions, compatibility, the associated
plain formula, the bounded reachability formula, and graph-based
satisfaction of full specs."""

from __future__ import annotations

from dataclasses import dataclass

from . import graphs
from .structures import FiniteStructure, eval_concept, eval_formula
from .syntax import (And, Atomic, BOT, Eq, Exists, FAnd, FNot, Formula, Incl,
                     Nominal, Not, Or, ReachDLError, TOP, TRUE, Vocabulary,
                     big_or, conj, exactly, inv, role)


class CompatibilityError(ReachDLError):
    pass


@dataclass(frozen=True)
class ReachAssertion:
    """<B> S <A>: every element of A is reachable from B inside A via the
    functional roles in S.  The target names an atomic concept; the source
    may be an atomic concept or a nominal (read as its singleton)."""

    source: Atomic | Nominal
    roles: frozenset[str]
    target: str
    index: int = 0  # 1-based position within the owning spec

    def __post_init__(self) -> None:
        if isinstance(self.source, str):
            object.__setattr__(self, "source", Atomic(self.source))
        object.__setattr__(self, "roles", frozenset(self.roles))
        if not self.roles:
            raise ReachDLError("reach assertion needs a nonempty role set")

    def same_assertion(self, other: "ReachAssertion") -> bool:
        return (self.source, self.roles, self.target) == (other.source, other.roles, other.target)


@dataclass(frozen=True)
class DisjAssertion:
    """Disj(A1,A2), order-insensitive."""

    left: str
    right: str

    def __post_init__(self) -> None:
        if self.right < self.left:
            left, right = self.right, self.left
            object.__setattr__(self, "left", left)
            object.__setattr__(self, "right", right)

    def formula(self) -> Formula:
        return Eq(And(Atomic(self.left), Atomic(self.right)), BOT)


def check_compatibility(re: tuple[ReachAssertion, ...],
                        di: frozenset[DisjAssertion]) -> tuple[bool, list[tuple[int, int]]]:
    """True iff every pair of assertions with overlapping role sets has the
    matching disjointness assertion; the violating 1-based pairs otherwise."""
    violations: list[tuple[int, int]] = []
    for i in range(len(re)):
        for j in range(i + 1, len(re)):
            if re[i].roles & re[j].roles:
                if DisjAssertion(re[i].target, re[j].target) not in di:
                    violations.append((i + 1, j + 1))
    return not violations, violations


@dataclass(frozen=True)
class ReachSpec:
    """Phi = base /\\ /\\RE /\\ DI.  Assertions are renumbered 1..h on
    construction; duplicates are rejected; RE and DI must be compatible."""

    base: Formula
    re: tuple[ReachAssertion, ...] = ()
    di: frozenset[DisjAssertion] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "di", frozenset(self.di))
        renumbered = tuple(
            ReachAssertion(a.source, a.roles, a.target, i + 1)
            for i, a in enumerate(self.re))
        object.__setattr__(self, "re", renumbered)
        for i in range(len(renumbered)):
            for j in range(i + 1, len(renumbered)):
                if renumbered[i].same_assertion(renumbered[j]):
                    raise ReachDLError("duplicate reach assertion")
        ok, violations = check_compatibility(self.re, self.di)
        if not ok:
            raise CompatibilityError(f"incompatible assertion pairs: {violations}")

    def validate(self, vocab: Vocabulary) -> None:
        for a in self.re:
            if isinstance(a.source, Atomic) and a.source.name not in vocab.concepts:
                raise ReachDLError(f"reach source {a.source.name!r} is not declared")
            if isinstance(a.source, Nominal) and a.source.name not in vocab.nominals:
                raise ReachDLError(f"reach source {a.source.name!r} is not declared")
            if a.target not in vocab.concepts:
                raise ReachDLError(
                    f"reach assertion target {a.target!r} is not an atomic concept")
            missing = a.roles - vocab.functional
            if missing:
                raise ReachDLError(f"reach assertion roles not functional: {sorted(missing)}")
        for d in self.di:
            for name in (d.left, d.right):
                if name not in vocab.concepts:
                    raise ReachDLError(f"disjointness endpoint {name!r} is not an atomic concept")

    def assertion(self, h: int) -> ReachAssertion:
        return self.re[h - 1]


def assoc_formula(spec: ReachSpec) -> Formula:
    """The plain formula: base /\\ CO(RE) /\\ DI, with one containment per
    reach assertion and the Disj formulas in sorted order."""
    parts: list[Formula] = [spec.base]
    parts.extend(Incl(a.source, Atomic(a.target)) for a in spec.re)
    parts.extend(d.formula() for d in sorted(spec.di, key=lambda d: (d.left, d.right)))
    return conj(parts)


def reach_formula(a: ReachAssertion, steps: int) -> Formula:
    """<B> S <A> unrolled: A <= R_steps, R_0 = B & A, R_(i+1) = R_0 | (A &
    (E s1^-.R_i | ... | E sk^-.R_i)), each R_i one object shared by the k
    existentials.  R_i stops growing after n-1 steps over n elements, so
    this is `assertion_connected` on universes of up to steps + 1."""
    target = Atomic(a.target)
    first = reached = And(a.source, target)
    for _ in range(steps):
        reached = Or(first, And(target, big_or(Exists(inv(s), reached)
                                               for s in sorted(a.roles))))
    return Incl(target, reached)


def reach_graph(m: FiniteStructure, a: ReachAssertion) -> dict[int, list[int]]:
    """The directed graph over A^M induced by the union of the S-roles,
    as a successor map."""
    verts = m.concept_ext(a.target)
    edges = []
    for s in sorted(a.roles):
        edges.extend((x, y) for x, y in m.role_ext(s) if x in verts and y in verts)
    return graphs.successors(sorted(verts), edges)


def graph_sources(m: FiniteStructure, a: ReachAssertion) -> set[int]:
    return set(eval_concept(m, a.source)) & set(m.concept_ext(a.target))


def assertion_connected(m: FiniteStructure, a: ReachAssertion) -> bool:
    """Every vertex of the induced graph reachable from a B-vertex (BFS)."""
    succ = reach_graph(m, a)
    return graphs.reachable_from(succ, sorted(graph_sources(m, a))) == set(succ)


def check_spec(m: FiniteStructure, spec: ReachSpec) -> bool:
    """M |= Phi: the associated formula holds and every reach graph is
    connected from its source set."""
    if not eval_formula(m, assoc_formula(spec)):
        return False
    return all(assertion_connected(m, a) for a in spec.re)


def assertion_semi_connected(m: FiniteStructure, a: ReachAssertion) -> bool:
    """Every vertex reachable from B or from a cycle vertex (SCC analysis)."""
    succ = reach_graph(m, a)
    sources = graph_sources(m, a) | graphs.cycle_vertices(succ)
    return graphs.reachable_from(succ, sorted(sources)) == set(succ)


def check_semi_connected(m: FiniteStructure, spec: ReachSpec) -> bool:
    if not eval_formula(m, assoc_formula(spec)):
        return False
    return all(assertion_semi_connected(m, a) for a in spec.re)


# ---------------------------------------------------------------------------
# The data-structure descriptions from the worked examples

LIST_VOCAB = Vocabulary(concepts=frozenset({"L"}), roles=frozenset({"next"}),
                        functional=frozenset({"next"}), nominals=frozenset({"head"}))


def list_spec() -> ReachSpec:
    """A (possibly cyclic) list segment from head via next through L."""
    return ReachSpec(TRUE, (ReachAssertion(Nominal("head"), frozenset({"next"}), "L"),))


def alist_spec() -> ReachSpec:
    """Acyclic list segment: the last element has no next successor."""
    acyc = FNot(Incl(Atomic("L"), Exists(role("next"), TOP)))
    return ReachSpec(FAnd(TRUE, acyc), (ReachAssertion(Nominal("head"), frozenset({"next"}), "L"),))


def clist_spec() -> ReachSpec:
    """Cyclic list segment: head has a next-predecessor inside L."""
    cyc = Incl(Nominal("head"), Exists(inv("next"), Atomic("L")))
    return ReachSpec(FAnd(TRUE, cyc), (ReachAssertion(Nominal("head"), frozenset({"next"}), "L"),))


TREE_VOCAB = Vocabulary(concepts=frozenset({"T"}), roles=frozenset({"left", "right"}),
                        functional=frozenset({"left", "right"}),
                        nominals=frozenset({"root"}))


def tree_spec() -> ReachSpec:
    """Binary tree rooted at root via left/right through T."""
    t, rt = Atomic("T"), Nominal("root")
    a = Incl(rt, And(Not(Exists(inv("left"), t)), Not(Exists(inv("right"), t))))
    b = Incl(And(t, Not(rt)),
             Or(And(exactly(1, inv("left"), t), Not(Exists(inv("right"), t))),
                And(exactly(1, inv("right"), t), Not(Exists(inv("left"), t)))))
    return ReachSpec(FAnd(a, b),
                     (ReachAssertion(Nominal("root"), frozenset({"left", "right"}), "T"),))
