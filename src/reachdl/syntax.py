"""Vocabulary and abstract syntax for concepts, roles and formulas.

Concepts are the usual boolean/existential constructors plus qualified
at-most restrictions; roles are atomic names, optionally inverted and
optionally carrying a chain of point updates (the function-override
expressions produced by backwards propagation).  Formulas are boolean
combinations of concept inclusions and equalities.

Everything here is immutable and hashable; structural equality is the
equality used throughout (e.g. by concepts_of and the type machinery).

Traversals.  Syntactic rewrites go through one scheme: map_concept
rebuilds a concept bottom-up, and map_atoms / map_sides lift a rewrite to
every inclusion and equality of a formula.  All three return an unchanged
subtree as the same object, so later equality tests against the input hit
the identity shortcut instead of comparing copies.  Searches go through
one preorder walk, subconcepts, over a concept or a formula.  Walks that
stay hand-written, on purpose: formula_symbols and formula_size (the
symbol scan sits on the search set-up path; the size defines the node
counts the benchmark reports), the printers below, the OWL export,
models.compile_* (the bitmask kernel), structures.eval_* (the memoized
evaluator), fol's translation (the independent oracle), nnf's polarity
walk, the boolean-closure recursion _bc, and the statement walks of
programs.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator


class ReachDLError(Exception):
    """Base class for all library errors."""


class UnknownSymbolError(ReachDLError):
    pass


class KindMismatchError(ReachDLError):
    pass


# ---------------------------------------------------------------------------
# Vocabulary


@dataclass(frozen=True)
class Vocabulary:
    """Name sets: atomic concepts, atomic roles (with a functional subset)
    and nominals.  Concept, role and nominal names must be pairwise disjoint."""

    concepts: frozenset[str] = frozenset()
    roles: frozenset[str] = frozenset()
    functional: frozenset[str] = frozenset()
    nominals: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "concepts", frozenset(self.concepts))
        object.__setattr__(self, "roles", frozenset(self.roles))
        object.__setattr__(self, "functional", frozenset(self.functional))
        object.__setattr__(self, "nominals", frozenset(self.nominals))
        if not self.functional <= self.roles:
            raise UnknownSymbolError(
                f"functional roles not declared as roles: {sorted(self.functional - self.roles)}")
        for a, b in (("concepts", "roles"), ("concepts", "nominals"), ("roles", "nominals")):
            overlap = getattr(self, a) & getattr(self, b)
            if overlap:
                raise KindMismatchError(f"names used both as {a} and {b}: {sorted(overlap)}")

    def merge(self, other: "Vocabulary") -> "Vocabulary":
        return Vocabulary(self.concepts | other.concepts,
                          self.roles | other.roles,
                          self.functional | other.functional,
                          self.nominals | other.nominals)

    def with_concepts(self, names: Iterable[str]) -> "Vocabulary":
        return self.merge(Vocabulary(concepts=frozenset(names)))

    def with_nominals(self, names: Iterable[str]) -> "Vocabulary":
        return self.merge(Vocabulary(nominals=frozenset(names)))

    def with_roles(self, names: Iterable[str], functional: bool = False) -> "Vocabulary":
        names = frozenset(names)
        return self.merge(Vocabulary(roles=names, functional=names if functional else frozenset()))


# ---------------------------------------------------------------------------
# Roles


@dataclass(frozen=True)
class UpdatePoint:
    """One function-override point: all edges out of `source` are dropped
    and the single edge (source, target) is added.  Both are nominal names."""

    source: str
    target: str


@dataclass(frozen=True)
class Role:
    """A role expression: an atomic role, updated at zero or more points
    (applied left to right, i.e. the first point is innermost), and then
    optionally inverted.  Inversion applies after the updates, matching
    the substitution semantics of backwards propagation."""

    name: str
    inverted: bool = False
    updates: tuple[UpdatePoint, ...] = ()

    def inverse(self) -> "Role":
        """Inverse role; inverse-of-inverse normalizes away structurally."""
        return Role(self.name, not self.inverted, self.updates)

    def updated(self, source: str, target: str) -> "Role":
        """Append an override point (the new point is outermost)."""
        return Role(self.name, self.inverted, self.updates + (UpdatePoint(source, target),))


def role(name: str) -> Role:
    return Role(name)


def inv(name: str) -> Role:
    return Role(name, inverted=True)


# ---------------------------------------------------------------------------
# Concepts


class Concept:
    """Base class; subclasses are frozen dataclasses."""

    __slots__ = ()

    def __and__(self, other: "Concept") -> "Concept":
        return And(self, other)

    def __or__(self, other: "Concept") -> "Concept":
        return Or(self, other)

    def __invert__(self) -> "Concept":
        return Not(self)


@dataclass(frozen=True)
class Atomic(Concept):
    name: str


@dataclass(frozen=True)
class Nominal(Concept):
    name: str


@dataclass(frozen=True)
class Top(Concept):
    pass


@dataclass(frozen=True)
class Bot(Concept):
    pass


@dataclass(frozen=True)
class And(Concept):
    left: Concept
    right: Concept


@dataclass(frozen=True)
class Or(Concept):
    left: Concept
    right: Concept


@dataclass(frozen=True)
class Not(Concept):
    inner: Concept


@dataclass(frozen=True)
class Exists(Concept):
    role: Role
    inner: Concept


@dataclass(frozen=True)
class AtMost(Concept):
    """Qualified at-most restriction E<= n r.C with n >= 0."""

    bound: int
    role: Role
    inner: Concept

    def __post_init__(self) -> None:
        if self.bound < 0:
            raise ValueError("at-most bound must be nonnegative")


TOP = Top()
BOT = Bot()


def atleast(n: int, r: Role, c: Concept) -> Concept:
    """E>= n r.C, expanded: for n <= 0 this is just top; otherwise !E<= n-1 r.C."""
    if n <= 0:
        return TOP
    return Not(AtMost(n - 1, r, c))


def exactly(n: int, r: Role, c: Concept) -> Concept:
    """E= n r.C, expanded to E<= n r.C & E>= n r.C."""
    return And(AtMost(n, r, c), atleast(n, r, c))


def _balanced(parts: list, node, empty):
    """Balanced tree so wide conjunctions stay shallow for recursion."""
    if not parts:
        return empty
    if len(parts) == 1:
        return parts[0]
    mid = (len(parts) + 1) // 2
    return node(_balanced(parts[:mid], node, empty),
                _balanced(parts[mid:], node, empty))


def big_and(parts: Iterable[Concept]) -> Concept:
    """n-ary conjunction (balanced); empty product is top."""
    return _balanced(list(parts), And, TOP)


def big_or(parts: Iterable[Concept]) -> Concept:
    """n-ary disjunction (balanced); empty sum is bot."""
    return _balanced(list(parts), Or, BOT)


# ---------------------------------------------------------------------------
# Formulas


class Formula:
    __slots__ = ()

    def __and__(self, other: "Formula") -> "Formula":
        return FAnd(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return FOr(self, other)

    def __invert__(self) -> "Formula":
        return FNot(self)


@dataclass(frozen=True)
class Incl(Formula):
    left: Concept
    right: Concept


@dataclass(frozen=True)
class Eq(Formula):
    """Concept equality; semantically the pair of inclusions both ways."""

    left: Concept
    right: Concept


@dataclass(frozen=True)
class FAnd(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class FOr(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class FNot(Formula):
    inner: Formula


TRUE = Incl(TOP, TOP)
FALSE = Incl(TOP, BOT)


def conj(parts: Iterable[Formula]) -> Formula:
    return _balanced(list(parts), FAnd, TRUE)


def disj(parts: Iterable[Formula]) -> Formula:
    return _balanced(list(parts), FOr, FALSE)


def conjuncts(phi: Formula) -> Iterator[Formula]:
    """Flatten a conjunction tree into its leaves."""
    if isinstance(phi, FAnd):
        yield from conjuncts(phi.left)
        yield from conjuncts(phi.right)
    else:
        yield phi


# ---------------------------------------------------------------------------
# Traversals


def map_concept(c: Concept, fn: Callable[[Concept], Concept]) -> Concept:
    """Bottom-up rebuild: fn is applied to every node after its children
    are mapped, and its result replaces the node.  A node none of whose
    children changed reaches fn as the original object, not a copy."""
    if isinstance(c, (And, Or)):
        left, right = map_concept(c.left, fn), map_concept(c.right, fn)
        if left is not c.left or right is not c.right:
            c = type(c)(left, right)
    elif isinstance(c, Not):
        inner = map_concept(c.inner, fn)
        if inner is not c.inner:
            c = Not(inner)
    elif isinstance(c, Exists):
        inner = map_concept(c.inner, fn)
        if inner is not c.inner:
            c = Exists(c.role, inner)
    elif isinstance(c, AtMost):
        inner = map_concept(c.inner, fn)
        if inner is not c.inner:
            c = AtMost(c.bound, c.role, inner)
    return fn(c)


def map_atoms(phi: Formula, fn: Callable[[Formula], Formula]) -> Formula:
    """phi with every inclusion and equality replaced by fn of it, left to
    right; connectives whose operands are unchanged are kept as they are."""
    if isinstance(phi, (FAnd, FOr)):
        left, right = map_atoms(phi.left, fn), map_atoms(phi.right, fn)
        if left is phi.left and right is phi.right:
            return phi
        return type(phi)(left, right)
    if isinstance(phi, FNot):
        inner = map_atoms(phi.inner, fn)
        return phi if inner is phi.inner else FNot(inner)
    if isinstance(phi, (Incl, Eq)):
        return fn(phi)
    raise TypeError(f"not a formula: {phi!r}")  # pragma: no cover


def map_sides(phi: Formula, fn: Callable[[Concept], Concept]) -> Formula:
    """phi with both sides of every inclusion and equality replaced by fn
    of them (left side first, atoms left to right)."""

    def atom(a: Formula) -> Formula:
        left, right = fn(a.left), fn(a.right)
        if left is a.left and right is a.right:
            return a
        return type(a)(left, right)

    return map_atoms(phi, atom)


def subconcepts(x: Concept | Formula) -> Iterator[Concept]:
    """Preorder walk over the concept nodes of a concept, or of every side
    of a formula's inclusions and equalities (left before right, repeats
    included)."""
    stack = [x]
    while stack:
        node = stack.pop()
        if isinstance(node, Concept):
            yield node
        if isinstance(node, (And, Or, Incl, Eq, FAnd, FOr)):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, (Not, Exists, AtMost, FNot)):
            stack.append(node.inner)


def expand_eq(phi: Formula) -> Formula:
    """Normalize every concept equality into the two inclusions."""
    return map_atoms(phi, lambda a: FAnd(Incl(a.left, a.right), Incl(a.right, a.left))
                     if isinstance(a, Eq) else a)


def concepts_of(phi: Formula) -> tuple[Concept, ...]:
    """All concepts C with C <= D or D <= C occurring in phi (equalities count
    as inclusions both ways): deduplicated, in first-occurrence order."""
    seen: dict[Concept, None] = {}

    def visit(c: Concept) -> Concept:
        seen.setdefault(c)
        return c

    map_sides(phi, visit)
    return tuple(seen)


def closure_concepts(phi: Formula) -> tuple[Concept, ...]:
    """The inclusion sides of phi closed under subconcepts, in stable
    order.  Two elements agreeing on all of these are interchangeable for
    the successor-swap operation: side-level agreement alone is not enough
    (a nominal buried under an inverse restriction can distinguish them
    without showing up in any side)."""
    seen: dict[Concept, None] = {}
    for side in concepts_of(phi):
        for c in subconcepts(side):
            seen.setdefault(c)
    return tuple(seen)


# ---------------------------------------------------------------------------
# Symbol support (used for search staging and freshness checks)


def concept_symbols(c: Concept, out: dict[str, set[str]]) -> None:
    if isinstance(c, Atomic):
        out["concepts"].add(c.name)
    elif isinstance(c, Nominal):
        out["nominals"].add(c.name)
    elif isinstance(c, (Top, Bot)):
        pass
    elif isinstance(c, (And, Or)):
        concept_symbols(c.left, out)
        concept_symbols(c.right, out)
    elif isinstance(c, Not):
        concept_symbols(c.inner, out)
    elif isinstance(c, (Exists, AtMost)):
        out["roles"].add(c.role.name)
        for p in c.role.updates:
            out["nominals"].add(p.source)
            out["nominals"].add(p.target)
        concept_symbols(c.inner, out)
    else:  # pragma: no cover
        raise TypeError(f"not a concept: {c!r}")


def formula_symbols(phi: Formula) -> dict[str, set[str]]:
    """Names occurring in phi, keyed by kind."""
    out: dict[str, set[str]] = {"concepts": set(), "roles": set(), "nominals": set()}

    def walk(f: Formula) -> None:
        if isinstance(f, (Incl, Eq)):
            concept_symbols(f.left, out)
            concept_symbols(f.right, out)
        elif isinstance(f, (FAnd, FOr)):
            walk(f.left)
            walk(f.right)
        elif isinstance(f, FNot):
            walk(f.inner)
        else:  # pragma: no cover
            raise TypeError(f"not a formula: {f!r}")

    walk(phi)
    return out


def formula_size(phi: Formula) -> int:
    """AST node count, counting concepts, roles and formula connectives."""

    def csize(c: Concept) -> int:
        if isinstance(c, (Atomic, Nominal, Top, Bot)):
            return 1
        if isinstance(c, (And, Or)):
            return 1 + csize(c.left) + csize(c.right)
        if isinstance(c, Not):
            return 1 + csize(c.inner)
        if isinstance(c, (Exists, AtMost)):
            return 2 + csize(c.inner)
        raise TypeError(f"not a concept: {c!r}")  # pragma: no cover

    if isinstance(phi, (Incl, Eq)):
        return 1 + csize(phi.left) + csize(phi.right)
    if isinstance(phi, (FAnd, FOr)):
        return 1 + formula_size(phi.left) + formula_size(phi.right)
    if isinstance(phi, FNot):
        return 1 + formula_size(phi.inner)
    raise TypeError(f"not a formula: {phi!r}")  # pragma: no cover


def check_symbols(phi: Formula, vocab: Vocabulary) -> None:
    """Reject names absent from the vocabulary."""
    syms = formula_symbols(phi)
    for kind, have in (("concepts", vocab.concepts), ("roles", vocab.roles),
                       ("nominals", vocab.nominals)):
        missing = syms[kind] - have
        if missing:
            raise UnknownSymbolError(f"unknown {kind}: {sorted(missing)}")


# ---------------------------------------------------------------------------
# Surface printer (the parser in parser.py accepts exactly this output)

_CPREC = {"or": 1, "and": 2, "not": 3, "atom": 4}


def _print_role(r: Role) -> str:
    text = r.name
    for p in r.updates:
        text += f"[{p.source} -> {p.target}]"
    if r.inverted:
        text += "^-"
    return text


def _print_concept(c: Concept, prec: int) -> str:
    if isinstance(c, Atomic) or isinstance(c, Nominal):
        return c.name
    if isinstance(c, Top):
        return "top"
    if isinstance(c, Bot):
        return "bot"
    if isinstance(c, Or):
        s = f"{_print_concept(c.left, _CPREC['or'])} | {_print_concept(c.right, _CPREC['or'] + 1)}"
        return f"({s})" if prec > _CPREC["or"] else s
    if isinstance(c, And):
        s = f"{_print_concept(c.left, _CPREC['and'])} & {_print_concept(c.right, _CPREC['and'] + 1)}"
        return f"({s})" if prec > _CPREC["and"] else s
    if isinstance(c, Not):
        return f"!{_print_concept(c.inner, _CPREC['not'] + 1)}"
    if isinstance(c, Exists):
        return f"E {_print_role(c.role)}.{_print_concept(c.inner, _CPREC['atom'])}"
    if isinstance(c, AtMost):
        return f"E<={c.bound} {_print_role(c.role)}.{_print_concept(c.inner, _CPREC['atom'])}"
    raise TypeError(f"not a concept: {c!r}")  # pragma: no cover


def concept_to_text(c: Concept) -> str:
    return _print_concept(c, 0)


_FPREC = {"or": 1, "and": 2, "not": 3}


def _print_formula(phi: Formula, prec: int) -> str:
    if isinstance(phi, Incl):
        return f"{_print_concept(phi.left, 0)} <= {_print_concept(phi.right, 0)}"
    if isinstance(phi, Eq):
        return f"{_print_concept(phi.left, 0)} == {_print_concept(phi.right, 0)}"
    if isinstance(phi, FOr):
        s = f"{_print_formula(phi.left, _FPREC['or'])} or {_print_formula(phi.right, _FPREC['or'] + 1)}"
        return f"({s})" if prec > _FPREC["or"] else s
    if isinstance(phi, FAnd):
        s = f"{_print_formula(phi.left, _FPREC['and'])} and {_print_formula(phi.right, _FPREC['and'] + 1)}"
        return f"({s})" if prec > _FPREC["and"] else s
    if isinstance(phi, FNot):
        inner = phi.inner
        if isinstance(inner, (Incl, Eq)):
            return f"not ({_print_formula(inner, 0)})"
        return f"not {_print_formula(inner, _FPREC['not'] + 1)}"
    raise TypeError(f"not a formula: {phi!r}")  # pragma: no cover


def to_text(phi: Formula) -> str:
    """Deterministic surface rendering; parse(to_text(phi)) == phi."""
    return _print_formula(phi, 0)
