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
the identity shortcut instead of comparing copies.  Read-only scans go
through one iterative preorder walk, subconcepts, over a concept or a
formula.  It visits each node object once, so the DAGs that the
reductions and reach_formula build cost one step per object;
formula_symbols, closure_concepts and wp's search for an update role are
loops over it.  Walks that stay hand-written, on purpose: formula_size
(it defines the tree node counts the benchmark reports, repeats
included), the printers below, the OWL export, models.Kernel and
structures.Evaluator (the two front-ends of the bitmask node rules: the
kernel hash-conses, the evaluator memoizes by object identity and its
walk keeps its own stack), fol's translation (the independent oracle),
nnf's polarity walk and the boolean-closure recursion _bc, and
fold_constants (it pushes negations down to the atoms, which map_atoms
does not).  Statements have their own walk pair, programs.map_stmt and
programs.commands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence


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


def _balanced(parts: Sequence, node, empty, lo: int = 0, hi: int | None = None,
              spans: dict | None = None):
    """Balanced tree over parts[lo:hi], so wide conjunctions stay shallow
    for recursion; an odd span puts its middle part in the left half.
    `spans`, when given, maps each (lo, hi) built so far to its tree, so
    trees over spans of one list share the spans they have in common."""
    if hi is None:
        hi = len(parts)
    if hi - lo <= 1:
        return parts[lo] if hi > lo else empty
    if spans is not None:
        got = spans.get((lo, hi))
        if got is not None:
            return got
    mid = (lo + hi + 1) // 2
    out = node(_balanced(parts, node, empty, lo, mid, spans),
               _balanced(parts, node, empty, mid, hi, spans))
    if spans is not None:
        spans[(lo, hi)] = out
    return out


def span_trees(parts: Sequence, node, empty) -> Callable[[int, int], object]:
    """tree(lo, hi): the balanced tree over parts[lo:hi] that big_and and
    friends build, with each span built once across calls, so the trees
    over spans of one list are one DAG."""
    spans: dict = {}
    return lambda lo, hi: _balanced(parts, node, empty, lo, hi, spans)


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


# node classes by shape, for subconcepts' dispatch on the exact type
_BINARY = frozenset({And, Or, Incl, Eq, FAnd, FOr})
_UNARY = frozenset({Not, Exists, AtMost, FNot})
_FORMULAS = frozenset({Incl, Eq, FAnd, FOr, FNot})


def subconcepts(x: Concept | Formula) -> Iterator[Concept]:
    """Preorder walk over the concept nodes of a concept, or of every side
    of a formula's inclusions and equalities, left before right.  Each
    node object is visited once: an object met again is skipped with
    everything under it, whose nodes were all yielded on the first
    visit, so a shared DAG costs one step per object."""
    seen: set[int] = set()
    stack = [x]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        t = type(node)
        if t not in _FORMULAS:
            yield node
        if t in _BINARY:
            stack.append(node.right)
            stack.append(node.left)
        elif t in _UNARY:
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
    """The inclusion sides of phi closed under subconcepts, in the order
    subconcepts first reaches them.  Two elements agreeing on all of these
    are interchangeable for the successor-swap operation: side-level
    agreement alone is not enough (a nominal buried under an inverse
    restriction can distinguish them without showing up in any side)."""
    return tuple(dict.fromkeys(subconcepts(phi)))


# ---------------------------------------------------------------------------
# Symbol support (used for search staging and freshness checks)


def formula_symbols(phi: Formula) -> dict[str, set[str]]:
    """Names occurring in phi, keyed by kind; the nominals include the
    source and target of every update point."""
    concepts: set[str] = set()
    roles: set[str] = set()
    nominals: set[str] = set()
    for c in subconcepts(phi):
        t = type(c)
        if t is Atomic:
            concepts.add(c.name)
        elif t is Nominal:
            nominals.add(c.name)
        elif t is Exists or t is AtMost:
            roles.add(c.role.name)
            for p in c.role.updates:
                nominals.add(p.source)
                nominals.add(p.target)
    return {"concepts": concepts, "roles": roles, "nominals": nominals}


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


# ---------------------------------------------------------------------------
# Constant folding (used by the VC search)


def fold_constants(phi: Formula, pinned: Mapping[Concept, int]) -> Formula:
    """phi with the atoms that the pinned symbols decide folded to TRUE or
    FALSE, connectives with a constant operand folded, and every FNot
    pushed down to the atoms, so that `conjuncts` sees the parts of a
    negated disjunction.  An unchanged subtree is returned as the same
    object.

    `pinned` maps Atomic and Nominal nodes to masks over cells that are
    disjoint, non-empty and together cover the universe, so top is the
    union of the masks.  A side built from pinned symbols, top and bot with
    &, | and ! denotes a known set of cells (an | with a top operand is top
    and an & with a bot operand is bot, whatever the other); X <= Y then
    holds iff X's cells lie within Y's and X == Y iff they are the same.
    X <= Y with X bot or Y top, X <= X and X == X fold to TRUE.  The result
    is equivalent to phi on every structure where the pins hold."""
    top = 0
    for mask in pinned.values():
        top |= mask

    def cells(c: Concept) -> int | None:
        t = type(c)
        if t is Atomic or t is Nominal:
            return pinned.get(c)
        if t is Top:
            return top
        if t is Bot:
            return 0
        if t is Not:
            inner = cells(c.inner)
            return None if inner is None else top & ~inner
        if t is And or t is Or:
            left, right = cells(c.left), cells(c.right)
            absorbing = 0 if t is And else top
            if left == absorbing or right == absorbing:
                return absorbing
            if left is None or right is None:
                return None
            return left & right if t is And else left | right
        return None

    def atom(a: Formula) -> Formula:
        if a.left == a.right:
            return TRUE
        left, right = cells(a.left), cells(a.right)
        if type(a) is Incl and (left == 0 or right == top):
            return TRUE
        if left is None or right is None:
            return a
        holds = not left & ~right if type(a) is Incl else left == right
        return TRUE if holds else FALSE

    def fold(f: Formula, negate: bool) -> Formula:
        t = type(f)
        if t is FNot:
            out = fold(f.inner, not negate)
            return f if type(out) is FNot and out.inner is f.inner else out
        if t is FAnd or t is FOr:
            left, right = fold(f.left, negate), fold(f.right, negate)
            both = (t is FAnd) is not negate  # a conjunction after the negation
            unit, zero = (TRUE, FALSE) if both else (FALSE, TRUE)
            if left is zero or right is zero:
                return zero
            if left is unit:
                return right
            if right is unit:
                return left
            if not negate and left is f.left and right is f.right:
                return f
            return FAnd(left, right) if both else FOr(left, right)
        if t is Incl or t is Eq:
            out = atom(f)
            if not negate:
                return out
            return FALSE if out is TRUE else TRUE if out is FALSE else FNot(out)
        raise TypeError(f"not a formula: {f!r}")  # pragma: no cover

    return fold(phi, False)


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


def _print_concept(c: Concept, prec: int, memo: dict[tuple[int, int], str]) -> str:
    """The text of c where an operator of precedence prec encloses it.
    memo maps (id(node), prec) to the text already printed, so a node that
    a DAG reaches many times is printed once per precedence."""
    t = type(c)
    if t is Atomic or t is Nominal:
        return c.name
    if t is Top:
        return "top"
    if t is Bot:
        return "bot"
    key = (id(c), prec)
    got = memo.get(key)
    if got is not None:
        return got
    if t is Or:
        s = (f"{_print_concept(c.left, _CPREC['or'], memo)} | "
             f"{_print_concept(c.right, _CPREC['or'] + 1, memo)}")
        s = f"({s})" if prec > _CPREC["or"] else s
    elif t is And:
        s = (f"{_print_concept(c.left, _CPREC['and'], memo)} & "
             f"{_print_concept(c.right, _CPREC['and'] + 1, memo)}")
        s = f"({s})" if prec > _CPREC["and"] else s
    elif t is Not:
        s = f"!{_print_concept(c.inner, _CPREC['not'] + 1, memo)}"
    elif t is Exists:
        s = f"E {_print_role(c.role)}.{_print_concept(c.inner, _CPREC['atom'], memo)}"
    elif t is AtMost:
        s = f"E<={c.bound} {_print_role(c.role)}.{_print_concept(c.inner, _CPREC['atom'], memo)}"
    else:  # pragma: no cover
        raise TypeError(f"not a concept: {c!r}")
    memo[key] = s
    return s


_FPREC = {"or": 1, "and": 2, "not": 3}


def _print_formula(phi: Formula, prec: int, memo: dict[tuple[int, int], str]) -> str:
    t = type(phi)
    if t is Incl:
        return f"{_print_concept(phi.left, 0, memo)} <= {_print_concept(phi.right, 0, memo)}"
    if t is Eq:
        return f"{_print_concept(phi.left, 0, memo)} == {_print_concept(phi.right, 0, memo)}"
    if t is FOr:
        s = (f"{_print_formula(phi.left, _FPREC['or'], memo)} or "
             f"{_print_formula(phi.right, _FPREC['or'] + 1, memo)}")
        return f"({s})" if prec > _FPREC["or"] else s
    if t is FAnd:
        s = (f"{_print_formula(phi.left, _FPREC['and'], memo)} and "
             f"{_print_formula(phi.right, _FPREC['and'] + 1, memo)}")
        return f"({s})" if prec > _FPREC["and"] else s
    if t is FNot:
        inner = phi.inner
        if type(inner) is Incl or type(inner) is Eq:
            return f"not ({_print_formula(inner, 0, memo)})"
        return f"not {_print_formula(inner, _FPREC['not'] + 1, memo)}"
    raise TypeError(f"not a formula: {phi!r}")  # pragma: no cover


def to_text(phi: Formula) -> str:
    """Deterministic surface rendering; parse(to_text(phi)) == phi.  The
    concept texts are memoized by node identity for this call only; phi
    keeps every node alive meanwhile, so no id is reused."""
    return _print_formula(phi, 0, {})
