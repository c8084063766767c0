"""Finite interpretations and the semantic evaluator.

A FiniteStructure interprets concept names as element sets, role names as
pair sets and nominal names as single elements.  Concept and role names
without an entry are interpreted as empty; a nominal used in a formula must
be interpreted.  Structures are immutable and hashable so they can be used
in fixpoint detection and deduplication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .syntax import (And, AtMost, Atomic, Bot, Concept, Eq, Exists, FAnd, FNot,
                     FOr, Formula, Incl, Nominal, Not, Or, ReachDLError, Role,
                     Top, Vocabulary, concepts_of)


class MissingNominalError(ReachDLError):
    pass


def _freeze_concepts(m: Mapping[str, Iterable[int]]) -> dict[str, frozenset[int]]:
    return {k: frozenset(v) for k, v in m.items() if v or isinstance(v, frozenset)}


@dataclass(frozen=True)
class FiniteStructure:
    universe: tuple[int, ...]
    concepts: Mapping[str, frozenset[int]] = field(default_factory=dict)
    roles: Mapping[str, frozenset[tuple[int, int]]] = field(default_factory=dict)
    nominals: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        universe = tuple(self.universe)
        uset = set(universe)
        concepts = {k: frozenset(v) for k, v in dict(self.concepts).items()}
        roles = {k: frozenset((a, b) for a, b in v) for k, v in dict(self.roles).items()}
        nominals = dict(self.nominals)
        for name, ext in concepts.items():
            if not ext <= uset:
                raise ReachDLError(f"concept {name} interprets elements outside the universe")
        for name, pairs in roles.items():
            for a, b in pairs:
                if a not in uset or b not in uset:
                    raise ReachDLError(f"role {name} has a pair outside the universe")
        for name, e in nominals.items():
            if e not in uset:
                raise ReachDLError(f"nominal {name} assigned outside the universe")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "concepts", concepts)
        object.__setattr__(self, "roles", roles)
        object.__setattr__(self, "nominals", nominals)

    # -- canonical equality: missing and empty interpretations coincide

    def _key(self):
        return (self.universe,
                tuple(sorted((k, tuple(sorted(v))) for k, v in self.concepts.items() if v)),
                tuple(sorted((k, tuple(sorted(v))) for k, v in self.roles.items() if v)),
                tuple(sorted(self.nominals.items())))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteStructure) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    # -- accessors

    def concept_ext(self, name: str) -> frozenset[int]:
        return self.concepts.get(name, frozenset())

    def role_ext(self, name: str) -> frozenset[tuple[int, int]]:
        return self.roles.get(name, frozenset())

    def nominal_elem(self, name: str) -> int:
        try:
            return self.nominals[name]
        except KeyError:
            raise MissingNominalError(f"nominal {name} is not interpreted") from None

    def role_pairs(self, r: Role) -> frozenset[tuple[int, int]]:
        """Pairs of a role expression: overrides applied innermost-first,
        inversion last."""
        pairs = self.role_ext(r.name)
        for p in r.updates:
            s = self.nominal_elem(p.source)
            t = self.nominal_elem(p.target)
            pairs = frozenset(pr for pr in pairs if pr[0] != s) | {(s, t)}
        if r.inverted:
            pairs = frozenset((b, a) for a, b in pairs)
        return pairs

    # -- functional-update helpers (used by the operational semantics)

    def with_nominal(self, name: str, elem: int) -> "FiniteStructure":
        noms = dict(self.nominals)
        noms[name] = elem
        return FiniteStructure(self.universe, self.concepts, self.roles, noms)

    def with_concept(self, name: str, ext: Iterable[int]) -> "FiniteStructure":
        cons = dict(self.concepts)
        cons[name] = frozenset(ext)
        return FiniteStructure(self.universe, cons, self.roles, self.nominals)

    def with_role(self, name: str, pairs: Iterable[tuple[int, int]]) -> "FiniteStructure":
        rols = dict(self.roles)
        rols[name] = frozenset(pairs)
        return FiniteStructure(self.universe, self.concepts, rols, self.nominals)

    def with_function_value(self, role_name: str, src: int, tgt: int) -> "FiniteStructure":
        """Override the unique out-edge of src in a functional role."""
        pairs = {p for p in self.role_ext(role_name) if p[0] != src}
        pairs.add((src, tgt))
        return self.with_role(role_name, pairs)

    def function_value(self, role_name: str, src: int) -> int | None:
        for a, b in self.role_ext(role_name):
            if a == src:
                return b
        return None

    def validate(self, vocab: Vocabulary) -> None:
        """Check functionality of functional roles and totality of nominals."""
        for f in sorted(vocab.functional):
            seen: set[int] = set()
            for a, _ in self.role_ext(f):
                if a in seen:
                    raise ReachDLError(f"functional role {f} has two edges out of {a}")
                seen.add(a)
        for n in sorted(vocab.nominals):
            if n not in self.nominals:
                raise MissingNominalError(f"nominal {n} is not interpreted")


def structure(universe: Iterable[int], concepts: Mapping[str, Iterable[int]] | None = None,
              roles: Mapping[str, Iterable[tuple[int, int]]] | None = None,
              nominals: Mapping[str, int] | None = None) -> FiniteStructure:
    """Convenience constructor used heavily in tests."""
    return FiniteStructure(tuple(universe),
                           {k: frozenset(v) for k, v in (concepts or {}).items()},
                           {k: frozenset(v) for k, v in (roles or {}).items()},
                           dict(nominals or {}))


# ---------------------------------------------------------------------------
# Evaluation


def eval_concept(m: FiniteStructure, c: Concept,
                 _memo: dict[Concept, frozenset[int]] | None = None) -> frozenset[int]:
    """The extension C^M.  Update roles evaluate as function override."""
    memo: dict[Concept, frozenset[int]] = {} if _memo is None else _memo

    def ev(cc: Concept) -> frozenset[int]:
        got = memo.get(cc)
        if got is not None:
            return got
        if isinstance(cc, Atomic):
            out = m.concept_ext(cc.name)
        elif isinstance(cc, Nominal):
            out = frozenset((m.nominal_elem(cc.name),))
        elif isinstance(cc, Top):
            out = frozenset(m.universe)
        elif isinstance(cc, Bot):
            out = frozenset()
        elif isinstance(cc, And):
            out = ev(cc.left) & ev(cc.right)
        elif isinstance(cc, Or):
            out = ev(cc.left) | ev(cc.right)
        elif isinstance(cc, Not):
            out = frozenset(m.universe) - ev(cc.inner)
        elif isinstance(cc, Exists):
            inner = ev(cc.inner)
            out = frozenset(a for a, b in m.role_pairs(cc.role) if b in inner)
        elif isinstance(cc, AtMost):
            inner = ev(cc.inner)
            counts: dict[int, int] = {}
            for a, b in m.role_pairs(cc.role):
                if b in inner:
                    counts[a] = counts.get(a, 0) + 1
            out = frozenset(u for u in m.universe if counts.get(u, 0) <= cc.bound)
        else:  # pragma: no cover
            raise TypeError(f"not a concept: {cc!r}")
        memo[cc] = out
        return out

    return ev(c)


def eval_formula(m: FiniteStructure, phi: Formula,
                 _memo: dict[Concept, frozenset[int]] | None = None) -> bool:
    """Truth of phi in m, with formula-level boolean connectives."""
    memo: dict[Concept, frozenset[int]] = {} if _memo is None else _memo
    if isinstance(phi, Incl):
        return eval_concept(m, phi.left, memo) <= eval_concept(m, phi.right, memo)
    if isinstance(phi, Eq):
        return eval_concept(m, phi.left, memo) == eval_concept(m, phi.right, memo)
    if isinstance(phi, FAnd):
        return eval_formula(m, phi.left, memo) and eval_formula(m, phi.right, memo)
    if isinstance(phi, FOr):
        return eval_formula(m, phi.left, memo) or eval_formula(m, phi.right, memo)
    if isinstance(phi, FNot):
        return not eval_formula(m, phi.inner, memo)
    raise TypeError(f"not a formula: {phi!r}")  # pragma: no cover


def type_of(m: FiniteStructure, phi: Formula, u: int) -> frozenset[Concept]:
    """The type of u: the concepts of phi whose extension contains u."""
    if u not in set(m.universe):
        raise ReachDLError(f"element {u} is not in the universe")
    memo: dict[Concept, frozenset[int]] = {}
    return frozenset(c for c in concepts_of(phi) if u in eval_concept(m, c, memo))


def types_of_all(m: FiniteStructure, concepts: Iterable[Concept]) -> dict[int, frozenset[Concept]]:
    """Types of every element at once (one evaluation per concept)."""
    memo: dict[Concept, frozenset[int]] = {}
    exts = [(c, eval_concept(m, c, memo)) for c in concepts]
    return {u: frozenset(c for c, ext in exts if u in ext) for u in m.universe}
