"""Finite interpretations, their bitmask view and the evaluator.

A FiniteStructure interprets concept names as element sets, role names as
pair sets and nominal names as single elements.  Concept and role names
without an entry are interpreted as empty; a nominal used in a formula must
be interpreted.  Structures are immutable and hashable so they can be used
in fixpoint detection and deduplication.  The constructor validates every
entry and rejects a universe that lists an element twice; `with_symbols`
(under `with_nominal`, `with_concept` and `with_role`) validates only the
entries it adds or replaces, and `from_masks` trusts its masks: both
build the result without a whole-structure check.

Evaluation runs on bitmasks.  `mask_view(m)` is m in the layout of the
staged search's env (models.StagedSearch): bit i stands for m.universe[i],
which need not be i (ord_lift offsets its fresh elements, and a structure
may list any distinct ints).  `from_masks` is its inverse over any
universe, and `env_structure` over range(n).  The heap layer does not go
through the view: a memory.MemoryStructure stores its masks in the same
layout and builds its FiniteStructure only when one is read (a witness, a
printed state, I/O).  An `Evaluator` holds the view of one structure and
computes each node object once, when first reached, with the node rules
below (role updates, inversion, E r.C, the image E r^-.C, at-most) that
models.Kernel shares.  Its memo is by identity, not structure: the
reductions build their outputs as shared DAGs, so a repeated subterm is
one object.  Inclusions and equalities evaluate both sides,
and FAnd / FOr short-circuit, so a missing nominal raises
MissingNominalError exactly where evaluation reaches it.  `eval_concept`,
`eval_formula`, `type_of` and `types_of_all` build one evaluator per call;
a caller that evaluates several formulas over one structure holds one
Evaluator, and one that evaluates one formula over many heap states
compiles it once into a kernel plan (`models.formula_plan`) and runs that
on each state's masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

from .syntax import (And, AtMost, Atomic, Bot, Concept, Eq, Exists, FAnd, FNot,
                     FOr, Formula, Incl, Nominal, Not, Or, ReachDLError, Role,
                     Top, Vocabulary, concepts_of)


class MissingNominalError(ReachDLError):
    pass


@dataclass(frozen=True)
class FiniteStructure:
    universe: tuple[int, ...]
    concepts: Mapping[str, frozenset[int]] = field(default_factory=dict)
    roles: Mapping[str, frozenset[tuple[int, int]]] = field(default_factory=dict)
    nominals: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        universe = tuple(self.universe)
        uset = set(universe)
        if len(uset) != len(universe):
            ordered = sorted(universe)
            twice = next(a for a, b in zip(ordered, ordered[1:]) if a == b)
            raise ReachDLError(f"the universe lists element {twice} twice")
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

    # -- functional-update helpers (used by the operational semantics)

    def with_symbols(self, **entries: Mapping) -> "FiniteStructure":
        """The structure with the entries of `concepts`, `roles` and
        `nominals` added or replaced; only they are validated."""
        if not any(entries.values()):
            return self
        new = FiniteStructure(self.universe, **entries)
        return _trusted(self.universe, {**self.concepts, **new.concepts},
                        {**self.roles, **new.roles}, {**self.nominals, **new.nominals})

    def with_nominal(self, name: str, elem: int) -> "FiniteStructure":
        return self.with_symbols(nominals={name: elem})

    def with_concept(self, name: str, ext: Iterable[int]) -> "FiniteStructure":
        return self.with_symbols(concepts={name: ext})

    def with_role(self, name: str, pairs: Iterable[tuple[int, int]]) -> "FiniteStructure":
        return self.with_symbols(roles={name: pairs})

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


def _trusted(universe: tuple[int, ...], concepts: dict[str, frozenset[int]],
             roles: dict[str, frozenset[tuple[int, int]]],
             nominals: dict[str, int]) -> FiniteStructure:
    """A structure from fields already in their stored form, not validated:
    for fields taken from valid structures or read off masks."""
    m = object.__new__(FiniteStructure)
    m.__dict__.update(universe=universe, concepts=concepts, roles=roles, nominals=nominals)
    return m


def structure(universe: Iterable[int], concepts: Mapping[str, Iterable[int]] | None = None,
              roles: Mapping[str, Iterable[tuple[int, int]]] | None = None,
              nominals: Mapping[str, int] | None = None) -> FiniteStructure:
    """Convenience constructor used heavily in tests."""
    return FiniteStructure(tuple(universe),
                           {k: frozenset(v) for k, v in (concepts or {}).items()},
                           {k: frozenset(v) for k, v in (roles or {}).items()},
                           dict(nominals or {}))


# ---------------------------------------------------------------------------
# The mask view


class _OnFirstRead(dict):
    """A dict that builds a missing entry with `build(key)` when it is read
    by `[]`."""

    def __init__(self, build: Callable[[str], object]) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, key: str) -> object:
        value = self[key] = self.build(key)
        return value


def element_mask(index: Mapping[int, int], elems: Iterable[int]) -> int:
    """The mask of a set of elements, `index` mapping an element to its bit."""
    out = 0
    for u in elems:
        out |= 1 << index[u]
    return out


def successor_rows(index: Mapping[int, int], pairs: Iterable[tuple[int, int]]) -> list[int]:
    """One successor mask per element (by bit) of a set of pairs."""
    rows = [0] * len(index)
    for a, b in pairs:
        rows[index[a]] |= 1 << index[b]
    return rows


def mask_view(m: FiniteStructure) -> dict:
    """m as bitmasks, in the layout of the staged search's env: `n`,
    `full`, `noms` (name -> bit), `cons` (name -> element mask) and `rsucc`
    (name -> successor mask per element), bit i standing for m.universe[i];
    `index` maps an element to its bit.  `cons` and `rsucc` build a name's
    entry when it is first read."""
    index = {u: i for i, u in enumerate(m.universe)}
    n = len(index)
    return {"n": n, "full": (1 << n) - 1, "index": index,
            "noms": {name: index[e] for name, e in m.nominals.items()},
            "cons": _OnFirstRead(lambda name: element_mask(index, m.concept_ext(name))),
            "rsucc": _OnFirstRead(lambda name: successor_rows(index, m.role_ext(name)))}


def mask_bits(mask: int) -> Iterator[int]:
    """The bit indices set in mask, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def from_masks(universe: tuple[int, ...], cons: Mapping[str, int],
               rsucc: Mapping[str, Iterable[int]], noms: Mapping[str, int]) -> FiniteStructure:
    """The structure over `universe` that masks in the env layout describe
    (bit i standing for universe[i]), with an entry for every name given;
    the masks are trusted, not validated."""

    def elements(mask: int) -> frozenset[int]:
        return frozenset(universe[i] for i in mask_bits(mask))

    rels = {name: frozenset((universe[u], universe[v]) for u, row in enumerate(rows)
                            for v in mask_bits(row))
            for name, rows in rsucc.items()}
    return _trusted(universe, {name: elements(mask) for name, mask in cons.items()},
                    rels, {name: universe[bit] for name, bit in noms.items()})


def env_structure(env: dict, concepts: Iterable[str], roles: Iterable[str]) -> FiniteStructure:
    """The structure over range(env["n"]) that an env (or a mask view)
    describes, over the given concept and role names and every nominal."""
    return from_masks(tuple(range(env["n"])), {name: env["cons"][name] for name in concepts},
                      {name: env["rsucc"][name] for name in roles}, env["noms"])


# ---------------------------------------------------------------------------
# The node rules, shared with models.Kernel.  A role view is one successor
# mask per element (predecessor masks, once inverted).


def update(succ: list[int], src: int, tgt: int) -> list[int]:
    """The view with the row of the element in mask src replaced by tgt."""
    out = list(succ)
    out[src.bit_length() - 1] = tgt
    return out


def invert(succ: list[int]) -> list[int]:
    """The inverse view: one predecessor mask per element."""
    pred = [0] * len(succ)
    for u, row in enumerate(succ):
        while row:
            b = row & -row
            pred[b.bit_length() - 1] |= 1 << u
            row ^= b
    return pred


def exists(succ: list[int], cm: int) -> int:
    """E r.C: the elements with a successor in C."""
    out = 0
    if cm:
        bit = 1
        for row in succ:
            if row & cm:
                out |= bit
            bit <<= 1
    return out


def image(succ: list[int], cm: int) -> int:
    """E r^-.C: the successors of the elements of C."""
    out = 0
    while cm:
        b = cm & -cm
        out |= succ[b.bit_length() - 1]
        cm ^= b
    return out


def at_most(succ: list[int], cm: int, bound: int) -> int:
    """E<=bound r.C: the elements with at most bound successors in C."""
    out = 0
    bit = 1
    for row in succ:
        if (row & cm).bit_count() <= bound:
            out |= bit
        bit <<= 1
    return out


# ---------------------------------------------------------------------------
# The evaluator


class Evaluator:
    """Evaluation of concepts and formulas over the mask view of one
    structure.

    The memo maps each node object reached (by identity) to its value, so
    an object is computed once, when it is first reached, and a shared
    subterm of a DAG once per evaluator; a structurally equal copy is a
    new object and is computed anew.  `computed` counts the objects
    computed.  Role views have a memo of their own, keyed by the role's
    name, updates and inversion.  FAnd and FOr short-circuit and take the
    value of the operand that decides them.  The walk keeps its own stack,
    so nesting depth is bounded by memory, not by Python frames.  The
    evaluator holds the root of every walk; the AST is immutable, so that
    keeps every object in the memo alive and no id is reused while the
    evaluator lives."""

    def __init__(self, m: FiniteStructure) -> None:
        self.structure = m
        self.view = mask_view(m)
        self._memo: dict[int, object] = {}
        self._roots: list[object] = []
        self._views: dict[tuple, list[int]] = {}

    @property
    def computed(self) -> int:
        """The number of node objects computed so far."""
        return len(self._memo)

    def concept(self, c: Concept) -> int:
        """The element mask of c."""
        return self._walk(c)

    def formula(self, phi: Formula) -> bool:
        """The truth of phi."""
        return self._walk(phi)

    def elements(self, mask: int) -> frozenset[int]:
        """The elements whose bits are set in mask."""
        universe = self.structure.universe
        return frozenset(universe[i] for i in mask_bits(mask))

    def _role_view(self, r: Role, inverted: bool) -> list[int]:
        """r's successor view updated at each point in turn, and inverted
        when `inverted` is set (r's own inversion is left to the caller)."""
        views = self._views
        key = (r.name, r.updates, inverted)
        view = views.get(key)
        if view is None:
            if inverted:
                view = invert(self._role_view(r, False))
            else:
                view = self.view["rsucc"][r.name]
                noms = self.view["noms"]
                for p in r.updates:
                    try:
                        view = update(view, 1 << noms[p.source], 1 << noms[p.target])
                    except KeyError as e:
                        raise MissingNominalError(f"nominal {e.args[0]} is not interpreted") from None
            views[key] = view
        return view

    def _walk(self, root: Concept | Formula):
        """The value of a concept or formula.  A child without a value is
        pushed, and gets its value before its parent is looked at again, so
        children are computed left to right, before their parent, as a
        recursive walk would."""
        memo = self._memo
        value = memo.get(id(root))
        if value is not None:
            return value
        self._roots.append(root)
        view = self.view
        stack = [root]
        while stack:
            x = stack[-1]
            t = type(x)
            if t is Atomic:
                value = view["cons"][x.name]
            elif t is And or t is Or or t is Incl or t is Eq:
                a = memo.get(id(x.left))
                if a is None:
                    stack.append(x.left)
                    continue
                b = memo.get(id(x.right))
                if b is None:
                    stack.append(x.right)
                    continue
                if t is And:
                    value = a & b
                elif t is Or:
                    value = a | b
                elif t is Incl:
                    value = not (a & ~b)
                else:
                    value = a == b
            elif t is FAnd or t is FOr:
                value = memo.get(id(x.left))
                if value is None:
                    stack.append(x.left)
                    continue
                if value != (t is FOr):  # the left operand does not decide
                    value = memo.get(id(x.right))
                    if value is None:
                        stack.append(x.right)
                        continue
            elif t is Not or t is Exists or t is AtMost or t is FNot:
                inner = memo.get(id(x.inner))
                if inner is None:
                    stack.append(x.inner)
                    continue
                if t is Not:
                    value = view["full"] & ~inner
                elif t is FNot:
                    value = not inner
                else:
                    r = x.role
                    if t is Exists:
                        succ = self._role_view(r, False)
                        value = (image if r.inverted else exists)(succ, inner)
                    else:
                        value = at_most(self._role_view(r, r.inverted), inner, x.bound)
            elif t is Nominal:
                bit = view["noms"].get(x.name)
                if bit is None:
                    raise MissingNominalError(f"nominal {x.name} is not interpreted")
                value = 1 << bit
            elif t is Top:
                value = view["full"]
            elif t is Bot:
                value = 0
            else:  # pragma: no cover
                raise TypeError(f"not a concept or formula: {x!r}")
            memo[id(x)] = value
            stack.pop()
        return value


def eval_concept(m: FiniteStructure, c: Concept) -> frozenset[int]:
    """The extension C^M.  Update roles evaluate as function override."""
    ev = Evaluator(m)
    return ev.elements(ev.concept(c))


def eval_formula(m: FiniteStructure, phi: Formula) -> bool:
    """Truth of phi in m, with formula-level boolean connectives."""
    return Evaluator(m).formula(phi)


def type_of(m: FiniteStructure, phi: Formula, u: int) -> frozenset[Concept]:
    """The type of u: the concepts of phi whose extension contains u."""
    ev = Evaluator(m)
    bit = ev.view["index"].get(u)
    if bit is None:
        raise ReachDLError(f"element {u} is not in the universe")
    return frozenset(c for c in concepts_of(phi) if ev.concept(c) >> bit & 1)


def types_of_all(m: FiniteStructure, concepts: Iterable[Concept]) -> dict[int, frozenset[Concept]]:
    """Types of every element at once (one evaluator for all concepts)."""
    ev = Evaluator(m)
    masks = [(c, ev.concept(c)) for c in concepts]
    return {u: frozenset(c for c, mask in masks if mask >> i & 1)
            for i, u in enumerate(m.universe)}
