"""Formula-level reductions: the semi-connectedness encoding, the
exponential and polynomial order-gadget encodings, the implication
reduction, boolean-closure elimination, and the satisfiability pipeline.

The order-gadget ("ORD") encodings extend a model with fresh elements
carrying a linear order -- a nominal ladder in the exponential variant, a
binary counter in the polynomial variant -- plus one labeling role per
reach assertion whose targets witness a useful labeling inside the logic.
Constructive witnesses for both directions live here too: ord_lift builds
the extension of a semi-connected model, bc_lift extends a model of an
NNF formula to a model of its negation-free reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .reach import ReachSpec, assoc_formula
from .structures import Evaluator, FiniteStructure, eval_formula
from .syntax import (And, AtMost, Atomic, BOT, Bot, Concept, Eq, Exists, FAnd,
                     FNot, FOr, Formula, Incl, Nominal, Not, Or, ReachDLError,
                     Role, TOP, Top, Vocabulary, big_and, big_or,
                     closure_concepts, conj, conjuncts, disj, expand_eq,
                     formula_symbols, inv, map_concept, map_sides, role,
                     span_trees)


class LimitExceededError(ReachDLError):
    pass


class NonNNFError(ReachDLError):
    pass


# ---------------------------------------------------------------------------
# Semi-connectedness


def semi_formula(spec: ReachSpec) -> Formula:
    """assoc(Phi) plus, per assertion, the clause that every non-source
    target element has an S-predecessor inside the target."""
    parts: list[Formula] = [assoc_formula(spec)]
    for a in spec.re:
        lhs = And(Atomic(a.target), Not(a.source))
        rhs = big_or(Exists(inv(s), Atomic(a.target)) for s in sorted(a.roles))
        parts.append(Incl(lhs, rhs))
    return conj(parts)


# ---------------------------------------------------------------------------
# Fresh names


def _fresh(name: str, taken: set[str]) -> str:
    out = name
    n = 2
    while out in taken:
        out = f"{name}_{n}"
        n += 1
    taken.add(out)
    return out


def _occurring_names(phi: Formula) -> set[str]:
    syms = formula_symbols(phi)
    return syms["concepts"] | syms["roles"] | syms["nominals"]


@dataclass(frozen=True)
class ExtVocabulary:
    """Fresh symbols of an order-gadget encoding over a base spec."""

    variant: str  # "exp" or "poly"
    marker: str
    label_roles: tuple[str, ...]
    ladder: tuple[str, ...] = ()    # exp: nominals o_1..o_k
    order_role: str = ""            # exp
    counters: tuple[str, ...] = ()  # poly: concepts P_1..P_k
    start: str = ""                 # poly: nominal
    succ_role: str = ""             # poly: functional role

    def extend(self, vocab: Vocabulary) -> Vocabulary:
        out = vocab.with_concepts((self.marker,) + self.counters)
        out = out.with_nominals(self.ladder + ((self.start,) if self.start else ()))
        if self.order_role:
            out = out.with_roles((self.order_role,))
        if self.succ_role:
            out = out.with_roles((self.succ_role,), functional=True)
        return out.with_roles(self.label_roles, functional=True)

    def order_size(self) -> int:
        return len(self.ladder) if self.variant == "exp" else 1 << len(self.counters)


EXP_NOMINAL_LIMIT = 1 << 12


def _ord_setup(spec: ReachSpec, variant: str, limit: int = EXP_NOMINAL_LIMIT
               ) -> tuple[Formula, tuple[Concept, ...], ExtVocabulary]:
    """semi(Phi), its closure concepts and the fresh symbols of the
    encoding: 2^#closure ladder nominals (at most `limit`) for exp, one
    counter concept per closure concept for poly."""
    if variant not in ("exp", "poly"):
        raise ReachDLError(f"unknown ord variant {variant!r}")
    phi = semi_formula(spec)
    cs = closure_concepts(phi)
    taken = _occurring_names(phi)
    labels = tuple(_fresh(f"__lbl_f{i}", taken) for i in range(1, len(spec.re) + 1))
    if variant == "poly":
        return phi, cs, ExtVocabulary(
            variant="poly",
            marker=_fresh("__cnt_M", taken),
            label_roles=labels,
            counters=tuple(_fresh(f"__cnt_P{i}", taken) for i in range(1, len(cs) + 1)),
            start=_fresh("__cnt_start", taken),
            succ_role=_fresh("__cnt_succ", taken))
    if len(cs) >= 63 or (1 << len(cs)) > limit:
        raise LimitExceededError(
            f"exponential encoding needs 2^{len(cs)} nominals, over the limit {limit}")
    return phi, cs, ExtVocabulary(
        variant="exp",
        marker=_fresh("__ord_M", taken),
        label_roles=labels,
        ladder=tuple(_fresh(f"__ord_o{i}", taken) for i in range(1, (1 << len(cs)) + 1)),
        order_role=_fresh("__ord_ord", taken))


def ord_vocabulary(spec: ReachSpec, variant: str) -> ExtVocabulary:
    """The fresh symbols ord_reduction(spec, variant) uses, without
    building the formula."""
    return _ord_setup(spec, variant)[2]


# ---------------------------------------------------------------------------
# Relativization (theta 1)


def _per_object(fn: Callable[[Concept], Concept]) -> Callable[[Concept], Concept]:
    """fn applied once per distinct argument object.  The memo holds each
    argument, so no id is reused while it lives; it lives as long as the
    returned function, i.e. for one rewrite."""
    memo: dict[int, tuple[Concept, Concept]] = {}

    def call(c: Concept) -> Concept:
        got = memo.get(id(c))
        if got is None:
            got = memo[id(c)] = (c, fn(c))
        return got[1]

    return call


def relativize_concept(c: Concept, marker: Concept) -> Concept:
    """g(C): rebuild with every subconcept intersected with the marker."""
    return map_concept(c, lambda node: And(node, marker))


def relativize_formula(phi: Formula, marker: Concept) -> Formula:
    return map_sides(phi, _per_object(lambda c: relativize_concept(c, marker)))


# ---------------------------------------------------------------------------
# The order-gadget encodings.  Each builds its output as a DAG: a subterm
# that occurs many times is built once and referenced, and the balanced
# conjunctions and disjunctions over spans of one list share their common
# spans (syntax.span_trees).  The text and tree shape are as if every
# occurrence were built anew.


def _labeling_axioms(spec: ReachSpec, ext: ExtVocabulary, cs: tuple[Concept, ...],
                     marker: Concept, not_marker: Concept) -> tuple[Formula, Formula]:
    """theta4 (each label role's domain is the marked target and its range
    lies outside the marker) and theta5a (elements with the same label
    agree on every closure concept); the two encodings share them."""
    not_cs = [Not(c) for c in cs]
    t4: list[Formula] = []
    t5a: list[Formula] = []
    for a, name in zip(spec.re, ext.label_roles):
        f = role(name)
        finv = f.inverse()
        t4.append(Eq(Exists(f, TOP), And(Atomic(a.target), marker)))
        t4.append(Incl(Exists(finv, TOP), not_marker))
        for c, not_c in zip(cs, not_cs):
            t5a.append(Eq(And(Exists(finv, c), Exists(finv, not_c)), BOT))
    return conj(t4), conj(t5a)


def ord_reduction_exp(spec: ReachSpec, limit: int = EXP_NOMINAL_LIMIT
                      ) -> tuple[Formula, ExtVocabulary]:
    """Order gadget with one fresh nominal per type (k = 2^#concepts)."""
    phi, cs, ext = _ord_setup(spec, "exp", limit)
    k = len(ext.ladder)
    marker = Atomic(ext.marker)
    not_marker = Not(marker)
    o = [Nominal(name) for name in ext.ladder]
    ordr = role(ext.order_role)
    before = [Exists(ordr, oj) for oj in o]  # before[j]: the elements ordered before o_j

    theta1 = relativize_formula(phi, marker)
    theta2 = Eq(not_marker, big_or(o))
    prefix, suffix = span_trees(before, Or, BOT), span_trees(before, And, TOP)
    t3: list[Formula] = []
    for i in range(1, k + 1):
        t3.append(Incl(o[i - 1], Not(prefix(0, i))))
        if i < k:
            t3.append(Incl(o[i - 1], suffix(i, k)))
    theta3 = conj(t3)
    theta4, theta5a = _labeling_axioms(spec, ext, cs, marker, not_marker)
    t5b: list[Formula] = []
    for a, name in zip(spec.re, ext.label_roles):
        f = role(name)
        not_source = Not(a.source)
        roles = [role(s) for s in sorted(a.roles)]
        for ell in range(k):
            at = Exists(f, o[ell])
            lhs_empty = Eq(And(at, not_source), BOT)
            witness = And(big_or(Exists(r, at) for r in roles), Exists(f, before[ell]))
            t5b.append(FOr(lhs_empty, FNot(Eq(BOT, witness))))
    return conj([theta1, theta2, theta3, theta4, theta5a, conj(t5b)]), ext


def ord_reduction_poly(spec: ReachSpec) -> tuple[Formula, ExtVocabulary]:
    """Order gadget with a binary counter: k concepts encode 2^k order
    positions, succ mimics binary increment."""
    phi, cs, ext = _ord_setup(spec, "poly")
    k = len(ext.counters)
    marker = Atomic(ext.marker)
    not_marker = Not(marker)
    p = [Atomic(name) for name in ext.counters]
    not_p = [Not(pj) for pj in p]
    succ = role(ext.succ_role)
    start = Nominal(ext.start)
    succ_p = [Exists(succ, pj) for pj in p]
    succ_not_p = [Exists(succ, x) for x in not_p]

    theta1 = relativize_formula(phi, marker)
    theta2 = Eq(not_marker, Or(start, big_or(p)))
    # below the bit that increments every bit flips from 1 to 0, above it
    # every bit stays
    flips = span_trees([And(p[j], succ_not_p[j]) for j in range(k)], And, TOP)
    stays = span_trees([Or(And(p[j], succ_p[j]), And(not_p[j], succ_not_p[j]))
                        for j in range(k)], And, TOP)
    not_last = And(not_marker, Not(big_and(p)))
    zeta_consec = Incl(not_last, big_or(And(And(flips(0, i), And(not_p[i], succ_p[i])),
                                            stays(i + 1, k)) for i in range(k)))
    zeta_first = FAnd(Eq(start, And(not_marker, big_and(not_p))),
                      Eq(Exists(succ.inverse(), TOP), And(not_marker, Not(start))))
    zeta_last = Eq(Exists(succ, TOP), not_last)
    theta3 = conj([zeta_consec, zeta_first, zeta_last])

    theta4, theta5a = _labeling_axioms(spec, ext, cs, marker, not_marker)
    t5b: list[Formula] = []
    for a, name in zip(spec.re, ext.label_roles):
        f = role(name)
        finv = f.inverse()
        at_p = [Exists(f, pj) for pj in p]
        at_not_p = [Exists(f, x) for x in not_p]
        pieces: list[Concept] = []
        for s in sorted(a.roles):
            r = role(s)
            rinv = r.inverse()
            next_p = [Exists(r, x) for x in at_p]
            next_not_p = [Exists(r, x) for x in at_not_p]
            tail = [Or(And(at_p[j], next_p[j]), And(at_not_p[j], next_not_p[j]))
                    for j in range(k)]
            tails = span_trees(tail, And, TOP)
            for i in range(k):
                # big_and([head] + tail[i + 1:]), spans shared: a span of it
                # that leaves out the head is a span of tail, split at the
                # same point, so only the spine [0, w) over the head is new
                widths = [k - i]
                while widths[-1] > 1:
                    widths.append((widths[-1] + 1) // 2)
                tree = And(at_not_p[i], next_p[i])  # the head
                for w in reversed(widths[:-1]):
                    tree = And(tree, tails(i + (w + 1) // 2, i + w))
                pieces.append(Exists(rinv, tree))
        t5b.append(Incl(Exists(finv, Not(a.source)), Exists(finv, big_or(pieces))))
    return conj([theta1, theta2, theta3, theta4, theta5a, conj(t5b)]), ext


def ord_reduction(spec: ReachSpec, variant: str) -> tuple[Formula, ExtVocabulary]:
    if variant == "exp":
        return ord_reduction_exp(spec)
    if variant == "poly":
        return ord_reduction_poly(spec)
    raise ReachDLError(f"unknown ord variant {variant!r}")


# ---------------------------------------------------------------------------
# Constructive extension and membership


def ord_lift(m: FiniteStructure, spec: ReachSpec, variant: str,
             labelings: dict[int, dict[int, int]] | None = None
             ) -> tuple[FiniteStructure, ExtVocabulary]:
    """Extend a semi-connected model with the order gadget and labeling
    roles; the result satisfies the encoding and passes ord_membership."""
    from .models import useful_labelings

    ext = ord_vocabulary(spec, variant)
    if labelings is None:
        labelings = useful_labelings(m, spec)
    size = ext.order_size()
    base = (max(m.universe) + 1) if m.universe else 0
    o_elems = list(range(base, base + size))
    universe = tuple(m.universe) + tuple(o_elems)
    concepts = {name: frozenset(v) for name, v in m.concepts.items()}
    roles = {name: frozenset(v) for name, v in m.roles.items()}
    nominals = dict(m.nominals)
    concepts[ext.marker] = frozenset(m.universe)
    if variant == "exp":
        for i, name in enumerate(ext.ladder):
            nominals[name] = o_elems[i]
        roles[ext.order_role] = frozenset(
            (o_elems[i], o_elems[j]) for i in range(size) for j in range(size) if i < j)
    else:
        nominals[ext.start] = o_elems[0]
        for i, name in enumerate(ext.counters, start=1):
            concepts[name] = frozenset(o_elems[v - 1] for v in range(1, size + 1)
                                       if (v - 1) >> (i - 1) & 1)
        roles[ext.succ_role] = frozenset((o_elems[v - 1], o_elems[v]) for v in range(1, size))
    for h in range(1, len(spec.re) + 1):
        roles[ext.label_roles[h - 1]] = frozenset(
            (u, o_elems[lab - 1]) for u, lab in labelings[h].items())
    return FiniteStructure(universe, concepts, roles, nominals), ext


def ord_substructure(n_struct: FiniteStructure, ext: ExtVocabulary) -> FiniteStructure:
    """The tau-substructure on the marker part (fresh symbols dropped)."""
    mpart = n_struct.concept_ext(ext.marker)
    fresh = {ext.marker, ext.order_role, ext.succ_role, ext.start,
             *ext.counters, *ext.ladder, *ext.label_roles}
    concepts = {name: v & mpart for name, v in n_struct.concepts.items() if name not in fresh}
    roles = {name: frozenset(p for p in v if p[0] in mpart and p[1] in mpart)
             for name, v in n_struct.roles.items() if name not in fresh}
    nominals = {name: e for name, e in n_struct.nominals.items() if name not in fresh}
    return FiniteStructure(tuple(sorted(mpart)), concepts, roles, nominals)


def ord_positions(n_struct: FiniteStructure, ext: ExtVocabulary) -> dict[int, int]:
    """The order position (from 1) of each element outside the marker: its
    ladder index (exp), or 1 plus the binary number its counter concepts
    spell, P_1 the lowest bit (poly)."""
    if ext.variant == "exp":
        return {n_struct.nominal_elem(name): i + 1 for i, name in enumerate(ext.ladder)}
    mpart = n_struct.concept_ext(ext.marker)
    position = {u: 1 for u in n_struct.universe if u not in mpart}
    for i, name in enumerate(ext.counters):
        for u in n_struct.concept_ext(name):
            if u in position:
                position[u] += 1 << i
    return position


def ord_labelings(n_struct: FiniteStructure, spec: ReachSpec,
                  ext: ExtVocabulary) -> dict[int, dict[int, int]]:
    """Read the numeric labelings off an order-gadget witness."""
    position = ord_positions(n_struct, ext)
    return {h: {u: position[v] for u, v in n_struct.role_ext(ext.label_roles[h - 1])}
            for h in range(1, len(spec.re) + 1)}


def ord_membership(n_struct: FiniteStructure, spec: ReachSpec, variant: str,
                   ext: ExtVocabulary | None = None) -> bool:
    """Check the five semantic membership conditions directly."""
    from .models import labeling_is_useful

    if ext is None:
        ext = ord_vocabulary(spec, variant)
    mpart = n_struct.concept_ext(ext.marker)
    opart = set(n_struct.universe) - mpart
    phi = semi_formula(spec)
    syms = formula_symbols(phi)
    # property 1: the substructure is a tau-structure satisfying semi(Phi)
    for name in syms["nominals"]:
        if name not in n_struct.nominals or n_struct.nominals[name] not in mpart:
            return False
    sub = ord_substructure(n_struct, ext)
    if not eval_formula(sub, phi):
        return False
    # property 2: partition
    if variant == "exp":
        try:
            ladder = [n_struct.nominal_elem(name) for name in ext.ladder]
        except ReachDLError:
            return False
        if set(ladder) != opart or len(set(ladder)) != len(ladder):
            return False
        # property 3: the order is exactly the ladder order
        ordext = n_struct.role_ext(ext.order_role)
        for i in range(len(ladder)):
            for j in range(len(ladder)):
                if ((ladder[i], ladder[j]) in ordext) != (i < j):
                    return False
        position = ord_positions(n_struct, ext)
    else:
        k = len(ext.counters)
        if ext.start not in n_struct.nominals:
            return False
        covered = {n_struct.nominal_elem(ext.start)}
        for name in ext.counters:
            pext = n_struct.concept_ext(name)
            if not pext <= opart:
                return False
            covered |= pext
        if covered != opart:
            return False
        # property 3: eval is a bijection onto [1, 2^k], start maps to 1,
        # succ restricted to O is exactly the increment relation
        position = ord_positions(n_struct, ext)
        if len(opart) != 1 << k or set(position.values()) != set(range(1, (1 << k) + 1)):
            return False
        if position[n_struct.nominal_elem(ext.start)] != 1:
            return False
        succ_o = {(a, b) for a, b in n_struct.role_ext(ext.succ_role)
                  if a in opart and b in opart}
        at = {p: u for u, p in position.items()}
        want = {(u, at[position[u] + 1]) for u in opart if position[u] + 1 in at}
        if succ_o != want:
            return False
    # properties 4 and 5 per assertion
    cs = closure_concepts(phi)
    for h, a in enumerate(spec.re, start=1):
        pairs = n_struct.role_ext(ext.label_roles[h - 1])
        domain = sub.concept_ext(a.target)
        if {u for u, _ in pairs} != set(domain) or len(pairs) != len(domain):
            return False
        if not all(v in opart for _, v in pairs):
            return False
        labeling = {u: position[v] for u, v in pairs}
        if not labeling_is_useful(sub, spec, h, labeling, cs):
            return False
    return True


# ---------------------------------------------------------------------------
# Implication reduction


def implication_reduction(spec1: ReachSpec, spec2: ReachSpec
                          ) -> tuple[ReachSpec, tuple[str, ...]]:
    """kappa: spec1 with the negation of spec2 pushed into the base via one
    fresh closure concept per reach assertion of spec2; spec1 implies spec2
    iff kappa is unsatisfiable.  Returns kappa and the fresh concepts."""
    taken = _occurring_names(semi_formula(spec1)) | _occurring_names(semi_formula(spec2))
    fresh: list[str] = []
    alphas: list[Formula] = []
    for h, a in enumerate(spec2.re, start=1):
        x = Atomic(_fresh(f"__imp_X{h}", taken))
        fresh.append(x.name)
        closure = conj(Incl(Exists(role(s), Not(x)), Not(x)) for s in sorted(a.roles))
        alphas.append(conj([Incl(a.source, x),
                            FNot(Eq(And(Atomic(a.target), Not(x)), BOT)),
                            closure]))
    parts: list[Formula] = [FNot(spec2.base)]
    if spec2.di:
        parts.append(FNot(conj(d.formula() for d in
                               sorted(spec2.di, key=lambda d: (d.left, d.right)))))
    parts.extend(alphas)
    kappa = ReachSpec(FAnd(spec1.base, disj(parts)), spec1.re, spec1.di)
    return kappa, tuple(fresh)


# ---------------------------------------------------------------------------
# Negation normal form and boolean-closure elimination


def nnf(phi: Formula) -> Formula:
    """Push formula-level negation down to inclusions; equalities expand."""
    phi = expand_eq(phi)

    def pos(f: Formula) -> Formula:
        if isinstance(f, FAnd):
            return FAnd(pos(f.left), pos(f.right))
        if isinstance(f, FOr):
            return FOr(pos(f.left), pos(f.right))
        if isinstance(f, FNot):
            return neg(f.inner)
        return f

    def neg(f: Formula) -> Formula:
        if isinstance(f, FAnd):
            return FOr(neg(f.left), neg(f.right))
        if isinstance(f, FOr):
            return FAnd(neg(f.left), neg(f.right))
        if isinstance(f, FNot):
            return pos(f.inner)
        return FNot(f)

    return pos(phi)


def is_nnf(phi: Formula) -> bool:
    if isinstance(phi, (Incl, Eq)):
        return True
    if isinstance(phi, (FAnd, FOr)):
        return is_nnf(phi.left) and is_nnf(phi.right)
    if isinstance(phi, FNot):
        return isinstance(phi.inner, (Incl, Eq))
    return False


def is_negation_free(phi: Formula) -> bool:
    """No formula-level negation or disjunction anywhere."""
    if isinstance(phi, (Incl, Eq)):
        return True
    if isinstance(phi, FAnd):
        return is_negation_free(phi.left) and is_negation_free(phi.right)
    return False


@dataclass
class BCInfo:
    """Fresh symbols of a boolean-closure elimination."""

    nominals: list[str] = field(default_factory=list)
    roles: list[str] = field(default_factory=list)
    role_canon: dict[str, str] = field(default_factory=dict)
    _counter: int = 0

    def next_nominal(self) -> str:
        self._counter += 1
        name = f"__bc_o{self._counter}"
        self.nominals.append(name)
        return name

    def next_role(self) -> str:
        self._counter += 1
        name = f"__bc_r{self._counter}"
        self.roles.append(name)
        return name

    def extend(self, vocab: Vocabulary) -> Vocabulary:
        return vocab.with_nominals(self.nominals).with_roles(self.roles)

    def strip(self, fs: FiniteStructure) -> FiniteStructure:
        """Drop this reduction's fresh symbols from a structure."""
        drop_noms, drop_roles = set(self.nominals), set(self.roles)
        noms = {k: v for k, v in fs.nominals.items() if k not in drop_noms}
        roles = {k: v for k, v in fs.roles.items() if k not in drop_roles}
        return FiniteStructure(fs.universe, fs.concepts, roles, noms)


def _guarded(outer: Callable[[Concept], Concept] | None,
             guard: Concept) -> Callable[[Concept], Concept]:
    """The side rewrite of a disjunct: C becomes And(C, guard), then the
    enclosing disjuncts' rewrite `outer` (None at the top) applies to that,
    once per distinct side object."""
    if outer is None:
        return _per_object(lambda c: And(c, guard))
    return _per_object(lambda c: outer(And(c, guard)))


def _side_atom(a: Formula, side: Callable[[Concept], Concept] | None) -> Formula:
    """Inclusion or equality `a` with `side` applied to both sides."""
    return a if side is None else type(a)(side(a.left), side(a.right))


def _bc(phi: Formula, info: BCInfo, ev: Evaluator | None,
        assign: dict[str, object], side: Callable[[Concept], Concept] | None = None) -> Formula:
    """The recursion; when an evaluator over a model is given, `assign`
    collects interpretations of the fresh symbols making the output true
    over its universe.  `side` relativizes every side of an output atom to
    the guards of the enclosing disjuncts (`_guarded`), so each atom is
    built once, with all of them.  Both callers pass expand_eq's output,
    so no Eq reaches it."""
    if isinstance(phi, Incl):
        return _side_atom(phi, side)
    if isinstance(phi, FNot):
        if not isinstance(phi.inner, Incl):
            raise NonNNFError("negation on a non-atomic formula; convert to NNF first")
        o = Nominal(info.next_nominal())
        c, d = phi.inner.left, phi.inner.right
        if ev is not None:
            witnesses = ev.concept(c) & ~ev.concept(d)
            assign[o.name] = min(ev.elements(witnesses) or ev.structure.universe)
        return FAnd(_side_atom(Incl(o, c), side), _side_atom(Incl(d, Not(o)), side))
    if isinstance(phi, FAnd):
        return FAnd(_bc(phi.left, info, ev, assign, side),
                    _bc(phi.right, info, ev, assign, side))
    if isinstance(phi, FOr):
        r = info.next_role()
        o1, o2, ox, oy = (Nominal(info.next_nominal()) for _ in range(4))
        info.role_canon[r] = ox.name
        if ev is None:
            on = 0  # neither branch active; fresh symbols stay arbitrary
        else:
            on = 1 if ev.formula(phi.left) else 2
            if on == 2 and not ev.formula(phi.right):
                raise ReachDLError("cannot lift: the model satisfies neither disjunct")
            universe = ev.structure.universe
            elems = sorted(universe)
            if len(elems) < 2:
                raise ReachDLError("boolean-closure lifting needs at least 2 elements")
            d0, d1 = elems[0], elems[1]
            assign[ox.name] = d0
            assign[oy.name] = d1
            assign[o1.name] = d0 if on == 1 else d1
            assign[o2.name] = d1 if on == 1 else d0
            assign[r] = frozenset((u, d0) for u in universe)
        rr = role(r)
        psi1 = _bc(phi.left, info, ev if on == 1 else None, assign,
                   _guarded(side, Exists(rr, o1)))
        psi2 = _bc(phi.right, info, ev if on == 2 else None, assign,
                   _guarded(side, Exists(rr, o2)))
        prep = conj([_side_atom(a, side) for a in (
            Incl(ox, Not(oy)), Incl(o1, Not(o2)), Eq(Or(ox, oy), Or(o1, o2)),
            Eq(Exists(rr, ox), TOP), Eq(Exists(rr, oy), BOT))])
        return conj([prep, psi1, psi2])
    raise TypeError(f"not a formula: {phi!r}")  # pragma: no cover


def boolean_closure_reduction(phi: Formula) -> tuple[Formula, BCInfo]:
    """Eliminate formula-level negation and disjunction; equisatisfiable
    with the NNF input over universes of size at least 2."""
    expanded = expand_eq(phi)
    if not is_nnf(expanded):
        raise NonNNFError("input must be in negation normal form")
    info = BCInfo()
    psi = _bc(expanded, info, None, {})
    return psi, info


def bc_lift(phi: Formula, m: FiniteStructure) -> tuple[FiniteStructure, Formula, BCInfo]:
    """Witness extension: from a model of the NNF input, interpretations of
    the fresh symbols (same universe) satisfying the reduction output."""
    expanded = expand_eq(phi)
    if not is_nnf(expanded):
        raise NonNNFError("input must be in negation normal form")
    ev = Evaluator(m)
    if not ev.formula(phi):
        raise ReachDLError("bc_lift needs a model of the input formula")
    info = BCInfo()
    assign: dict[str, object] = {}
    psi = _bc(expanded, info, ev, assign)
    fallback = min(m.universe) if m.universe else 0
    lifted = m.with_symbols(roles={name: assign.get(name, frozenset()) for name in info.roles},
                            nominals={name: assign.get(name, fallback) for name in info.nominals})
    return lifted, psi, info


# ---------------------------------------------------------------------------
# The satisfiability pipeline


@dataclass(frozen=True)
class PipelineResult:
    formula: Formula
    ord_formula: Formula
    ext: ExtVocabulary
    bc: BCInfo
    vocabulary: Vocabulary

    def manifest(self) -> list[str]:
        lines = [f"variant {self.ext.variant}", f"concept {self.ext.marker}"]
        lines += [f"concept {name}" for name in self.ext.counters]
        lines += [f"nominal {name}" for name in self.ext.ladder]
        if self.ext.start:
            lines.append(f"nominal {self.ext.start}")
        if self.ext.order_role:
            lines.append(f"role {self.ext.order_role}")
        if self.ext.succ_role:
            lines.append(f"frole {self.ext.succ_role}")
        lines += [f"frole {name}" for name in self.ext.label_roles]
        lines += [f"nominal {name}" for name in self.bc.nominals]
        lines += [f"role {name} (canon -> {self.bc.role_canon[name]})" for name in self.bc.roles]
        return lines


def sat_pipeline_full(spec: ReachSpec, vocab: Vocabulary, variant: str = "poly"
                      ) -> PipelineResult:
    """semi -> ord -> nnf -> boolean closure: the plain negation-free
    formula with what each stage added."""
    ord_formula, ext = ord_reduction(spec, variant)
    psi, info = boolean_closure_reduction(nnf(ord_formula))
    out_vocab = info.extend(ext.extend(vocab))
    return PipelineResult(psi, ord_formula, ext, info, out_vocab)


# ---------------------------------------------------------------------------
# OWL functional-syntax export (best effort)


def _owl_role(r: Role) -> str:
    if r.updates:
        raise ReachDLError("update roles have no OWL counterpart")
    return f"ObjectInverseOf(:{r.name})" if r.inverted else f":{r.name}"


def _owl_concept(c: Concept) -> str:
    if isinstance(c, Atomic):
        return f":{c.name}"
    if isinstance(c, Nominal):
        return f"ObjectOneOf(:{c.name})"
    if isinstance(c, Top):
        return "owl:Thing"
    if isinstance(c, Bot):
        return "owl:Nothing"
    if isinstance(c, And):
        return f"ObjectIntersectionOf({_owl_concept(c.left)} {_owl_concept(c.right)})"
    if isinstance(c, Or):
        return f"ObjectUnionOf({_owl_concept(c.left)} {_owl_concept(c.right)})"
    if isinstance(c, Not):
        return f"ObjectComplementOf({_owl_concept(c.inner)})"
    if isinstance(c, Exists):
        return f"ObjectSomeValuesFrom({_owl_role(c.role)} {_owl_concept(c.inner)})"
    if isinstance(c, AtMost):
        return f"ObjectMaxCardinality({c.bound} {_owl_role(c.role)} {_owl_concept(c.inner)})"
    raise TypeError(f"not a concept: {c!r}")  # pragma: no cover


def owl_export(phi: Formula, vocab: Vocabulary) -> str:
    """Functional-syntax ontology for a negation-free conjunction; suitable
    for handing the pipeline output to an external reasoner."""
    if not is_negation_free(phi):
        raise ReachDLError("OWL export covers only negation-free conjunctions")
    lines = ["Prefix(:=<urn:reachdl:>)",
             "Prefix(owl:=<http://www.w3.org/2002/07/owl#>)",
             "Ontology(<urn:reachdl:export>"]
    for name in sorted(vocab.concepts):
        lines.append(f"Declaration(Class(:{name}))")
    for name in sorted(vocab.roles):
        lines.append(f"Declaration(ObjectProperty(:{name}))")
    for name in sorted(vocab.nominals):
        lines.append(f"Declaration(NamedIndividual(:{name}))")
    for name in sorted(vocab.functional):
        lines.append(f"FunctionalObjectProperty(:{name})")
    for atom in conjuncts(phi):
        if isinstance(atom, Incl):
            lines.append(f"SubClassOf({_owl_concept(atom.left)} {_owl_concept(atom.right)})")
        elif isinstance(atom, Eq):
            lines.append(
                f"EquivalentClasses({_owl_concept(atom.left)} {_owl_concept(atom.right)})")
        else:  # pragma: no cover
            raise ReachDLError("unexpected connective in negation-free formula")
    lines.append(")")
    return "\n".join(lines) + "\n"
