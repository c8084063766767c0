"""Backwards propagation: substitution, the boolean-condition translation,
the raw transformer table (psi), its ext-renamed form (phi), the
abort-aware composition (theta), and the atom-local update-role eliminator.

The transformer rewrites the postcondition over the post-state into a
formula over the pre-state extended with: one copy R_ext per unconstrained
relation R, one label nominal per field read and allocation, and the abort
flag's nominal.

The dispose row rewrites every field f to f[x -> null]: the step relation
(programs) sets every field of a disposed cell to null, so the transformer
and the step agree on it."""

from __future__ import annotations

from dataclasses import dataclass

from .memory import HeapVocabulary
from .programs import (ABORT_FLAG, AndB, Assign, Assume, BoolExpr, Dispose, EqB,
                       Expr, FalseB, FalseE, FieldE, If, New, NotB, NullE, OrB,
                       ReadField, Skip, Stmt, TrueB, TrueE, UnallocB,
                       VarE, WriteField, commands, instrument_abort, labels_of)
from .structures import FiniteStructure
from .syntax import (And, AtMost, Atomic, BOT, Concept, Eq, Exists, FAnd,
                     FNot, FOr, Formula, Incl, KindMismatchError, Nominal, Not,
                     Or, ReachDLError, Role, TOP, TRUE, UpdatePoint,
                     formula_symbols, map_atoms, map_concept, map_sides,
                     role, subconcepts)


class AssumeInPsiError(ReachDLError):
    pass


class PoolSymbolError(ReachDLError):
    pass


_UNTRACKED = ("MemPool", "PossibleTargets")


def check_postcondition(phi: Formula) -> None:
    """Postconditions cannot mention the pool bookkeeping: allocation and
    disposal move cells between MemPool/PossibleTargets, and the
    transformer table has no rewriting for them (they are excluded from
    the post-state copies for the same reason).  Alloc, Addresses and Aux
    are fine: the first is substituted, the others never change."""
    bad = formula_symbols(phi)["concepts"] & set(_UNTRACKED)
    if bad:
        raise PoolSymbolError(
            f"postcondition mentions untracked pool symbols: {sorted(bad)}")


LABEL_PREFIX = "__lab_"
EXT_SUFFIX = "_ext"


def label_nominal(label: int) -> str:
    return f"{LABEL_PREFIX}{label}"


def ext_name(name: str) -> str:
    return name + EXT_SUFFIX


def tau_rem_map(heap: HeapVocabulary) -> dict[str, str]:
    """R -> R_ext for the non-field, non-ghost, non-required relations."""
    return {name: ext_name(name) for name in heap.tau_rem()}


# ---------------------------------------------------------------------------
# Substitution


def _with_role(c: Concept, r: Role) -> Concept:
    """The restriction c (Exists or AtMost) over the role expression r."""
    if isinstance(c, Exists):
        return Exists(r, c.inner)
    return AtMost(c.bound, r, c.inner)


def substitute(phi: Formula, target, replacement) -> Formula:
    """Syntactic replacement of every occurrence of the target symbol.

    nominal -> nominal renames occurrences including update points;
    atomic concept -> concept replaces concept occurrences; role -> role
    rewrites the base of every role expression with that name (an update
    replacement prepends its points under the occurrence's own points,
    matching textual substitution into the expression)."""
    if isinstance(target, Nominal):
        if not isinstance(replacement, Nominal):
            raise KindMismatchError("a nominal substitutes only for a nominal")
        old, new = target.name, replacement.name

        def fn(c: Concept) -> Concept:
            if isinstance(c, Nominal) and c.name == old:
                return replacement
            if isinstance(c, (Exists, AtMost)) and c.role.updates:
                ups = tuple(UpdatePoint(new if p.source == old else p.source,
                                        new if p.target == old else p.target)
                            for p in c.role.updates)
                if ups != c.role.updates:
                    return _with_role(c, Role(c.role.name, c.role.inverted, ups))
            return c

    elif isinstance(target, Atomic):
        if not isinstance(replacement, Concept):
            raise KindMismatchError("a concept expression must replace a concept name")

        def fn(c: Concept) -> Concept:
            return replacement if c == target else c

    elif isinstance(target, Role):
        if target.inverted or target.updates:
            raise KindMismatchError("role substitution targets a plain role name")
        if not isinstance(replacement, Role) or replacement.inverted:
            raise KindMismatchError("role replacement must be a non-inverted role expression")

        def fn(c: Concept) -> Concept:
            if isinstance(c, (Exists, AtMost)) and c.role.name == target.name:
                return _with_role(c, Role(replacement.name, c.role.inverted,
                                          replacement.updates + c.role.updates))
            return c

    else:
        raise KindMismatchError(f"cannot substitute for {target!r}")
    return map_sides(phi, lambda c: map_concept(c, fn))


# ---------------------------------------------------------------------------
# Boolean conditions as formulas


def _expr_concept(e: Expr) -> Concept:
    if isinstance(e, VarE):
        return Nominal(e.name)
    if isinstance(e, FieldE):
        return Exists(Role(e.fieldname, inverted=True), Nominal(e.var))
    if isinstance(e, NullE):
        return Nominal("null")
    if isinstance(e, TrueE):
        return Nominal("T")
    if isinstance(e, FalseE):
        return Nominal("F")
    raise TypeError(f"not an expression: {e!r}")  # pragma: no cover


def eps_bool(b: BoolExpr) -> Formula:
    """The condition as a formula: equality tests become concept
    equalities between the value concepts of the two sides."""
    if isinstance(b, EqB):
        return Eq(_expr_concept(b.left), _expr_concept(b.right))
    if isinstance(b, NotB):
        return FNot(eps_bool(b.inner))
    if isinstance(b, AndB):
        return FAnd(eps_bool(b.left), eps_bool(b.right))
    if isinstance(b, OrB):
        return FOr(eps_bool(b.left), eps_bool(b.right))
    if isinstance(b, TrueB):
        return TRUE
    if isinstance(b, FalseB):
        return Incl(TOP, BOT)
    if isinstance(b, UnallocB):
        return FNot(Incl(Nominal(b.var), Atomic("Alloc")))
    raise TypeError(f"not a boolean expression: {b!r}")  # pragma: no cover


def _expr_nominal(e: Expr) -> Nominal:
    c = _expr_concept(e)
    if not isinstance(c, Nominal):
        raise ReachDLError("only variables and literals are allowed here")
    return c


# ---------------------------------------------------------------------------
# The transformer table


def psi(s: Stmt, phi: Formula, heap: HeapVocabulary) -> Formula:
    """The raw backwards transformer, folded over the parts of s's
    sequence, last part first; assume commands are out of scope (theta
    handles them through the instrumentation)."""
    for c in reversed(list(commands(s, branches=False))):
        if isinstance(c, Skip):
            continue
        if isinstance(c, Assign):
            phi = substitute(phi, Nominal(c.var), _expr_nominal(c.expr))
        elif isinstance(c, ReadField):
            o_y = Nominal(label_nominal(c.label))
            renamed = substitute(phi, Nominal(c.var), o_y)
            phi = FAnd(renamed,
                       Eq(Exists(Role(c.fieldname, inverted=True), Nominal(c.src)), o_y))
        elif isinstance(c, WriteField):
            update = role(c.fieldname).updated(c.var, _expr_nominal(c.expr).name)
            phi = substitute(phi, role(c.fieldname), update)
        elif isinstance(c, If):
            eb = eps_bool(c.cond)
            phi = FOr(FAnd(eb, psi(c.then, phi, heap)),
                      FAnd(FNot(eb), psi(c.els, phi, heap)))
        elif isinstance(c, New):
            o_y = Nominal(label_nominal(c.label))
            out = substitute(phi, Nominal(c.var), o_y)
            out = substitute(out, Atomic("Alloc"), Or(Atomic("Alloc"), o_y))
            # the MemPool conjunct pins the allocation label to a pool cell;
            # without it, assignments placing the label on an unallocated
            # non-pool cell can satisfy the output although no run allocates it
            phi = FAnd(FAnd(out, Incl(o_y, Not(Atomic("Alloc")))),
                       Incl(o_y, Atomic("MemPool")))
        elif isinstance(c, Dispose):
            out = substitute(phi, Atomic("Alloc"), And(Atomic("Alloc"), Not(Nominal(c.var))))
            occurring = formula_symbols(out)["roles"]
            for f in heap.fields:
                if f in occurring:
                    out = substitute(out, role(f), role(f).updated(c.var, "null"))
            phi = out
        elif isinstance(c, Assume):
            raise AssumeInPsiError("assume is outside the transformer table; use theta")
        else:
            raise TypeError(f"not a statement: {c!r}")  # pragma: no cover
    return phi


def phi_ext(s: Stmt, post: Formula, heap: HeapVocabulary) -> Formula:
    """psi after renaming the unconstrained relations of the postcondition
    to their post-state copies (the renaming happens once, up front)."""
    renamed = post
    for name, new in tau_rem_map(heap).items():
        if name in heap.data_concepts:
            renamed = substitute(renamed, Atomic(name), Atomic(new))
        else:
            renamed = substitute(renamed, role(name), role(new))
    return psi(s, renamed, heap)


@dataclass(frozen=True)
class ThetaResult:
    formula: Formula
    instrumented: Stmt
    label_nominals: tuple[str, ...]
    ext_map: dict[str, str]


def theta_full(s: Stmt, post: Formula, heap: HeapVocabulary) -> ThetaResult:
    """theta(S, phi): phi_ext over the instrumented program applied to the
    conjunction of phi and (o_abo == o_F), with the fresh-symbol inventory."""
    check_postcondition(post)
    sbar = instrument_abort(s)
    target = FAnd(post, Eq(Nominal(ABORT_FLAG), Nominal("F")))
    out = phi_ext(sbar, target, heap)
    labels = tuple(label_nominal(lab) for lab in sorted(labels_of(sbar)))
    return ThetaResult(out, sbar, labels, tau_rem_map(heap))


def theta_structure(m1: "MemoryStructure", m2: "MemoryStructure",
                    d: dict[int, int], d_abo: int) -> FiniteStructure:
    """The extended pre-state of the backwards-propagation lemma: m1 plus
    the post-state copies of the unconstrained relations, the label
    constants, and the abort flag's initial value."""
    heap = m1.heap
    concepts = dict(m1.fs.concepts)
    roles = dict(m1.fs.roles)
    nominals = dict(m1.fs.nominals)
    for name in heap.data_concepts:
        concepts[ext_name(name)] = m2.fs.concept_ext(name)
    for name in heap.data_roles:
        roles[ext_name(name)] = m2.fs.role_ext(name)
    for lab, elem in d.items():
        nominals[label_nominal(lab)] = elem
    nominals[ABORT_FLAG] = d_abo
    return FiniteStructure(m1.fs.universe, concepts, roles, nominals)


# ---------------------------------------------------------------------------
# Update-role elimination


def eliminate_updates(phi: Formula) -> Formula:
    """phi without update roles, atom by atom; equivalent on every
    structure that interprets the point nominals."""
    return map_atoms(phi, _eliminate_atom)


def _eliminate_atom(atom: Formula) -> Formula:
    """Outermost point first: its target test is a sentence, so the split
    on it stays inside the atom that holds the occurrence."""
    target = next((c for c in subconcepts(atom)
                   if isinstance(c, (Exists, AtMost)) and c.role.updates), None)
    if target is None:
        return atom
    r = target.role
    point = r.updates[-1]
    base = Role(r.name, False, r.updates[:-1])
    base_inv = Role(r.name, True, r.updates[:-1])
    s, t = Nominal(point.source), Nominal(point.target)
    inner = target.inner

    if isinstance(target, Exists):
        if not r.inverted:
            side = Incl(t, inner)  # target element satisfies the filler
            repl_true: Concept = Or(s, And(Not(s), Exists(base, inner)))
            repl_false: Concept = And(Not(s), Exists(base, inner))
        else:
            side = Incl(s, inner)
            rest = Exists(base_inv, And(inner, Not(s)))
            repl_true = Or(rest, t)
            repl_false = rest
    else:
        n = target.bound
        if not r.inverted:
            side = Incl(t, inner)
            keep = AtMost(n, base, inner)
            repl_false = Or(s, And(Not(s), keep))
            if n >= 1:
                repl_true = Or(s, And(Not(s), keep))
            else:
                repl_true = And(Not(s), keep)
        else:
            side = Incl(s, inner)
            rest_c = And(inner, Not(s))
            repl_false = AtMost(n, base_inv, rest_c)
            if n >= 1:
                repl_true = Or(And(t, AtMost(n - 1, base_inv, rest_c)),
                               And(Not(t), AtMost(n, base_inv, rest_c)))
            else:
                repl_true = And(Not(t), AtMost(0, base_inv, rest_c))

    def replaced(new: Concept) -> Formula:
        return _eliminate_atom(map_sides(atom, lambda c: map_concept(
            c, lambda node: new if node == target else node)))

    side = _eliminate_atom(side)
    return FOr(FAnd(side, replaced(repl_true)), FAnd(FNot(side), replaced(repl_false)))
