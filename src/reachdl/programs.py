"""The heap programming language: loopless statements, expression and
boolean evaluation, the step relation, abort instrumentation,
control-flow-graph programs, path execution and bounded reachable-set
computation.

Dereferencing a variable whose target is unallocated is the only source
of expression errors; reading a bare variable is total.  Abort is a
normal return value, never an exception.

Traversals.  Statements are walked through one pair: map_stmt rebuilds a
statement bottom-up, and commands walks its commands in preorder (or only
the parts of its top-level sequence); cond_exprs walks the expressions of
a condition.  All three keep their own stack, so a long flat block costs
no recursion depth; the step relation and wp.psi recurse once per nested
if, not per command.

The step relation is written once, in _run, over four policies for
allocation and field reads: the least pool cell (run_loopless, which can
record the values it pinned), every pool cell (run_all), the least cell of
each class of interchangeable pool cells (run_representatives, which
reach_sets and vc.check_inductive use), and a label assignment d that pins
every labeled read and allocation (run_labeled).
Disposing of a cell moves it from Alloc to PossibleTargets and sets its
fields to null.  The memory axioms allow any field value on a possible
target; null is the value the dispose row of wp.psi assumes.

The step works on the masks of memory.MemoryStructure: a variable is a
nominal bit, a field a tuple of successor rows, and allocation and
disposal move a bit between the MemPool, Alloc and PossibleTargets masks.
Each command builds a new state that shares the tables it leaves alone;
no FiniteStructure is built, and `run_all` and `reach_sets` deduplicate
states by their int keys."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from itertools import count
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .memory import MemoryStructure, PoolExhaustedError, HeapVocabulary
from .structures import mask_bits
from .syntax import Formula, ReachDLError, Vocabulary


class Abort:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "abort"


ABORT = Abort()


class Err:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "err"


ERR = Err()


class StateCapError(ReachDLError):
    pass


# ---------------------------------------------------------------------------
# Expressions and booleans


@dataclass(frozen=True)
class VarE:
    name: str


@dataclass(frozen=True)
class FieldE:
    var: str
    fieldname: str


@dataclass(frozen=True)
class NullE:
    pass


@dataclass(frozen=True)
class TrueE:
    pass


@dataclass(frozen=True)
class FalseE:
    pass


Expr = VarE | FieldE | NullE | TrueE | FalseE


@dataclass(frozen=True)
class EqB:
    left: Expr
    right: Expr


@dataclass(frozen=True)
class NotB:
    inner: "BoolExpr"


@dataclass(frozen=True)
class AndB:
    left: "BoolExpr"
    right: "BoolExpr"


@dataclass(frozen=True)
class OrB:
    left: "BoolExpr"
    right: "BoolExpr"


@dataclass(frozen=True)
class TrueB:
    pass


@dataclass(frozen=True)
class FalseB:
    pass


@dataclass(frozen=True)
class UnallocB:
    """Internal guard: true iff the variable's target is unallocated; this
    is the semantic abort test used by the instrumentation."""

    var: str


BoolExpr = EqB | NotB | AndB | OrB | TrueB | FalseB | UnallocB


def _field_bit(ms: MemoryStructure, var: str, fieldname: str):
    """The bit of var.f in ms, or ERR when var's target is unallocated."""
    base = ms.bit(var)
    if not ms.cons.get("Alloc", 0) >> base & 1:
        return ERR
    rows = ms.rsucc.get(fieldname)
    if rows is None or not rows[base]:
        raise ReachDLError(f"field {fieldname} undefined on {ms.elements[base]}")
    return rows[base].bit_length() - 1


_CONSTANT_NOMINALS = {NullE: "null", TrueE: "T", FalseE: "F"}


def _bit(ms: MemoryStructure, e: Expr):
    """The bit of e's value in ms, or ERR."""
    t = type(e)
    if t is VarE:
        return ms.bit(e.name)
    if t is FieldE:
        return _field_bit(ms, e.var, e.fieldname)
    if t in _CONSTANT_NOMINALS:
        return ms.bit(_CONSTANT_NOMINALS[t])
    raise TypeError(f"not an expression: {e!r}")  # pragma: no cover


def eval_expr(ms: MemoryStructure, e: Expr):
    """Element or ERR.  Bare variable reads are total; a dereference
    errs when the base is unallocated."""
    bit = _bit(ms, e)
    return bit if bit is ERR else ms.elements[bit]


def eval_bool(ms: MemoryStructure, b: BoolExpr):
    """True, False or ERR; errors propagate strictly.  Values are compared
    as bits, which are distinct for distinct elements."""
    t = type(b)
    if t is TrueB:
        return True
    if t is FalseB:
        return False
    if t is UnallocB:
        return not ms.cons.get("Alloc", 0) >> ms.bit(b.var) & 1
    if t is EqB:
        l, r = _bit(ms, b.left), _bit(ms, b.right)
        if l is ERR or r is ERR:
            return ERR
        return l == r
    if t is NotB:
        v = eval_bool(ms, b.inner)
        return ERR if v is ERR else not v
    if t is AndB or t is OrB:
        l, r = eval_bool(ms, b.left), eval_bool(ms, b.right)
        if l is ERR or r is ERR:
            return ERR
        return (l and r) if t is AndB else (l or r)
    raise TypeError(f"not a boolean expression: {b!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Statements


@dataclass(frozen=True)
class Skip:
    label: int = 0


@dataclass(frozen=True)
class Assign:
    """var := var2 | null | T | F"""

    var: str
    expr: Expr
    label: int = 0


@dataclass(frozen=True)
class ReadField:
    """var := src.f  (labeled: the refined step pins the value read)"""

    var: str
    src: str
    fieldname: str
    label: int = 0


@dataclass(frozen=True)
class WriteField:
    """var.f := var2 | null | T | F"""

    var: str
    fieldname: str
    expr: Expr
    label: int = 0


@dataclass(frozen=True)
class New:
    var: str
    label: int = 0


@dataclass(frozen=True)
class Dispose:
    var: str
    label: int = 0


@dataclass(frozen=True)
class Assume:
    cond: BoolExpr
    label: int = 0


@dataclass(frozen=True)
class If:
    cond: BoolExpr
    then: "Stmt"
    els: "Stmt"
    label: int = 0


@dataclass(frozen=True)
class Seq:
    first: "Stmt"
    second: "Stmt"


Stmt = Skip | Assign | ReadField | WriteField | New | Dispose | Assume | If | Seq


def seq(*stmts: Stmt) -> Stmt:
    out: Stmt | None = None
    for s in stmts:
        out = s if out is None else Seq(out, s)
    return Skip() if out is None else out


# ---------------------------------------------------------------------------
# The statement walks


def commands(s: Stmt, branches: bool = True) -> Iterator[Stmt]:
    """Preorder walk over the commands of s, in program order: Seq chains
    are flattened, never yielded, and an if comes before the commands of
    its then branch, which come before those of its else branch.  With
    branches=False the walk stops at the ifs: it yields the parts of s's
    top-level sequence."""
    stack = [s]
    while stack:
        node = stack.pop()
        if isinstance(node, Seq):
            stack.append(node.second)
            stack.append(node.first)
            continue
        yield node
        if branches and isinstance(node, If):
            stack.append(node.els)
            stack.append(node.then)


def map_stmt(s: Stmt, fn: Callable[[Stmt, int], Stmt]) -> Stmt:
    """Bottom-up rebuild: fn(c, i) is applied to every command c, where i
    is c's position in commands(s), and its result replaces c.  An if
    reaches fn after its branches are mapped; Seq chains keep their shape
    and are never passed to fn.  A subtree none of whose commands changed
    comes back as the same object."""
    out: list[Stmt] = []
    stack: list[tuple[Stmt, int | None]] = [(s, None)]
    position = 0
    while stack:
        node, i = stack.pop()
        if isinstance(node, Seq):
            if i is None:
                stack += [(node, 0), (node.second, None), (node.first, None)]
            else:
                second, first = out.pop(), out.pop()
                out.append(node if first is node.first and second is node.second
                           else Seq(first, second))
        elif i is not None:  # an if whose branches are mapped
            els, then = out.pop(), out.pop()
            if then is not node.then or els is not node.els:
                node = If(node.cond, then, els, node.label)
            out.append(fn(node, i))
        else:
            if isinstance(node, If):
                stack += [(node, position), (node.els, None), (node.then, None)]
            else:
                out.append(fn(node, position))
            position += 1
    return out[0]


def cond_exprs(b: BoolExpr) -> Iterator[Expr]:
    """The expressions a condition reads, left to right: both sides of
    every equality test, and the variable of every allocation test."""
    stack = [b]
    while stack:
        node = stack.pop()
        if isinstance(node, EqB):
            yield node.left
            yield node.right
        elif isinstance(node, UnallocB):
            yield VarE(node.var)
        elif isinstance(node, NotB):
            stack.append(node.inner)
        elif isinstance(node, (AndB, OrB)):
            stack.append(node.right)
            stack.append(node.left)


def labels_of(s: Stmt) -> list[int]:
    return [c.label for c in commands(s)]


def relabel(s: Stmt, start: int = 1, keep: frozenset[int] = frozenset()) -> Stmt:
    """Fresh labels start, start+1, ... in command order; the commands
    whose id is in `keep` keep their labels."""
    fresh = (i for i, c in enumerate(commands(s)) if id(c) not in keep)
    label = dict(zip(fresh, count(start)))
    out = map_stmt(s, lambda c, i: replace(c, label=label[i]) if i in label else c)
    labs = labels_of(out)
    if len(labs) != len(set(labs)):
        raise ReachDLError(f"relabel gave duplicate labels: {labs}")
    return out


def touched_symbols(s: Stmt) -> tuple[set[str], set[str]]:
    """(variables, fields) the statement reads or writes."""
    variables: set[str] = set()
    fields: set[str] = set()
    for c in commands(s):
        if isinstance(c, (Assume, If)):
            exprs = list(cond_exprs(c.cond))
        else:
            exprs = [c.expr] if isinstance(c, (Assign, WriteField)) else []
            if not isinstance(c, Skip):
                variables.add(c.var)
            if isinstance(c, ReadField):
                exprs.append(FieldE(c.src, c.fieldname))
            if isinstance(c, WriteField):
                fields.add(c.fieldname)
        for e in exprs:
            if isinstance(e, VarE):
                variables.add(e.name)
            elif isinstance(e, FieldE):
                variables.add(e.var)
                fields.add(e.fieldname)
    return variables, fields


# ---------------------------------------------------------------------------
# The step relation


def _set_var(ms: MemoryStructure, var: str, bit: int) -> MemoryStructure:
    return ms._with(noms={**ms.noms, var: bit})


def _allocate(ms: MemoryStructure, var: str, cell: int) -> MemoryStructure:
    b, cons = 1 << cell, ms.cons
    return ms._with(cons={**cons, "MemPool": cons.get("MemPool", 0) & ~b,
                          "Alloc": cons.get("Alloc", 0) | b},
                    noms={**ms.noms, var: cell})


def _set_row(ms: MemoryStructure, field: str, cell: int, row: int) -> tuple[int, ...]:
    """The rows of `field` with the row of bit `cell` replaced."""
    rows = ms.rsucc.get(field) or (0,) * len(ms.elements)
    return rows[:cell] + (row,) + rows[cell + 1:]


# Allocation and read policies: the least pool cell, every pool cell (one
# outcome each), the least cell of each class of interchangeable pool cells,
# or a label assignment d, which pins the value of every labeled field read
# and the cell of every allocation.  The step works on bits; the policy and
# the trace speak of elements.
_LEAST = "least"
_EVERY = "every"
_CLASSES = "classes"


def _cell_key(ms: MemoryStructure, cell: int) -> tuple:
    """What a cell nothing points to is told apart by: its membership in
    every concept and its row in every role."""
    return (tuple(mask >> cell & 1 for mask in ms.cons.values()),
            tuple(rows[cell] for rows in ms.rsucc.values()))


def _class_leaders(ms: MemoryStructure, cells: list[int]) -> list[int]:
    """The least of `cells` in each class of interchangeable cells, in
    order.  A cell that a nominal or a row of some role points to is a
    class of its own; the others are interchangeable when their keys are
    equal.  Swapping two interchangeable cells maps ms to itself, so
    allocating either gives the same outcomes up to that swap."""
    pointed = 0
    for bit in ms.noms.values():
        pointed |= 1 << bit
    for rows in ms.rsucc.values():
        for row in rows:
            pointed |= row
    seen, out = set(), []
    for cell in cells:
        key = cell if pointed >> cell & 1 else _cell_key(ms, cell)
        if key not in seen:
            seen.add(key)
            out.append(cell)
    return out


def _pool_cells(ms: MemoryStructure, c: New, policy) -> list[int]:
    """The bits of the cells `c` may allocate, lesser elements first."""
    pool = ms.cons.get("MemPool", 0)
    if isinstance(policy, Mapping):
        cell = ms.index.get(policy.get(c.label))
        return [cell] if cell is not None and pool >> cell & 1 else []
    if not pool:
        raise PoolExhaustedError("memory pool exhausted (finite stand-in)")
    cells = sorted(mask_bits(pool), key=ms.elements.__getitem__)
    if policy == _LEAST:
        return cells[:1]
    if policy == _CLASSES and len(cells) > 1:
        return _class_leaders(ms, cells)
    return cells


def _exec(ms: MemoryStructure, c: Stmt, policy, trace: dict[int, int] | None):
    """One command other than if and new: the state after it, or ABORT."""
    t = type(c)
    if t is Skip:
        return ms
    if t is Assume:
        return ms if eval_bool(ms, c.cond) is True else ABORT
    if t is Assign or t is ReadField:
        val = _bit(ms, c.expr) if t is Assign else _field_bit(ms, c.src, c.fieldname)
        if val is ERR:
            return ABORT
        if t is ReadField:
            elem = ms.elements[val]
            if isinstance(policy, Mapping) and elem != policy.get(c.label):
                return ABORT
            if trace is not None:
                trace[c.label] = elem
        return _set_var(ms, c.var, val)
    cell = ms.bit(c.var)
    alloc = ms.cons.get("Alloc", 0)
    if not alloc >> cell & 1:
        return ABORT
    if t is WriteField:
        val = _bit(ms, c.expr)
        if val is ERR:
            return ABORT
        return ms._with(rsucc={**ms.rsucc, c.fieldname: _set_row(ms, c.fieldname, cell, 1 << val)})
    if t is Dispose:
        b, null = 1 << cell, 1 << ms.bit("null")
        cons = {**ms.cons, "Alloc": alloc & ~b,
                "PossibleTargets": ms.cons.get("PossibleTargets", 0) | b}
        rsucc = dict(ms.rsucc)
        for f in ms.heap.fields:
            rsucc[f] = _set_row(ms, f, cell, null)
        return ms._with(cons=cons, rsucc=rsucc)
    raise TypeError(f"not a statement: {c!r}")  # pragma: no cover


def _run(ms: MemoryStructure, s: Stmt, policy, trace: dict[int, int] | None = None) -> list:
    """The step relation, written once: the outcomes of running s from ms
    under the policy, folded over s's sequence part by part.  ABORT is
    listed at most once, after the states."""
    states, aborted = [ms], False
    for c in commands(s, branches=False):
        nxt = []
        for m in states:
            if isinstance(c, If):
                tv = eval_bool(m, c.cond)
                outs = [ABORT] if tv is ERR else _run(m, c.then if tv else c.els,
                                                      policy, trace)
            elif isinstance(c, New):
                cells = _pool_cells(m, c, policy)
                if trace is not None and cells:
                    trace[c.label] = m.elements[cells[0]]
                outs = [_allocate(m, c.var, cell) for cell in cells] or [ABORT]
            else:
                outs = [_exec(m, c, policy, trace)]
            for r in outs:
                if r is ABORT:
                    aborted = True
                else:
                    nxt.append(r)
        states = nxt
        if not states:
            break
    return states + [ABORT] if aborted else states


def run_loopless(ms: MemoryStructure, s: Stmt, trace: dict[int, int] | None = None):
    """One deterministic run, allocating the least pool cell; returns the
    final structure or ABORT.  `trace`, when given, records the pinned
    value of each labeled field-read and allocation."""
    return _run(ms, s, _LEAST, trace)[0]


def _distinct(outs: list) -> tuple:
    if sum(r is not ABORT for r in outs) > 1:  # only two states can repeat
        outs = dict.fromkeys(outs)
    return tuple(outs)


def run_all(ms: MemoryStructure, s: Stmt) -> tuple:
    """All outcomes under nondeterministic allocation, each once, in the
    order of the runs (lesser pool cells first): memory structures, then
    ABORT if some run aborts."""
    return _distinct(_run(ms, s, _EVERY))


def run_representatives(ms: MemoryStructure, s: Stmt) -> tuple:
    """run_all's outcomes up to address permutation: each allocation takes
    only the least cell of each class of interchangeable pool cells (see
    _class_leaders).  The outcomes are those of the runs of run_all that
    take those cells, each once, in the order of the runs, and every
    outcome of run_all is an address permutation of one listed.  ABORT is
    listed iff run_all lists it, and PoolExhaustedError is raised iff
    run_all raises it."""
    return _distinct(_run(ms, s, _CLASSES))


def run_labeled(ms: MemoryStructure, s: Stmt, d: Mapping[int, int]):
    """The label-refined step: field reads must read d[label], allocations
    must allocate d[label]; otherwise the run aborts."""
    return _run(ms, s, d)[0]


# ---------------------------------------------------------------------------
# Abort instrumentation


ABORT_FLAG = "abo"


def instrument_abort(s: Stmt, mode: str = "semantic") -> Stmt:
    """S-bar: prepend abo := F and guard every aborting command so the
    program instead raises the abo flag and continues.  In semantic mode
    the guards test allocation (exactly the abort condition); the
    null-test mode follows the syntactic construction and diverges on
    dangling pointers.  The original commands other than ifs keep their
    labels (Y_Sbar strictly extends Y_S); the rest get fresh ones."""
    if mode not in ("semantic", "null-test"):
        raise ReachDLError(f"unknown instrumentation mode {mode!r}")

    def guard(v: str) -> BoolExpr:
        return UnallocB(v) if mode == "semantic" else EqB(VarE(v), NullE())

    def raise_abo() -> Stmt:
        return Assign(ABORT_FLAG, TrueE())

    def wrap(c: Stmt, _: int) -> Stmt:
        if isinstance(c, (ReadField, WriteField, Dispose)):
            return If(guard(c.src if isinstance(c, ReadField) else c.var), raise_abo(), c)
        if isinstance(c, (Assume, If)):
            inner = If(c.cond, Skip(), raise_abo()) if isinstance(c, Assume) else c
            bases = dict.fromkeys(e.var for e in cond_exprs(c.cond) if isinstance(e, FieldE))
            if not bases:
                return inner
            return If(reduce(OrB, map(guard, bases)), raise_abo(), inner)
        return c

    keep = frozenset(id(c) for c in commands(s) if not isinstance(c, If))
    return relabel(Seq(Assign(ABORT_FLAG, FalseE()), map_stmt(s, wrap)),
                   start=max(labels_of(s), default=0) + 1, keep=keep)


# ---------------------------------------------------------------------------
# Programs with loops


@dataclass(frozen=True)
class Program:
    heap: HeapVocabulary
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    initial: str
    shp: Mapping[str, Formula]
    cnt: Mapping[str, Formula]
    code: Mapping[tuple[str, str], Stmt]

    def __post_init__(self) -> None:
        if len(set(self.edges)) != len(self.edges):
            raise ReachDLError("multiple edges are not allowed")
        if self.initial not in self.nodes:
            raise ReachDLError("initial node is not a node")
        if any(b == self.initial for _, b in self.edges):
            raise ReachDLError("initial node must have in-degree 0")
        for e in self.edges:
            if e not in self.code:
                raise ReachDLError(f"edge {e} has no code block")
            for v in e:
                if v not in self.nodes:
                    raise ReachDLError(f"edge {e} mentions unknown node")

    def vocabulary(self) -> Vocabulary:
        return self.heap.vocabulary()


def run_path(ms: MemoryStructure, prog: Program,
             path: Sequence[tuple[str, str]]) -> frozenset:
    """Fold the blocks along a path; the empty path yields {M}.  Aborting
    branches are pruned, so the result may be empty."""
    for (a, b), (c, _) in zip(path, path[1:]):
        if b != c:
            raise ReachDLError("path edges do not chain")
    for e in path:
        if e not in prog.code:
            raise ReachDLError(f"not an edge of the program: {e}")
    states: set = {ms}
    for e in path:
        nxt: set = set()
        for m in states:
            r = run_loopless(m, prog.code[e])
            if r is not ABORT:
                nxt.add(r)
        states = nxt
    return frozenset(states)


def reach_sets(prog: Program, init: Iterable[MemoryStructure], depth: int,
               cap: int = 20000, nondet: bool = True) -> dict[str, frozenset]:
    """Structures reachable at each node within `depth` block executions;
    an under-approximation of the reachable sets.  With `nondet`, each
    block runs under every allocation choice up to address permutation
    (`run_representatives`): a node's set holds one or more
    representatives of each address-permutation class of the states
    reachable there, and every state it holds is reachable.  Without it,
    each block runs once (`run_loopless`).  `cap` bounds the number of
    states held, representatives under `nondet`; more raise
    StateCapError."""
    out: dict[str, set] = {v: set() for v in prog.nodes}
    frontier: set[tuple[str, MemoryStructure]] = set()
    for m in init:
        out[prog.initial].add(m)
        frontier.add((prog.initial, m))
    succ_edges: dict[str, list[tuple[str, str]]] = {v: [] for v in prog.nodes}
    for e in sorted(prog.edges):
        succ_edges[e[0]].append(e)
    total = sum(len(s) for s in out.values())
    for _ in range(depth):
        nxt: set[tuple[str, MemoryStructure]] = set()
        for node, m in frontier:
            for e in succ_edges[node]:
                if nondet:
                    results = [r for r in run_representatives(m, prog.code[e])
                               if r is not ABORT]
                else:
                    r = run_loopless(m, prog.code[e])
                    results = [] if r is ABORT else [r]
                for r in results:
                    if r not in out[e[1]]:
                        out[e[1]].add(r)
                        nxt.add((e[1], r))
                        total += 1
                        if total > cap:
                            raise StateCapError(f"more than {cap} reachable states")
        if not nxt:
            break
        frontier = nxt
    return {v: frozenset(s) for v, s in out.items()}
