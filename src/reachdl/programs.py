"""The heap programming language: loopless statements, expression and
boolean evaluation, the step relation (plain, label-refined, and
all-allocations variants), abort instrumentation, control-flow-graph
programs, path execution and bounded reachable-set computation.

Dereferencing a variable whose target is unallocated is the only source
of expression errors; reading a bare variable is total.  Abort is a
normal return value, never an exception."""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Sequence

from .memory import MemoryStructure, PoolExhaustedError, HeapVocabulary
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


def eval_expr(ms: MemoryStructure, e: Expr):
    """Element or ERR.  Bare variable reads are total; a dereference
    errs when the base is unallocated."""
    if isinstance(e, VarE):
        return ms.var(e.name)
    if isinstance(e, NullE):
        return ms.null()
    if isinstance(e, TrueE):
        return ms.true_elem()
    if isinstance(e, FalseE):
        return ms.false_elem()
    if isinstance(e, FieldE):
        base = ms.var(e.var)
        if base not in ms.alloc():
            return ERR
        val = ms.field_value(e.fieldname, base)
        if val is None:
            raise ReachDLError(f"field {e.fieldname} undefined on {base}")
        return val
    raise TypeError(f"not an expression: {e!r}")  # pragma: no cover


def eval_bool(ms: MemoryStructure, b: BoolExpr):
    """True, False or ERR; errors propagate strictly."""
    if isinstance(b, TrueB):
        return True
    if isinstance(b, FalseB):
        return False
    if isinstance(b, UnallocB):
        return ms.var(b.var) not in ms.alloc()
    if isinstance(b, EqB):
        l, r = eval_expr(ms, b.left), eval_expr(ms, b.right)
        if l is ERR or r is ERR:
            return ERR
        return l == r
    if isinstance(b, NotB):
        v = eval_bool(ms, b.inner)
        return ERR if v is ERR else not v
    if isinstance(b, (AndB, OrB)):
        l, r = eval_bool(ms, b.left), eval_bool(ms, b.right)
        if l is ERR or r is ERR:
            return ERR
        return (l and r) if isinstance(b, AndB) else (l or r)
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


def atomic_commands(s: Stmt) -> Iterator[Stmt]:
    if isinstance(s, Seq):
        yield from atomic_commands(s.first)
        yield from atomic_commands(s.second)
    elif isinstance(s, If):
        yield s
        yield from atomic_commands(s.then)
        yield from atomic_commands(s.els)
    else:
        yield s


def labels_of(s: Stmt) -> list[int]:
    return [c.label for c in atomic_commands(s)]


def relabel(s: Stmt, start: int = 1) -> Stmt:
    """Assign unique labels 1.. in command order."""
    counter = start - 1

    def walk(t: Stmt) -> Stmt:
        nonlocal counter
        if isinstance(t, Seq):
            first = walk(t.first)
            return Seq(first, walk(t.second))
        counter += 1
        if isinstance(t, If):
            lab = counter
            then = walk(t.then)
            return If(t.cond, then, walk(t.els), label=lab)
        return replace(t, label=counter)

    out = walk(s)
    labs = labels_of(out)
    if len(labs) != len(set(labs)):
        raise ReachDLError(f"relabel gave duplicate labels: {labs}")
    return out


def variables_read(s: Stmt) -> set[str]:
    out: set[str] = set()

    def expr(e: Expr) -> None:
        if isinstance(e, VarE):
            out.add(e.name)
        elif isinstance(e, FieldE):
            out.add(e.var)

    def cond(b: BoolExpr) -> None:
        if isinstance(b, EqB):
            expr(b.left)
            expr(b.right)
        elif isinstance(b, NotB):
            cond(b.inner)
        elif isinstance(b, (AndB, OrB)):
            cond(b.left)
            cond(b.right)
        elif isinstance(b, UnallocB):
            out.add(b.var)

    for c in atomic_commands(s):
        if isinstance(c, Assign):
            expr(c.expr)
        elif isinstance(c, ReadField):
            out.add(c.src)
        elif isinstance(c, WriteField):
            out.add(c.var)
            expr(c.expr)
        elif isinstance(c, (New,)):
            pass
        elif isinstance(c, Dispose):
            out.add(c.var)
        elif isinstance(c, (Assume, If)):
            cond(c.cond)
    return out


def touched_symbols(s: Stmt) -> tuple[set[str], set[str]]:
    """(variables, fields) the statement reads or writes."""
    variables: set[str] = set(variables_read(s))
    fields: set[str] = set()
    for c in atomic_commands(s):
        if isinstance(c, (Assign, ReadField, New)):
            variables.add(c.var)
        if isinstance(c, ReadField):
            fields.add(c.fieldname)
        if isinstance(c, WriteField):
            fields.add(c.fieldname)
        if isinstance(c, Dispose):
            variables.add(c.var)

    def cond_fields(b: BoolExpr) -> None:
        if isinstance(b, EqB):
            for e in (b.left, b.right):
                if isinstance(e, FieldE):
                    fields.add(e.fieldname)
        elif isinstance(b, NotB):
            cond_fields(b.inner)
        elif isinstance(b, (AndB, OrB)):
            cond_fields(b.left)
            cond_fields(b.right)

    for c in atomic_commands(s):
        if isinstance(c, (Assume, If)):
            cond_fields(c.cond)
    return variables, fields


# ---------------------------------------------------------------------------
# The step relation


def _set_var(ms: MemoryStructure, var: str, val: int) -> MemoryStructure:
    return ms.with_fs(ms.fs.with_nominal(var, val))


def _allocate(ms: MemoryStructure, var: str, cell: int) -> MemoryStructure:
    fs = ms.fs
    fs = fs.with_concept("MemPool", ms.pool() - {cell})
    fs = fs.with_concept("Alloc", ms.alloc() | {cell})
    fs = fs.with_nominal(var, cell)
    return ms.with_fs(fs)


def run_loopless(ms: MemoryStructure, s: Stmt, trace: dict[int, int] | None = None):
    """One deterministic run, allocating the least pool cell; returns the
    final structure or ABORT.  `trace`, when given, records the pinned
    value of each labeled field-read and allocation."""
    if isinstance(s, Skip):
        return ms
    if isinstance(s, Assign):
        val = eval_expr(ms, s.expr)
        if val is ERR:
            return ABORT
        return _set_var(ms, s.var, val)
    if isinstance(s, ReadField):
        val = eval_expr(ms, FieldE(s.src, s.fieldname))
        if val is ERR:
            return ABORT
        if trace is not None:
            trace[s.label] = val
        return _set_var(ms, s.var, val)
    if isinstance(s, WriteField):
        base = ms.var(s.var)
        if base not in ms.alloc():
            return ABORT
        val = eval_expr(ms, s.expr)
        if val is ERR:
            return ABORT
        return ms.with_fs(ms.fs.with_function_value(s.fieldname, base, val))
    if isinstance(s, New):
        pool = sorted(ms.pool())
        if not pool:
            raise PoolExhaustedError("memory pool exhausted (finite stand-in)")
        cell = pool[0]
        if trace is not None:
            trace[s.label] = cell
        return _allocate(ms, s.var, cell)
    if isinstance(s, Dispose):
        cell = ms.var(s.var)
        if cell not in ms.alloc():
            return ABORT
        fs = ms.fs.with_concept("Alloc", ms.alloc() - {cell})
        fs = fs.with_concept("PossibleTargets", ms.targets() | {cell})
        return ms.with_fs(fs)
    if isinstance(s, Assume):
        tv = eval_bool(ms, s.cond)
        if tv is True:
            return ms
        return ABORT
    if isinstance(s, If):
        tv = eval_bool(ms, s.cond)
        if tv is ERR:
            return ABORT
        return run_loopless(ms, s.then if tv else s.els, trace)
    if isinstance(s, Seq):
        mid = run_loopless(ms, s.first, trace)
        if mid is ABORT:
            return ABORT
        return run_loopless(mid, s.second, trace)
    raise TypeError(f"not a statement: {s!r}")  # pragma: no cover


def run_all(ms: MemoryStructure, s: Stmt) -> frozenset:
    """All outcomes under nondeterministic allocation: memory structures
    plus ABORT if some run aborts."""
    if isinstance(s, New):
        pool = sorted(ms.pool())
        if not pool:
            raise PoolExhaustedError("memory pool exhausted (finite stand-in)")
        return frozenset(_allocate(ms, s.var, cell) for cell in pool)
    if isinstance(s, If):
        tv = eval_bool(ms, s.cond)
        if tv is ERR:
            return frozenset({ABORT})
        return run_all(ms, s.then if tv else s.els)
    if isinstance(s, Seq):
        out = set()
        for mid in run_all(ms, s.first):
            if mid is ABORT:
                out.add(ABORT)
            else:
                out |= run_all(mid, s.second)
        return frozenset(out)
    return frozenset({run_loopless(ms, s)})


def run_labeled(ms: MemoryStructure, s: Stmt, d: Mapping[int, int]):
    """The label-refined step: field reads must read d[label], allocations
    must allocate d[label]; otherwise the run aborts."""
    if isinstance(s, ReadField):
        val = eval_expr(ms, FieldE(s.src, s.fieldname))
        if val is ERR or val != d.get(s.label):
            return ABORT
        return _set_var(ms, s.var, val)
    if isinstance(s, New):
        cell = d.get(s.label)
        if cell not in ms.pool():
            return ABORT
        return _allocate(ms, s.var, cell)
    if isinstance(s, If):
        tv = eval_bool(ms, s.cond)
        if tv is ERR:
            return ABORT
        return run_labeled(ms, s.then if tv else s.els, d)
    if isinstance(s, Seq):
        mid = run_labeled(ms, s.first, d)
        if mid is ABORT:
            return ABORT
        return run_labeled(mid, s.second, d)
    return run_loopless(ms, s)


# ---------------------------------------------------------------------------
# Abort instrumentation


def _deref_bases(b: BoolExpr) -> list[str]:
    out: list[str] = []

    def expr(e: Expr) -> None:
        if isinstance(e, FieldE) and e.var not in out:
            out.append(e.var)

    def walk(bb: BoolExpr) -> None:
        if isinstance(bb, EqB):
            expr(bb.left)
            expr(bb.right)
        elif isinstance(bb, NotB):
            walk(bb.inner)
        elif isinstance(bb, (AndB, OrB)):
            walk(bb.left)
            walk(bb.right)

    walk(b)
    return out


def _err_guard(b: BoolExpr, mode: str) -> BoolExpr | None:
    bases = _deref_bases(b)
    if not bases:
        return None
    parts: BoolExpr | None = None
    for v in bases:
        test: BoolExpr = UnallocB(v) if mode == "semantic" else EqB(VarE(v), NullE())
        parts = test if parts is None else OrB(parts, test)
    return parts


def instrument_abort(s: Stmt, mode: str = "semantic") -> Stmt:
    """S-bar: prepend abo := F and guard every aborting command so the
    program instead raises the abo flag and continues.  In semantic mode
    the guards test allocation (exactly the abort condition); the
    null-test mode follows the syntactic construction and diverges on
    dangling pointers."""
    if mode not in ("semantic", "null-test"):
        raise ReachDLError(f"unknown instrumentation mode {mode!r}")

    def guard_var(v: str) -> BoolExpr:
        return UnallocB(v) if mode == "semantic" else EqB(VarE(v), NullE())

    def set_abo() -> Stmt:
        return Assign("abo", TrueE())

    def wrap(t: Stmt) -> Stmt:
        if isinstance(t, Seq):
            return Seq(wrap(t.first), wrap(t.second))
        if isinstance(t, (Skip, Assign, New)):
            return t
        if isinstance(t, ReadField):
            return If(guard_var(t.src), set_abo(), t)
        if isinstance(t, WriteField):
            return If(guard_var(t.var), set_abo(), t)
        if isinstance(t, Dispose):
            return If(guard_var(t.var), set_abo(), t)
        if isinstance(t, Assume):
            inner: Stmt = If(t.cond, Skip(), set_abo())
            g = _err_guard(t.cond, mode)
            return inner if g is None else If(g, set_abo(), inner)
        if isinstance(t, If):
            inner = If(t.cond, wrap(t.then), wrap(t.els))
            g = _err_guard(t.cond, mode)
            return inner if g is None else If(g, set_abo(), inner)
        raise TypeError(f"not a statement: {t!r}")  # pragma: no cover

    out = Seq(Assign("abo", FalseE()), wrap(s))
    return _relabel_preserving(out, s)


def _relabel_preserving(out: Stmt, original: Stmt) -> Stmt:
    """Fresh labels for instrumentation-added commands, keeping the
    original commands' labels (Y_Sbar strictly extends Y_S)."""
    keep = {id(c) for c in atomic_commands(original)}
    used = set(labels_of(original))
    counter = max(used, default=0)

    def walk(t: Stmt) -> Stmt:
        nonlocal counter
        if isinstance(t, Seq):
            first = walk(t.first)
            return Seq(first, walk(t.second))
        if id(t) in keep:
            if isinstance(t, If):
                raise AssertionError("original ifs are rebuilt, not kept")
            return t
        counter += 1
        lab = counter
        if isinstance(t, If):
            then = walk(t.then)
            return If(t.cond, then, walk(t.els), label=lab)
        return replace(t, label=lab)

    return walk(out)


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
    an under-approximation of the reachable sets."""
    out: dict[str, set] = {v: set() for v in prog.nodes}
    frontier: set[tuple[str, MemoryStructure]] = set()
    for m in init:
        out[prog.initial].add(m)
        frontier.add((prog.initial, m))
    succ_edges: dict[str, list[tuple[str, str]]] = {v: [] for v in prog.nodes}
    for e in prog.edges:
        succ_edges[e[0]].append(e)
    total = sum(len(s) for s in out.values())
    for _ in range(depth):
        nxt: set[tuple[str, MemoryStructure]] = set()
        for node, m in frontier:
            for e in sorted(succ_edges[node]):
                if nondet:
                    results = [r for r in run_all(m, prog.code[e]) if r is not ABORT]
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
