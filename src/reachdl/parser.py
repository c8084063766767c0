"""Surface-grammar parser and the line-oriented file formats.

Formula grammar (UTF-8 text): `top`, `bot`, `&`, `|`, `!`, `E r.C`,
`E<= n r.C`, `E>= n r.C`, `E= n r.C`, `r^-`, `<=` (inclusion), `==`
(equality), `and`, `or`, `not`, parentheses.  Names match
[A-Za-z_][A-Za-z0-9_]*; the words top, bot, and, or, not and E are
reserved.  Update roles use the extension syntax `r[o1 -> o2]` and are
rejected unless parsing is invoked with allow_updates=True.

Files:
  formula/spec files  -- declaration lines (CONCEPT/NOMINAL/ROLE/FROLE),
                         formula lines (conjoined), and for specs the
                         assertion lines `REACH <B> {s1,s2} <A>` and
                         `DISJ(A1,A2)`.  `#` starts a comment.
  structure files     -- `UNIVERSE 0..n-1`, `CONCEPT name: id id ...`,
                         `ROLE name: (id,id) ...`, `NOMINAL name = id`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .structures import FiniteStructure
from .syntax import (AtMost, Atomic, BOT, Concept, Eq, Exists, FAnd, FNot,
                     FOr, Formula, Incl, Nominal, Not, ReachDLError, Role, TOP,
                     Top, UpdatePoint, Vocabulary, And, Or, atleast, check_symbols,
                     conj, exactly)


class ParseError(ReachDLError):
    def __init__(self, message: str, line: int = 1, col: int = 1):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


RESERVED = {"top", "bot", "and", "or", "not", "E"}

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<equant>E(?=(<=|>=|=)\s*\d))(?P<eop><=|>=|=)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<assign>:=)
  | (?P<arrow>->)
  | (?P<caretminus>\^-)
  | (?P<leq><=)
  | (?P<eqeq>==)
  | (?P<sym>[&|!().\[\]{},=<>;~])
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        chunk = m.group(0)
        kind = m.lastgroup or "sym"
        if m.group("ws"):
            pass
        elif m.group("equant"):
            tokens.append(Token("equant", "E" + m.group("eop"), line, col))
        elif m.group("name"):
            word = m.group("name")
            if word == "E":
                tokens.append(Token("E", word, line, col))
            elif word in ("and", "or", "not", "top", "bot"):
                tokens.append(Token(word, word, line, col))
            else:
                tokens.append(Token("name", word, line, col))
        elif m.group("int"):
            tokens.append(Token("int", chunk, line, col))
        elif m.group("assign"):
            tokens.append(Token(":=", chunk, line, col))
        elif m.group("arrow"):
            tokens.append(Token("->", chunk, line, col))
        elif m.group("caretminus"):
            tokens.append(Token("^-", chunk, line, col))
        elif m.group("leq"):
            tokens.append(Token("<=", chunk, line, col))
        elif m.group("eqeq"):
            tokens.append(Token("==", chunk, line, col))
        else:
            tokens.append(Token(chunk, chunk, line, col))
        for ch in chunk:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], vocab: Vocabulary, allow_updates: bool):
        self.tokens = tokens
        self.pos = 0
        self.vocab = vocab
        self.allow_updates = allow_updates

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def error(self, msg: str) -> ParseError:
        tok = self.peek()
        return ParseError(msg, tok.line, tok.col)

    # -- formulas: or < and < not < atom

    def formula(self) -> Formula:
        left = self.formula_and()
        while self.peek().kind == "or":
            self.next()
            left = FOr(left, self.formula_and())
        return left

    def formula_and(self) -> Formula:
        left = self.formula_not()
        while self.peek().kind == "and":
            self.next()
            left = FAnd(left, self.formula_not())
        return left

    def formula_not(self) -> Formula:
        if self.peek().kind == "not":
            self.next()
            return FNot(self.formula_not())
        return self.formula_atom()

    def formula_atom(self) -> Formula:
        # Either `( formula )` or a concept comparison; disambiguate by
        # backtracking, since both may start with `(`.
        if self.peek().kind == "(":
            save = self.pos
            self.next()
            try:
                inner = self.formula()
                self.expect(")")
                return inner
            except ParseError:
                self.pos = save
        left = self.concept()
        op = self.next()
        if op.kind == "<=":
            return Incl(left, self.concept())
        if op.kind == "==":
            return Eq(left, self.concept())
        raise ParseError(f"expected '<=' or '==', found {op.text!r}", op.line, op.col)

    # -- concepts: | < & < ! < atom

    def concept(self) -> Concept:
        left = self.concept_and()
        while self.peek().kind == "|":
            self.next()
            left = Or(left, self.concept_and())
        return left

    def concept_and(self) -> Concept:
        left = self.concept_not()
        while self.peek().kind == "&":
            self.next()
            left = And(left, self.concept_not())
        return left

    def concept_not(self) -> Concept:
        if self.peek().kind == "!":
            self.next()
            return Not(self.concept_not())
        return self.concept_atom()

    def concept_atom(self) -> Concept:
        tok = self.peek()
        if tok.kind == "!":
            self.next()
            return Not(self.concept_atom())
        if tok.kind == "(":
            self.next()
            inner = self.concept()
            self.expect(")")
            return inner
        if tok.kind == "top":
            self.next()
            return TOP
        if tok.kind == "bot":
            self.next()
            return BOT
        if tok.kind == "E":
            self.next()
            r = self.role()
            self.expect(".")
            return Exists(r, self.concept_atom())
        if tok.kind == "equant":
            self.next()
            bound = int(self.expect("int").text)
            r = self.role()
            self.expect(".")
            inner = self.concept_atom()
            if tok.text == "E<=":
                return AtMost(bound, r, inner)
            if tok.text == "E>=":
                return atleast(bound, r, inner)
            return exactly(bound, r, inner)
        if tok.kind == "name":
            self.next()
            name = tok.text
            if name in self.vocab.concepts:
                return Atomic(name)
            if name in self.vocab.nominals:
                return Nominal(name)
            raise ParseError(f"unknown concept or nominal {name!r}", tok.line, tok.col)
        raise self.error(f"expected a concept, found {tok.text!r}")

    def role(self) -> Role:
        tok = self.expect("name")
        name = tok.text
        if name not in self.vocab.roles:
            raise ParseError(f"unknown role {name!r}", tok.line, tok.col)
        updates: list[UpdatePoint] = []
        while self.peek().kind == "[":
            if not self.allow_updates:
                raise self.error("update roles need the extension flag")
            self.next()
            src = self.expect("name").text
            self.expect("->")
            tgt = self.expect("name").text
            self.expect("]")
            for n in (src, tgt):
                if n not in self.vocab.nominals:
                    raise self.error(f"unknown nominal {n!r} in update role")
            updates.append(UpdatePoint(src, tgt))
        inverted = False
        if self.peek().kind == "^-":
            self.next()
            inverted = True
        return Role(name, inverted, tuple(updates))


def parse_formula(text: str, vocab: Vocabulary, allow_updates: bool = False) -> Formula:
    """Parse one formula; derived forms (E>=, E=) expand at parse time."""
    parser = _Parser(tokenize(text), vocab, allow_updates)
    phi = parser.formula()
    parser.expect("eof")
    return phi


def parse_concept(text: str, vocab: Vocabulary, allow_updates: bool = False) -> Concept:
    parser = _Parser(tokenize(text), vocab, allow_updates)
    c = parser.concept()
    parser.expect("eof")
    return c


# ---------------------------------------------------------------------------
# Formula / spec files

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_REACH_RE = re.compile(r"REACH\s*<\s*(\w+)\s*>\s*\{([^}]*)\}\s*<\s*(\w+)\s*>\s*$")
_DISJ_RE = re.compile(r"DISJ\s*\(\s*(\w+)\s*,\s*(\w+)\s*\)\s*$")


def _strip(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def _decl_names(rest: str, lineno: int) -> list[str]:
    names = rest.split()
    for n in names:
        if not _NAME_RE.match(n) or n in RESERVED:
            raise ParseError(f"bad name in declaration: {n!r}", lineno)
    return names


def parse_formula_file(text: str, base: Vocabulary | None = None,
                       allow_updates: bool = False) -> tuple[Vocabulary, Formula]:
    """Declarations plus formula lines; the formulas are conjoined."""
    vocab = base or Vocabulary()
    formula_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        head = line.split(None, 1)[0]
        rest = line[len(head):].strip()
        if head == "CONCEPT":
            vocab = vocab.with_concepts(_decl_names(rest, lineno))
        elif head == "NOMINAL":
            vocab = vocab.with_nominals(_decl_names(rest, lineno))
        elif head == "ROLE":
            vocab = vocab.with_roles(_decl_names(rest, lineno))
        elif head == "FROLE":
            vocab = vocab.with_roles(_decl_names(rest, lineno), functional=True)
        elif head in ("REACH", "DISJ"):
            raise ParseError("assertion line in a plain formula file", lineno)
        else:
            formula_lines.append((lineno, line))
    parts = []
    for lineno, line in formula_lines:
        try:
            parts.append(parse_formula(line, vocab, allow_updates))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}", lineno) from None
    return vocab, conj(parts)


def parse_spec_file(text: str, base: Vocabulary | None = None):
    """Spec file: a formula file plus REACH/DISJ lines.  Returns a ReachSpec
    together with its vocabulary."""
    from .reach import DisjAssertion, ReachAssertion, ReachSpec

    vocab = base or Vocabulary()
    plain_lines: list[str] = []
    reaches: list[ReachAssertion] = []
    disjs: list[DisjAssertion] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if line.startswith("REACH"):
            m = _REACH_RE.match(line)
            if not m:
                raise ParseError("bad REACH line", lineno)
            roles = tuple(s.strip() for s in m.group(2).split(",") if s.strip())
            reaches.append((lineno, m.group(1), frozenset(roles), m.group(3)))
        elif line.startswith("DISJ"):
            m = _DISJ_RE.match(line)
            if not m:
                raise ParseError("bad DISJ line", lineno)
            disjs.append(DisjAssertion(m.group(1), m.group(2)))
        else:
            plain_lines.append(raw)
    vocab, base_formula = parse_formula_file("\n".join(plain_lines), vocab)
    resolved = []
    for lineno, src_name, roles, target in reaches:
        if src_name in vocab.nominals:
            source = Nominal(src_name)
        elif src_name in vocab.concepts:
            source = Atomic(src_name)
        else:
            raise ParseError(f"unknown reach source {src_name!r}", lineno)
        resolved.append(ReachAssertion(source, roles, target))
    spec = ReachSpec(base_formula, tuple(resolved), frozenset(disjs))
    spec.validate(vocab)
    return vocab, spec


# ---------------------------------------------------------------------------
# Structure files


def parse_structure_file(text: str) -> tuple[Vocabulary, FiniteStructure]:
    universe: tuple[int, ...] | None = None
    concepts: dict[str, frozenset[int]] = {}
    roles: dict[str, frozenset[tuple[int, int]]] = {}
    functional: set[str] = set()
    nominals: dict[str, int] = {}
    saw_memory = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        head = line.split(None, 1)[0]
        rest = line[len(head):].strip()
        if head == "MEMORY":
            saw_memory = True
        elif head == "UNIVERSE":
            if ".." in rest:
                lo, hi = rest.split("..")
                universe = tuple(range(int(lo), int(hi) + 1))
            else:
                universe = tuple(int(t) for t in rest.split())
        elif head == "CONCEPT":
            name, _, ids = rest.partition(":")
            concepts[name.strip()] = frozenset(int(t) for t in ids.split())
        elif head in ("ROLE", "FROLE"):
            name, _, body = rest.partition(":")
            pairs = frozenset(
                (int(a), int(b))
                for a, b in re.findall(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)", body))
            roles[name.strip()] = pairs
            if head == "FROLE":
                functional.add(name.strip())
        elif head == "NOMINAL":
            name, _, val = rest.partition("=")
            nominals[name.strip()] = int(val)
        else:
            raise ParseError(f"unknown section {head!r}", lineno)
    if universe is None:
        raise ParseError("missing UNIVERSE line")
    vocab = Vocabulary(frozenset(concepts), frozenset(roles), frozenset(functional),
                       frozenset(nominals))
    fs = FiniteStructure(universe, concepts, roles, nominals)
    if saw_memory:
        from .memory import infer_memory
        infer_memory(fs)  # validates the axioms on load
    return vocab, fs


def structure_to_text(fs: FiniteStructure, functional: frozenset[str] = frozenset(),
                      memory: bool = False) -> str:
    lines: list[str] = []
    if memory:
        lines.append("MEMORY")
    if fs.universe == tuple(range(len(fs.universe))) and fs.universe:
        lines.append(f"UNIVERSE 0..{len(fs.universe) - 1}")
    else:
        lines.append("UNIVERSE " + " ".join(str(u) for u in fs.universe))
    for name in sorted(fs.concepts):
        lines.append(f"CONCEPT {name}: " + " ".join(str(u) for u in sorted(fs.concepts[name])))
    for name in sorted(fs.roles):
        head = "FROLE" if name in functional else "ROLE"
        body = " ".join(f"({a},{b})" for a, b in sorted(fs.roles[name]))
        lines.append(f"{head} {name}: {body}")
    for name in sorted(fs.nominals):
        lines.append(f"NOMINAL {name} = {fs.nominals[name]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Statements, program files and memory files

_STMT_KEYWORDS = {"skip", "dispose", "assume", "if", "then", "else", "fi", "new"}


class _StmtParser:
    """The concrete statement syntax.  Field-to-field assignments
    and if-then without else are desugared (fresh temporaries collected in
    self.temps)."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.temps: list[str] = []

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            raise ParseError(f"expected {text or kind!r}, found {tok.text!r}",
                             tok.line, tok.col)
        return tok

    def name(self) -> str:
        tok = self.next()
        if tok.kind != "name" or tok.text in _STMT_KEYWORDS:
            raise ParseError(f"expected a name, found {tok.text!r}", tok.line, tok.col)
        return tok.text

    def fresh_temp(self) -> str:
        name = f"__tmp{len(self.temps) + 1}"
        self.temps.append(name)
        return name

    # expressions: null | T | F | var | var.f
    def sexpr(self):
        from .programs import FalseE, FieldE, NullE, TrueE, VarE

        tok = self.peek()
        if tok.kind == "name" and tok.text == "null":
            self.next()
            return NullE()
        if tok.kind == "name" and tok.text == "T":
            self.next()
            return TrueE()
        if tok.kind == "name" and tok.text == "F":
            self.next()
            return FalseE()
        var = self.name()
        if self.peek().kind == ".":
            self.next()
            return FieldE(var, self.name())
        return VarE(var)

    # booleans: ~ > and > or; atoms T | F | (b) | e1 = e2
    def boolexpr(self):
        from .programs import OrB

        left = self.bool_and()
        while self.peek().kind == "or":
            self.next()
            left = OrB(left, self.bool_and())
        return left

    def bool_and(self):
        from .programs import AndB

        left = self.bool_not()
        while self.peek().kind == "and":
            self.next()
            left = AndB(left, self.bool_not())
        return left

    def bool_not(self):
        from .programs import NotB

        if self.peek().kind == "~":
            self.next()
            return NotB(self.bool_not())
        return self.bool_atom()

    def bool_atom(self):
        from .programs import EqB, FalseB, TrueB

        tok = self.peek()
        # T and F are literals unless an equality follows (T = x)
        if (tok.kind == "name" and tok.text in ("T", "F")
                and self.tokens[self.pos + 1].kind != "="):
            self.next()
            return TrueB() if tok.text == "T" else FalseB()
        if tok.kind == "(":
            save = self.pos
            self.next()
            try:
                inner = self.boolexpr()
                self.expect(")")
                return inner
            except ParseError:
                self.pos = save
        left = self.sexpr()
        self.expect("=")
        return EqB(left, self.sexpr())

    def block(self):
        from .programs import Seq

        out = self.stmt()
        while self.peek().kind == ";":
            self.next()
            if self.peek().kind in ("eof", "}") or \
                    (self.peek().kind == "name" and self.peek().text in ("else", "fi")):
                break  # tolerate a trailing semicolon
            out = Seq(out, self.stmt())
        return out

    def stmt(self):
        from .programs import (Assign, Assume, Dispose, FieldE, If, New,
                               ReadField, Seq, Skip, WriteField)

        tok = self.peek()
        if tok.kind == "name" and tok.text == "skip":
            self.next()
            return Skip()
        if tok.kind == "name" and tok.text == "dispose":
            self.next()
            self.expect("(")
            var = self.name()
            self.expect(")")
            return Dispose(var)
        if tok.kind == "name" and tok.text == "assume":
            self.next()
            self.expect("(")
            cond = self.boolexpr()
            self.expect(")")
            return Assume(cond)
        if tok.kind == "name" and tok.text == "if":
            self.next()
            cond = self.boolexpr()
            self.expect("name", "then")
            then = self.block()
            els = Skip()
            if self.peek().kind == "name" and self.peek().text == "else":
                self.next()
                els = self.block()
            self.expect("name", "fi")
            return If(cond, then, els)
        var = self.name()
        if self.peek().kind == ".":
            self.next()
            fieldname = self.name()
            self.expect(":=")
            rhs = self.sexpr()
            if isinstance(rhs, FieldE):
                tmp = self.fresh_temp()
                return Seq(ReadField(tmp, rhs.var, rhs.fieldname),
                           WriteField(var, fieldname, _var_expr(tmp)))
            return WriteField(var, fieldname, rhs)
        self.expect(":=")
        if self.peek().kind == "name" and self.peek().text == "new":
            self.next()
            return New(var)
        rhs = self.sexpr()
        if isinstance(rhs, FieldE):
            return ReadField(var, rhs.var, rhs.fieldname)
        return Assign(var, rhs)


def _var_expr(name: str):
    from .programs import VarE

    return VarE(name)


def parse_block(text: str) -> tuple["Stmt", list[str]]:
    """Parse a loopless code block; returns the (relabeled) statement and
    the fresh temporaries introduced by desugaring."""
    from .programs import relabel

    parser = _StmtParser(tokenize(text))
    out = parser.block()
    parser.expect("eof")
    return relabel(out), parser.temps


_NODE_RE = re.compile(r"NODE\s+(\w+)((?:\s+(?:shp|cnt)=\w+)*)\s*$")
_EDGE_RE = re.compile(r"EDGE\s+(\w+)\s*->\s*(\w+)\s*\{", re.S)


def parse_program_file(text: str):
    """Program file: heap declarations, named formulas, nodes with
    annotation references, and edges carrying code blocks."""
    from .memory import HeapVocabulary
    from .programs import Program, relabel

    fields: list[str] = []
    variables: list[str] = []
    data_concepts: list[str] = []
    data_nominals: list[str] = []
    data_roles: list[str] = []
    formulas_raw: dict[str, str] = {}
    nodes: list[str] = []
    shp_ref: dict[str, str] = {}
    cnt_ref: dict[str, str] = {}
    edges: list[tuple[str, str]] = []
    blocks_raw: dict[tuple[str, str], str] = {}
    initial: str | None = None

    pos = 0
    lineno = 1
    while pos < len(text):
        eol = text.find("\n", pos)
        if eol < 0:
            eol = len(text)
        raw = text[pos:eol]
        line = _strip(raw)
        consumed = eol + 1
        if line.startswith("EDGE"):
            m = _EDGE_RE.match(text[pos:].lstrip())
            if not m:
                raise ParseError("bad EDGE line", lineno)
            start = pos + text[pos:].index("{") + 1
            end = text.find("}", start)
            if end < 0:
                raise ParseError("unterminated EDGE block", lineno)
            edge = (m.group(1), m.group(2))
            edges.append(edge)
            blocks_raw[edge] = text[start:end]
            consumed = end + 1
        elif line:
            head = line.split(None, 1)[0]
            rest = line[len(head):].strip()
            if head == "FIELDS":
                fields += _decl_names(rest, lineno)
            elif head == "VARS":
                variables += _decl_names(rest, lineno)
            elif head == "CONCEPTS":
                data_concepts += _decl_names(rest, lineno)
            elif head == "NOMINALS":
                data_nominals += _decl_names(rest, lineno)
            elif head == "ROLES":
                data_roles += _decl_names(rest, lineno)
            elif head == "INIT":
                initial = rest.strip()
            elif head == "FORMULA":
                name, _, body = rest.partition(":")
                formulas_raw[name.strip()] = body.strip()
            elif head == "NODE":
                m = _NODE_RE.match(line)
                if not m:
                    raise ParseError("bad NODE line", lineno)
                nodes.append(m.group(1))
                for attr in m.group(2).split():
                    key, _, val = attr.partition("=")
                    (shp_ref if key == "shp" else cnt_ref)[m.group(1)] = val
            else:
                raise ParseError(f"unknown program section {head!r}", lineno)
        lineno += text[pos:consumed].count("\n")
        pos = consumed

    temps: list[str] = []
    code: dict[tuple[str, str], "Stmt"] = {}
    for edge, body in blocks_raw.items():
        parser = _StmtParser(tokenize(body))
        stmt = parser.block()
        parser.expect("eof")
        for t in parser.temps:
            fresh = f"__tmp{len(temps) + 1}"
            temps.append(fresh)
            stmt = _rename_var(stmt, t, fresh)
        code[edge] = stmt

    heap = HeapVocabulary(fields=tuple(fields), variables=tuple(variables) + tuple(temps),
                          data_concepts=tuple(data_concepts),
                          data_nominals=tuple(data_nominals),
                          data_roles=tuple(data_roles))
    vocab = heap.vocabulary()
    formulas = {name: parse_formula(body, vocab) for name, body in formulas_raw.items()}

    def resolve(table: dict[str, str]) -> dict[str, Formula]:
        # unannotated nodes carry the trivial annotation
        from .syntax import TRUE

        out = {node: TRUE for node in nodes}
        for node, ref in table.items():
            if ref not in formulas:
                raise ParseError(f"node {node} references unknown formula {ref!r}")
            out[node] = formulas[ref]
        return out

    if initial is None:
        with_in = {b for _, b in edges}
        candidates = [v for v in nodes if v not in with_in]
        if len(candidates) != 1:
            raise ParseError("cannot infer the initial node; add an INIT line")
        initial = candidates[0]

    # one relabeling pass over all blocks keeps labels globally unique
    taken = 0
    relabeled = {}
    for edge in sorted(code):
        from .programs import relabel as _relabel

        relabeled[edge] = _relabel(code[edge], start=taken + 1)
        taken = max([taken] + [c for c in _labels(relabeled[edge])])
    return Program(heap, tuple(nodes), tuple(edges), initial,
                   resolve(shp_ref), resolve(cnt_ref), relabeled)


def _labels(stmt) -> list[int]:
    from .programs import labels_of

    return labels_of(stmt)


def _rename_var(stmt, old: str, new: str):
    from .programs import (AndB, Assign, Assume, Dispose, EqB, FieldE, If,
                           New, NotB, OrB, ReadField, Seq, UnallocB, VarE,
                           WriteField)
    from dataclasses import replace as _replace

    def expr(e):
        if isinstance(e, VarE) and e.name == old:
            return VarE(new)
        if isinstance(e, FieldE) and e.var == old:
            return FieldE(new, e.fieldname)
        return e

    def cond(b):
        if isinstance(b, EqB):
            return EqB(expr(b.left), expr(b.right))
        if isinstance(b, NotB):
            return NotB(cond(b.inner))
        if isinstance(b, AndB):
            return AndB(cond(b.left), cond(b.right))
        if isinstance(b, OrB):
            return OrB(cond(b.left), cond(b.right))
        if isinstance(b, UnallocB) and b.var == old:
            return UnallocB(new)
        return b

    def walk(s):
        if isinstance(s, Seq):
            return Seq(walk(s.first), walk(s.second))
        if isinstance(s, If):
            return If(cond(s.cond), walk(s.then), walk(s.els), label=s.label)
        if isinstance(s, Assume):
            return Assume(cond(s.cond), label=s.label)
        if isinstance(s, Assign):
            return Assign(new if s.var == old else s.var, expr(s.expr), label=s.label)
        if isinstance(s, ReadField):
            return ReadField(new if s.var == old else s.var,
                             new if s.src == old else s.src, s.fieldname, label=s.label)
        if isinstance(s, WriteField):
            return WriteField(new if s.var == old else s.var, s.fieldname,
                              expr(s.expr), label=s.label)
        if isinstance(s, (New, Dispose)):
            return _replace(s, var=new if s.var == old else s.var)
        return s

    return walk(stmt)


def parse_memory_file(text: str):
    """A structure file with a MEMORY header and optional heap declaration
    lines; without declarations the heap vocabulary is inferred."""
    from .memory import HeapVocabulary, MemoryStructure

    decls: dict[str, list[str]] = {}
    body_lines: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        head = line.split(None, 1)[0] if line else ""
        if head in ("FIELDS", "VARS", "CONCEPTS", "NOMINALS", "ROLES"):
            decls.setdefault(head, []).extend(_decl_names(line[len(head):].strip(), lineno))
        else:
            body_lines.append(raw)
    _, fs = parse_structure_file("\n".join(body_lines))
    if decls:
        heap = HeapVocabulary(fields=tuple(decls.get("FIELDS", ())),
                              variables=tuple(decls.get("VARS", ())),
                              data_concepts=tuple(decls.get("CONCEPTS", ())),
                              data_nominals=tuple(decls.get("NOMINALS", ())),
                              data_roles=tuple(decls.get("ROLES", ())))
        return MemoryStructure(heap, fs).check(min_pool=0)
    from .memory import infer_memory

    return infer_memory(fs)
