"""Surface-grammar parser and the line-oriented file formats.

Formula grammar (UTF-8 text): `top`, `bot`, `&`, `|`, `!`, `E r.C`,
`E<= n r.C`, `E>= n r.C`, `E= n r.C`, `r^-`, `<=` (inclusion), `==`
(equality), `and`, `or`, `not`, parentheses.  Names match
[A-Za-z_][A-Za-z0-9_]*; the words top, bot, and, or, not and E are
reserved.  Update roles use the extension syntax `r[o1 -> o2]` and are
rejected unless parsing is invoked with allow_updates=True.

The three expression grammars, formulas, concepts and the conditions of
code blocks, share one operator routine, _Cursor.expr, each with its own
table of operators (_FORMULA, _CONCEPT and _BOOL).

One line reader, _lines, serves every file format: `#` starts a comment
on every line, EDGE blocks included, and blank lines are skipped.  Each
file is read once, and tokens count positions from where their fragment
starts in the file, so every error names its line and column there.

Files:
  formula/spec files  -- declarations (CONCEPT/NOMINAL/ROLE/FROLE) and
                         formula lines (conjoined); specs add the assertion
                         lines `REACH <B> {s1,s2} <A>` and `DISJ(A1,A2)`.
  structure files     -- `UNIVERSE 0..n-1`, `CONCEPT name: id ...`,
                         `ROLE|FROLE name: (id,id) ...`, `NOMINAL name = id`.
  memory files        -- structure files with a MEMORY header and optional
                         heap declarations (FIELDS/VARS/CONCEPTS/NOMINALS/
                         ROLES), validated once: against the declared heap,
                         or else the inferred one.
  program files       -- heap declarations, FORMULA, NODE, INIT and
                         `EDGE a -> b { block }` lines; a block may span lines.

Program files reserve the names that desugaring and the transformer add:
the prefix `__tmp` (TEMP_PREFIX) of temporaries, the abort flag `abo`, the
prefix `__lab_` of label nominals and the suffix `_ext` of post-state
copies.  Every variable and field a code block names must be declared.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Any, Callable, Iterator, NamedTuple

from .memory import HeapVocabulary, MemoryStructure, infer_memory
from .programs import (ABORT_FLAG, AndB, Assign, Assume, Dispose, EqB, FalseB,
                       FalseE, FieldE, If, New, NotB, NullE, OrB, Program,
                       ReadField, Seq, Skip, Stmt, TrueB, TrueE, VarE,
                       WriteField, labels_of, relabel, touched_symbols)
from .reach import DisjAssertion, ReachAssertion, ReachSpec
from .structures import FiniteStructure
from .syntax import (AtMost, Atomic, BOT, Concept, Eq, Exists, FAnd, FNot,
                     FOr, Formula, Incl, Nominal, Not, ReachDLError, Role, TOP,
                     TRUE, UpdatePoint, Vocabulary, And, Or, atleast, conj,
                     exactly)
from .wp import EXT_SUFFIX, LABEL_PREFIX


class ParseError(ReachDLError):
    """A syntax error; `line` is None for one that has no single position."""

    def __init__(self, message: str, line: int | None = 1, col: int = 1):
        super().__init__(message if line is None else f"{line}:{col}: {message}")
        self.line = line
        self.col = col


RESERVED = {"top", "bot", "and", "or", "not", "E"}

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<equant>E(?:<=|>=|=)(?=\s*\d))
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<sym>:=|->|\^-|<=|==|[&|!().\[\]{},=<>;~])
""", re.VERBOSE)


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str, line: int = 1, col: int = 1) -> list[Token]:
    """The tokens of `text`, ending in an eof token; positions count from
    (line, col), the place of text's first character in its file."""
    tokens: list[Token] = []
    base = -col  # a token at offset pos sits in column pos - base
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - base)
        kind, chunk = m.lastgroup, m.group()
        if kind == "ws":
            if "\n" in chunk:
                line += chunk.count("\n")
                base = pos + chunk.rindex("\n")
        else:
            if kind == "sym" or (kind == "name" and chunk in RESERVED):
                kind = chunk
            tokens.append(Token(kind, chunk, line, pos - base))
        pos = m.end()
    tokens.append(Token("eof", "", line, pos - base))
    return tokens


class _Grammar:
    """One expression grammar for _Cursor.expr.  `binary` gives its binary
    operators as (token kind, constructor) pairs, loosest first and all
    left-associative.  Its prefix operators bind tighter than any of them:
    `prefix` maps each one's token kind to a reader of the rest of its
    head, which returns the constructor that takes the operand.  `operand`
    is the rule that reads an operand."""

    def __init__(self, binary: tuple[tuple[str, Callable], ...],
                 prefix: dict[str, Callable], operand: Callable):
        self.binary = {kind: (level, make) for level, (kind, make) in enumerate(binary)}
        self.prefix = prefix
        self.operand = operand


# the level of a prefix operator's operand, above every binary operator's
_PREFIX = 100


class _Cursor:
    """A cursor over a token list, shared by the formula and statement
    grammars."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            raise self.error(f"expected {text or kind!r}, found {tok.text!r}", tok)
        return tok

    def error(self, msg: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(msg, tok.line, tok.col)

    def whole(self, rule: Callable[..., Any], *args: Any) -> Any:
        """Apply one grammar rule to the whole token stream.  The parsers
        recurse once per nesting level, so input nested past the
        interpreter's recursion limit is reported as a ParseError."""
        try:
            out = rule(*args)
        except RecursionError:
            raise ParseError("input nested too deeply", None) from None
        self.expect("eof")
        return out

    def expr(self, grammar: _Grammar, level: int = 0) -> Any:
        """An expression of `grammar` whose binary operators bind at
        `level` or tighter, by precedence climbing: a prefix operator and
        its operand, or an operand, then each binary operator of `level` or
        above with its right side read one level up.  Only prefix operators
        and parentheses nest calls: one frame per prefix operator, two or
        three per parenthesis."""
        tokens = self.tokens
        tok = tokens[self.pos]
        head = grammar.prefix.get(tok.kind)
        if head is None:
            left = grammar.operand(self)
        else:
            self.pos += 1
            left = head(self, tok)(self.expr(grammar, _PREFIX))
        while True:
            op = grammar.binary.get(tokens[self.pos].kind)
            if op is None or op[0] < level:
                return left
            self.pos += 1
            left = op[1](left, self.expr(grammar, op[0] + 1))

    def group(self, grammar: _Grammar) -> Any:
        """`( expression )` of `grammar` at the cursor, or else None with
        the cursor where it was: an atom of another kind may start with
        `(` too."""
        if self.tokens[self.pos].kind != "(":
            return None
        save = self.pos
        self.pos += 1
        try:
            inner = self.expr(grammar)
            self.expect(")")
            return inner
        except ParseError:
            self.pos = save
            return None


class _Parser(_Cursor):
    def __init__(self, tokens: list[Token], vocab: Vocabulary, allow_updates: bool):
        super().__init__(tokens)
        self.vocab = vocab
        self.allow_updates = allow_updates
        # the position of each `(` read as a concept group: (concept, end)
        self.groups: dict[int, tuple[Concept, int]] = {}

    def formula_atom(self) -> Formula:
        inner = self.group(_FORMULA)
        if inner is not None:
            return inner
        left = self.expr(_CONCEPT)
        op = self.next()
        if op.kind == "<=":
            return Incl(left, self.expr(_CONCEPT))
        if op.kind == "==":
            return Eq(left, self.expr(_CONCEPT))
        raise self.error(f"expected '<=' or '==', found {op.text!r}", op)

    def concept_atom(self) -> Concept:
        tok = self.next()
        if tok.kind == "(":
            # a failed formula group is read again as a concept, and so is
            # every group inside it: remembering each read keeps it linear
            start = self.pos - 1
            got = self.groups.get(start)
            if got is None:
                inner = self.expr(_CONCEPT)
                self.expect(")")
                got = self.groups[start] = (inner, self.pos)
            inner, self.pos = got
            return inner
        if tok.kind == "top":
            return TOP
        if tok.kind == "bot":
            return BOT
        if tok.kind == "name":
            name = tok.text
            if name in self.vocab.concepts:
                return Atomic(name)
            if name in self.vocab.nominals:
                return Nominal(name)
            raise self.error(f"unknown concept or nominal {name!r}", tok)
        raise self.error(f"expected a concept, found {tok.text!r}", tok)

    def quantifier(self, tok: Token) -> Callable[[Concept], Concept]:
        """The rest of the head of `E r.C` or of `E<= n r.C`, `E>= n r.C`
        and `E= n r.C`; returns the constructor that takes C."""
        bound = [int(self.expect("int").text)] if tok.kind == "equant" else []
        r = self.role()
        self.expect(".")
        return partial(_QUANTIFIERS[tok.text], *bound, r)

    def role(self) -> Role:
        tok = self.expect("name")
        name = tok.text
        if name not in self.vocab.roles:
            raise self.error(f"unknown role {name!r}", tok)
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


_QUANTIFIERS = {"E": Exists, "E<=": AtMost, "E>=": atleast, "E=": exactly}
# formulas: or < and < not < atom; concepts: | < & < the prefixes !, E r.
# and E<= n r. (or E>=, E=) < atom
_FORMULA = _Grammar((("or", FOr), ("and", FAnd)), {"not": lambda cursor, tok: FNot},
                    _Parser.formula_atom)
_CONCEPT = _Grammar((("|", Or), ("&", And)),
                    {"!": lambda cursor, tok: Not, "E": _Parser.quantifier,
                     "equant": _Parser.quantifier},
                    _Parser.concept_atom)


def _formula(text: str, vocab: Vocabulary, allow_updates: bool = False,
             line: int = 1, col: int = 1) -> Formula:
    parser = _Parser(tokenize(text, line, col), vocab, allow_updates)
    return parser.whole(parser.expr, _FORMULA)


def parse_formula(text: str, vocab: Vocabulary, allow_updates: bool = False) -> Formula:
    """Parse one formula; derived forms (E>=, E=) expand at parse time."""
    return _formula(text, vocab, allow_updates)


def parse_concept(text: str, vocab: Vocabulary, allow_updates: bool = False) -> Concept:
    parser = _Parser(tokenize(text), vocab, allow_updates)
    return parser.whole(parser.expr, _CONCEPT)


# ---------------------------------------------------------------------------
# The line reader


def _lines(text: str) -> Iterator[tuple[int, str, str, str]]:
    """(line number, line, head word, rest) for each line of a file that is
    not blank once its `#` comment is cut.  The line keeps its leading
    blanks, so columns count from the start of the file's line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
        words = line.split(None, 1)
        if words:
            yield lineno, line, words[0], words[1].strip() if len(words) > 1 else ""


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME + "$")


def _decl_names(rest: str, lineno: int) -> list[str]:
    names = rest.split()
    for n in names:
        if not _NAME_RE.match(n) or n in RESERVED:
            raise ParseError(f"bad name in declaration: {n!r}", lineno)
    return names


# ---------------------------------------------------------------------------
# Formula / spec files

_ASSERTION_RE = re.compile(r"(REACH|DISJ)\b")
_REACH_RE = re.compile(r"REACH\s*<\s*(\w+)\s*>\s*\{([^}]*)\}\s*<\s*(\w+)\s*>\s*$")
_DISJ_RE = re.compile(r"DISJ\s*\(\s*(\w+)\s*,\s*(\w+)\s*\)\s*$")


def _read_formulas(text: str, base: Vocabulary | None, allow_updates: bool,
                   spec: bool):
    """The formula and spec file reader: declarations, formula lines and,
    in a spec, the REACH/DISJ assertion lines.  Returns the vocabulary and
    the conjoined formula, or for a spec the validated ReachSpec."""
    vocab = base or Vocabulary()
    formula_lines: list[tuple[int, str]] = []
    reaches: list[tuple[int, str, frozenset[str], str]] = []
    disjs: list[DisjAssertion] = []
    for lineno, line, head, rest in _lines(text):
        if head == "CONCEPT":
            vocab = vocab.with_concepts(_decl_names(rest, lineno))
        elif head == "NOMINAL":
            vocab = vocab.with_nominals(_decl_names(rest, lineno))
        elif head == "ROLE":
            vocab = vocab.with_roles(_decl_names(rest, lineno))
        elif head == "FROLE":
            vocab = vocab.with_roles(_decl_names(rest, lineno), functional=True)
        elif assertion := _ASSERTION_RE.match(head):
            if not spec:
                raise ParseError("assertion line in a plain formula file", lineno)
            kind = assertion[1]
            m = (_REACH_RE if kind == "REACH" else _DISJ_RE).match(line.strip())
            if not m:
                raise ParseError(f"bad {kind} line", lineno)
            if kind == "DISJ":
                disjs.append(DisjAssertion(m.group(1), m.group(2)))
            else:
                roles = frozenset(s.strip() for s in m.group(2).split(",") if s.strip())
                reaches.append((lineno, m.group(1), roles, m.group(3)))
        else:
            formula_lines.append((lineno, line))
    # declarations may follow the formulas that use them
    formula = conj([_formula(line, vocab, allow_updates, lineno)
                    for lineno, line in formula_lines])
    if not spec:
        return vocab, formula
    resolved = []
    for lineno, src_name, roles, target in reaches:
        if src_name in vocab.nominals:
            source = Nominal(src_name)
        elif src_name in vocab.concepts:
            source = Atomic(src_name)
        else:
            raise ParseError(f"unknown reach source {src_name!r}", lineno)
        resolved.append(ReachAssertion(source, roles, target))
    out = ReachSpec(formula, tuple(resolved), frozenset(disjs))
    out.validate(vocab)
    return vocab, out


def parse_formula_file(text: str, base: Vocabulary | None = None,
                       allow_updates: bool = False) -> tuple[Vocabulary, Formula]:
    """Declarations plus formula lines; the formulas are conjoined."""
    return _read_formulas(text, base, allow_updates, spec=False)


def parse_spec_file(text: str, base: Vocabulary | None = None):
    """Spec file: a formula file plus REACH/DISJ lines.  Returns a ReachSpec
    together with its vocabulary."""
    return _read_formulas(text, base, False, spec=True)


# ---------------------------------------------------------------------------
# Structure and memory files

# the most elements a UNIVERSE line may give
MAX_UNIVERSE = 10**6
_IDS = r"(?:-?\d+(?:\s+-?\d+)*)?"
# the shape of each structure line after its head word
_SHAPES = {
    "UNIVERSE": re.compile(rf"(?:(-?\d+)\s*\.\.\s*(-?\d+)|{_IDS})$", re.ASCII),
    "CONCEPT": re.compile(rf"({_NAME})\s*:\s*({_IDS})$", re.ASCII),
    "ROLE": re.compile(rf"({_NAME})\s*:((?:\s*\(\s*-?\d+\s*,\s*-?\d+\s*\))*)$", re.ASCII),
    "NOMINAL": re.compile(rf"({_NAME})\s*=\s*(-?\d+)$", re.ASCII),
}
# heap declaration heads and the HeapVocabulary fields they fill
_HEAP_DECLS = {"FIELDS": "fields", "VARS": "variables", "CONCEPTS": "data_concepts",
               "NOMINALS": "data_nominals", "ROLES": "data_roles"}


def _ints(text: str) -> list[int]:
    return [int(t) for t in re.findall(r"-?\d+", text)]


def _given_once(first_line: dict[str, int], entry: str, lineno: int) -> None:
    """Record that line `lineno` gives `entry`, which no earlier line may."""
    if entry in first_line:
        raise ParseError(f"{entry} given twice (first on line {first_line[entry]})", lineno)
    first_line[entry] = lineno


def _universe(m: re.Match, rest: str, lineno: int) -> tuple[int, ...]:
    """The elements of a UNIVERSE line: at most MAX_UNIVERSE, a range
    checked before it is built, and none listed twice."""
    if m[1]:
        lo, hi = int(m[1]), int(m[2])
        size, elements = hi - lo + 1, range(lo, hi + 1)
    else:
        elements = _ints(rest)
        size = len(elements)
    if size > MAX_UNIVERSE:
        raise ParseError(f"the universe has {size} elements, more than the limit "
                         f"of {MAX_UNIVERSE}", lineno)
    universe = tuple(elements)
    try:
        FiniteStructure(universe)
    except ReachDLError as err:
        raise ParseError(str(err), lineno) from None
    return universe


def _read_structure(text: str, memory: bool, heap: HeapVocabulary | None = None):
    """The structure and memory file reader; heap declarations are read in
    memory files only.  Returns the vocabulary, the structure, and for a
    memory file or one with a MEMORY header the memory structure, validated
    once: against the declared heap, or else `heap`, or else the inferred
    one."""
    universe: tuple[int, ...] | None = None
    concepts: dict[str, frozenset[int]] = {}
    roles: dict[str, frozenset[tuple[int, int]]] = {}
    functional: set[str] = set()
    nominals: dict[str, int] = {}
    decls: dict[str, list[str]] = {}
    first_line: dict[str, int] = {}  # "UNIVERSE" or "<kind> <name>" -> its line
    saw_memory = False
    for lineno, _, head, rest in _lines(text):
        if memory and head in _HEAP_DECLS:
            decls.setdefault(_HEAP_DECLS[head], []).extend(_decl_names(rest, lineno))
            continue
        if head == "MEMORY":
            saw_memory = True
            continue
        kind = "ROLE" if head == "FROLE" else head
        shape = _SHAPES.get(kind)
        if shape is None:
            raise ParseError(f"unknown section {head!r}", lineno)
        m = shape.match(rest)
        if m is None:
            raise ParseError(f"bad {head} line", lineno)
        if head == "UNIVERSE":  # the line is checked on its own first
            elements = _universe(m, rest, lineno)
        _given_once(first_line, head if head == "UNIVERSE" else f"{kind.lower()} {m[1]}",
                    lineno)
        if head == "UNIVERSE":
            universe = elements
        elif head == "CONCEPT":
            concepts[m[1]] = frozenset(_ints(m[2]))
        elif head == "NOMINAL":
            nominals[m[1]] = int(m[2])
        else:
            ids = _ints(m[2])
            roles[m[1]] = frozenset(zip(ids[::2], ids[1::2]))
            if head == "FROLE":
                functional.add(m[1])
    if universe is None:
        raise ParseError("missing UNIVERSE line")
    if not (memory or saw_memory):  # memory files fail the heap axioms instead
        for name in sorted(functional, key=lambda n: first_line[f"role {n}"]):
            sources = sorted(a for a, _ in roles[name])
            for a, b in zip(sources, sources[1:]):
                if a == b:
                    raise ParseError(f"FROLE {name} is not functional at {a}",
                                     first_line[f"role {name}"])
    vocab = Vocabulary(frozenset(concepts), frozenset(roles), frozenset(functional),
                       frozenset(nominals))
    fs = FiniteStructure(universe, concepts, roles, nominals)
    if decls:
        heap = HeapVocabulary(**{key: tuple(names) for key, names in decls.items()})
    if heap is not None:
        return vocab, fs, MemoryStructure(heap, fs).check(min_pool=0)
    return vocab, fs, infer_memory(fs) if memory or saw_memory else None


def parse_structure_file(text: str) -> tuple[Vocabulary, FiniteStructure]:
    return _read_structure(text, memory=False)[:2]


def parse_memory_file(text: str, heap: HeapVocabulary | None = None) -> MemoryStructure:
    """A structure file with a MEMORY header and optional heap declaration
    lines; without declarations it is read against `heap`, if given, and
    otherwise the heap vocabulary is inferred."""
    return _read_structure(text, memory=True, heap=heap)[2]


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
# Statements and program files

_STMT_KEYWORDS = {"skip", "dispose", "assume", "if", "then", "else", "fi", "new"}
_CONSTANTS = {"null": NullE, "T": TrueE, "F": FalseE}
TEMP_PREFIX = "__tmp"


class _StmtParser(_Cursor):
    """The concrete statement syntax.  Field-to-field assignments
    and if-then without else are desugared (fresh temporaries collected in
    self.temps, numbered on from `temps_before`)."""

    def __init__(self, tokens: list[Token], temps_before: int = 0):
        super().__init__(tokens)
        self.temps: list[str] = []
        self.temps_before = temps_before

    def name(self) -> str:
        tok = self.next()
        if tok.kind != "name" or tok.text in _STMT_KEYWORDS:
            raise self.error(f"expected a name, found {tok.text!r}", tok)
        if tok.text.startswith(TEMP_PREFIX):
            raise self.error(f"name {tok.text!r} takes the prefix {TEMP_PREFIX!r} of "
                             "desugaring temporaries", tok)
        return tok.text

    def fresh_temp(self) -> str:
        name = f"{TEMP_PREFIX}{self.temps_before + len(self.temps) + 1}"
        self.temps.append(name)
        return name

    # expressions: null | T | F | var | var.f
    def sexpr(self):
        tok = self.peek()
        if tok.kind == "name" and tok.text in _CONSTANTS:
            self.next()
            return _CONSTANTS[tok.text]()
        var = self.name()
        if self.peek().kind == ".":
            self.next()
            return FieldE(var, self.name())
        return VarE(var)

    def bool_atom(self):
        tok = self.peek()
        # T and F are literals unless an equality follows (T = x)
        if (tok.kind == "name" and tok.text in ("T", "F")
                and self.tokens[self.pos + 1].kind != "="):
            self.next()
            return TrueB() if tok.text == "T" else FalseB()
        inner = self.group(_BOOL)
        if inner is not None:
            return inner
        left = self.sexpr()
        self.expect("=")
        return EqB(left, self.sexpr())

    def block(self):
        out = self.stmt()
        while self.peek().kind == ";":
            self.next()
            if self.peek().kind in ("eof", "}") or \
                    (self.peek().kind == "name" and self.peek().text in ("else", "fi")):
                break  # tolerate a trailing semicolon
            out = Seq(out, self.stmt())
        return out

    def stmt(self):
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
            cond = self.expr(_BOOL)
            self.expect(")")
            return Assume(cond)
        if tok.kind == "name" and tok.text == "if":
            self.next()
            cond = self.expr(_BOOL)
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
                           WriteField(var, fieldname, VarE(tmp)))
            return WriteField(var, fieldname, rhs)
        self.expect(":=")
        if self.peek().kind == "name" and self.peek().text == "new":
            self.next()
            return New(var)
        rhs = self.sexpr()
        if isinstance(rhs, FieldE):
            return ReadField(var, rhs.var, rhs.fieldname)
        return Assign(var, rhs)


# booleans: or < and < ~ < atom; atoms T | F | (b) | e1 = e2
_BOOL = _Grammar((("or", OrB), ("and", AndB)), {"~": lambda cursor, tok: NotB},
                 _StmtParser.bool_atom)


def parse_block(text: str) -> tuple[Stmt, list[str]]:
    """Parse a loopless code block; returns the (relabeled) statement and
    the fresh temporaries introduced by desugaring."""
    parser = _StmtParser(tokenize(text))
    return relabel(parser.whole(parser.block)), parser.temps


_FORMULA_RE = re.compile(r"\s*FORMULA\s+(\w+)\s*:")
_NODE_RE = re.compile(r"NODE\s+(\w+)((?:\s+(?:shp|cnt)=\w+)*)\s*$")
_EDGE_RE = re.compile(r"\s*EDGE\s+(\w+)\s*->\s*(\w+)\s*\{")


def _program_names(rest: str, lineno: int) -> list[str]:
    """The names of a program file's declaration line, none of which may
    take a name that desugaring or the transformer adds."""
    names = _decl_names(rest, lineno)
    for n in names:
        taken = (n.startswith(TEMP_PREFIX)
                 and f"the prefix {TEMP_PREFIX!r} of desugaring temporaries"
                 or n.startswith(LABEL_PREFIX) and f"the prefix {LABEL_PREFIX!r} of label nominals"
                 or n.endswith(EXT_SUFFIX) and f"the suffix {EXT_SUFFIX!r} of post-state copies"
                 or n == ABORT_FLAG and "the abort flag's name")
        if taken:
            raise ParseError(f"name {n!r} takes {taken}", lineno)
    return names


def _edge_tokens(line: str, start: int, lineno: int,
                 lines: Iterator[tuple[int, str, str, str]]) -> list[Token]:
    """The tokens of the EDGE block that opens just before offset `start`
    of `line`, read on from `lines` up to the closing brace."""
    tokens: list[Token] = []
    text, at, col = line[start:], lineno, start + 1
    while (end := text.find("}")) < 0:
        tokens += tokenize(text, at, col)[:-1]
        try:
            at, text, _, _ = next(lines)
        except StopIteration:
            raise ParseError("unterminated EDGE block", lineno) from None
        col = 1
    if text[end + 1:].strip():
        raise ParseError("text after the EDGE block", at)
    return tokens + tokenize(text[:end], at, col)


def parse_program_file(text: str) -> Program:
    """Program file: heap declarations, named formulas, nodes with
    annotation references, and edges carrying code blocks."""
    decls: dict[str, list[str]] = {}
    formula_at: dict[str, tuple[int, int, str]] = {}
    nodes: list[str] = []
    refs: dict[str, dict[str, tuple[str, int]]] = {"shp": {}, "cnt": {}}
    edge_line: dict[tuple[str, str], int] = {}
    code: dict[tuple[str, str], Stmt] = {}
    temps: list[str] = []
    initial: str | None = None
    first_line: dict[str, int] = {}  # "INIT" or "<kind> <name>" -> its line

    lines = _lines(text)
    for lineno, line, head, rest in lines:
        if head in _HEAP_DECLS:
            decls.setdefault(_HEAP_DECLS[head], []).extend(_program_names(rest, lineno))
        elif head == "INIT":
            _given_once(first_line, head, lineno)
            initial = rest
        elif head == "FORMULA":
            m = _FORMULA_RE.match(line)
            if not m:
                raise ParseError("bad FORMULA line", lineno)
            _given_once(first_line, f"formula {m[1]}", lineno)
            formula_at[m[1]] = (lineno, m.end() + 1, line[m.end():])
        elif head == "NODE":
            m = _NODE_RE.match(line.strip())
            if not m:
                raise ParseError("bad NODE line", lineno)
            _given_once(first_line, f"node {m[1]}", lineno)
            nodes.append(m[1])
            for attr in m[2].split():
                key, _, ref = attr.partition("=")
                _given_once(first_line, f"{key} of node {m[1]}", lineno)
                refs[key][m[1]] = (ref, lineno)
        elif head == "EDGE":
            m = _EDGE_RE.match(line)
            if not m:
                raise ParseError("bad EDGE line", lineno)
            edge = (m[1], m[2])
            if edge in code:
                raise ParseError("multiple edges are not allowed", lineno)
            parser = _StmtParser(_edge_tokens(line, m.end(), lineno, lines), len(temps))
            edge_line[edge] = lineno
            code[edge] = parser.whole(parser.block)
            temps += parser.temps
        else:
            raise ParseError(f"unknown program section {head!r}", lineno)

    decls.setdefault("variables", []).extend(temps)
    declared = (set(decls["variables"]), set(decls.get("fields", ())))
    for edge, stmt in code.items():
        for kind, used, have in zip(("variable", "field"), touched_symbols(stmt), declared):
            if used - have:
                raise ParseError(f"undeclared {kind} {min(used - have)!r}", edge_line[edge])

    heap = HeapVocabulary(**{key: tuple(names) for key, names in decls.items()})
    vocab = heap.vocabulary()
    formulas = {name: _formula(body, vocab, False, lineno, col)
                for name, (lineno, col, body) in formula_at.items()}

    def annotations(key: str) -> dict[str, Formula]:
        # unannotated nodes carry the trivial annotation
        out = {node: TRUE for node in nodes}
        for node, (ref, lineno) in refs[key].items():
            if ref not in formulas:
                raise ParseError(f"node {node} references unknown formula {ref!r}", lineno)
            out[node] = formulas[ref]
        return out

    edges = tuple(edge_line)
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
        relabeled[edge] = relabel(code[edge], start=taken + 1)
        taken = max([taken] + labels_of(relabeled[edge]))
    return Program(heap, tuple(nodes), edges, initial,
                   annotations("shp"), annotations("cnt"), relabeled)
