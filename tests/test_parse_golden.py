"""Parse golden: the outcome of every expression grammar on a fixed corpus.

For formula, concept, block and program text, a seeded corpus of random
token strings and the hand-written malformed cases below are parsed.  The
outcome of each is the printed result (`to_text` of a formula, the repr of
a statement, a digest of a program's parts) or the exact error text, which
for a ParseError is `line:col: message`.  One sha256 per grammar pins the
tree shape of valid input (associativity and precedence) and the position
and text of every error.  The random strings mix operators without
parentheses, so the parser, not the text, decides their shape, and they
are laid out over several lines, so error positions count lines too.

Re-record (only on purpose, saying why):
    PYTHONPATH=src:tests python tests/test_parse_golden.py --record
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from reachdl.parser import parse_block, parse_concept, parse_formula, parse_program_file
from reachdl.syntax import Incl, ReachDLError, TOP, Vocabulary, to_text

GOLDEN = Path(__file__).with_name("golden_parse.json")

V = Vocabulary(concepts={"A", "B"}, roles={"r", "f"}, functional={"f"}, nominals={"o"})

# tokens a random string may hold besides the well-formed ones: unknown
# names, stray symbols and a character no token starts with
_NOISE = ["Z", "r", "o", "(", ")", ".", "^-", "[", "]", "->", "<=", "==", "=", ",",
          "2", "E", "E<=1", "and", "or", "not", "!", "&", "|", "~", ";", ":=", "@"]
_SPACES = [" ", " ", " ", "  ", "\n", " \n\t "]


def _layout(rng, tokens):
    return "".join(t + rng.choice(_SPACES) for t in tokens).rstrip(" ")


def _mutate(rng, tokens):
    """One to three token edits: a deletion, an insertion or a swap."""
    tokens = list(tokens)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(tokens) + 1)
        k = rng.randrange(3)
        if k == 0 and i < len(tokens):
            del tokens[i]
        elif k == 1 or i + 1 >= len(tokens):
            tokens.insert(i, rng.choice(_NOISE))
        else:
            tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
    return tokens


def _role(rng):
    return [rng.choice(["r", "f"])] + (["^-"] if rng.random() < 0.3 else [])


def _concept(rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        return [rng.choice(["A", "B", "o", "top", "bot"])]
    k = rng.randrange(6)
    if k < 2:  # no parentheses: the parser decides the shape
        return (_concept(rng, depth - 1) + [rng.choice(["&", "|"])]
                + _concept(rng, depth - 1))
    if k == 2:
        return ["!"] + _concept(rng, depth - 1)
    if k == 3:
        return ["("] + _concept(rng, depth - 1) + [")"]
    quantifier = rng.choice(["E", "E", "E<=1", "E>=2", "E=0"])
    return [quantifier] + _role(rng) + ["."] + _concept(rng, depth - 1)


def _formula(rng, depth):
    if depth <= 0 or rng.random() < 0.35:
        return _concept(rng, 2) + [rng.choice(["<=", "=="])] + _concept(rng, 2)
    k = rng.randrange(4)
    if k < 2:
        return (_formula(rng, depth - 1) + [rng.choice(["and", "or"])]
                + _formula(rng, depth - 1))
    if k == 2:
        return ["not"] + _formula(rng, depth - 1)
    return ["("] + _formula(rng, depth - 1) + [")"]


def _sexpr(rng):
    k = rng.randrange(4)
    if k == 0:
        return [rng.choice(["null", "T", "F"])]
    if k == 1:
        return [rng.choice(["x", "y"]), ".", rng.choice(["f", "g"])]
    return [rng.choice(["x", "y"])]


def _cond(rng, depth):
    if depth <= 0 or rng.random() < 0.35:
        if rng.random() < 0.15:
            return [rng.choice(["T", "F"])]
        return _sexpr(rng) + ["="] + _sexpr(rng)
    k = rng.randrange(4)
    if k < 2:
        return _cond(rng, depth - 1) + [rng.choice(["and", "or"])] + _cond(rng, depth - 1)
    if k == 2:
        return ["~"] + _cond(rng, depth - 1)
    return ["("] + _cond(rng, depth - 1) + [")"]


def _stmt(rng, size):
    if size <= 1:
        k = rng.randrange(6)
        if k == 0:
            return ["skip"]
        if k == 1:
            return ["assume", "("] + _cond(rng, 3) + [")"]
        if k == 2:
            return [rng.choice(["x", "y"]), ":="] + _sexpr(rng)
        if k == 3:
            return [rng.choice(["x", "y"]), ".", rng.choice(["f", "g"]), ":="] + _sexpr(rng)
        if k == 4:
            return [rng.choice(["x", "y"]), ":=", "new"]
        return ["dispose", "(", rng.choice(["x", "y"]), ")"]
    if rng.random() < 0.3:
        half = size // 2
        els = ["else"] + _stmt(rng, size - half) if rng.random() < 0.6 else []
        return ["if"] + _cond(rng, 2) + ["then"] + _stmt(rng, half) + els + ["fi"]
    return _stmt(rng, 1) + [";"] + _stmt(rng, size - 1)


def _texts(rng, make, n):
    out = []
    for _ in range(n):
        tokens = make(rng)
        if rng.random() < 0.5:
            tokens = _mutate(rng, tokens)
        out.append(_layout(rng, tokens))
    return out


MALFORMED = {
    "formula": [
        "", "A", "A <=", "<= A", "A <= B and", "A <= B or or B <= A", "(A <= B",
        "(A <= B))", "not", "not not", "A < B", "A <= B B", "A <= E r", "A <= E r.",
        "A <= E<= r.A", "A <= E<=1 r.", "A <= E zz.A", "A <= E r[o -> o].A",
        "A <= B ^-", "A <= r^-", "A @ B", "A <= B\n  and (B", "top <= bot == top",
        "((A) <= B", "A <= (B", "A <= !", "A == B and not (A <= B", "E = 1 r.A <= B",
        "E>=0 r.A <= B", "A <= E<=2 f^-.!B & E f.(A | o)", "((A | B) & o) <= B",
        "(((A <= B) and ((B) == A)))", "not (A) <= B", "A <= B and not B <= A or A == B",
        "A <= B or B <= A and not A == B", "A & B | o <= !A | B & o",
    ],
    "concept": [
        "", "&", "A &", "A B", "(A", "A)", "!", "!!", "E", "E r", "E r.", "E r A",
        "E<=1", "E<=1 r", "E<=x r.A", "E r^-^-.A", "E zz.A", "E r[o -> o].A",
        "A <= B", "top bot", "A | | B", "A & (B | o", "\n\n  A &\n  )",
        "E r.E f.!A", "E r.!A & B", "!E r.A | B", "E>=3 f.top", "E=2 r^-.(A & B)",
        "A | B & o | !A", "((((A))))", "A & B & o", "A | B | o", "o ^-",
    ],
    "block": [
        "", "skip;", "skip;;", "x :=", "x := y.f.g", "assume(x = null",
        "assume()", "assume(x)", "if x = null then skip", "if x = null then skip else fi",
        "if then fi", "dispose x", "x.f := new", "__tmp1 := null", "x := y =",
        "assume(~)", "assume(T = x)", "assume(T and F)", "assume((x = null) or y = null)",
        "assume(((x = null))", "new := x", "x := then", "assume(x = null and)",
        "assume(~ ~ (x = y.f) or T and F)", "x.f := y.g; y := x.f", "skip;\n\n  x := @",
        "if T then skip; fi", "if (x = null) = y then skip fi",
    ],
}

_HEADER = "FIELDS f g\nVARS x y\n"
MALFORMED["program"] = [
    _HEADER + "NODE a\nNODE b\nEDGE a -> b { skip\n",
    _HEADER + "NODE a\nNODE b\nEDGE a -> b { skip } skip\n",
    _HEADER + "FORMULA : x == null\nNODE a\n",
    _HEADER + "NODE a shp\n",
    _HEADER + "NODES a\n",
    _HEADER + "NODE a cnt=p\nNODE b\nEDGE a -> b { skip }\n",
    _HEADER + "NODE a\nNODE b\nEDGE a -> b { z := null }\n",
    _HEADER + "NODE a\nNODE b\nEDGE a -> b { skip }\nEDGE a -> b { skip }\n",
    _HEADER + "NODE a\nNODE b\nNODE c\nEDGE a -> b { skip }\n",
    _HEADER + "INIT q\nNODE a\nNODE b\nEDGE a -> b { skip }\n",
    _HEADER + "NODE a\nNODE b\nEDGE b -> a { skip }\nINIT a\n",
    _HEADER + "VARS abo\nNODE a\n",
    _HEADER + "FORMULA p: x <= E h.null\nNODE a cnt=p\n",
    _HEADER + "FORMULA p:\n  x <= null\nNODE a cnt=p\n",
    _HEADER + "NODE a\nNODE b\nEDGE a -> b {\n  x := null;\n  assume(x = )\n}\n",
    _HEADER + "NODE a\nNODE b\nEDGE a -> c { skip }\n",
    _HEADER + "NODE a\nNODE b\nEDGE a -> b { x := y.h }\n",
    _HEADER + "FORMULA p: x <= null # a comment\nNODE a cnt=p shp=p\nNODE b\n"
              "EDGE a -> b { x.f := y.g # the first step\n ; skip }\n",
]


def _program(rng):
    lines = [_HEADER]
    names = [f"p{i}" for i in range(rng.randint(1, 3))]
    for name in names:
        body = _formula_heap(rng, 2)
        if rng.random() < 0.15:
            body = _mutate(rng, body)
        lines.append(f"FORMULA {name}: {' '.join(body)}\n")  # one line
    nodes = [f"n{i}" for i in range(rng.randint(2, 4))]
    for node in nodes:
        attrs = [f" {key}={rng.choice(names + ['zz'] * (rng.random() < 0.05))}"
                 for key in ("shp", "cnt") if rng.random() < 0.5]
        lines.append(f"NODE {node}{''.join(attrs)}\n")
    for a, b in zip(nodes, nodes[1:]):
        block = _stmt(rng, rng.randint(1, 4))
        if rng.random() < 0.15:
            block = _mutate(rng, block)
        lines.append(f"EDGE {a} -> {b} {{ {_layout(rng, block)} }}\n")
    if rng.random() < 0.3:
        lines.append(f"INIT {nodes[0]}\n")
    if rng.random() < 0.1:
        del lines[rng.randrange(1, len(lines))]
    return "".join(lines)


def _formula_heap(rng, depth):
    """A formula over the heap vocabulary of _HEADER."""
    tokens = _formula(rng, depth)
    names = {"A": "Alloc", "B": "x", "o": "null", "r": "f", "f": "g"}
    return [names.get(t, t) for t in tokens]


def corpus():
    """The texts of each grammar: the malformed cases, then the seeded
    random ones."""
    rng = random.Random(20231)
    return {
        "formula": MALFORMED["formula"] + _texts(rng, lambda g: _formula(g, 3), 1500),
        "concept": MALFORMED["concept"] + _texts(rng, lambda g: _concept(g, 4), 1500),
        "block": MALFORMED["block"] + _texts(rng, lambda g: _stmt(g, g.randint(1, 6)), 1000),
        "program": MALFORMED["program"] + [_program(rng) for _ in range(300)],
    }


def _program_text(prog):
    parts = [repr(prog.heap), repr(prog.nodes), repr(prog.edges), prog.initial]
    parts += [f"{node} {to_text(prog.shp[node])} / {to_text(prog.cnt[node])}"
              for node in prog.nodes]
    parts += [repr((edge, prog.code[edge])) for edge in sorted(prog.code)]
    return "\n".join(parts)


PARSE = {
    "formula": lambda text: to_text(parse_formula(text, V)),
    "concept": lambda text: to_text(Incl(parse_concept(text, V), TOP)),
    "block": lambda text: repr(parse_block(text)),
    "program": lambda text: _program_text(parse_program_file(text)),
}


def outcomes(grammar, texts):
    out = []
    for text in texts:
        try:
            out.append("ok " + PARSE[grammar](text))
        except ReachDLError as err:
            out.append(f"{type(err).__name__} {err}")
    return out


def digests():
    golden = {}
    for grammar, texts in corpus().items():
        results = outcomes(grammar, texts)
        golden[grammar] = {
            "sha256": hashlib.sha256("\n".join(results).encode()).hexdigest(),
            "parsed": sum(r.startswith("ok ") for r in results),
            "texts": len(results),
        }
    return golden


def test_parse_golden():
    assert digests() == json.loads(GOLDEN.read_text())


def test_corpus_mixes_valid_and_invalid_text():
    """Each grammar's corpus parses in part, so the digest covers both
    tree shapes and error positions."""
    for grammar, entry in json.loads(GOLDEN.read_text()).items():
        assert 0.2 * entry["texts"] < entry["parsed"] < 0.8 * entry["texts"], grammar


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
