"""Golden for bounded VC checking: check_vc's verdict, candidate count and
counterexample text at bound 2 on seeded one-edge programs, plus r-wp21
of the benchmark's heap-verify seed 1 at bound 1 (splitting its whole VC
at every update occurrence gave 5,262,419 nodes).

The seeded programs are drawn from gen.py (random_program_stmt with
random_heap_formula annotations over fields f, variables x y and the data
concept P1); only those checked within about 2 s at recording are kept,
and the golden lists their indices.

Re-record (only on purpose, saying why):
    PYTHONPATH=src:tests python tests/test_vc_golden.py --record
"""

import json
import random
import signal
import sys
import time
from pathlib import Path

import pytest

from reachdl.memory import HeapVocabulary
from reachdl.parser import parse_program_file, structure_to_text
from reachdl.syntax import formula_size, to_text
from reachdl.vc import check_vc, vc_formula
from gen import random_heap_formula, random_program_stmt
from test_programs_golden import stmt_text

GOLDEN = Path(__file__).with_name("golden_vc.json")
HEAP = HeapVocabulary(fields=("f",), variables=("x", "y"), data_concepts=("P1",))
EDGE = ("a", "b")
SEEDED = 100          # candidate programs drawn at recording
RECORD_LIMIT_S = 2.0

R_WP21 = """\
FIELDS f
VARS x y
CONCEPTS P1
FORMULA post: E f.(E<=0 f^-.(P1_gho)) <= !(E<=1 f^-.(Aux))
NODE a
NODE b cnt=post
EDGE a -> b { dispose(x); x.f := T; assume(y = y); assume((y = y) and (y = x)) }
"""


def seeded_program(i: int) -> str:
    rng = random.Random(f"vc-golden:{i}")
    code = random_program_stmt(rng, HEAP, rng.randint(1, 4))
    pre, post = random_heap_formula(rng, HEAP), random_heap_formula(rng, HEAP)
    return ("FIELDS f\nVARS x y\nCONCEPTS P1\n"
            f"FORMULA pre: {to_text(pre)}\nFORMULA post: {to_text(post)}\n"
            "NODE a cnt=pre\nNODE b cnt=post\n"
            f"EDGE a -> b {{ {stmt_text(code)} }}\n")


def outcome(text: str, bound: int) -> dict:
    entry = check_vc(parse_program_file(text), EDGE, bound)
    cex = entry.counterexample
    return {"program": text, "bound": bound, "verdict": entry.verdict,
            "candidates": entry.candidates,
            "counterexample": None if cex is None else structure_to_text(cex)}


class _Slow(Exception):
    pass


def _alarm(signum, frame):
    raise _Slow


def record():
    golden = {}
    signal.signal(signal.SIGALRM, _alarm)
    for i in range(SEEDED):
        signal.setitimer(signal.ITIMER_REAL, RECORD_LIMIT_S)
        try:
            golden[f"seeded-{i}"] = outcome(seeded_program(i), 2)
        except _Slow:
            print(f"seeded-{i}: over {RECORD_LIMIT_S} s, left out")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    golden["r-wp21"] = outcome(R_WP21, 1)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def _cases():
    """The recorded case names (a missing golden fails its one case)."""
    if not GOLDEN.exists():
        return ["r-wp21"]
    return sorted(json.loads(GOLDEN.read_text()))


@pytest.mark.parametrize("name", _cases())
def test_vc_golden(name):
    want = json.loads(GOLDEN.read_text())[name]
    text = R_WP21 if name == "r-wp21" else seeded_program(int(name.split("-")[1]))
    start = time.perf_counter()
    assert outcome(text, want["bound"]) == want
    if name == "r-wp21":
        # the whole-formula split took about 20 s here
        assert time.perf_counter() - start < 2.0
        assert formula_size(vc_formula(parse_program_file(text), EDGE)) < 50_000


if __name__ == "__main__" and "--record" in sys.argv:
    record()
