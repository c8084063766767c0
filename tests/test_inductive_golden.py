"""Golden for bounded inductiveness: check_inductive's verdict, witness
edge and witness structures, and check_reach_soundness's verdict at depth
2, on the seeded one-edge programs of test_vc_golden at bound 2 and on the
benchmark's heap-verify inductive programs (the walker and the nine
criterion-8 one-edge programs) at bound 3.

The seeded programs start from no initial structure, the benchmark's from
their own memory; reach soundness starts from that memory, or for a seeded
program from one allocated cell and two pool cells.  Only the seeded
programs checked within about 1 s when the golden was first recorded are
kept, and the golden lists their indices.  An error is recorded as its
class and message.

Re-record (only on purpose, saying why; it keeps the case set and prints
every case and key it changes):
    PYTHONPATH=src:tests python tests/test_inductive_golden.py --record
"""

import json
import signal
import sys
from pathlib import Path

import pytest

from reachdl.memory import MemoryStructure
from reachdl.parser import parse_memory_file, parse_program_file, structure_to_text
from reachdl.syntax import ReachDLError
from reachdl.vc import check_inductive, check_reach_soundness
from test_programs_golden import EDGE_CORPUS, WALKER, WALKER_MEMORY, memory_text
from test_vc_golden import SEEDED, seeded_program

GOLDEN = Path(__file__).with_name("golden_inductive.json")
RECORD_LIMIT_S = 1.0
SMALL_MEMORY = memory_text(["f"], ["x", "y"], {3: {}}, 2, {}, ("P1",))

# name -> (program, memory, check_inductive from the memory, bound)
BENCH_CASES = {"walker": (WALKER, WALKER_MEMORY, True, 3)}
BENCH_CASES.update({
    name: (prog, memory_text(["f"], ["x", "y"], {3: {}}, 2, values, ("P1",)), True, 3)
    for name, prog, values in EDGE_CORPUS})


def case(name: str) -> tuple[str, str, bool, int]:
    if name.startswith("seeded-"):
        return seeded_program(int(name.split("-")[1])), SMALL_MEMORY, False, 2
    return BENCH_CASES[name]


def _text(fs):
    return None if fs is None else structure_to_text(fs)


def outcome(name: str) -> dict:
    text, memory, from_memory, bound = case(name)
    prog = parse_program_file(text)
    init = [MemoryStructure(prog.heap, parse_memory_file(memory).fs).check(min_pool=0)]
    out: dict = {"bound": bound}
    try:
        ok, witness = check_inductive(prog, init if from_memory else [], bound)
        out["inductive"] = ok
        if witness is not None:
            out["edge"] = witness.edge and list(witness.edge)
            out["before"], out["after"] = _text(witness.before), _text(witness.after)
    except ReachDLError as err:
        out["inductive"] = f"{type(err).__name__}: {err}"
    try:
        out["reach_sound"] = check_reach_soundness(prog, init, 2)
    except ReachDLError as err:
        out["reach_sound"] = f"{type(err).__name__}: {err}"
    return out


class _Slow(Exception):
    pass


def _alarm(signum, frame):
    raise _Slow


def _first_golden() -> dict:
    """A new golden: the seeded programs checked within RECORD_LIMIT_S on
    this host, and the benchmark's programs."""
    golden = {}
    signal.signal(signal.SIGALRM, _alarm)
    for i in range(SEEDED):
        signal.setitimer(signal.ITIMER_REAL, RECORD_LIMIT_S)
        try:
            golden[f"seeded-{i}"] = outcome(f"seeded-{i}")
        except _Slow:
            print(f"seeded-{i}: over {RECORD_LIMIT_S} s, left out")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    for name in BENCH_CASES:
        golden[name] = outcome(name)
    return golden


def record():
    from test_vc_golden import print_changes

    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden = {name: outcome(name) for name in old} if old else _first_golden()
    print_changes(old, golden)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def _cases():
    """The recorded case names (a missing golden fails its one case)."""
    if not GOLDEN.exists():
        return ["walker"]
    return sorted(json.loads(GOLDEN.read_text()))


@pytest.mark.parametrize("name", _cases())
def test_inductive_golden(name):
    assert outcome(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__" and "--record" in sys.argv:
    record()
