"""CLI fuzz test: the input boundary holds under small edits.

Each example makes 1-3 character or line edits to one valid input file
and runs every verb that reads that kind of file, in process and with
small bounds.  Whatever the edit, `main` must return 0, 1 or 2 without
raising, and an exit 2 must write exactly one stderr line starting with
`error:`.  The REACHDL_CEILING environment variable gets the same
treatment with random text.
"""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from reachdl.cli import main

# Even with database=None, hypothesis caches what it reads of the source
# under its home directory, the working directory by default; its pytest
# plugin does so while collecting, so the home is set on import.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "reachdl-hypothesis")

SPEC = """\
# a list segment from head
CONCEPT L M
NOMINAL head
FROLE next
top <= top
head <= L
REACH <head> {next} <L>
DISJ(L,M)
"""

SPEC2 = """\
CONCEPT L
NOMINAL head
FROLE next
not (L <= E next.top)
REACH <head> {next} <L>
"""

FORMULA = """\
CONCEPT L
NOMINAL head
FROLE next
head <= L and E next.L <= L   # closed under next
"""

STRUCTURE = """\
UNIVERSE 0..2
CONCEPT L: 0 1
FROLE next: (0,1) (1,2)
NOMINAL head = 0   # the list head
"""

PROGRAM = """\
# one walker step
FIELDS next
VARS e hd
FORMULA inv: Alloc <= E next.(Alloc | null) and e <= Alloc | null
NODE a cnt=inv
NODE b cnt=inv
EDGE a -> b {
  assume(~(e = null));
  e := e.next
}
"""

MEMORY = """\
MEMORY
FIELDS next
VARS e hd
UNIVERSE 0..5
CONCEPT Addresses: 3 4 5
CONCEPT Alloc: 3 4
CONCEPT Aux: 0 1 2
CONCEPT MemPool: 5
CONCEPT PossibleTargets:
FROLE next: (3,4) (4,0) (5,0)
FROLE next_gho: (3,4) (4,0) (5,0)
NOMINAL F = 2
NOMINAL T = 1
NOMINAL e = 3
NOMINAL e_gho = 3
NOMINAL hd = 3
NOMINAL hd_gho = 3
NOMINAL null = 0
"""

POST = "e <= Alloc | null\n"

FILES = {"spec": SPEC, "spec2": SPEC2, "formula": FORMULA, "structure": STRUCTURE,
         "program": PROGRAM, "memory": MEMORY, "post": POST}

# every verb, with the files it reads named by their FILES key
VERBS = [
    ["parse", "formula"],
    ["eval", "structure", "formula"],
    ["check-sat", "spec", "--max-universe", "2"],
    ["check-implies", "spec", "spec2", "--max-universe", "2"],
    ["reduce", "spec", "--ord", "poly"],
    ["find-model", "spec", "--max-universe", "2"],
    ["repair", "structure", "spec"],
    ["swap", "structure", "0", "1", "next"],
    ["run", "program", "memory", "--path", "a,b"],
    ["wp", "program", "post"],
    ["vc", "program", "--bound", "1", "--cex-prefix", "cex"],
    ["reach", "program", "memory", "--depth", "2"],
]

ALPHABET = "0123456789 \n\t#:;,.=<>-()[]{}!&|~^_ELTFxyzé"

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=50,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def edited(draw, text: str) -> str:
    """`text` after 1-3 character or line edits."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("insert", "replace", "delete",
                                     "drop-line", "copy-line", "swap-lines")))
        if "line" in kind:
            lines = text.splitlines(keepends=True) or [""]
            i = draw(st.integers(0, len(lines) - 1))
            j = draw(st.integers(0, len(lines) - 1))
            if kind == "drop-line":
                del lines[i]
            elif kind == "copy-line":
                lines.insert(j, lines[i])
            else:
                lines[i], lines[j] = lines[j], lines[i]
            text = "".join(lines)
        else:
            i = draw(st.integers(0, len(text)))
            ch = draw(st.sampled_from(ALPHABET))
            text = {"insert": text[:i] + ch + text[i:],
                    "replace": text[:i] + ch + text[i + 1:],
                    "delete": text[:i] + text[i + 1:]}[kind]
    return text


def _run(argv: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2), (argv, rc)
    if rc == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)
    return rc


def _run_verbs(tmp, texts: dict[str, str], kind: str) -> list[int]:
    """Write the files and run every verb that reads the `kind` file;
    returns the exit codes."""
    paths = {}
    for key, text in texts.items():
        path = tmp / key
        path.write_text(text, encoding="utf-8")
        paths[key] = str(path)
    codes = []
    for verb in VERBS:
        if kind in verb[1:]:
            argv = verb[:1] + [paths.get(word, word) for word in verb[1:]]
            if verb[0] == "vc":
                argv[-1] = str(tmp / "cex")
            codes.append(_run(argv))
    return codes


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """Where the edited files and counterexample files go."""
    return tmp_path_factory.mktemp("fuzz")


def test_seed_files_are_valid(fuzz_dir):
    """The unedited files exit 0 or 1 through every verb."""
    for kind in FILES:
        assert 2 not in _run_verbs(fuzz_dir, FILES, kind), kind


@pytest.mark.parametrize("kind", ["spec", "formula", "structure", "program", "memory"])
def test_edited_inputs_exit_cleanly(fuzz_dir, kind):
    @FUZZ
    @given(edited(FILES[kind]))
    def check(text):
        _run_verbs(fuzz_dir, {**FILES, kind: text}, kind)

    check()


@FUZZ
@given(st.text(st.characters(codec="utf-8", exclude_characters="\x00"), max_size=6))
def test_random_ceiling_exits_cleanly(fuzz_dir, text):
    spec = fuzz_dir / "ceiling.spec"
    spec.write_text(SPEC)
    saved = os.environ.get("REACHDL_CEILING")
    os.environ["REACHDL_CEILING"] = text
    try:
        _run(["check-sat", str(spec), "--max-universe", "2"])
    finally:
        if saved is None:
            del os.environ["REACHDL_CEILING"]
        else:
            os.environ["REACHDL_CEILING"] = saved
