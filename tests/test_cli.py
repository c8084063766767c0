import json

import pytest

from reachdl.cli import main
from reachdl.parser import parse_program_file
from reachdl.programs import commands, instrument_abort

LIST_SPEC = """
CONCEPT L
NOMINAL head
FROLE next
top <= top
REACH <head> {next} <L>
"""

ALIST_SPEC = LIST_SPEC + "not (L <= E next.top)\n"

# the closure clause makes the invariant genuinely inductive: without it a
# cell's next may dangle into PossibleTargets and the walker step breaks it
WALKER = """
FIELDS next
VARS e hd
FORMULA pre: Alloc <= E next.(Alloc | null) and hd <= Alloc | null
FORMULA inv: Alloc <= E next.(Alloc | null) and hd <= Alloc | null and e <= Alloc | null
NODE lb cnt=pre
NODE ll cnt=inv
NODE le cnt=inv
EDGE lb -> ll { e := hd }
EDGE ll -> ll { assume(~(e = null)); e := e.next }
EDGE ll -> le { assume(e = null) }
"""

WALKER_MEMORY = """MEMORY
FIELDS next
VARS e hd
UNIVERSE 0..6
CONCEPT Addresses: 3 4 5 6
CONCEPT Alloc: 3 4
CONCEPT Aux: 0 1 2
CONCEPT MemPool: 5 6
CONCEPT PossibleTargets:
FROLE next: (3,4) (4,0) (5,0) (6,0)
FROLE next_gho: (3,4) (4,0) (5,0) (6,0)
NOMINAL F = 2
NOMINAL T = 1
NOMINAL e = 0
NOMINAL e_gho = 0
NOMINAL hd = 3
NOMINAL hd_gho = 3
NOMINAL null = 0
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("list.spec", LIST_SPEC), ("alist.spec", ALIST_SPEC),
                       ("walker.prog", WALKER), ("walker.mem", WALKER_MEMORY)]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def run(capsys, *argv) -> tuple[int, str]:
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_check_sat_exit_codes(capsys, files, tmp_path):
    rc, out = run(capsys, "check-sat", files["alist.spec"], "--max-universe", "4")
    assert rc == 0 and "SAT" in out
    unsat = tmp_path / "unsat.spec"
    unsat.write_text(LIST_SPEC + "L == bot\nhead <= L\n")
    rc, out = run(capsys, "check-sat", str(unsat), "--max-universe", "4")
    assert rc == 1 and "UNSAT" in out


def test_check_implies_directions(capsys, files):
    rc, _ = run(capsys, "check-implies", files["alist.spec"], files["list.spec"],
                "--max-universe", "4")
    assert rc == 0
    rc, out = run(capsys, "check-implies", files["list.spec"], files["alist.spec"],
                  "--max-universe", "4")
    assert rc == 1 and "COUNTEREXAMPLE" in out


def test_reduce_deterministic_golden(capsys, files):
    rc1, out1 = run(capsys, "reduce", files["list.spec"], "--ord", "poly")
    rc2, out2 = run(capsys, "reduce", files["list.spec"], "--ord", "poly")
    assert rc1 == rc2 == 0
    assert out1 == out2  # byte-identical across runs
    rc3, out3 = run(capsys, "reduce", files["list.spec"], "--ord", "poly", "--owl")
    assert rc3 == 0 and "SubClassOf" in out3


def test_eval_and_parse(capsys, files, tmp_path):
    st = tmp_path / "m.struct"
    st.write_text("UNIVERSE 0..2\nCONCEPT L: 0 1 2\nFROLE next: (0,1) (1,2)\n"
                  "NOMINAL head = 0\n")
    f = tmp_path / "f.dl"
    f.write_text("CONCEPT L\nNOMINAL head\nFROLE next\nL & !head <= E next^-.L\n")
    rc, out = run(capsys, "eval", str(st), str(f))
    assert rc == 0 and out.strip() == "true"
    f2 = tmp_path / "f2.dl"
    f2.write_text("L <= head\n")
    rc, out = run(capsys, "eval", str(st), str(f2))
    assert rc == 1 and out.strip() == "false"
    rc, out = run(capsys, "parse", str(f))
    assert rc == 0 and out.strip() == "L & !head <= E next^-.L"


def test_swap_and_repair(capsys, files, tmp_path):
    st = tmp_path / "semi.struct"
    st.write_text("UNIVERSE 0..3\nCONCEPT L: 0 1 2 3\n"
                  "FROLE next: (0,1) (2,3) (3,2)\nNOMINAL head = 0\n")
    rc, out = run(capsys, "repair", str(st), files["list.spec"], "--trace")
    assert rc == 0
    assert "STEP h=1 t=(1,2,next)" in out
    rc, out = run(capsys, "swap", str(st), "1", "2", "next")
    assert rc == 0 and "(1,3)" in out and "(2,1)" not in out


def test_run_and_reach(capsys, files):
    rc, out = run(capsys, "run", files["walker.prog"], files["walker.mem"],
                  "--path", "lb,ll,ll,ll,le")
    assert rc == 0 and "NOMINAL e = 0" in out
    rc, out = run(capsys, "reach", files["walker.prog"], files["walker.mem"],
                  "--depth", "6")
    assert rc == 0 and out.strip() == "REACH_OK"


def test_wp_golden(capsys, tmp_path):
    prog = tmp_path / "block.prog"
    prog.write_text("""
FIELDS wrkFor next
VARS e proj
CONCEPTS P1
NODE a
NODE b
EDGE a -> b { e.wrkFor := proj }
""")
    phi = tmp_path / "phi.dl"
    phi.write_text("P1 & E wrkFor_gho.null == P1 & E wrkFor.proj\n")
    rc, out = run(capsys, "wp", str(prog), str(phi))
    assert rc == 0
    assert "P1_ext & E wrkFor[e -> proj].proj" in out
    rc2, out2 = run(capsys, "wp", str(prog), str(phi))
    assert out == out2  # golden-file stability



def test_wp_trace_steps(capsys, tmp_path):
    """wp --trace prints one `# step i:` line per top-level command of the
    instrumented block, last command first, then the plain output; step 1
    is the formula that plain wp prints."""
    prog = tmp_path / "block.prog"
    prog.write_text("""
FIELDS next
VARS e x
NODE a
NODE b
EDGE a -> b { e := e.next; x := new; if e = null then x.next := e else e := x fi }
""")
    phi = tmp_path / "phi.dl"
    phi.write_text("e <= Alloc\n")
    rc, plain = run(capsys, "wp", str(prog), str(phi))
    assert rc == 0
    rc, traced = run(capsys, "wp", str(prog), str(phi), "--trace")
    assert rc == 0
    program = parse_program_file(prog.read_text())
    n = len(list(commands(instrument_abort(program.code[program.edges[0]]), branches=False)))
    assert n >= 3
    steps, rest = traced.splitlines()[:n], traced.splitlines()[n:]
    assert [line.split(": ", 1)[0] for line in steps] == \
        [f"# step {i}" for i in range(n, 0, -1)]
    assert steps[-1] == "# step 1: " + plain.splitlines()[0]
    assert rest == plain.splitlines()

def test_vc_report(capsys, files, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc, out = run(capsys, "vc", files["walker.prog"], "--bound", "2")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines == ["EDGE lb->ll: VALID_UPTO 2", "EDGE ll->le: VALID_UPTO 2",
                     "EDGE ll->ll: VALID_UPTO 2"]
    rc, out = run(capsys, "vc", files["walker.prog"], "--bound", "2", "--json")
    payload = json.loads(out)
    assert all(e["verdict"] == "valid-up-to-bound" for e in payload["edges"])


def test_vc_binds_data_role_copies(capsys, tmp_path, monkeypatch):
    """A head annotation over a data role puts its post-state copy r_ext
    into the VC, and the search binds it: a counterexample, no traceback."""
    monkeypatch.chdir(tmp_path)
    prog = tmp_path / "r.prog"
    prog.write_text("FIELDS f\nVARS x\nROLES r\nFORMULA inv: x <= E r.top\n"
                    "NODE a cnt=inv\nNODE b cnt=inv\nEDGE a -> b { skip }\n")
    rc, out = run(capsys, "vc", str(prog), "--bound", "1")
    assert rc == 1 and out.startswith("EDGE a->b: CEX")


def test_usage_error_exit_2(capsys, tmp_path):
    missing = tmp_path / "nope.spec"
    rc = main(["check-sat", str(missing)])
    assert rc == 2


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    return err


def test_bad_ceiling_env_exit_2(capsys, files, monkeypatch):
    monkeypatch.setenv("REACHDL_CEILING", "abc")
    assert main(["check-sat", files["list.spec"]]) == 2
    assert "REACHDL_CEILING" in _one_error_line(capsys)


@pytest.mark.parametrize("option", ["--seed", "--pool"])
def test_removed_options_exit_2(capsys, files, option):
    with pytest.raises(SystemExit) as exc:
        main(["check-sat", files["list.spec"], option, "1"])
    assert exc.value.code == 2
    assert option in _one_error_line(capsys)


@pytest.mark.parametrize("jobs", ["0", "-1", "two"])
def test_vc_jobs_below_one_exit_2(capsys, files, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["vc", files["walker.prog"], "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in _one_error_line(capsys)


def test_deep_nesting_exit_2(capsys, tmp_path):
    f = tmp_path / "deep.dl"
    f.write_text("CONCEPT L\n" + "!" * 3000 + "L <= L\n")
    assert main(["parse", str(f)]) == 2
    assert _one_error_line(capsys) == "error: input nested too deeply\n"


def test_reserved_temp_name_exit_2(capsys, tmp_path):
    """A declared name with the desugaring temporaries' prefix would merge
    with a temporary; the program file is rejected."""
    f = tmp_path / "tmp.prog"
    f.write_text("FIELDS f\nVARS x __tmp1\nNODE a\nNODE b\n"
                 "EDGE a -> b { __tmp1 := null; x.f := x.f }\n")
    assert main(["vc", str(f), "--bound", "1"]) == 2
    assert _one_error_line(capsys) == (
        "error: 2:1: name '__tmp1' takes the prefix '__tmp' of desugaring temporaries\n")


ALIST4_MODEL = "UNIVERSE 0..0\nCONCEPT L: 0\nFROLE next: \nNOMINAL head = 0\n"


def test_find_model_golden(capsys, files, tmp_path):
    rc, out = run(capsys, "find-model", files["alist.spec"], "--max-universe", "4")
    assert (rc, out) == (0, ALIST4_MODEL)
    rc, out = run(capsys, "find-model", files["alist.spec"], "--max-universe", "4", "--json")
    assert (rc, json.loads(out)) == (0, {"model": ALIST4_MODEL})
    unsat = tmp_path / "unsat.spec"
    unsat.write_text(LIST_SPEC + "L == bot\nhead <= L\n")
    rc, out = run(capsys, "find-model", str(unsat), "--max-universe", "4")
    assert (rc, out) == (1, "NO MODEL up to universe 4\n")
    rc, out = run(capsys, "find-model", str(unsat), "--max-universe", "3", "--json")
    assert (rc, json.loads(out)) == (1, {"model": None})


def test_check_sat_golden(capsys, files, tmp_path):
    rc, out = run(capsys, "check-sat", files["alist.spec"], "--max-universe", "4")
    assert (rc, out) == (0, "SAT\n" + ALIST4_MODEL)
    rc, out = run(capsys, "check-sat", files["alist.spec"], "--json")
    assert (rc, json.loads(out)) == (0, {"satisfiable": True, "model": ALIST4_MODEL})
    unsat = tmp_path / "unsat.spec"
    unsat.write_text(LIST_SPEC + "L == bot\nhead <= L\n")
    rc, out = run(capsys, "check-sat", str(unsat), "--max-universe", "3")
    assert (rc, out) == (1, "UNSAT up to universe 3\n")
    rc, out = run(capsys, "check-sat", str(unsat), "--max-universe", "3", "--json")
    assert (rc, json.loads(out)) == (1, {"satisfiable": False})


def test_verb_rejects_options_it_does_not_read(capsys, tmp_path):
    f = tmp_path / "f.dl"
    f.write_text("CONCEPT L\nL <= L\n")
    with pytest.raises(SystemExit) as exc:
        main(["parse", str(f), "--ord", "poly"])
    assert exc.value.code == 2
    assert "--ord" in _one_error_line(capsys)


def test_eval_missing_nominal_exit_2(capsys, tmp_path):
    st = tmp_path / "m.struct"
    st.write_text("UNIVERSE 0..2\nCONCEPT L: 0 1\n")
    for i, text in enumerate(("head <= L\n", "L & !L <= head\n")):
        f = tmp_path / f"f{i}.dl"
        f.write_text("CONCEPT L\nNOMINAL head\n" + text)
        assert main(["eval", str(st), str(f)]) == 2
        assert _one_error_line(capsys) == "error: nominal head is not interpreted\n"


ONE_EDGE = "FIELDS f\nVARS x\nNODE a\nNODE b\nEDGE a -> b {{ {} }}\n"

# (files, argv, the one stderr line); every position is the file's own
BAD_INPUTS = {
    "spec-formula-after-assertions": (
        {"a.spec": "CONCEPT L\nNOMINAL head\nFROLE next\nREACH <head> {next} <L>\n"
                   "DISJ(L,L)\ntop <= top\ntop <= E nxt.L\n"},
        ["check-sat", "a.spec"], "7:10: unknown role 'nxt'"),
    "memory-section": (
        {"w.prog": WALKER, "m.mem": "MEMORY\nFIELDS next\nVARS e hd\nUNIVERSE 0..2\n"
                                    "CONCEPT Aux: 0 1 2\n# a comment\nBOGUS 1\n"},
        ["run", "w.prog", "m.mem", "--path", "lb,ll"], "7:1: unknown section 'BOGUS'"),
    "program-formula-body": (
        {"p.prog": "FIELDS f\nVARS x\nFORMULA pa: x <= E g.null\nNODE a cnt=pa\nNODE b\n"
                   "EDGE a -> b { skip }\n"},
        ["vc", "p.prog"], "3:20: unknown role 'g'"),
    "program-block-line": (
        {"p.prog": "FIELDS f\nVARS x\nNODE a\nNODE b\nEDGE a -> b {\n  x := null;\n"
                   "  skip;\n; skip\n}\n"},
        ["vc", "p.prog"], "8:1: expected a name, found ';'"),
    "program-node-reference": (
        {"p.prog": "FIELDS f\nVARS x\nNODE a cnt=zz\nNODE b\nEDGE a -> b { skip }\n"},
        ["vc", "p.prog"], "3:1: node a references unknown formula 'zz'"),
    "universe-range": ({"s": "UNIVERSE 0..x\n"}, ["eval", "s", "f"], "1:1: bad UNIVERSE line"),
    "universe-repeats": ({"s": "CONCEPT L: 4\nUNIVERSE 3 3 4\n"}, ["eval", "s", "f"],
                         "2:1: the universe lists element 3 twice"),
    "universe-too-large": ({"s": "UNIVERSE 0..999999999999\n"}, ["eval", "s", "f"],
                           "1:1: the universe has 1000000000000 elements, more than the "
                           "limit of 1000000"),
    # a section line given twice for one name is an error, not an override
    "universe-twice": ({"s": "UNIVERSE 0..2\nCONCEPT A: 0\nUNIVERSE 0..4\nCONCEPT B: 4\n"},
                       ["eval", "s", "f"], "3:1: UNIVERSE given twice (first on line 1)"),
    "concept-twice": ({"s": "UNIVERSE 0..2\nCONCEPT A: 0\n\nCONCEPT A: 2\n"},
                      ["eval", "s", "f"], "4:1: concept A given twice (first on line 2)"),
    "program-formula-twice": (
        {"p.prog": "FIELDS f\nVARS x\nFORMULA p: x == null\nNODE a cnt=p\n"
                   "FORMULA p: top <= bot\nNODE b\nEDGE a -> b { skip }\n"},
        ["vc", "p.prog"], "5:1: formula p given twice (first on line 3)"),
    "program-node-twice": (
        {"p.prog": "FIELDS f\nVARS x\nNODE a\nNODE b\nNODE a\nINIT a\n"
                   "EDGE a -> b { skip }\n"},
        ["vc", "p.prog"], "5:1: node a given twice (first on line 3)"),
    "program-attribute-twice": (
        {"p.prog": "FIELDS f\nVARS x\nFORMULA p: x == null\nFORMULA q: top <= bot\n"
                   "NODE a cnt=p cnt=q\nNODE b\nEDGE a -> b { skip }\n"},
        ["vc", "p.prog"], "5:1: cnt of node a given twice (first on line 5)"),
    "program-init-twice": (
        {"p.prog": "FIELDS f\nVARS x\nINIT a\nNODE a\nNODE b\nINIT b\n"
                   "EDGE a -> b { skip }\n"},
        ["vc", "p.prog"], "6:1: INIT given twice (first on line 3)"),
    "role-twice": ({"s": "UNIVERSE 0..2\nROLE r: (0,1)\nFROLE r: (1,0)\n"},
                   ["eval", "s", "f"], "3:1: role r given twice (first on line 2)"),
    "nominal-twice": ({"s": "UNIVERSE 0..2\nNOMINAL o = 0\nNOMINAL o = 1\n"},
                      ["eval", "s", "f"], "3:1: nominal o given twice (first on line 2)"),
    "memory-nominal-twice": (
        {"w.prog": WALKER, "m.mem": WALKER_MEMORY + "NOMINAL e = 4\n"},
        ["run", "w.prog", "m.mem", "--path", "lb,ll"],
        "19:1: nominal e given twice (first on line 14)"),
    # a FROLE line of a plain structure file must give a function
    "frole-not-functional": (
        {"s": "UNIVERSE 0..2\n# a list with a fork\nFROLE next: (0,1) (0,2) (1,2)\n"},
        ["eval", "s", "f"], "3:1: FROLE next is not functional at 0"),
    "repair-frole-not-functional": (
        {"s": "UNIVERSE 0..2\nCONCEPT L: 0 1 2\nFROLE next: (0,1) (1,2) (1,0)\n"
              "NOMINAL head = 0\n", "l.spec": LIST_SPEC},
        ["repair", "s", "l.spec"], "3:1: FROLE next is not functional at 1"),
    # semi-connected: 1 and 2 are each other's only predecessor in L, so no
    # order of their type class gives either an earlier predecessor
    "repair-no-useful-labeling": (
        {"s": "UNIVERSE 0..2\nCONCEPT L: 0 1 2\nFROLE next: (0,0) (1,2) (2,1)\n"
              "NOMINAL head = 0\n", "l.spec": LIST_SPEC},
        ["repair", "s", "l.spec"], "no useful labeling exists for assertion 1"),
    "concept-id": ({"s": "UNIVERSE 0..1\nCONCEPT A: 0 1 q\n"}, ["eval", "s", "f"],
                   "2:1: bad CONCEPT line"),
    "nominal-equals": ({"s": "UNIVERSE 0..1\nNOMINAL o 1\n"}, ["eval", "s", "f"],
                       "2:1: bad NOMINAL line"),
    "role-pair": ({"s": "UNIVERSE 0..1\nROLE r: (0,1) (1,\n"}, ["eval", "s", "f"],
                  "2:1: bad ROLE line"),
    "concept-colon": ({"s": "UNIVERSE 0..1\nCONCEPT L 0 1\n"}, ["eval", "s", "f"],
                      "2:1: bad CONCEPT line"),
    # names the transformer adds would merge with the program's own
    "abort-flag": (
        {"p.prog": "FIELDS f\nVARS x abo\nFORMULA p: abo == F\nNODE a\nNODE b cnt=p\n"
                   "EDGE a -> b { abo := T }\n"},
        ["vc", "p.prog", "--bound", "1"], "2:1: name 'abo' takes the abort flag's name"),
    "label-prefix": (
        {"p.prog": ONE_EDGE.replace("VARS x", "VARS x __lab_1").format("skip")},
        ["vc", "p.prog"], "2:1: name '__lab_1' takes the prefix '__lab_' of label nominals"),
    "ext-suffix": (
        {"p.prog": ONE_EDGE.replace("VARS x", "VARS x\nCONCEPTS P_ext").format("skip")},
        ["vc", "p.prog"], "3:1: name 'P_ext' takes the suffix '_ext' of post-state copies"),
    # every name a block reads or writes is declared
    "undeclared-variable": ({"p.prog": ONE_EDGE.format("x := zz")}, ["vc", "p.prog"],
                            "5:1: undeclared variable 'zz'"),
    "undeclared-field": ({"p.prog": ONE_EDGE.format("x := x.g")}, ["vc", "p.prog"],
                         "5:1: undeclared field 'g'"),
    "null-assigned": ({"p.prog": ONE_EDGE.format("null := x")},
                      ["run", "p.prog", "m", "--path", "a,b"], "5:1: undeclared variable 'null'"),
    "ghost-assigned": ({"p.prog": ONE_EDGE.format("x_gho := null")}, ["vc", "p.prog"],
                       "5:1: undeclared variable 'x_gho'"),
    "temporary-named": ({"p.prog": ONE_EDGE.format("__tmp1 := null")}, ["vc", "p.prog"],
                        "5:15: name '__tmp1' takes the prefix '__tmp' of desugaring "
                        "temporaries"),
    "wp-edge-count": ({"w.prog": WALKER, "f": "top <= top\n"}, ["wp", "w.prog", "f"],
                      "wp expects a program file with exactly one edge block"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exit_2_one_line(capsys, tmp_path, case):
    files, argv, message = BAD_INPUTS[case]
    files = {"f": "CONCEPT L\nL <= L\n", "m": WALKER_MEMORY, **files}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    assert main(argv) == 2
    assert _one_error_line(capsys) == f"error: {message}\n"


ROLES_MEMORY = ("UNIVERSE 0..4\n"
                "CONCEPT Addresses: 3 4\nCONCEPT Alloc: 3 4\nCONCEPT Aux: 0 1 2\n"
                "CONCEPT MemPool:\nCONCEPT PossibleTargets:\n"
                "FROLE f: (3,0) (4,0)\nFROLE f_gho: (3,0) (4,0)\n"
                "ROLE r: (3,3)\nROLE r_gho: (3,3)\n"
                "NOMINAL null = 0\nNOMINAL T = 1\nNOMINAL F = 2\n"
                "NOMINAL x = 3\nNOMINAL x_gho = 3\n")


def _roles_files(tmp_path, declarations):
    prog = tmp_path / "p.prog"
    prog.write_text("FIELDS f\nVARS x\nROLES r\nNODE a\nNODE b\nEDGE a -> b { skip }\n")
    mem = tmp_path / "m.mem"
    mem.write_text("MEMORY\n" + declarations + ROLES_MEMORY)
    return str(prog), str(mem)


def test_memory_file_declares_data_roles(capsys, tmp_path):
    """A declared heap is applied before the file is validated, so a data
    role need not be total like a field."""
    prog, mem = _roles_files(tmp_path, "FIELDS f\nVARS x\nROLES r\n")
    rc, out = run(capsys, "run", prog, mem, "--path", "a,b")
    assert rc == 0 and "ROLE r: (3,3)" in out


@pytest.mark.parametrize("verb, args, want", [
    ("run", ["--path", "a,b"], "ROLE r: (3,3)"),
    ("reach", ["--depth", "1"], "REACH_OK"),
])
def test_undeclared_memory_file_read_against_program_heap(capsys, tmp_path, verb, args, want):
    """Without declarations a memory file is validated against the
    program's heap, so its data role is not taken for a field."""
    prog, mem = _roles_files(tmp_path, "")
    rc, out = run(capsys, verb, prog, mem, *args)
    assert rc == 0 and want in out


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_max_universe_below_one_exit_2(capsys, files, bound):
    with pytest.raises(SystemExit) as exc:
        main(["check-implies", files["list.spec"], files["list.spec"], "--max-universe", bound])
    assert exc.value.code == 2
    assert "--max-universe" in _one_error_line(capsys)


@pytest.mark.parametrize("verb, option", [("vc", "--bound"), ("reach", "--depth")])
@pytest.mark.parametrize("value", ["-1", "-3", "two"])
def test_negative_bound_or_depth_exit_2(capsys, files, verb, option, value):
    argv = [verb, files["walker.prog"]] + ([files["walker.mem"]] if verb == "reach" else [])
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, value])
    assert exc.value.code == 2
    assert option in _one_error_line(capsys)


@pytest.mark.parametrize("ceiling, bound", [("3", "5"), ("4", "2"), (None, "5")])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_vc_bound_over_ceiling_exit_2(capsys, files, monkeypatch, ceiling, bound, jobs):
    """The ceiling bounds the universe a search builds, 3 + bound for vc
    (null, T, F and the address cells): a larger one exits 2 with one line
    before any search."""
    if ceiling is None:
        monkeypatch.delenv("REACHDL_CEILING", raising=False)
    else:
        monkeypatch.setenv("REACHDL_CEILING", ceiling)
    assert main(["vc", files["walker.prog"], "--bound", bound, "--jobs", jobs]) == 2
    assert _one_error_line(capsys) == (
        f"error: bound {bound} needs universe {3 + int(bound)}, "
        f"which exceeds ceiling {ceiling or 7}\n")


def test_zero_bound_and_depth_keep_their_meaning(capsys, files):
    """--bound 0 gives the library's bound-exhausted verdict for every
    edge, and --depth 0 checks the initial memories alone."""
    rc, out = run(capsys, "vc", files["walker.prog"], "--bound", "0")
    assert rc == 0
    assert out.splitlines() == ["EDGE lb->ll: BOUND_EXHAUSTED", "EDGE ll->le: BOUND_EXHAUSTED",
                                "EDGE ll->ll: BOUND_EXHAUSTED"]
    rc, out = run(capsys, "reach", files["walker.prog"], files["walker.mem"], "--depth", "0")
    assert (rc, out) == (0, "REACH_OK\n")
