import json

import pytest

from reachdl.cli import main

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


def test_deep_nesting_exit_2(capsys, tmp_path):
    f = tmp_path / "deep.dl"
    f.write_text("CONCEPT L\n" + "!" * 3000 + "L <= L\n")
    assert main(["parse", str(f)]) == 2
    assert _one_error_line(capsys) == "error: input nested too deeply\n"
