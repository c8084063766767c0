"""Command-line entry point.

Exit codes: 0 for success and SAT-equivalent answers, 1 for
UNSAT/invalid/counterexample answers, 2 for usage or input errors.
All output is deterministic under a fixed configuration."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import models, reduction, wp
from .memory import MemoryStructure
from .parser import (parse_formula_file, parse_memory_file,
                     parse_program_file, parse_spec_file, parse_structure_file,
                     structure_to_text)
from .programs import ABORT_FLAG, commands, run_path
from .structures import eval_formula
from .syntax import Eq, FAnd, Nominal, ReachDLError, to_text
from .vc import check_all_vcs, check_reach_soundness


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with one line on stderr, like every input error."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _at_least(low: int):
    """An argparse type: a decimal integer of at least `low`."""

    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer of at least {low}, got {text!r}")
        return int(text)

    return parse


_positive, _nonnegative = _at_least(1), _at_least(0)


_OPTIONS = {
    "--max-universe": {"type": _positive, "default": 6},
    "--ord": {"choices": ("exp", "poly"), "default": "poly"},
    "--jobs": {"type": _positive, "default": 1},
    "--trace": {"action": "store_true"},
}


def _verb(sub, name: str, help: str, *options: str) -> argparse.ArgumentParser:
    """A subcommand taking --json plus the named shared options."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--json", action="store_true")
    for option in options:
        p.add_argument(option, **_OPTIONS[option])
    return p


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _load_spec(path: str):
    return parse_spec_file(Path(path).read_text())


def main(argv: list[str] | None = None) -> int:
    top = _Parser(prog="reachdl")
    sub = top.add_subparsers(dest="command", required=True)

    p = _verb(sub, "parse", "parse a formula file and print it back")
    p.add_argument("file")

    p = _verb(sub, "eval", "evaluate a formula file over a structure file")
    p.add_argument("structure")
    p.add_argument("formula")

    p = _verb(sub, "check-sat", "bounded satisfiability of a spec file", "--max-universe")
    p.add_argument("spec")

    p = _verb(sub, "check-implies", "bounded implication between two spec files",
              "--max-universe")
    p.add_argument("spec1")
    p.add_argument("spec2")

    p = _verb(sub, "reduce", "emit the satisfiability-pipeline output", "--ord")
    p.add_argument("spec")
    p.add_argument("--owl", action="store_true", help="also emit an OWL functional-syntax export")

    p = _verb(sub, "find-model", "bounded model search for a spec file", "--max-universe")
    p.add_argument("spec")

    p = _verb(sub, "repair", "repair a semi-connected structure into a model", "--trace")
    p.add_argument("structure")
    p.add_argument("spec")

    p = _verb(sub, "swap", "apply the successor-swap operation")
    p.add_argument("structure")
    p.add_argument("a0", type=int)
    p.add_argument("a1", type=int)
    p.add_argument("role")

    p = _verb(sub, "run", "run a program path on a memory structure")
    p.add_argument("program")
    p.add_argument("memory")
    p.add_argument("--path", required=True, help="comma-separated node sequence")

    p = _verb(sub, "wp", "backwards propagation of a formula over a code block", "--trace")
    p.add_argument("program", help="program file (its first/only edge block is used) or block file")
    p.add_argument("formula")

    p = _verb(sub, "vc", "bounded verification-condition report for a program", "--jobs")
    p.add_argument("program")
    p.add_argument("--bound", type=_nonnegative, default=3)
    p.add_argument("--cex-prefix", default="vc_cex")

    p = _verb(sub, "reach", "bounded reachable-set soundness check")
    p.add_argument("program")
    p.add_argument("memory", nargs="+")
    p.add_argument("--depth", type=_nonnegative, default=4)

    args = top.parse_args(argv)
    try:
        return _dispatch(args)
    except ReachDLError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "parse":
        vocab, phi = parse_formula_file(Path(args.file).read_text())
        _emit(args, {"formula": to_text(phi)}, [to_text(phi)])
        return 0

    if args.command == "eval":
        vocab, fs = parse_structure_file(Path(args.structure).read_text())
        _, phi = parse_formula_file(Path(args.formula).read_text(), base=vocab)
        value = eval_formula(fs, phi)
        _emit(args, {"value": value}, ["true" if value else "false"])
        return 0 if value else 1

    if args.command in ("check-sat", "find-model"):
        vocab, spec = _load_spec(args.spec)
        m = models.find_model(spec, vocab, 1, args.max_universe)
        text = None if m is None else structure_to_text(m, vocab.functional)
        if args.command == "find-model":
            _emit(args, {"model": text}, [f"NO MODEL up to universe {args.max_universe}"]
                  if text is None else [text.rstrip()])
        elif text is None:
            _emit(args, {"satisfiable": False}, [f"UNSAT up to universe {args.max_universe}"])
        else:
            _emit(args, {"satisfiable": True, "model": text}, ["SAT", text.rstrip()])
        return 1 if text is None else 0

    if args.command == "check-implies":
        v1, s1 = _load_spec(args.spec1)
        v2, s2 = _load_spec(args.spec2)
        kappa, fresh = reduction.implication_reduction(s1, s2)
        vocab = v1.merge(v2).with_concepts(fresh)
        m = models.find_model(kappa, vocab, 1, args.max_universe)
        if m is None:
            _emit(args, {"implies": True},
                  [f"IMPLIES (no countermodel up to universe {args.max_universe})"])
            return 0
        _emit(args, {"implies": False, "countermodel": structure_to_text(m, vocab.functional)},
              ["COUNTEREXAMPLE", structure_to_text(m, vocab.functional).rstrip()])
        return 1

    if args.command == "reduce":
        vocab, spec = _load_spec(args.spec)
        result = reduction.sat_pipeline_full(spec, vocab, args.ord)
        lines = [to_text(result.formula), "# fresh symbols:"]
        lines += [f"#   {entry}" for entry in result.manifest()]
        payload = {"formula": to_text(result.formula), "fresh": result.manifest()}
        if args.owl:
            owl = reduction.owl_export(result.formula, result.vocabulary)
            lines += ["# owl export:", owl.rstrip()]
            payload["owl"] = owl
        _emit(args, payload, lines)
        return 0

    if args.command == "repair":
        vocab, fs = parse_structure_file(Path(args.structure).read_text())
        svocab, spec = _load_spec(args.spec)
        trace: list[models.RepairStep] = []
        fixed = models.repair(fs, spec, models.useful_labelings(fs, spec), trace)
        lines = []
        for st in trace:
            lines.append(f"STEP h={st.h} t=({st.tuple.a0},{st.tuple.a1},{st.tuple.role}) "
                         f"val {list(st.values_before)} -> {list(st.values_after)}")
        out = structure_to_text(fixed, svocab.functional)
        if args.trace:
            _emit(args, {"steps": lines, "structure": out}, lines + [out.rstrip()])
        else:
            _emit(args, {"structure": out}, [out.rstrip()])
        return 0

    if args.command == "swap":
        vocab, fs = parse_structure_file(Path(args.structure).read_text())
        out = models.apply_swap(fs, models.SwapTuple(args.a0, args.a1, args.role))
        text = structure_to_text(out, vocab.functional)
        _emit(args, {"structure": text}, [text.rstrip()])
        return 0

    if args.command == "run":
        prog = parse_program_file(Path(args.program).read_text())
        mem = _load_memory(args.memory, prog)
        nodes = args.path.split(",")
        path = list(zip(nodes, nodes[1:]))
        results = run_path(mem, prog, path)
        if not results:
            _emit(args, {"aborted": True}, ["abort"])
            return 1
        texts = sorted(structure_to_text(m.fs, prog.vocabulary().functional, memory=True)
                       for m in results)
        _emit(args, {"aborted": False, "structures": texts},
              [t.rstrip() for t in texts])
        return 0

    if args.command == "wp":
        prog = parse_program_file(Path(args.program).read_text())
        if len(prog.edges) != 1:
            raise ReachDLError("wp expects a program file with exactly one edge block")
        stmt = prog.code[prog.edges[0]]
        _, phi = parse_formula_file(Path(args.formula).read_text(),
                                    base=prog.vocabulary())
        res = wp.theta_full(stmt, phi, prog.heap)
        lines = []
        if args.trace:
            for step_line in _wp_trace(res, phi, prog.heap):
                lines.append(step_line)
        lines += [to_text(res.formula), "# fresh symbols:", f"#   nominal {ABORT_FLAG}"]
        lines += [f"#   nominal {name}" for name in res.label_nominals]
        lines += [f"#   {'role' if k in prog.heap.data_roles else 'concept'} {v}"
                  for k, v in sorted(res.ext_map.items())]
        _emit(args, {"formula": to_text(res.formula),
                     "labels": list(res.label_nominals),
                     "ext": res.ext_map}, lines)
        return 0

    if args.command == "vc":
        prog = parse_program_file(Path(args.program).read_text())
        entries = check_all_vcs(prog, args.bound, jobs=args.jobs)
        lines = []
        payload = []
        any_cex = False
        for entry in entries:
            a, b = entry.edge
            if entry.verdict == "valid-up-to-bound":
                lines.append(f"EDGE {a}->{b}: VALID_UPTO {entry.bound}")
            elif entry.verdict == "bound-exhausted":
                lines.append(f"EDGE {a}->{b}: BOUND_EXHAUSTED")
            else:
                any_cex = True
                cex_path = f"{args.cex_prefix}_{a}_{b}.struct"
                Path(cex_path).write_text(structure_to_text(entry.counterexample))
                lines.append(f"EDGE {a}->{b}: CEX {cex_path}")
            payload.append({"edge": [a, b], "verdict": entry.verdict,
                            "bound": entry.bound})
        _emit(args, {"edges": payload}, lines)
        return 1 if any_cex else 0

    if args.command == "reach":
        prog = parse_program_file(Path(args.program).read_text())
        init = [_load_memory(path, prog) for path in args.memory]
        ok = check_reach_soundness(prog, init, args.depth)
        _emit(args, {"sound": ok}, ["REACH_OK" if ok else "REACH_VIOLATION"])
        return 0 if ok else 1

    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


def _wp_trace(res, phi, heap) -> list[str]:
    """One line per top-level command of the instrumented block: the
    intermediate transformer results, last command first."""
    cmds = list(commands(res.instrumented, branches=False))
    current = wp.phi_ext(cmds[-1], FAnd(phi, Eq(Nominal(ABORT_FLAG), Nominal("F"))), heap)
    lines = [f"# step {len(cmds)}: {to_text(current)}"]
    for i in range(len(cmds) - 2, -1, -1):
        current = wp.psi(cmds[i], current, heap)
        lines.append(f"# step {i + 1}: {to_text(current)}")
    return lines


def _load_memory(path: str, prog) -> MemoryStructure:
    ms = parse_memory_file(Path(path).read_text(), prog.heap)
    return MemoryStructure(prog.heap, ms.fs).check(min_pool=0)


def main_entry() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
