"""One function per query verb.  Each starts from file text and calls the
library functions `reachdl.cli._dispatch` calls for that verb, in the same
order, and returns the verb's output text.

Tracing off, a verb makes exactly the CLI's calls.  Tracing on, the calls
that wrap several public stages are split into those stages so that each
gets its own span:

- `reduction.sat_pipeline_full` into `ord_reduction`, `nnf` and
  `boolean_closure_reduction` (the body of `sat_pipeline_full`);
- `vc.check_all_vcs(jobs=1)` into one `vc.check_vc` per sorted edge;
- `vc.check_reach_soundness` into `programs.reach_sets` plus the
  annotation evaluation.

The correctness checker proves that the split calls give the same results
as the whole ones.  Bounds are always passed explicitly; nothing here
reads `REACHDL_CEILING`.
"""

from __future__ import annotations

from reachdl import models, reduction, vc, wp
from reachdl.memory import MemoryStructure
from reachdl.parser import (parse_formula_file, parse_memory_file,
                            parse_program_file, parse_spec_file,
                            structure_to_text)
from reachdl.programs import reach_sets
from reachdl.reach import check_spec
from reachdl.structures import eval_formula
from reachdl.syntax import TRUE, formula_size, to_text

CEILING = models.DEFAULT_CEILING  # passed explicitly to every search
WITNESS_BOUND = 3                 # universe bound of the witness search
REACH_CAP = 20000                 # state cap of the reachable-set computation


class Result:
    """A query's output text plus the objects the checker and the
    counters read after the timed loop."""

    __slots__ = ("verdict", "text", "objs")

    def __init__(self, verdict: str, text: str, **objs) -> None:
        self.verdict = verdict
        self.text = text
        self.objs = objs


# ---------------------------------------------------------------------------
# Bounded search


def check_implies(q: dict, tr, cnt: dict | None) -> Result:
    n = q["args"]["max_universe"]
    with tr.span("parser.parse"):
        v1, s1 = parse_spec_file(q["texts"]["spec1"])
        v2, s2 = parse_spec_file(q["texts"]["spec2"])
    with tr.span("reduction.implication"):
        kappa, fresh = reduction.implication_reduction(s1, s2)
    vocab = v1.merge(v2).with_concepts(fresh)
    stats = models.SearchStats()
    with tr.span("models.search"):
        m = models.find_model(kappa, vocab, 1, n, ceiling=CEILING, stats=stats)
    if m is None:
        return Result("implies", f"IMPLIES (no countermodel up to universe {n})",
                      specs=(s1, s2), kappa=kappa, stats=stats)
    with tr.span("parser.print"):
        text = structure_to_text(m, vocab.functional)
    return Result("countermodel", "COUNTEREXAMPLE\n" + text, specs=(s1, s2),
                  kappa=kappa, model=m, stats=stats)


def check_sat(q: dict, tr, cnt: dict | None) -> Result:
    n = q["args"]["max_universe"]
    with tr.span("parser.parse"):
        vocab, spec = parse_spec_file(q["texts"]["spec"])
    stats = models.SearchStats()
    with tr.span("models.search"):
        m = models.find_model(spec, vocab, 1, n, ceiling=CEILING, stats=stats)
    if m is None:
        return Result("unsat", f"UNSAT up to universe {n}", spec=spec, stats=stats)
    with tr.span("parser.print"):
        text = structure_to_text(m, vocab.functional)
    return Result("sat", "SAT\n" + text, spec=spec, model=m, stats=stats)


# ---------------------------------------------------------------------------
# Reduction plus the witness round trip


def _pipeline(spec, vocab, variant: str, tr):
    if not tr.enabled:
        return reduction.sat_pipeline_full(spec, vocab, variant)
    with tr.span("reduction.ord"):
        ord_formula, ext = reduction.ord_reduction(spec, variant)
    with tr.span("reduction.nnf"):
        nnf_formula = reduction.nnf(ord_formula)
    with tr.span("reduction.bc"):
        psi, info = reduction.boolean_closure_reduction(nnf_formula)
    return reduction.PipelineResult(psi, ord_formula, ext, info,
                                    info.extend(ext.extend(vocab)))


def _eval(tr, cnt: dict | None, m, phi) -> bool:
    if cnt is not None:
        cnt["structures.eval_calls"] += 1
        cnt["structures.eval_work"] += formula_size(phi) * len(m.universe)
    with tr.span("structures.eval"):
        return eval_formula(m, phi)


def reduce(q: dict, tr, cnt: dict | None) -> Result:
    variant = q["args"]["ord"]
    with tr.span("parser.parse"):
        vocab, spec = parse_spec_file(q["texts"]["spec"])
    res = _pipeline(spec, vocab, variant, tr)
    with tr.span("syntax.print"):
        lines = [to_text(res.formula), "# fresh symbols:"]
    lines += [f"#   {entry}" for entry in res.manifest()]
    text = "\n".join(lines)
    if not q["args"]["witness"]:
        return Result("reduced", text, spec=spec, vocab=vocab, pipeline=res)
    return _witness(q, tr, cnt, vocab, spec, variant, res, text)


def _witness(q, tr, cnt, vocab, spec, variant, res, text) -> Result:
    """The round trip of acceptance criterion 1: semi-connected model,
    order-gadget extension, boolean-closure extension, and back to a
    repaired genuine model.  Any failed step is a wrong verdict."""
    stats = models.SearchStats()
    with tr.span("models.search"):
        semi = models.find_semi_useful_model(spec, vocab, 1, WITNESS_BOUND,
                                             ceiling=CEILING, stats=stats)
    if semi is None:
        return Result("reduced", text, spec=spec, vocab=vocab, pipeline=res,
                      stats=stats, trip=("no-witness",))
    labelings = {}
    with tr.span("models.labeling"):
        for h in range(1, len(spec.re) + 1):
            labelings[h] = models.useful_labeling(semi, spec, h)
    with tr.span("reduction.lift"):
        n, ext = reduction.ord_lift(semi, spec, variant, labelings)
    steps = [_eval(tr, cnt, n, res.ord_formula)]
    with tr.span("reduction.membership"):
        steps.append(reduction.ord_membership(n, spec, variant, ext))
    with tr.span("reduction.lift"):
        nb, psi_out, info = reduction.bc_lift(reduction.nnf(res.ord_formula), n)
    steps.append(psi_out == res.formula)
    steps.append(_eval(tr, cnt, nb, res.formula))
    with tr.span("reduction.extract"):
        stripped = info.strip(nb)
    with tr.span("reduction.membership"):
        steps.append(reduction.ord_membership(stripped, spec, variant, ext))
    with tr.span("reduction.extract"):
        sub = reduction.ord_substructure(stripped, ext)
        labs = reduction.ord_labelings(stripped, spec, ext)
    trace: list = []
    with tr.span("models.repair"):
        fixed = models.repair(sub, spec, labs, trace)
    with tr.span("reach.check_spec"):
        steps.append(check_spec(fixed, spec))
    if cnt is not None:
        cnt["models.repair_steps"] += len(trace)
    verdict = "round-trip" if all(steps) else "round-trip-failed"
    return Result(verdict, text, spec=spec, vocab=vocab, pipeline=res, stats=stats,
                  trip=tuple(steps), fixed=fixed)


# ---------------------------------------------------------------------------
# Heap programs


def vc_report(q: dict, tr, cnt: dict | None) -> Result:
    bound = q["args"]["bound"]
    with tr.span("parser.parse"):
        prog = parse_program_file(q["texts"]["program"])
    if not tr.enabled:
        entries = vc.check_all_vcs(prog, bound, jobs=1)
    else:
        entries = []
        for edge in sorted(prog.edges):
            with tr.span("vc.check_vc"):
                entries.append(vc.check_vc(prog, edge, bound))
    lines = []  # as the CLI prints them, with counterexamples inline, not in files
    for e in entries:
        a, b = e.edge
        if e.verdict == "valid-up-to-bound":
            lines.append(f"EDGE {a}->{b}: VALID_UPTO {e.bound}")
        elif e.verdict == "bound-exhausted":
            lines.append(f"EDGE {a}->{b}: BOUND_EXHAUSTED")
        else:
            with tr.span("parser.print"):
                lines.append(f"EDGE {a}->{b}: CEX\n" + structure_to_text(e.counterexample))
    valid = all(e.verdict == "valid-up-to-bound" for e in entries)
    return Result("valid" if valid else "counterexample", "\n".join(lines),
                  prog=prog, entries=entries)


def _memories(q: dict, prog) -> list[MemoryStructure]:
    ms = parse_memory_file(q["texts"]["memory"])
    return [MemoryStructure(prog.heap, ms.fs).check(min_pool=0)]


def inductive(q: dict, tr, cnt: dict | None) -> Result:
    with tr.span("parser.parse"):
        prog = parse_program_file(q["texts"]["program"])
        init = _memories(q, prog)
    with tr.span("vc.inductive"):
        ok, witness = vc.check_inductive(prog, init, q["args"]["bound"])
    return Result("inductive" if ok else "not-inductive",
                  "INDUCTIVE" if ok else f"NOT_INDUCTIVE {witness.edge}", prog=prog)


def reach(q: dict, tr, cnt: dict | None) -> Result:
    depth = q["args"]["depth"]
    with tr.span("parser.parse"):
        prog = parse_program_file(q["texts"]["program"])
        init = _memories(q, prog)
    if not tr.enabled:
        ok = vc.check_reach_soundness(prog, init, depth, cap=REACH_CAP)
    else:
        with tr.span("vc.soundness"):
            with tr.span("programs.reach_sets"):
                reached = reach_sets(prog, init, depth, cap=REACH_CAP, nondet=True)
            ok = True
            for node in sorted(prog.nodes):
                phi = prog.cnt.get(node, TRUE)
                for m in reached[node]:
                    if not _eval(tr, cnt, m.fs, phi):
                        ok = False
                        break
                if not ok:
                    break
        if cnt is not None:
            cnt["programs.states"] += sum(len(s) for s in reached.values())
    return Result("sound" if ok else "violation",
                  "REACH_OK" if ok else "REACH_VIOLATION", prog=prog, init=init)


def wp_query(q: dict, tr, cnt: dict | None) -> Result:
    with tr.span("parser.parse"):
        prog = parse_program_file(q["texts"]["program"])
        stmt = prog.code[prog.edges[0]]
        _, phi = parse_formula_file(q["texts"]["formula"], base=prog.vocabulary())
    with tr.span("wp.theta"):
        res = wp.theta_full(stmt, phi, prog.heap)
    with tr.span("syntax.print"):
        lines = [to_text(res.formula), "# fresh symbols:", "#   nominal abo"]
    lines += [f"#   nominal {name}" for name in res.label_nominals]
    lines += [f"#   {'role' if k in prog.heap.data_roles else 'concept'} {v}"
              for k, v in sorted(res.ext_map.items())]
    return Result("propagated", "\n".join(lines), prog=prog, phi=phi, theta=res)


VERBS = {"check-implies": check_implies, "check-sat": check_sat, "reduce": reduce,
         "vc": vc_report, "inductive": inductive, "reach": reach, "wp": wp_query}


def run(q: dict, tr, cnt: dict | None = None) -> Result:
    return VERBS[q["verb"]](q, tr, cnt)
