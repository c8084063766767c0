"""Correctness checks, run after the timed loop.

Three sources of truth, each mismatch counted in `wrong_verdicts`:

- EXPECTED: known answers for the fixed corpus (the worked examples and
  the criterion-8 program corpus);
- the independent oracles: every returned model or countermodel is
  re-checked with `fol.fo_eval` over the first-order translation and with
  `graphs.transitive_closure_reach` for the reach assertions;
- digests: the output text of every fixed reduce, wp and vc query is
  compared with the digest recorded in `expected.json`, and every repeat
  of a query must print the same text as its first run.

Random wp results are checked against the backwards-propagation lemma;
disagreements are reported apart (see README.md, "Known disagreement").
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from reachdl import reduction, vc, wp
from reachdl.fol import fo_eval, to_first_order
from reachdl.graphs import transitive_closure_reach
from reachdl.memory import MemoryStructure, PoolExhaustedError, make_memory
from reachdl.programs import ABORT, run_loopless
from reachdl.reach import alist_spec, assoc_formula, clist_spec, list_spec, tree_spec
from reachdl.structures import eval_formula
from reachdl.syntax import Nominal

from gen import EDGE_CORPUS
from queries import REACH_CAP

DIGESTS = Path(__file__).with_name("expected.json")

# verdicts of the fixed corpus; check-implies ids are k-<spec1>-<spec2>-<bound>
_HOLDS = {("alist", "list"), ("clist", "list"), ("list", "list"),
          ("alist", "alist"), ("clist", "clist"), ("tree", "tree")}
EXPECTED = {}
for _a in ("list", "alist", "clist"):
    for _b in ("list", "alist", "clist"):
        for _n in (4, 5):
            EXPECTED[f"k-{_a}-{_b}-{_n}"] = \
                "implies" if (_a, _b) in _HOLDS else "countermodel"
EXPECTED["k-tree-tree-3"] = "implies"
EXPECTED.update({f"sat-{n}-5": "sat" for n in ("list", "alist", "clist", "tree")})
EXPECTED.update({"vc-walker": "valid", "ind-walker": "inductive",
                 "reach-walker": "sound", "reach-builder": "sound"})
for _name, _, _ok, _ in EDGE_CORPUS:
    EXPECTED[f"vc-{_name}"] = "valid" if _ok else "counterexample"
    EXPECTED[f"ind-{_name}"] = "inductive" if _ok else "not-inductive"

# the parsed worked examples must be the library's own constructions
WORKED_SPECS = {"list": list_spec, "alist": alist_spec, "clist": clist_spec,
                "tree": tree_spec}


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def oracle_satisfies(m, spec) -> bool:
    """M |= spec by the independent oracles: the associated formula through
    the first-order translation, connectivity through the Warshall closure."""
    if not fo_eval(m, to_first_order(assoc_formula(spec))):
        return False
    for a in spec.re:
        verts = m.concept_ext(a.target)
        succ = {u: sorted({y for s in a.roles for x, y in m.role_ext(s)
                           if x == u and y in verts}) for u in verts}
        if isinstance(a.source, Nominal):
            sources = {m.nominal_elem(a.source.name)}
        else:
            sources = set(m.concept_ext(a.source.name))
        if transitive_closure_reach(succ, sources & verts) != set(verts):
            return False
    return True


class Checker:
    def __init__(self) -> None:
        self.digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        self.wrong: list[str] = []
        self.lemma_mismatches: list[str] = []

    def fail(self, qid: str, why: str) -> None:
        self.wrong.append(f"{qid}: {why}")

    def check(self, q: dict, r) -> None:
        """Check the first result of one query."""
        qid = q["id"]
        if qid in EXPECTED and r.verdict != EXPECTED[qid]:
            self.fail(qid, f"verdict {r.verdict}, expected {EXPECTED[qid]}")
        want = self.digests.get(qid)
        if want is not None and text_digest(r.text) != want:
            self.fail(qid, "output differs from the recorded digest")
        # inductive and reach verdicts have no oracle beyond EXPECTED
        verb_check = getattr(self, "_" + q["verb"].replace("-", "_"), None)
        if verb_check is not None:
            verb_check(q, r)

    # -- per verb

    def _check_implies(self, q, r) -> None:
        s1, s2 = r.objs["specs"]
        qid = q["id"]
        parts = qid.split("-")
        if qid.startswith("k-"):
            for name, spec in zip(parts[1:3], (s1, s2)):
                if spec != WORKED_SPECS[name]():
                    self.fail(qid, f"parsed {name} spec differs from the library's")
        if r.verdict == "countermodel":
            m = r.objs["model"]
            if not oracle_satisfies(m, s1) or oracle_satisfies(m, s2):
                self.fail(qid, "countermodel rejected by the oracles")
            if parts[1:3] == ["list", "alist"] and \
                    m.role_ext("next") != frozenset({(0, 0)}):
                self.fail(qid, "list => alist countermodel is not next = {(0,0)}")

    def _check_sat(self, q, r) -> None:
        if r.verdict == "sat" and not oracle_satisfies(r.objs["model"], r.objs["spec"]):
            self.fail(q["id"], "model rejected by the oracles")

    def _reduce(self, q, r) -> None:
        trip = r.objs.get("trip")
        if q["args"]["witness"] and trip is None:
            self.fail(q["id"], "round trip missing")
        if trip and trip != ("no-witness",):
            if not all(trip):
                self.fail(q["id"], f"round trip step failed: {trip}")
            if not oracle_satisfies(r.objs["fixed"], r.objs["spec"]):
                self.fail(q["id"], "repaired model rejected by the oracles")

    def _vc(self, q, r) -> None:
        for e in r.objs["entries"]:
            if e.verdict == "counterexample" and \
                    fo_eval(e.counterexample, to_first_order(e.formula)):
                self.fail(q["id"], f"counterexample on {e.edge} satisfies the VC")

    def _wp(self, q, r) -> None:
        """Backwards-propagation lemma on one memory: for a run that does
        not abort, theta holds on the extended pre-state iff the
        postcondition holds after the run.  The digest check covers the
        fixed wp query; this covers the random ones."""
        prog, phi, res = r.objs["prog"], r.objs["phi"], r.objs["theta"]
        heap = prog.heap
        stmt = prog.code[prog.edges[0]]
        vars_ = dict(zip(heap.variables, (3, 0)))
        m1 = make_memory(heap, alloc=2, pool=3, variables=vars_,
                         fields={f: {3: 4, 4: 0} for f in heap.fields})
        mb = MemoryStructure(heap.with_variables(("abo",)),
                             m1.fs.with_nominal("abo", 2).with_nominal("abo_gho", 2))
        trace: dict = {}
        try:
            mbar = run_loopless(mb, res.instrumented, trace=trace)
            plain = run_loopless(m1, stmt)
        except PoolExhaustedError:
            return  # the run needs more cells than the finite pool holds
        if plain is ABORT or mbar is ABORT:
            return
        ext = wp.theta_structure(m1, plain, trace, 2)
        if eval_formula(ext, res.formula) != eval_formula(plain.fs, phi):
            # reported, not counted as wrong: the library disagrees with
            # itself here (see README.md, "Known disagreement")
            self.lemma_mismatches.append(q["id"])

    # -- equivalence of the split calls of the traced run

    def same_as_whole_call(self, q: dict, r) -> None:
        """Results of the traced (split) calls equal the whole CLI call."""
        if q["verb"] == "reduce":
            whole = reduction.sat_pipeline_full(r.objs["spec"], r.objs["vocab"],
                                                q["args"]["ord"])
            if whole != r.objs["pipeline"]:
                self.fail(q["id"], "staged pipeline differs from sat_pipeline_full")
        elif q["verb"] == "vc":
            whole = vc.check_all_vcs(r.objs["prog"], q["args"]["bound"], jobs=1)
            if whole != r.objs["entries"]:
                self.fail(q["id"], "per-edge check_vc differs from check_all_vcs")
        elif q["verb"] == "reach":
            whole = vc.check_reach_soundness(r.objs["prog"], r.objs["init"],
                                             q["args"]["depth"], cap=REACH_CAP)
            if whole != (r.verdict == "sound"):
                self.fail(q["id"], "reach_sets plus evaluation differs from "
                          "check_reach_soundness")
