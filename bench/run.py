"""The reachdl benchmark: one closed-loop client, one process, one thread.

    python3 bench/run.py --workload implies-search --seed 1 --seconds 10 --trace 0

Run from the repository root.  It generates the workload's queries from
the seed, sets up, then runs whole passes over the queries until
`--seconds` have elapsed, sending the next query only after the previous
verdict returned.  Before the timed loop it runs every query once and
checks its output; after it, it prints one line per metric, then a JSON
object as the last line.  `--trace 0`
reports the end-to-end metrics; `--trace 1` runs every query once with
spans and once without, and reports the per-layer metrics.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# cheap queries of each workload, run once per set-up as the warm-up
WARMUP = {"implies-search": ("k-list-alist-4", "sat-list-5"),
          "reduce-witness": ("red-list-poly",),
          "heap-verify": ("vc-skip-trivial", "ind-skip-trivial", "reach-walker",
                          "wp-walker-step")}
SETUP_REPEATS = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import reachdl.cli, reachdl.fol, reachdl.graphs; "
                "print(time.perf_counter() - t)")

END_TO_END = (("queries_per_s", "1/s"), ("verdict_p50_ms", "ms"),
              ("verdict_p90_ms", "ms"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
              ("output_nodes", "count"))

# span name -> per-layer time metric (seconds of self time per pass)
SPAN_METRICS = {
    "parser.parse": "parser.parse_s", "parser.print": "parser.print_s",
    "syntax.print": "syntax.print_s", "models.search": "models.search_s",
    "models.labeling": "models.labeling_s", "models.repair": "models.repair_s",
    "reach.check_spec": "reach.check_spec_s", "structures.eval": "structures.eval_s",
    "reduction.implication": "reduction.implication_s", "reduction.ord": "reduction.ord_s",
    "reduction.nnf": "reduction.nnf_s", "reduction.bc": "reduction.bc_s",
    "reduction.lift": "reduction.lift_s", "reduction.membership": "reduction.membership_s",
    "reduction.extract": "reduction.extract_s",
    "wp.theta": "wp.theta_s", "vc.check_vc": "vc.check_vc_s",
    "vc.inductive": "vc.inductive_s", "vc.soundness": "vc.soundness_s",
    "programs.reach_sets": "programs.reach_sets_s", "query": "bench.glue_s",
}
# deterministic counters per pass, summed over the distinct queries
COUNTERS = ("models.candidates", "models.pruned", "models.repair_steps",
            "structures.eval_calls", "structures.eval_work", "reduction.semi_nodes",
            "reduction.ord_nodes", "reduction.nnf_nodes", "reduction.bc_nodes",
            "wp.out_nodes", "vc.candidates", "programs.states", "parser.nodes")
PER_LAYER = ([(m, "s") for m in SPAN_METRICS.values()]
             + [(c, "count") for c in COUNTERS]
             + [("models.candidates_per_s", "1/s"), ("wp.vc_theta_s", "s"),
                ("wp.eliminate_s", "s"), ("memory.search_est_s", "s"),
                ("fol.oracle_s", "s"), ("trace_overhead_frac", "ratio")])


def _import_probe() -> float:
    """Import time of the library in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip())


def _environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).exists():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit}


@dataclass
class Loop:
    """What the checked pass and the timed loop leave for the report."""

    latencies: list = field(default_factory=list)   # untraced verdict times
    pairs: list = field(default_factory=list)       # (traced, untraced) times
    counters: dict = field(default_factory=dict)    # query id -> counter record
    failures: list = field(default_factory=list)
    repeats_differ: set = field(default_factory=set)
    attempted: int = 0
    passes: int = 0
    seconds: float = 0.0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="record the output digests of the fixed corpus and exit")
    args = ap.parse_args(argv)

    if not (SRC / "reachdl" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2

    # -- set-up: import, seeded input generation, warm-up
    import_s = statistics.median(_import_probe() for _ in range(SETUP_REPEATS))
    sys.path.insert(0, str(SRC))
    import check
    import gen
    import queries
    from trace import NullTracer, Tracer

    if args.workload not in gen.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(gen.WORKLOADS)}", file=sys.stderr)
        return 2
    off = NullTracer()
    if args.record:
        return _record(args.workload, gen, queries, check, off)

    gen_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        corpus = gen.generate(args.workload, args.seed)
        by_id = {q["id"]: q for q in corpus}
        for qid in WARMUP[args.workload]:
            queries.run(by_id[qid], off)
        gen_times.append(perf_counter() - t0)
    setup_s = import_s + statistics.median(gen_times)
    inputs = gen.digest(corpus)
    seed_changes_inputs = gen.digest(gen.generate(args.workload, args.seed + 1)) != inputs

    order = list(corpus)
    random.Random(args.seed).shuffle(order)
    tracer = Tracer() if args.trace else None

    # -- the checked pass, outside the timed region: every query once, its
    # result checked and then let go, so that the timed loop holds no
    # results the collector would walk between queries (holding one
    # reduce-witness pass's results made the collector take 29% of the loop)
    loop = Loop()
    first = _checked_pass(order, queries.run, off, loop)
    checker = check.Checker()
    t0 = perf_counter()
    for q in corpus:
        if q["id"] in first:
            checker.check(q, first[q["id"]])
    oracle_s = perf_counter() - t0
    texts = {qid: r.text for qid, r in first.items()}
    counts = _first_counts(corpus, first) if tracer else {}
    output_nodes = _output_nodes(corpus, first)
    del first

    _timed_loop(order, args.seconds, queries.run, off, tracer, loop, texts, checker)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for qid in sorted(loop.repeats_differ):
        checker.fail(qid, "a repeat printed different output")

    env = _environment()
    print(f"# workload {args.workload} seed {args.seed} inputs {inputs} "
          f"({len(corpus)} queries per pass, {loop.passes} passes, "
          f"{loop.seconds:.2f} s measured)")
    print(f"# python {env['python']}, nproc {env['nproc']}, cpu {env['cpu']}, "
          f"commit {env['commit']}")
    print("# closed loop: 1 client, 1 process, 1 thread; trace", args.trace)
    if not seed_changes_inputs:
        print("# FLAG seed+1 generates the same inputs")
    for line in checker.wrong[:20]:
        print(f"# WRONG {line}")
    for qid in checker.lemma_mismatches:
        print(f"# FLAG {qid}: wp.theta_full disagrees with run_loopless on the "
              "check memory (not counted in wrong_verdicts)")
    for line in loop.failures[:20]:
        print(f"# FAILED {line}")
    print(f"wp_lemma_mismatches = {len(checker.lemma_mismatches)} count")
    print(f"wrong_verdicts = {len(checker.wrong)} count")
    print(f"failed_frac = {len(loop.failures) / loop.attempted:.6f} ratio")

    if tracer:
        metrics = _per_layer(tracer, loop, counts, oracle_s)
        for name in _compare_counters(args.workload, args.seed, metrics):
            print(f"# FLAG counter {name} differs from an earlier run at this seed")
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
        units = dict(PER_LAYER)
    else:
        lat = loop.latencies
        metrics = {
            "queries_per_s": len(lat) / loop.seconds,
            "verdict_p50_ms": statistics.median(lat) * 1e3,
            "verdict_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
            "output_nodes": output_nodes,
        }
        beyond = sum(1 for x in lat if x * 1e3 > metrics["verdict_p90_ms"])
        print(f"# {len(lat)} verdict samples, {beyond} beyond p90; "
              f"set-up {setup_s:.4f} s (import {import_s:.4f} s)")
        units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": not checker.wrong, "attempted": loop.attempted,
                      "failed": len(loop.failures),
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def _checked_pass(order: list[dict], run, off, loop: Loop) -> dict:
    """Every query once, untraced: query id -> Result."""
    first = {}
    for q in order:
        loop.attempted += 1
        try:
            first[q["id"]] = run(q, off)
        except Exception as exc:  # a raise or a hit limit is a failed query
            loop.failures.append(f"{q['id']}: {type(exc).__name__}: {exc}")
    return first


def _timed_loop(order: list[dict], seconds: float, run, off, tracer, loop: Loop,
                texts: dict, checker) -> None:
    """Whole passes over `order` until `seconds` have elapsed.  Each output
    must repeat the checked pass's text.  Traced, each query runs once with
    spans and once without, in alternating order, and the first traced
    result is checked against the whole calls."""
    start = perf_counter()
    while perf_counter() - start < seconds:
        for i, q in enumerate(order):
            qid = q["id"]
            runs = [(off, None)]
            if tracer:
                tracer.query_id = qid
                # the first traced run of a query also fills its counters
                cnt = None if qid in loop.counters else loop.counters.setdefault(
                    qid, dict.fromkeys(COUNTERS, 0))
                runs = [(off, None), (tracer, cnt)][:: 1 if i % 2 == 0 else -1]
            lat = {}
            for tr, cnt in runs:
                loop.attempted += 1
                t0 = perf_counter()
                try:
                    if tr.enabled:
                        with tr.span("query"):
                            r = run(q, tr, cnt)
                    else:
                        r = run(q, tr)
                except Exception as exc:  # a raise or a hit limit is a failed query
                    loop.failures.append(f"{qid}: {type(exc).__name__}: {exc}")
                    continue
                lat[tr.enabled] = (perf_counter() - t0, cnt is not None)
                if qid in texts and r.text != texts[qid]:
                    loop.repeats_differ.add(qid)
                if cnt is not None:
                    checker.same_as_whole_call(q, r)
            if False in lat:
                loop.latencies.append(lat[False][0])
            # a traced run that also counted did extra work: not paired
            if True in lat and False in lat and not lat[True][1]:
                loop.pairs.append((lat[True][0], lat[False][0]))
        loop.passes += 1
    loop.seconds = perf_counter() - start


def _output_nodes(corpus, first) -> int:
    """AST nodes of the formulas the fixed corpus emits in one pass: reduce
    outputs, wp results, VC formulas, and the implication reductions handed
    to the search.  The random queries are left out so that the figure does
    not depend on the seed; the per-layer node counts cover them."""
    from reachdl.syntax import formula_size

    total = 0
    for q in corpus:
        r = first.get(q["id"])
        if r is None or q["id"].startswith("r-"):
            continue
        o = r.objs
        if "pipeline" in o:
            total += formula_size(o["pipeline"].formula)
        if "theta" in o:
            total += formula_size(o["theta"].formula)
        if "entries" in o:
            total += sum(formula_size(e.formula) for e in o["entries"])
        if "kappa" in o:
            total += formula_size(o["kappa"].base)
    return total


def _first_counts(corpus, first) -> dict:
    """The counts read from the checked pass's results, and the wp share
    of the VC queries' time measured on the same edges."""
    from reachdl import reduction, wp
    from reachdl.reach import assoc_formula
    from reachdl.syntax import FAnd, FNot, formula_size

    tot = dict.fromkeys(COUNTERS, 0)
    vc_theta = vc_elim = 0.0
    for q in corpus:
        r = first.get(q["id"])
        if r is None:
            continue
        o = r.objs
        stats = o.get("stats")
        if stats is not None:
            tot["models.candidates"] += stats.candidates
            tot["models.pruned"] += stats.pruned
        if "pipeline" in o:
            p = o["pipeline"]
            tot["reduction.semi_nodes"] += formula_size(reduction.semi_formula(o["spec"]))
            tot["reduction.ord_nodes"] += formula_size(p.ord_formula)
            tot["reduction.nnf_nodes"] += formula_size(reduction.nnf(p.ord_formula))
            tot["reduction.bc_nodes"] += formula_size(p.formula)
        if "theta" in o:
            tot["wp.out_nodes"] += formula_size(o["theta"].formula)
        if "entries" in o:
            tot["vc.candidates"] += sum(e.candidates for e in o["entries"])
            # the wp share of check_vc: it propagates each edge's postcondition
            # twice (vc_formula and the negated parts), then eliminates updates
            prog = o["prog"]
            for e in o["entries"]:
                post = FAnd(prog.shp[e.edge[1]], FNot(prog.cnt[e.edge[1]]))
                t0 = perf_counter()
                res = wp.theta_full(prog.code[e.edge], post, prog.heap)
                t1 = perf_counter()
                wp.eliminate_updates(res.formula)
                t2 = perf_counter()
                vc_theta += 2 * (t1 - t0)
                vc_elim += 2 * (t2 - t1)
        for spec in ([o["spec"]] if "spec" in o else list(o.get("specs", ()))):
            tot["parser.nodes"] += formula_size(assoc_formula(spec))
        if "prog" in o:
            prog = o["prog"]
            tot["parser.nodes"] += sum(formula_size(prog.cnt[n]) + formula_size(prog.shp[n])
                                       for n in prog.nodes)
        if "phi" in o:
            tot["parser.nodes"] += formula_size(o["phi"])
    tot["wp.vc_theta_s"] = vc_theta
    tot["wp.eliminate_s"] = vc_elim
    return tot


def _per_layer(tracer, loop: Loop, counts: dict, oracle_s: float) -> dict:
    self_s = tracer.self_times()
    out = {m: self_s.get(span, 0.0) / loop.passes for span, m in SPAN_METRICS.items()}
    out.update(counts)
    for cnt in loop.counters.values():
        for k, v in cnt.items():
            out[k] += v
    out["models.candidates_per_s"] = (out["models.candidates"] / out["models.search_s"]
                                      if out["models.search_s"] else 0.0)
    out["memory.search_est_s"] = max(out["vc.check_vc_s"] - out["wp.vc_theta_s"]
                                     - out["wp.eliminate_s"], 0.0)
    out["fol.oracle_s"] = oracle_s
    pairs = loop.pairs
    out["trace_overhead_frac"] = (sum(on for on, _ in pairs) / sum(o for _, o in pairs)
                                  - 1.0 if pairs else 0.0)
    return out


def _compare_counters(workload: str, seed: int, metrics: dict) -> list[str]:
    """Deterministic counters must repeat exactly at one seed: compare with
    the previous traced run's record, then replace it."""
    path = OUT / f"counters-{workload}-{seed}.json"
    now = {k: metrics[k] for k in COUNTERS}
    flags = []
    if path.exists():
        before = json.loads(path.read_text())
        flags = [k for k in COUNTERS if before.get(k) != now[k]]
    OUT.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(now, sort_keys=True))
    return flags


def _record(workload, gen, queries, check, off) -> int:
    """Write the output digests of the workload's fixed (seed-independent)
    queries into expected.json."""
    path = check.DIGESTS
    digests = json.loads(path.read_text()) if path.exists() else {}
    for q in gen.generate(workload, 0):
        if not q["id"].startswith("r-") and q["verb"] in ("reduce", "wp", "vc"):
            digests[q["id"]] = check.text_digest(queries.run(q, off).text)
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
