"""Golden for the satisfiability pipeline's outputs: per case, the sha256 of
the ORD output's text, the sha256 of the boolean-closure output's text
followed by the manifest lines (as the `reduce` verb prints them), and the
formula_size of both outputs.

Cases: the four worked examples in both order-gadget variants (tree_spec's
exponential encoding records its LimitExceededError message instead), and
seeded specs from gen.random_reach_spec, the exponential variant only
where 2^#closure <= 64.

Re-record (only on purpose, saying why):
    PYTHONPATH=src:tests python tests/test_reduce_golden.py --record
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from reachdl.reach import (LIST_VOCAB, TREE_VOCAB, alist_spec, clist_spec,
                           list_spec, tree_spec)
from reachdl.reduction import LimitExceededError, sat_pipeline_full, semi_formula
from reachdl.syntax import closure_concepts, formula_size, to_text
from gen import random_reach_spec

GOLDEN = Path(__file__).with_name("golden_reduce.json")
SEEDED = 40
EXP_MAX_CLOSURE = 6   # 2^6 = 64 ladder nominals

WORKED = {"list": (LIST_VOCAB, list_spec), "alist": (LIST_VOCAB, alist_spec),
          "clist": (LIST_VOCAB, clist_spec), "tree": (TREE_VOCAB, tree_spec)}


def seeded_spec(i: int):
    return random_reach_spec(random.Random(f"reduce-golden:{i}"), rich=i % 2 == 1)


def case_names() -> list[str]:
    names = [f"{w}-{v}" for w in WORKED for v in ("exp", "poly")]
    for i in range(SEEDED):
        names.append(f"seeded-{i}-poly")
        _, spec = seeded_spec(i)
        if len(closure_concepts(semi_formula(spec))) <= EXP_MAX_CLOSURE:
            names.append(f"seeded-{i}-exp")
    return names


def case_spec(name: str):
    head, variant = name.rsplit("-", 1)
    if head.startswith("seeded-"):
        vocab, spec = seeded_spec(int(head.split("-")[1]))
    else:
        vocab, make = WORKED[head]
        spec = make()
    return vocab, spec, variant


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def outcome(name: str) -> dict:
    vocab, spec, variant = case_spec(name)
    try:
        res = sat_pipeline_full(spec, vocab, variant)
    except LimitExceededError as e:
        return {"error": str(e)}
    return {"ord_sha256": _sha(to_text(res.ord_formula)),
            "bc_sha256": _sha("\n".join([to_text(res.formula)] + res.manifest())),
            "ord_size": formula_size(res.ord_formula),
            "bc_size": formula_size(res.formula)}


def record():
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden = {name: outcome(name) for name in case_names()}
    for name in sorted(old.keys() | golden.keys()):
        if name not in golden:
            print(f"{name}: dropped")
        elif name not in old:
            print(f"{name}: added")
        else:
            for key in sorted(old[name].keys() | golden[name].keys()):
                if old[name].get(key) != golden[name].get(key):
                    print(f"{name}: {key} {old[name].get(key)!r} -> {golden[name].get(key)!r}")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(case_names())


@pytest.mark.parametrize("name", case_names())
def test_reduce_golden(name):
    assert outcome(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__" and "--record" in sys.argv:
    record()
