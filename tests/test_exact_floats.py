"""The engine's floats, pinned to the last bit.

exact_floats.json holds seeded inputs at n=5-6 (a hybrid fusion whose S2 is
not empty, one on six singletons, a mixture and a staged session) and the
repr of every value they gave when recorded: S1, S2 and S3, the hybrid
result and its compression, per stage for the session.  The other oracles
compare at 1e-12 and the golden CLI prints six decimals, so a change that
moves one ulp would pass them; these comparisons are exact.
"""

import json
from pathlib import Path

import pytest

from dsmfusion import MassAssignment, build_frame, build_model, compress, dsm_hybrid, parse
from dsmfusion.dynamic import Stage, run_session
from dsmfusion.rules import MixtureSpec, bayesian_mixture

PINS = json.loads(Path(__file__).with_name("exact_floats.json").read_text(encoding="utf-8"))
CASES = {case["name"]: case for case in PINS["cases"]}


def assignment(frame, rows):
    return MassAssignment(frame, {parse(frame, expr): float(mass) for expr, mass in rows})


def reprs(table):
    return {str(mask): repr(v) for mask, v in table.items()}


def breakdown_reprs(bd, compressed):
    s1, s2, s3 = bd._tables
    return {"s1": reprs(s1), "s2": reprs(s2), "s3": reprs(s3), "result": reprs(bd.result._masses),
            "compress": reprs(compressed._masses)}


def sources(case):
    frame = build_frame(case["frame"])
    return frame, [assignment(frame, rows) for rows in case["sources"]]


@pytest.mark.parametrize("name", ["hybrid_s2_n5", "hybrid_n6"])
def test_hybrid_tables_result_and_compression(name):
    case = CASES[name]
    frame, ms = sources(case)
    model = build_model(frame, [parse(frame, c) for c in case["constraints"]])
    bd = dsm_hybrid(ms, model)
    assert breakdown_reprs(bd, compress(model, bd.result)) == PINS["expected"][name]


def test_s2_is_pinned():
    assert PINS["expected"]["hybrid_s2_n5"]["s2"]


def test_mixture():
    case = CASES["mixture_n5"]
    frame, ms = sources(case)
    spec = MixtureSpec(tuple((build_model(frame, [parse(frame, c) for c in constraints]), float(p))
                             for constraints, p in case["mixture"]))
    assert reprs(bayesian_mixture(ms, spec)._masses) == PINS["expected"]["mixture_n5"]["mixture"]


def test_session_stages():
    case = CASES["session_n5"]
    frame, ms = sources(case)
    grown, stages = list(case["frame"]), []
    for stage in case["stages"]:
        grown += stage.get("add_elements", [])
        source = assignment(build_frame(grown), stage["add_source"]) if "add_source" in stage else None
        constraints = tuple(stage["set_constraints"]) if "set_constraints" in stage else None
        stages.append(Stage(stage["at"], tuple(stage.get("add_elements", ())), source, constraints))
    got = {r.label: breakdown_reprs(r.breakdown, r.result)
           for r in run_session(frame, ms, stages, constraints=tuple(case["constraints"]))}
    assert got == PINS["expected"]["session_n5"]
