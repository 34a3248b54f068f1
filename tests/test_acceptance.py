"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single pass line when it completes; any assertion failure
fails the criterion.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
import warnings
from math import fsum

import pytest

from dsmfusion import (
    MassAssignment,
    build_frame,
    build_model,
    compress,
    dempster,
    dsm_classic,
    dsm_hybrid,
    empty,
    enumerate_hpset,
    lefevre_combine,
    parse,
    shafer_model,
    smets,
    to_expression,
    total_ignorance,
    yager,
)
from dsmfusion.cli import sweep_rows
from dsmfusion.errors import FullContradiction
from dsmfusion.exprparse import _parse_or_empty
from dsmfusion.worked_examples import (
    COMPRESSED_3,
    GENERAL_COMPRESSED_3,
    GENERAL_SOURCES_3,
    GENERAL_UNCOMPRESSED_3,
    HYBRID_ROWS,
    MODEL_CONSTRAINTS,
    S3_COLUMN_SUMS,
    SOURCES_3,
    run_example,
)
from dsmfusion.model import survivors
from conftest import assignment, random_bba, random_proposition
from test_rules import ELEMENTS, CLASSIC_EXPECTED, oracle_hybrid


def _ok(criterion, detail=""):
    print(f"[criterion {criterion}] PASS {detail}".rstrip())


def _model(frame, key):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_model(frame, [parse(frame, c) for c in MODEL_CONSTRAINTS[key]])


@pytest.fixture(scope="module")
def frame3():
    return build_frame(("t1", "t2", "t3"))


@pytest.fixture(scope="module")
def ref_sources(frame3):
    return [assignment(frame3, SOURCES_3[0]), assignment(frame3, SOURCES_3[1])]


def test_criterion_1_hpset_19_elements(frame3):
    start = time.perf_counter()
    hp = enumerate_hpset(frame3)
    elapsed = time.perf_counter() - start
    assert len(hp) == 19
    listed = {empty(frame3)} | {parse(frame3, e) for e in ELEMENTS}
    assert set(hp) == listed
    for p in hp:
        assert _parse_or_empty(frame3, to_expression(p)) == p
    assert elapsed < 1.0
    _ok(1, f"19 elements in {elapsed * 1e3:.1f} ms")


def test_criterion_2_classic_table(frame3, ref_sources):
    start = time.perf_counter()
    m = dsm_classic(ref_sources)
    elapsed = time.perf_counter() - start
    assert m[empty(frame3)] == 0.0
    for expr, expected in zip(ELEMENTS, CLASSIC_EXPECTED):
        assert abs(m[parse(frame3, expr)] - expected) <= 1e-9, expr
    assert elapsed < 1.0
    _ok(2, f"19 classic values within 1e-9 in {elapsed * 1e3:.1f} ms")


def test_criterion_3_hybrid_tables_m1_m4(frame3, ref_sources):
    for key in ("m1", "m2", "m3", "m4"):
        start = time.perf_counter()
        bd = dsm_hybrid(ref_sources, _model(frame3, key))
        elapsed = time.perf_counter() - start
        for expr, (phi_e, s1_e, s2_e, s3_e, m_e) in HYBRID_ROWS[key].items():
            p = empty(frame3) if expr == "EMPTY" else parse(frame3, expr)
            assert bd.model.phi(p) == phi_e, (key, expr)
            assert abs(bd.s1.get(p, 0.0) - s1_e) <= 1e-9, (key, expr)
            assert abs(bd.s2.get(p, 0.0) - s2_e) <= 1e-9, (key, expr)
            assert abs(bd.s3.get(p, 0.0) - s3_e) <= 1e-9, (key, expr)
            assert abs(bd.result[p] - m_e) <= 1e-9, (key, expr)
        assert abs(fsum(bd.s3.values()) - S3_COLUMN_SUMS[key]) <= 1e-9
        assert elapsed < 1.0
    _ok(3, "M1-M4 phi/S1/S2/S3 rows and S3 sums 0.16/0.38/0.62/0.75 within 1e-9")


def test_criterion_4_compressed_tables(frame3, ref_sources):
    row_counts = {"m2": 13, "m3": 10, "m4": 8, "m5": 5, "m6": 2, "m7": 4}
    for key, rows in row_counts.items():
        model = _model(frame3, key)
        assert len(survivors(model)) == rows
        out = compress(model, dsm_hybrid(ref_sources, model).result)
        for expr, expected in COMPRESSED_3[key].items():
            rep = model.reduce(parse(frame3, expr))
            assert abs(out[rep] - expected) <= 5e-5, (key, expr)
    m6 = _model(frame3, "m6")
    out6 = compress(m6, dsm_hybrid(ref_sources, m6).result)
    assert out6[parse(frame3, "t3")] == pytest.approx(1.0, abs=5e-5)
    _ok(4, "compressed M2/M3/M4/M5/M6/M7 tables within 5e-5")


def test_criterion_5_general_bba_suite(frame3):
    sources = [assignment(frame3, GENERAL_SOURCES_3[0]),
               assignment(frame3, GENERAL_SOURCES_3[1])]
    for key in MODEL_CONSTRAINTS:
        model = _model(frame3, key)
        bd = dsm_hybrid(sources, model)
        for expr, expected in zip(ELEMENTS, GENERAL_UNCOMPRESSED_3[key]):
            assert abs(bd.result[parse(frame3, expr)] - expected) <= 5e-5, (key, expr)
        out = compress(model, bd.result)
        for expr, expected in GENERAL_COMPRESSED_3[key].items():
            rep = model.reduce(parse(frame3, expr))
            assert abs(out[rep] - expected) <= 5e-5, (key, expr)
    m4 = _model(frame3, "m4")
    out4 = compress(m4, dsm_hybrid(sources, m4).result)
    assert out4[total_ignorance(frame3)] == pytest.approx(0.4752, abs=5e-5)
    m6 = _model(frame3, "m6")
    assert compress(m6, dsm_hybrid(sources, m6).result)[parse(frame3, "t3")] == \
        pytest.approx(1.0, abs=5e-5)
    m7 = _model(frame3, "m7")
    assert compress(m7, dsm_hybrid(sources, m7).result)[parse(frame3, "t1|t2")] == \
        pytest.approx(0.6330, abs=5e-5)
    _ok(5, "all seven general-bba columns and compressed tables within 5e-5")


def test_criterion_6_degenerate_contradiction():
    frame = build_frame(("t1", "t2"))
    m1 = assignment(frame, {"t1": 1.0})
    m2 = assignment(frame, {"t2": 1.0})
    with pytest.raises(FullContradiction):
        dempster([m1, m2])
    hybrid = dsm_hybrid([m1, m2], shafer_model(frame)).result
    assert hybrid[parse(frame, "t1|t2")] == 1.0
    rows = sweep_rows(101)
    for eps, d1, d2, _, _, _ in rows:
        if 0.0 < eps < 1.0:
            assert d1 is not None and abs(d1 - 0.5) <= 1e-12
            assert abs(d2 - 0.5) <= 1e-12
    _ok(6, "FullContradiction raised, hybrid gives m(t1|t2)=1, sweep at 0.5 within 1e-12")


def test_criterion_7_dynamic_suite():
    for eid in ("dyn1", "dyn3.1", "dyn3.2", "dyn3.3", "dyn3.4",
                "dyn3.5", "dyn3.6", "dyn3.7"):
        report = run_example(eid)
        assert report.passed, report.verdict
        assert report.max_dev <= 5e-5
    _ok(7, "dynamic examples 1 and 3.1-3.7 within 5e-5")


def test_criterion_8_randomized_property_suite():
    rng = random.Random(0xD5F)
    trials = 0
    oracle_checked = 0
    while trials < 500:
        n = rng.choice((2, 3, 4))
        k = rng.choice((2, 3))
        frame = build_frame([f"t{i}" for i in range(1, n + 1)])
        ms = [random_bba(rng, frame) for _ in range(k)]
        constraints = []
        for _ in range(rng.randint(0, 2)):
            c = random_proposition(rng, frame)
            if c.mask and c.mask != frame.full_mask:
                constraints.append(c)
        mask = 0
        for c in constraints:
            mask |= c.mask
        if mask == frame.full_mask:
            continue  # vacuous; redraw
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = build_model(frame, constraints)
        trials += 1

        bd = dsm_hybrid(ms, model)
        assert abs(bd.result.total - 1.0) <= 1e-9
        for p in enumerate_hpset(frame):
            if model.phi(p) == 0:
                assert bd.result[p] == 0.0

        base = dsm_classic(ms)
        perm = list(ms)
        rng.shuffle(perm)
        shuffled = dsm_classic(perm)
        for p in set(base.keys()) | set(shuffled.keys()):
            assert abs(base[p] - shuffled[p]) <= 1e-12

        free_bd = dsm_hybrid(ms, build_model(frame, []))
        for p in set(free_bd.result.keys()) | set(base.keys()):
            assert abs(free_bd.result[p] - base[p]) <= 1e-12

        if n <= 3:
            oracle = oracle_hybrid(ms, model)
            for p in set(bd.result.keys()) | set(oracle):
                assert abs(bd.result[p] - oracle.get(p, 0.0)) <= 1e-12
            oracle_checked += 1
    assert trials == 500
    assert oracle_checked >= 100
    _ok(8, f"500 randomized trials, {oracle_checked} dense-oracle cross-checks")


def test_criterion_9_lefevre_recovery():
    rng = random.Random(1729)
    frame = build_frame(("t1", "t2"))
    t1, t2 = parse(frame, "t1"), parse(frame, "t2")
    it = total_ignorance(frame)
    sh = shafer_model(frame)
    pairs = 0
    while pairs < 100:
        ms = []
        for _ in range(2):
            a, b, c = rng.random() + 0.01, rng.random() + 0.01, rng.random()
            s = a + b + c
            ms.append(MassAssignment(frame, {t1: a / s, t2: b / s, it: c / s}))
        conj = {}
        conflict = 0.0
        for (p1, v1) in ms[0].focal:
            for (p2, v2) in ms[1].focal:
                meet = sh.reduce(p1 & p2)
                if meet.is_empty:
                    conflict += v1 * v2
                else:
                    conj[meet] = conj.get(meet, 0.0) + v1 * v2
        if conflict >= 1.0:
            continue
        pairs += 1
        weights = {p: v / (1 - conflict) for p, v in conj.items()}
        weights[empty(frame)] = 0.0
        via_weights = lefevre_combine(ms[0], ms[1], weights)
        direct, _ = dempster(ms)
        for p in set(via_weights.keys()) | set(direct.keys()):
            assert abs(via_weights[p] - direct[p]) <= 1e-12

        # Yager: conflict moves to total ignorance; Smets: stays on EMPTY.
        y = yager(ms[0], ms[1])
        assert abs(y[it] - (conj.get(it, 0.0) + conflict)) <= 1e-12
        assert abs(y[t1] - conj.get(t1, 0.0)) <= 1e-12
        s = smets(ms[0], ms[1])
        assert abs(s[empty(frame)] - conflict) <= 1e-12
        assert abs(s[t2] - conj.get(t2, 0.0)) <= 1e-12
    _ok(9, "lefevre/dempster agreement and Yager/Smets weights on 100 random pairs")


def test_criterion_10_roundtrip_n_le_4():
    for n in (1, 2, 3, 4, 5):
        frame = build_frame([f"t{i}" for i in range(1, n + 1)])
        for p in enumerate_hpset(frame):
            q = _parse_or_empty(frame, to_expression(p))
            assert q == p, to_expression(p)
    _ok(10, "parse(to_expression(.)) identity on all elements up to n=5")
