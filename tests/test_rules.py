"""Combination rules against the golden tables and algebraic properties."""

import random
import warnings
from itertools import product
from math import fsum, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from dsmfusion import (
    MassAssignment,
    MixtureSpec,
    Proposition,
    Stage,
    bayesian_mixture,
    build_frame,
    build_model,
    compress,
    dempster,
    dsm_classic,
    dsm_hybrid,
    dubois_prade,
    empty,
    enumerate_hpset,
    from_generators,
    lefevre_combine,
    parse,
    run_session,
    shafer_model,
    singleton,
    smets,
    to_expression,
    total_ignorance,
    u_of,
    vacuous,
    yager,
)
from dsmfusion import lattice, rules
from dsmfusion.errors import (
    CombinationTooLarge,
    FewerThanTwoSources,
    FullContradiction,
    MassSumNotOne,
    NotAnElement,
    NotPowerSetSupport,
    ProbabilitiesNotNormalized,
    WeightsNotNormalized,
)
from conftest import SOURCE_A, SOURCE_B, assert_mass_accounting, assignment, random_bba, random_proposition
from test_dynamic import assert_same_table, oracle_session


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def model_for(frame, *exprs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_model(frame, [parse(frame, e) for e in exprs])


def oracle_hybrid(ms, model):
    """Independent dense evaluator: walk every lattice tuple, no focal pruning.

    Recomputes the transfer targets from first principles and returns the
    final mass map keyed by Proposition.
    """
    frame = ms[0].frame
    lattice = enumerate_hpset(frame)
    it = total_ignorance(frame)
    out = {}
    for combo in product(lattice, repeat=len(ms)):
        p = 1.0
        for m, x in zip(ms, combo):
            p *= m[x]
        if p == 0.0:
            continue
        inter = combo[0]
        uni = combo[0]
        for x in combo[1:]:
            inter = inter & x
            uni = uni | x
        if model.phi(inter) == 1:
            out[inter] = out.get(inter, 0.0) + p
            continue
        if all(model.phi(x) == 0 for x in combo):
            target = u_of(combo[0])
            for x in combo[1:]:
                target = target | u_of(x)
            if model.phi(target) == 0:
                target = it
            out[target] = out.get(target, 0.0) + p
        else:
            out[uni] = out.get(uni, 0.0) + p
    return out


def oracle_tuples(ms, model):
    """Second oracle: walk every tuple of focal sets, one per source.

    Returns the S1, S2 and S3 tables keyed by Proposition, each sum exact
    over the tuples booked on a key.
    """
    frame = ms[0].frame
    full = frame.full_mask
    s1, s2, s3 = {}, {}, {}
    for combo in product(*(m.focal for m in ms)):
        p = 1.0
        inter, uni, u_union = full, 0, 0
        all_empty = True
        for prop, value in combo:
            p *= value
            inter &= prop.mask
            uni |= prop.mask
            if model.is_empty(prop):
                u_union |= u_of(prop).mask
            else:
                all_empty = False
        s1.setdefault(inter, []).append(p)
        if all_empty:
            target = u_union if u_union & ~model.empty_mask else full
            s2.setdefault(target, []).append(p)
        if inter & ~model.empty_mask == 0:
            s3.setdefault(uni, []).append(p)
    return tuple({Proposition(frame, mask): fsum(vals) for mask, vals in table.items()}
                 for table in (s1, s2, s3))


def random_model(rng, frame):
    c = random_proposition(rng, frame)
    if not c.mask or c.mask == frame.full_mask:
        return build_model(frame, [])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_model(frame, [c])


ELEMENTS = [
    "t1&t2&t3", "t2&t3", "t1&t3", "(t1|t2)&t3", "t3", "t1&t2", "(t1|t3)&t2",
    "(t2|t3)&t1", "((t1&t2)|t3)&(t1|t2)", "(t1&t2)|t3", "t2", "(t1&t3)|t2",
    "t2|t3", "t1", "(t2&t3)|t1", "t1|t3", "t1|t2", "t1|t2|t3",
]

CLASSIC_EXPECTED = [0.16, 0.19, 0.12, 0.01, 0.10, 0.22, 0.05, 0.00, 0.00,
                    0.00, 0.03, 0.00, 0.00, 0.08, 0.02, 0.02, 0.00, 0.00]


class TestClassicRule:
    def test_reference_table(self, frame3):
        m = dsm_classic([assignment(frame3, SOURCE_A), assignment(frame3, SOURCE_B)])
        for expr, expected in zip(ELEMENTS, CLASSIC_EXPECTED):
            assert m[parse(frame3, expr)] == pytest.approx(expected, abs=1e-9), expr
        assert m.total == pytest.approx(1.0, abs=1e-9)

    def test_two_source_example(self, frame2):
        m1 = assignment(frame2, {"t1": 0.1, "t2": 0.2, "t1|t2": 0.3, "t1&t2": 0.4})
        m2 = assignment(frame2, {"t1": 0.5, "t2": 0.3, "t1|t2": 0.1, "t1&t2": 0.1})
        m12 = dsm_classic([m1, m2])
        assert m12[parse(frame2, "t1")] == pytest.approx(0.21, abs=1e-9)
        assert m12[parse(frame2, "t2")] == pytest.approx(0.17, abs=1e-9)
        assert m12[parse(frame2, "t1|t2")] == pytest.approx(0.03, abs=1e-9)
        assert m12[parse(frame2, "t1&t2")] == pytest.approx(0.59, abs=1e-9)

    def test_general_table(self, frame3):
        from dsmfusion.worked_examples import GENERAL_CLASSIC_3, GENERAL_SOURCES_3

        g1 = assignment(frame3, GENERAL_SOURCES_3[0])
        g2 = assignment(frame3, GENERAL_SOURCES_3[1])
        m = dsm_classic([g1, g2])
        assert m[parse(frame3, "t1&t2&t3")] == pytest.approx(0.4389, abs=1e-9)
        for expr, expected in GENERAL_CLASSIC_3.items():
            assert m[parse(frame3, expr)] == pytest.approx(expected, abs=1e-9)

    def test_neutral_element(self, frame3):
        m = assignment(frame3, SOURCE_A)
        out = dsm_classic([m, vacuous(frame3)])
        for prop, value in m.items():
            assert out[prop] == pytest.approx(value, abs=1e-15)

    def test_fewer_than_two(self, frame3):
        with pytest.raises(FewerThanTwoSources):
            dsm_classic([assignment(frame3, SOURCE_A)])

    def test_frame_mismatch(self, frame3, frame2):
        from dsmfusion.errors import FrameMismatch

        with pytest.raises(FrameMismatch):
            dsm_classic([assignment(frame3, SOURCE_A),
                         assignment(frame2, {"t1": 1.0})])
        with pytest.raises(FrameMismatch):
            dsm_hybrid([assignment(frame3, SOURCE_A), assignment(frame3, SOURCE_B)],
                       shafer_model(frame2))

    def test_commutative_associative(self, frame3):
        rng = random.Random(5)
        ms = [random_bba(rng, frame3) for _ in range(3)]
        base = dsm_classic(ms)
        flipped = dsm_classic([ms[2], ms[0], ms[1]])
        keys = set(base.keys()) | set(flipped.keys())
        assert all(abs(base[k] - flipped[k]) <= 1e-12 for k in keys)
        folded = dsm_classic([dsm_classic(ms[:2]), ms[2]])
        assert all(abs(base[k] - folded[k]) <= 1e-12 for k in set(base.keys()) | set(folded.keys()))

    @pytest.mark.parametrize("n", [3, 4])
    def test_commonality_product(self, n):
        # Third oracle: with q(A) the mass of every B >= A, the classic rule
        # multiplies the sources' q, since A&B >= C exactly when A >= C and B >= C
        frame = build_frame([f"t{i}" for i in range(1, n + 1)])
        rng = random.Random(n)
        for k in (2, 3, 4):
            ms = [random_bba(rng, frame) for _ in range(k)]
            combined = dsm_classic(ms)
            for a in enumerate_hpset(frame):
                def q(m):
                    return fsum(v for b, v in m.items() if a <= b)

                assert q(combined) == pytest.approx(prod(q(m) for m in ms), abs=1e-12), (k, a)

    def test_matches_dense_oracle(self, frame3):
        # under the free model the hybrid oracle books every tuple on S1
        ms = [assignment(frame3, SOURCE_A), assignment(frame3, SOURCE_B)]
        lean = dsm_classic(ms)
        oracle = oracle_hybrid(ms, build_model(frame3, []))
        for prop in set(lean.keys()) | set(oracle):
            assert lean[prop] == pytest.approx(oracle.get(prop, 0.0), abs=1e-12)


# Full golden tables (phi, S1, S2, S3, m) live in worked_examples; here we
# probe the hand-checkable anchor rows plus the column totals.
class TestHybridRule:
    @pytest.fixture
    def sources(self, frame3):
        return [assignment(frame3, SOURCE_A), assignment(frame3, SOURCE_B)]

    def test_m1_anchor_rows(self, frame3, sources):
        bd = dsm_hybrid(sources, model_for(frame3, "t1&t2&t3"))
        p = parse(frame3, "(t1|t2)&t3")
        assert bd.model.phi(p) == 1
        assert bd.s1[p] == pytest.approx(0.01, abs=1e-9)
        assert bd.s3[p] == pytest.approx(0.02, abs=1e-9)
        assert bd.result[p] == pytest.approx(0.03, abs=1e-9)
        assert fsum(bd.s3.values()) == pytest.approx(0.16, abs=1e-9)
        gone = parse(frame3, "t1&t2&t3")
        assert bd.model.phi(gone) == 0 and bd.s1[gone] == pytest.approx(0.16, abs=1e-9)
        assert bd.result[gone] == 0.0

    def test_m2_anchor_rows(self, frame3, sources):
        bd = dsm_hybrid(sources, model_for(frame3, "t1&t2"))
        p = parse(frame3, "t1|t2")
        assert bd.s2[p] == pytest.approx(0.02, abs=1e-9)
        assert bd.s3[p] == pytest.approx(0.07, abs=1e-9)
        assert bd.result[p] == pytest.approx(0.09, abs=1e-9)
        assert fsum(bd.s3.values()) == pytest.approx(0.38, abs=1e-9)

    def test_m4_compressed(self, frame3, sources):
        model = model_for(frame3, "((t1&t2)|t3)&(t1|t2)")
        out = compress(model, dsm_hybrid(sources, model).result)
        expected = {"t3": 0.24, "t2": 0.13, "t1": 0.18, "t1|t3": 0.17,
                    "t1|t2": 0.11, "t2|t3": 0.05, "t1|t2|t3": 0.12}
        for expr, v in expected.items():
            assert out[parse(frame3, expr)] == pytest.approx(v, abs=1e-9)

    def test_m5_member_masses(self, frame3, sources):
        # uncompressed per-member values readable from the compressed sums
        bd = dsm_hybrid(sources, model_for(frame3, "t1"))
        expected = {"t2&t3": 0.19, "(t1|t2)&t3": 0.03, "(t1|t3)&t2": 0.07,
                    "((t1&t2)|t3)&(t1|t2)": 0.0, "(t2&t3)|t1": 0.04,
                    "t3": 0.11, "(t1&t2)|t3": 0.07, "t1|t3": 0.21,
                    "t2": 0.08, "(t1&t3)|t2": 0.01, "t1|t2": 0.15,
                    "t2|t3": 0.0, "t1|t2|t3": 0.04}
        for expr, v in expected.items():
            assert bd.result[parse(frame3, expr)] == pytest.approx(v, abs=1e-9), expr

    def test_m7_member_masses(self, frame3, sources):
        bd = dsm_hybrid(sources, model_for(frame3, "(t1&t2)|t3"))
        expected = {"t2": 0.12, "(t1&t3)|t2": 0.01, "t2|t3": 0.11,
                    "t1": 0.14, "(t2&t3)|t1": 0.04, "t1|t3": 0.25,
                    "t1|t2": 0.11, "t1|t2|t3": 0.22}
        for expr, v in expected.items():
            assert bd.result[parse(frame3, expr)] == pytest.approx(v, abs=1e-9), expr

    def test_free_model_equals_classic(self, frame3, sources):
        bd = dsm_hybrid(sources, build_model(frame3, []))
        classic = dsm_classic(sources)
        for prop in set(bd.result.keys()) | set(classic.keys()):
            assert bd.result[prop] == pytest.approx(classic[prop], abs=1e-12)
        assert not bd.s2 and not bd.s3

    def test_full_contradiction_shafer(self, frame2):
        m1 = assignment(frame2, {"t1": 1.0})
        m2 = assignment(frame2, {"t2": 1.0})
        out = dsm_hybrid([m1, m2], shafer_model(frame2)).result
        assert out[parse(frame2, "t1|t2")] == 1.0

    def test_emptiness_and_sum(self, frame3, sources):
        for exprs in (("t1&t2",), ("t1",), ("(t1&t2)|t3",)):
            model = model_for(frame3, *exprs)
            bd = dsm_hybrid(sources, model)
            assert bd.result.total == pytest.approx(1.0, abs=1e-9)
            for p in enumerate_hpset(frame3):
                if model.phi(p) == 0:
                    assert bd.result[p] == 0.0

    def test_disjoint_tuple_accounting(self, frame3, sources):
        # every product tuple lands in exactly one of: surviving S1,
        # S2, surviving S3; their grand total is 1 before gating
        for exprs in (("t1&t2",), ("t1",), ("(t1|t3)&t2",)):
            model = model_for(frame3, *exprs)
            bd = dsm_hybrid(sources, model)
            s1_live = fsum(v for p, v in bd.s1.items() if model.phi(p) == 1)
            s3_live = fsum(v for p, v in bd.s3.items() if model.phi(p) == 1)
            assert s1_live + fsum(bd.s2.values()) + s3_live == pytest.approx(1.0, abs=1e-9)

    def test_two_step_equivalence(self, frame3, sources):
        # computing S1 via the classic rule and adding the S2/S3 transfer
        # reproduces the direct evaluation
        model = model_for(frame3, "t1&t2")
        bd = dsm_hybrid(sources, model)
        classic = dsm_classic(sources)
        for p in enumerate_hpset(frame3):
            if model.phi(p) == 1:
                via_steps = classic[p] + bd.s2.get(p, 0.0) + bd.s3.get(p, 0.0)
                assert bd.result[p] == pytest.approx(via_steps, abs=1e-12)

    def test_shafer_support_is_power_set(self, frame3, sources):
        from dsmfusion.bba import is_power_set_element

        model = shafer_model(frame3)
        out = compress(model, dsm_hybrid(sources, model).result)
        for prop, value in out.focal:
            assert is_power_set_element(prop), prop

    def test_open_world_empty_mass_transfers(self, frame2):
        # input mass on EMPTY rides S2 to total ignorance, S3 to the partner
        m1 = MassAssignment(frame2, {empty(frame2): 0.2, parse(frame2, "t1"): 0.8},
                            smets_mode=True)
        m2 = MassAssignment(frame2, {empty(frame2): 0.5, parse(frame2, "t2"): 0.5},
                            smets_mode=True)
        out = dsm_hybrid([m1, m2], build_model(frame2, [])).result
        assert out[parse(frame2, "t1|t2")] == pytest.approx(0.1, abs=1e-12)
        assert out[parse(frame2, "t2")] == pytest.approx(0.1, abs=1e-12)
        assert out[parse(frame2, "t1")] == pytest.approx(0.4, abs=1e-12)
        assert out[parse(frame2, "t1&t2")] == pytest.approx(0.4, abs=1e-12)
        assert out.total == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_oracle(self, frame3, sources):
        model = model_for(frame3, "t1&t2")
        bd = dsm_hybrid(sources, model)
        oracle = oracle_hybrid(sources, model)
        keys = set(bd.result.keys()) | set(oracle)
        for p in keys:
            assert bd.result[p] == pytest.approx(oracle.get(p, 0.0), abs=1e-12)


class TestDempster:
    def test_two_sources(self, frame2):
        m1 = assignment(frame2, {"t1": 0.6, "t2": 0.4})
        m2 = assignment(frame2, {"t1": 0.7, "t2": 0.3})
        out, conflict = dempster([m1, m2])
        assert conflict == pytest.approx(0.46, abs=1e-12)
        assert out[parse(frame2, "t1")] == pytest.approx(0.42 / 0.54, abs=1e-12)
        assert out[parse(frame2, "t2")] == pytest.approx(0.12 / 0.54, abs=1e-12)

    def test_epsilon_sources_split_evenly(self, frame2):
        t1, t2 = parse(frame2, "t1"), parse(frame2, "t2")
        for eps in (1e-6, 0.01, 0.1, 0.3, 0.499, 0.77, 0.999):
            m1 = MassAssignment(frame2, {t1: 1 - eps, t2: eps})
            m2 = MassAssignment(frame2, {t1: eps, t2: 1 - eps})
            out, _ = dempster([m1, m2])
            assert out[t1] == pytest.approx(0.5, abs=1e-12)
            assert out[t2] == pytest.approx(0.5, abs=1e-12)

    def test_full_contradiction(self, frame2):
        m1 = assignment(frame2, {"t1": 1.0})
        m2 = assignment(frame2, {"t2": 1.0})
        with pytest.raises(FullContradiction):
            dempster([m1, m2])

    def test_three_source_fold_matches_joint(self, frame2):
        rng = random.Random(11)
        t1, t2 = parse(frame2, "t1"), parse(frame2, "t2")
        it = parse(frame2, "t1|t2")
        for _ in range(20):
            ms = []
            for _ in range(3):
                a, b = rng.random() + 0.05, rng.random() + 0.05
                c = rng.random()
                s = a + b + c
                ms.append(MassAssignment(frame2, {t1: a / s, t2: b / s, it: c / s}))
            out, conflict = dempster(ms)
            # joint conjunctive evaluation over the power set
            joint = {}
            k_total = 0.0
            sh = shafer_model(frame2)
            for combo in product(*(m.focal for m in ms)):
                p = 1.0
                meet = it
                for prop, v in combo:
                    p *= v
                    meet = meet & prop
                meet = sh.reduce(meet)
                if meet.is_empty:
                    k_total += p
                else:
                    joint[meet] = joint.get(meet, 0.0) + p
            assert conflict == pytest.approx(k_total, abs=1e-12)
            for prop, v in joint.items():
                assert out[prop] == pytest.approx(v / (1 - k_total), abs=1e-12)


class TestLefevreFamily:
    def test_dempster_weights_recover_dempster(self, frame2):
        rng = random.Random(42)
        t1, t2 = parse(frame2, "t1"), parse(frame2, "t2")
        it = parse(frame2, "t1|t2")
        sh = shafer_model(frame2)
        for _ in range(100):
            ms = []
            for _ in range(2):
                a, b, c = rng.random() + 0.02, rng.random() + 0.02, rng.random()
                s = a + b + c
                ms.append(MassAssignment(frame2, {t1: a / s, t2: b / s, it: c / s}))
            conj = {}
            conflict = 0.0
            for (p1, v1), (p2, v2) in product(ms[0].focal, ms[1].focal):
                meet = sh.reduce(p1 & p2)
                if meet.is_empty:
                    conflict += v1 * v2
                else:
                    conj[meet] = conj.get(meet, 0.0) + v1 * v2
            assert conflict < 1.0
            weights = {p: v / (1 - conflict) for p, v in conj.items()}
            weights[empty(frame2)] = 0.0
            got = lefevre_combine(ms, weights)
            want, _ = dempster(ms)
            for p in set(got.keys()) | set(want.keys()):
                assert got[p] == pytest.approx(want[p], abs=1e-12)

    def test_yager(self, frame2):
        m1 = assignment(frame2, {"t1": 0.6, "t2": 0.4})
        m2 = assignment(frame2, {"t1": 0.7, "t2": 0.3})
        out = yager([m1, m2])
        assert out[parse(frame2, "t1")] == pytest.approx(0.42)
        assert out[parse(frame2, "t2")] == pytest.approx(0.12)
        assert out[parse(frame2, "t1|t2")] == pytest.approx(0.46)

    def test_yager_full_contradiction(self, frame2):
        m1 = assignment(frame2, {"t1": 1.0})
        m2 = assignment(frame2, {"t2": 1.0})
        out = yager([m1, m2])
        assert out[parse(frame2, "t1|t2")] == pytest.approx(1.0)

    def test_smets_keeps_conflict_on_empty(self, frame2):
        m1 = assignment(frame2, {"t1": 1.0})
        m2 = assignment(frame2, {"t2": 1.0})
        out = smets([m1, m2])
        assert out[empty(frame2)] == pytest.approx(1.0)
        assert out.smets_mode

    def test_no_conflict_pair(self, frame2):
        m1 = assignment(frame2, {"t1": 1.0})
        out_y = yager([m1, m1])
        out_s = smets([m1, m1])
        assert out_y[parse(frame2, "t1")] == 1.0
        assert out_s[parse(frame2, "t1")] == 1.0

    def test_weights_not_normalized(self, frame2):
        m1 = assignment(frame2, {"t1": 0.6, "t2": 0.4})
        with pytest.raises(WeightsNotNormalized):
            lefevre_combine([m1, m1], {parse(frame2, "t1"): 0.5})

    @pytest.mark.parametrize("bad", [*NON_FINITE, "1", None, True])
    def test_non_finite_weight(self, frame2, bad):
        # True counts as 1 in the sum, so it would read as Yager's rule
        m1 = assignment(frame2, {"t1": 0.6, "t2": 0.4})
        with pytest.raises(WeightsNotNormalized, match="is not a finite number"):
            lefevre_combine([m1, m1], {total_ignorance(frame2): bad})

    def test_negative_weight(self, frame2):
        # summing to one, these weights would give t1 1.5 times the conflict and
        # take half of it from t2: {t1: 0.88, t2: 0.12}
        m1 = assignment(frame2, {"t1": 0.4, "t2": 0.6})
        with pytest.raises(WeightsNotNormalized, match="negative"):
            lefevre_combine([m1, m1], {parse(frame2, "t1"): 1.5, parse(frame2, "t2"): -0.5})

    @pytest.mark.parametrize("key", ["t1", None])
    def test_weight_key_not_a_proposition(self, frame2, key):
        m1 = assignment(frame2, {"t1": 0.6, "t2": 0.4})
        with pytest.raises(NotAnElement):
            lefevre_combine([m1, m1], {key: 1.0})

    def test_weight_key_not_in_power_set(self, frame2):
        # conflict booked on t1&t2 would make an assignment bel and dempster refuse
        m1 = assignment(frame2, {"t1": 0.6, "t2": 0.4})
        m2 = assignment(frame2, {"t1": 0.1, "t2": 0.9})
        with pytest.raises(NotPowerSetSupport):
            lefevre_combine([m1, m2], {parse(frame2, "t1&t2"): 1.0})


class TestDuboisPrade:
    def test_full_contradiction(self, frame2):
        m1 = assignment(frame2, {"t1": 1.0})
        m2 = assignment(frame2, {"t2": 1.0})
        out = dubois_prade([m1, m2])
        assert out[parse(frame2, "t1|t2")] == pytest.approx(1.0)

    def test_partial_conflict_to_pair_union(self, frame2):
        m1 = assignment(frame2, {"t1": 0.6, "t2": 0.4})
        m2 = assignment(frame2, {"t1": 0.7, "t2": 0.3})
        out = dubois_prade([m1, m2])
        assert out[parse(frame2, "t1")] == pytest.approx(0.42)
        assert out[parse(frame2, "t2")] == pytest.approx(0.12)
        assert out[parse(frame2, "t1|t2")] == pytest.approx(0.46)

    def test_no_conflict_is_conjunctive(self, frame3):
        m1 = assignment(frame3, {"t1": 0.5, "t1|t2": 0.5})
        m2 = assignment(frame3, {"t1": 0.3, "t1|t2|t3": 0.7})
        out = dubois_prade([m1, m2])
        assert out[parse(frame3, "t1")] == pytest.approx(0.5 * 0.3 + 0.5 * 0.7 + 0.5 * 0.3)
        assert out[parse(frame3, "t1|t2")] == pytest.approx(0.35)

    def test_conflict_lands_on_specific_unions(self):
        frame = build_frame(["t1", "t2", "t3"])
        m1 = MassAssignment(frame, {singleton(frame, 1): 0.5, singleton(frame, 3): 0.5})
        m2 = MassAssignment(frame, {singleton(frame, 2): 1.0})
        out = dubois_prade([m1, m2])
        assert out[parse(frame, "t1|t2")] == pytest.approx(0.5)
        assert out[parse(frame, "t2|t3")] == pytest.approx(0.5)

    def test_two_empty_masses_go_to_total_ignorance(self, frame2):
        """The hybrid rule under Shafer's model: S2 moves two EMPTY masses' product to total ignorance."""
        m1 = MassAssignment(frame2, {empty(frame2): 0.2, parse(frame2, "t1"): 0.8}, smets_mode=True)
        m2 = MassAssignment(frame2, {empty(frame2): 0.5, parse(frame2, "t2"): 0.5}, smets_mode=True)
        out = dubois_prade([m1, m2])
        assert {to_expression(p): v for p, v in out.items()} == \
            pytest.approx({"t1": 0.4, "t2": 0.1, "t1|t2": 0.5}, abs=1e-15)
        assert not out.smets_mode


class TestMixture:
    def test_single_entry_is_hybrid(self, frame3):
        ms = [assignment(frame3, SOURCE_A), assignment(frame3, SOURCE_B)]
        model = model_for(frame3, "t1&t2")
        mix = bayesian_mixture(ms, MixtureSpec(((model, 1.0),)))
        hybrid = dsm_hybrid(ms, model).result
        for p in set(mix.keys()) | set(hybrid.keys()):
            assert mix[p] == pytest.approx(hybrid[p], abs=1e-12)

    def test_free_convexity(self, frame3):
        ms = [assignment(frame3, SOURCE_A), assignment(frame3, SOURCE_B)]
        fm = build_model(frame3, [])
        mix = bayesian_mixture(ms, MixtureSpec(((fm, 0.5), (fm, 0.5))))
        classic = dsm_classic(ms)
        for p in set(mix.keys()) | set(classic.keys()):
            assert mix[p] == pytest.approx(classic[p], abs=1e-12)

    def test_half_half_reference(self, frame3):
        ms = [assignment(frame3, SOURCE_A), assignment(frame3, SOURCE_B)]
        m1 = model_for(frame3, "t1&t2&t3")
        m4 = model_for(frame3, "((t1&t2)|t3)&(t1|t2)")
        mix = bayesian_mixture(ms, MixtureSpec(((m1, 0.5), (m4, 0.5))))
        assert mix[parse(frame3, "t3")] == pytest.approx(0.135, abs=1e-9)

    def test_probabilities_not_normalized(self, frame3):
        model = build_model(frame3, [])
        with pytest.raises(ProbabilitiesNotNormalized):
            MixtureSpec(((model, 0.5), (model, 0.6)))

    def test_weighted_sum_of_hybrids(self):
        rng = random.Random(8)
        for _ in range(20):
            frame = build_frame([f"t{i}" for i in range(1, rng.randint(2, 4) + 1)])
            ms = [random_bba(rng, frame) for _ in range(rng.randint(2, 3))]
            models = [random_model(rng, frame) for _ in range(rng.randint(1, 3))]
            raw = [rng.random() + 0.05 for _ in models]
            probs = [w / sum(raw) for w in raw]
            mix = bayesian_mixture(ms, MixtureSpec(tuple(zip(models, probs))))
            parts = [(prob, dsm_hybrid(ms, model).result) for model, prob in zip(models, probs)]
            keys = set(mix.keys()).union(*(part.keys() for _, part in parts))
            for p in keys:
                want = fsum(prob * part[p] for prob, part in parts)
                assert mix[p] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("bad", [*NON_FINITE, "1.0", None, True])
    def test_non_finite_probability(self, frame3, bad):
        # a string or None raised TypeError, and True counted as 1
        with pytest.raises(ProbabilitiesNotNormalized, match="is not a finite number"):
            MixtureSpec(((build_model(frame3, []), bad),))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(2, 3), k=st.integers(2, 4))
def test_hybrid_random_invariants(seed, n, k):
    rng = random.Random(seed)
    frame = build_frame([f"t{i}" for i in range(1, n + 1)])
    ms = [random_bba(rng, frame) for _ in range(k)]
    model = random_model(rng, frame)
    bd = dsm_hybrid(ms, model)
    assert bd.result.total == pytest.approx(1.0, abs=1e-9)
    for p, v in bd.result.items():
        assert model.phi(p) == 1 or v == 0.0
    for got, want in zip((bd.s1, bd.s2, bd.s3), oracle_tuples(ms, model)):
        assert set(got) == set(want)
        for p, v in want.items():
            assert got[p] == pytest.approx(v, abs=1e-12)
    if k <= 3:  # the dense oracle walks 19**k lattice tuples at n=3
        oracle = oracle_hybrid(ms, model)
        for p in set(bd.result.keys()) | set(oracle):
            assert bd.result[p] == pytest.approx(oracle.get(p, 0.0), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(2, 4), k=st.integers(2, 3), open_world=st.booleans())
def test_mass_accounting_identities(seed, n, k, open_world):
    rng = random.Random(seed)
    frame = build_frame([f"t{i}" for i in range(1, n + 1)])
    ms = [random_bba(rng, frame, max_focal=3) for _ in range(k)]
    if open_world:  # part of each source's mass moves onto EMPTY
        shares = [rng.random() * 0.5 for _ in ms]
        ms = [MassAssignment(frame, [(empty(frame), e), *((q, v * (1 - e)) for q, v in m.items())],
                             smets_mode=True) for m, e in zip(ms, shares)]
    constraints, dead = [], 0
    for _ in range(rng.randint(0, 2)):
        c = random_proposition(rng, frame)
        if dead | c.mask != frame.full_mask:
            constraints.append(c)
            dead |= c.mask
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a model left with one atom warns
        model = build_model(frame, constraints)
    assert_mass_accounting(dsm_hybrid(ms, model))


def random_power_set_bba(rng, frame, max_focal=4):
    """Random assignment over distinct unions of singletons, normalized to 1."""
    props = []
    while len(props) < rng.randint(1, max_focal):
        digits = rng.sample(range(1, frame.n + 1), rng.randint(1, frame.n))
        q = from_generators(frame, [(d,) for d in digits])
        if q not in props:
            props.append(q)
    raw = [rng.random() + 0.05 for _ in props]
    return MassAssignment(frame, {q: w / sum(raw) for q, w in zip(props, raw)})


def oracle_dst(ms):
    """Tuple walk over power-set focal sets, on digit sets read from the generators.

    Returns the conjunctive masses keyed by the intersection, and the
    conflict keyed by the union of the tuple (the Dubois-Prade target).
    """
    frame = ms[0].frame
    combined, conflicts = {}, {}
    for combo in product(*(m.focal for m in ms)):
        mass = prod(v for _, v in combo)
        digits = [{d for g in prop.generators for d in g} for prop, _ in combo]
        inter = set.intersection(*digits)
        if inter:
            combined.setdefault(frozenset(inter), []).append(mass)
        else:
            conflicts.setdefault(frozenset(set.union(*digits)), []).append(mass)
    return tuple({from_generators(frame, [(d,) for d in key]): fsum(vals) for key, vals in table.items()}
                 for table in (combined, conflicts))


def assert_same_masses(got, want):
    """got (a MassAssignment or map) equals want key for key within 1e-12; zero entries dropped."""
    want = {p: v for p, v in want.items() if v != 0.0}
    got = dict(got.items())
    assert set(got) == set(want)
    for p, v in want.items():
        assert got[p] == pytest.approx(v, abs=1e-12)


def gated(model, tables):
    return {p: fsum(t.get(p, 0.0) for t in tables)
            for p in set().union(*tables) if not model.is_empty(p)}


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(2, 4), k=st.integers(2, 4))
def test_every_rule_matches_tuple_walk(seed, n, k):
    rng = random.Random(seed)
    frame = build_frame([f"t{i}" for i in range(1, n + 1)])
    ms = [random_bba(rng, frame) for _ in range(k)]
    model, other = random_model(rng, frame), random_model(rng, frame)
    tables = oracle_tuples(ms, model)

    assert_same_masses(dsm_classic(ms), tables[0])
    bd = dsm_hybrid(ms, model)
    for got, want in zip((bd.s1, bd.s2, bd.s3), tables):
        assert_same_masses(got, want)
    assert_same_masses(bd.result, gated(model, tables))
    prob = rng.choice([0.25, 0.5, 1.0])
    mix = bayesian_mixture(ms, MixtureSpec(((model, prob), (other, 1.0 - prob))))
    parts = [(prob, gated(model, tables)), (1.0 - prob, gated(other, oracle_tuples(ms, other)))]
    keys = set().union(*(part for _, part in parts))
    assert_same_masses(mix, {p: fsum(w * part.get(p, 0.0) for w, part in parts) for p in keys})

    ps = [random_power_set_bba(rng, frame) for _ in range(k)]
    combined, conflicts = oracle_dst(ps)
    conflict = fsum(conflicts.values())
    surviving = fsum(combined.values())
    if surviving > 0.0:
        result, got_conflict = dempster(ps)
        assert got_conflict == pytest.approx(conflict, abs=1e-12)
        assert_same_masses(result, {p: v / surviving for p, v in combined.items()})
    else:
        with pytest.raises(FullContradiction):
            dempster(ps)
    ti, nothing = total_ignorance(frame), empty(frame)
    yager_want = dict(combined)
    yager_want[ti] = yager_want.get(ti, 0.0) + conflict
    assert_same_masses(yager(ps), yager_want)
    assert_same_masses(smets(ps), {**combined, nothing: conflict})
    dp_want = dict(combined)
    for p, v in conflicts.items():
        dp_want[p] = dp_want.get(p, 0.0) + v
    assert_same_masses(dubois_prade(ps), dp_want)
    weights = {ti: 0.5, nothing: 0.25}
    first = ps[0].keys()[0]
    weights[first] = weights.get(first, 0.0) + 0.25
    lefevre_want = dict(combined)
    for p, w in weights.items():
        lefevre_want[p] = lefevre_want.get(p, 0.0) + w * conflict
    assert_same_masses(lefevre_combine(ps, weights), lefevre_want)


def with_dead_share(rng, frame, k, dead):
    """k random assignments, each moving a random share of its mass onto the expression `dead`."""
    out = []
    for _ in range(k):
        share = rng.uniform(0.1, 0.4)
        table = {p: v * (1 - share) for p, v in random_bba(rng, frame, max_focal=3).items()}
        d = parse(frame, dead)
        table[d] = table.get(d, 0.0) + share
        out.append(MassAssignment(frame, table))
    return out


@pytest.mark.parametrize("n, k, constraints", [
    (4, 4, ("t1&t2",)),   # u(t1&t2) = t1|t2 survives: S2 books on it
    (5, 5, ("t1", "t2")),  # t1|t2 is empty too: S2 books on total ignorance
])
def test_three_folds_match_tuple_oracle(n, k, constraints):
    """S1, S2 and S3, a two-model mixture and a staged session with frame growth, at n=4-5.

    Every source holds the model-empty t1&t2, so the S2 fold runs.
    """
    rng = random.Random(n)
    frame = build_frame([f"t{i}" for i in range(1, n + 1)])
    model = model_for(frame, *constraints)
    ms = with_dead_share(rng, frame, k, "t1&t2")
    bd = dsm_hybrid(ms, model)
    want = oracle_tuples(ms, model)
    for got, table in zip((bd.s1, bd.s2, bd.s3), want):
        assert_same_table(got, table)
    # the tuple of t1&t2 alone books on u(t1&t2) = t1|t2, or on total ignorance when that is empty
    target = u_of(parse(frame, "t1&t2"))
    assert bd.s2[total_ignorance(frame) if model.is_empty(target) else target] > 0.0
    assert_same_masses(bd.result, gated(model, want))

    other = model_for(frame, "t3&t4")
    mix = bayesian_mixture(ms, MixtureSpec(((model, 0.3), (other, 0.7))))
    parts = [(0.3, gated(model, want)), (0.7, gated(other, oracle_tuples(ms, other)))]
    keys = set().union(*(part for _, part in parts))
    assert_same_masses(mix, {p: fsum(prob * part.get(p, 0.0) for prob, part in parts) for p in keys})

    small = build_frame(frame.names[:-1])
    stages = [Stage("grow", add_elements=frame.names[-1:], add_source=ms[-1]),
              Stage("swap", set_constraints=("t3&t4",)),
              Stage("late", add_source=with_dead_share(rng, small, 1, "t1&t2")[0],
                    set_constraints=constraints)]
    start = with_dead_share(rng, small, k - 1, "t1&t2")
    history = run_session(small, start, stages, constraints=constraints)
    results, breakdowns = oracle_session(small, start, stages, "dsmh", constraints)
    for rec, result, breakdown in zip(history, results, breakdowns, strict=True):
        assert_same_table(rec.result, result)
        for table in ("s1", "s2", "s3", "result"):
            assert_same_table(getattr(rec.breakdown, table), getattr(breakdown, table))


def test_hybrid_skips_s2_and_s3_without_a_model_empty_meet(frame3, monkeypatch):
    """S2 and S3 read only tuples whose meet is empty under the model.

    So the free model, or a model that empties no meet of the sources,
    runs the S1 fold alone and no 2w-bit fold.
    """
    ms = [assignment(frame3, {"t1": 0.6, "t1|t2": 0.4}), assignment(frame3, {"t1|t3": 0.5, "t1": 0.5})]
    widths = []
    fold = rules._fold
    monkeypatch.setattr(rules, "_fold",
                        lambda start, sources, bits: widths.append(bits) or fold(start, sources, bits))
    w = frame3.atom_count
    for model in (build_model(frame3, []), model_for(frame3, "t2&t3"), model_for(frame3, "t2", "t3")):
        widths.clear()
        bd = dsm_hybrid(ms, model)
        assert widths == [w]
        assert bd.s2 == bd.s3 == {}
        assert_same_masses(bd.result, gated(model, oracle_tuples(ms, model)))
    widths.clear()
    dsm_hybrid(ms, model_for(frame3, "t1"))  # empties every meet, and a focal set of each source
    assert widths == [w, 2 * w, frame3.n]


def test_s3_last_step_is_bounded(frame3, monkeypatch):
    """S3's last step, which books on the join outside the fold loop, runs the FOLD_LIMIT check.

    Under Shafer's model the S1 steps cost 7, 7 and 28 (states x focal sets
    x 7 atom bits) and S3's 14, 14 and 56 (14 bits), so a limit of 30 admits
    S1 and S3's first two steps but not its last.  The free model runs S1
    alone and passes.
    """
    ms = [assignment(frame3, {"t1": 1.0}), assignment(frame3, {"t2": 1.0}),
          assignment(frame3, {"t1": 0.25, "t2": 0.25, "t3": 0.25, "t1|t2|t3": 0.25})]
    monkeypatch.setattr(rules, "FOLD_LIMIT", 30)
    with pytest.raises(CombinationTooLarge, match="1 states x 4 focal sets x 14 bits"):
        dsm_hybrid(ms, shafer_model(frame3))
    assert dsm_hybrid(ms, build_model(frame3, [])).result.total == pytest.approx(1.0, abs=1e-12)


def test_results_are_checked_against_their_sources_total(frame3, monkeypatch):
    """Results are checked against their sources' total: deviations inside it pass, a 1e-8 leak does not."""
    short = assignment(frame3, {"t1": 0.3333333333, "t2": 0.3333333333, "t3": 0.3333333333})
    assert dsm_classic([short] * 12).validate()  # 0.9999999988, 1.2e-9 short of one
    gate = rules._gate

    def leaky(model, tables):
        sums = gate(model, tables)
        sums[next(iter(sums))] += 1e-8
        return sums

    monkeypatch.setattr(rules, "_gate", leaky)
    with pytest.raises(MassSumNotOne):
        dsm_hybrid([assignment(frame3, SOURCE_A), assignment(frame3, SOURCE_B)], model_for(frame3, "t1&t2"))


def test_classic_and_dst_rules_skip_generators(frame3, monkeypatch):
    """Only the hybrid rule's S2 fold reads u(), over model-empty focal sets alone.

    It runs only when every source has one, so the free model extracts no
    generators, nor does a model that empties focal sets of one source only.
    """
    ms = [assignment(frame3, SOURCE_A), assignment(frame3, SOURCE_B)]
    ps = [assignment(frame3, {"t1": 0.3, "t2|t3": 0.7}), assignment(frame3, {"t2": 0.6, "t1|t3": 0.4})]

    def no_generators(*args):
        raise AssertionError("generators extracted")

    monkeypatch.setattr(lattice, "_generators", no_generators)
    monkeypatch.setattr(rules, "_u_digits", no_generators)
    dsm_classic(ms)
    dempster(ps)
    yager(ps)
    smets(ps)
    dubois_prade(ps)
    lefevre_combine(ps, {total_ignorance(frame3): 1.0})
    dsm_hybrid(ms, build_model(frame3, []))
    dsm_hybrid(ms, model_for(frame3, "t1&t3"))  # empties SOURCE_A's t1&t3 only
    with pytest.raises(AssertionError, match="generators extracted"):
        dsm_hybrid(ms, model_for(frame3, "t1&t2"))


FREE2 = build_model(build_frame(("t1", "t2")), [])
RULE_CALLS = {
    "dsm_classic": dsm_classic,
    "dsm_hybrid": lambda ms: dsm_hybrid(ms, FREE2),
    "dempster": dempster,
    "bayesian_mixture": lambda ms: bayesian_mixture(ms, MixtureSpec(((FREE2, 1.0),))),
    "lefevre_combine": lambda ms: lefevre_combine(ms, {total_ignorance(FREE2.frame): 1.0}),
    "yager": yager,
    "smets": smets,
    "dubois_prade": dubois_prade,
}


@pytest.mark.parametrize("rule", RULE_CALLS)
@pytest.mark.parametrize("sources", ["bare", "none", "one"])
def test_every_rule_takes_a_sequence_of_two_or_more_sources(frame2, rule, sources):
    # len() of a bare assignment counts its focal sets, and [0] reads its mass on EMPTY
    m = assignment(frame2, {"t1": 0.6, "t2": 0.4})
    arg, message = {"bare": (m, "expected a sequence of sources, got one MassAssignment"),
                    "none": ([], "need at least 2 sources, got 0"),
                    "one": ([m], "need at least 2 sources, got 1")}[sources]
    with pytest.raises(FewerThanTwoSources, match=message):
        RULE_CALLS[rule](arg)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any), min_size=2, max_size=4)))
@example([[1, 0], [0, 1]])  # full contradiction
def test_dempster_is_s1_on_singletons_normalized(weights):
    """On Bayesian sources Dempster's rule is S1's singleton entries over their sum.

    The free meet of two different singletons holds no singleton atom, so
    S1's singleton keys take exactly the products Dempster's n-bit fold
    sums per singleton.  `sweep` reads both rules from one S1 on this.
    """
    frame = build_frame([f"t{i}" for i in range(1, len(weights[0]) + 1)])
    ms = [MassAssignment(frame, {singleton(frame, i): w / sum(row) for i, w in enumerate(row, 1)})
          for row in weights]
    s1 = rules._classic_fold([m._masses for m in ms], frame.full_mask)
    singles = {singleton(frame, i).mask for i in range(1, frame.n + 1)}
    survivors = {mask: v for mask, v in s1.items() if mask in singles}
    surviving = fsum(survivors.values())
    if surviving == 0.0:
        with pytest.raises(FullContradiction):
            dempster(ms)
    else:
        assert dempster(ms)[0]._masses == {mask: v / surviving for mask, v in survivors.items()}
