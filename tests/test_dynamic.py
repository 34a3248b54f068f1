"""Staged fusion: embedding, session recombination, restore checks."""

import pytest

from dsmfusion import (
    Stage,
    build_frame,
    dsm_classic,
    embed,
    embed_proposition,
    parse,
    restore_check,
    run_session,
    to_expression,
    vacuous,
)
from dsmfusion.errors import FewerThanTwoSources, MissingName, RuleNotApplicable
from conftest import assignment, atom_labels


@pytest.fixture
def frame4():
    return build_frame(("t1", "t2", "t3", "t4"))


class TestEmbed:
    def test_term_preserved(self, frame2, frame3):
        p = parse(frame2, "t1&t2")
        q = embed_proposition(p, frame3)
        assert to_expression(q) == "t1&t2"
        assert atom_labels(q.frame.n, q.mask) == {"12", "123"}

    def test_vacuous_stays_old_union(self, frame2, frame3):
        v = embed(vacuous(frame2), frame2, frame3)
        (prop, mass), = v.items()
        assert mass == 1.0
        assert to_expression(prop) == "t1|t2"
        assert prop != parse(frame3, "t1|t2|t3")

    def test_masses_and_expressions_unchanged(self, frame2, frame3):
        m = assignment(frame2, {"t1": 0.25, "t2": 0.35, "t1&t2": 0.4})
        out = embed(m, frame2, frame3)
        assert out.total == pytest.approx(1.0)
        assert {to_expression(p): v for p, v in out.items()} == \
               {to_expression(p): v for p, v in m.items()}

    def test_missing_name(self, frame2):
        other = build_frame(("t1", "x"))
        with pytest.raises(MissingName):
            embed(vacuous(frame2), frame2, other)

    def test_name_based_remap(self):
        old = build_frame(("b", "a"))
        new = build_frame(("a", "b", "c"))
        p = parse(old, "b&a")
        q = embed_proposition(p, new)
        assert to_expression(q) == "a&b"


def dyn12_sources(frame2):
    return [
        assignment(frame2, {"t1": 0.1, "t2": 0.2, "t1|t2": 0.3, "t1&t2": 0.4}),
        assignment(frame2, {"t1": 0.5, "t2": 0.3, "t1|t2": 0.1, "t1&t2": 0.1}),
    ]


class TestRunSession:
    def test_example_growth_then_constraint(self, frame2, frame3):
        m3 = assignment(frame3, {"t3": 0.4, "t1&t3": 0.3, "t2|t3": 0.3})
        session = run_session(frame2, dyn12_sources(frame2), [
            Stage(at="t1", add_elements=("t3",), add_source=m3),
            Stage(at="t2", set_constraints=("t3",)),
        ])
        got = session.history[1].by_expression()
        assert got["t1&t2&t3"] == pytest.approx(0.464, abs=5e-5)
        assert got[to_expression(parse(frame3, "(t1|t2)&t3"))] == pytest.approx(0.012, abs=5e-5)
        final = session.current.by_expression()
        assert final["t1"] == pytest.approx(0.147, abs=5e-5)
        assert final["t2"] == pytest.approx(0.179, abs=5e-5)
        assert final["t1|t2"] == pytest.approx(0.021, abs=5e-5)
        assert final["t1&t2"] == pytest.approx(0.653, abs=5e-5)

    def test_constraint_only_uses_raw_factors(self, frame4):
        m1 = assignment(frame4, {"t1": 0.5, "t2": 0.4, "t1&t2": 0.1})
        m2 = assignment(frame4, {"t1": 0.3, "t2": 0.2, "t1&t3": 0.1, "t4": 0.4})
        session = run_session(frame4, [m1, m2],
                              [Stage(at="t1", set_constraints=("t1&t2", "t1&t3"))])
        got = session.current.by_expression()
        expected = {"t1": 0.23, "t2": 0.14, "t4": 0.04, "t1&t4": 0.20,
                    "t2&t4": 0.16, "t1|t2": 0.22, "t1|t2|t3": 0.01}
        assert set(got) == set(expected)
        for k, v in expected.items():
            assert got[k] == pytest.approx(v, abs=5e-5)

    def test_results_sum_to_one_every_stage(self, frame2, frame3):
        m3 = assignment(frame3, {"t3": 0.4, "t1&t3": 0.3, "t2|t3": 0.3})
        session = run_session(frame2, dyn12_sources(frame2), [
            Stage(at="t1", add_elements=("t3",), add_source=m3),
            Stage(at="t2", set_constraints=("t3",)),
            Stage(at="t3", set_constraints=()),
        ])
        for rec in session.history:
            assert rec.result.total == pytest.approx(1.0, abs=1e-9)

    def test_single_source_rejected(self, frame2):
        with pytest.raises(FewerThanTwoSources):
            run_session(frame2, [assignment(frame2, {"t1": 1.0})], [])

    def test_dsmc_rejects_constraints(self, frame2):
        with pytest.raises(RuleNotApplicable):
            run_session(frame2, dyn12_sources(frame2), [], rule="dsmc",
                        constraints=("t1&t2",))

    def test_decentralized_grouping_matches_flat(self):
        fa = build_frame(("a1", "a2"))
        fb = build_frame(("b1", "b2", "b3", "b4"))
        joint = build_frame(("a1", "a2", "b1", "b2", "b3", "b4"))
        s1 = assignment(fa, {"a1": 0.6, "a1|a2": 0.4})
        s2 = assignment(fa, {"a2": 0.3, "a1&a2": 0.7})
        s3 = assignment(fb, {"b1": 0.5, "b2|b3": 0.5})
        s4 = assignment(fb, {"b1|b4": 1.0})
        s5 = assignment(fb, {"b2": 0.2, "b1&b3": 0.8})
        grouped = dsm_classic([
            embed(dsm_classic([s1, s2]), fa, joint),
            embed(dsm_classic([s3, s4, s5]), fb, joint),
        ])
        flat = dsm_classic([embed(m, m.frame, joint) for m in (s1, s2, s3, s4, s5)])
        for p in set(grouped.keys()) | set(flat.keys()):
            assert grouped[p] == pytest.approx(flat[p], abs=1e-12)


class TestRestoreCheck:
    def test_clean_recovery(self, frame2, frame4):
        m3 = assignment(frame4, {"t3": 0.5, "t4": 0.3, "t3&t4": 0.1, "t3|t4": 0.1})
        session = run_session(frame2, dyn12_sources(frame2),
                              [Stage(at="t1", add_elements=("t3", "t4"), add_source=m3)])
        report = restore_check(session, ("t3", "t4"))
        assert report.restored
        assert "t0" in report.matches
        t0_dev = dict(report.deviations)["t0"]
        assert t0_dev <= 1e-12
        final = session.current.by_expression()
        assert final == pytest.approx({"t1": 0.21, "t2": 0.17, "t1|t2": 0.03, "t1&t2": 0.59})

    def test_residual_mass_blocks_recovery(self, frame2, frame3):
        m3 = assignment(frame3, {"t3": 0.4, "t1&t3": 0.3, "t2|t3": 0.3})
        session = run_session(frame2, dyn12_sources(frame2),
                              [Stage(at="t1", add_elements=("t3",), add_source=m3)])
        report = restore_check(session, ("t3",))
        assert not report.restored

    def test_constraints_via_restore_check(self, frame4):
        m1 = assignment(frame4, {"t1": 0.5, "t2": 0.4, "t1&t2": 0.1})
        m2 = assignment(frame4, {"t1": 0.3, "t2": 0.2, "t1&t3": 0.1, "t4": 0.4})
        session = run_session(frame4, [m1, m2], [])
        report = restore_check(session, ("t1&t2", "t1&t3"))
        assert not report.restored  # conflicting mass moved, t0 not recovered
        got = session.current.by_expression()
        assert got["t1"] == pytest.approx(0.23, abs=5e-5)
        assert got["t2"] == pytest.approx(0.14, abs=5e-5)
        assert got["t1|t2"] == pytest.approx(0.22, abs=5e-5)
        assert got["t1|t2|t3"] == pytest.approx(0.01, abs=5e-5)

    def test_remark_case_a_general(self, frame2):
        # any added source silent on the original singletons restores exactly
        f5 = build_frame(("t1", "t2", "x", "y", "z"))
        m3 = assignment(f5, {"x": 0.2, "y&z": 0.3, "x|y": 0.5})
        session = run_session(frame2, dyn12_sources(frame2),
                              [Stage(at="t1", add_elements=("x", "y", "z"), add_source=m3)])
        report = restore_check(session, ("x", "y", "z"))
        assert report.restored and "t0" in report.matches
