"""Staged fusion: embedding, session recombination, restore checks."""

import gc
import weakref
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from dsmfusion import (
    MassAssignment,
    Stage,
    build_frame,
    build_model,
    compress,
    dsm_classic,
    dsm_hybrid,
    embed,
    embed_proposition,
    empty,
    from_generators,
    parse,
    run_session,
    to_expression,
    vacuous,
)
from dsmfusion import dynamic
from dsmfusion.errors import FewerThanTwoSources, MissingName, RuleNotApplicable, ScenarioError
from conftest import assert_mass_accounting, assignment, atom_labels, random_bba


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
        v = embed(vacuous(frame2), frame3)
        (prop, mass), = v.items()
        assert mass == 1.0
        assert to_expression(prop) == "t1|t2"
        assert prop != parse(frame3, "t1|t2|t3")

    def test_masses_and_expressions_unchanged(self, frame2, frame3):
        m = assignment(frame2, {"t1": 0.25, "t2": 0.35, "t1&t2": 0.4})
        out = embed(m, frame3)
        assert out.total == pytest.approx(1.0)
        assert {to_expression(p): v for p, v in out.items()} == \
               {to_expression(p): v for p, v in m.items()}

    def test_missing_name(self, frame2):
        other = build_frame(("t1", "x"))
        with pytest.raises(MissingName):
            embed(vacuous(frame2), other)

    def test_name_based_remap(self):
        old = build_frame(("b", "a"))
        new = build_frame(("a", "b", "c"))
        p = parse(old, "b&a")
        q = embed_proposition(p, new)
        assert to_expression(q) == "a&b"


def reference_embedding(p, new):
    """p on `new`: each generator's digits renamed to the same singletons' positions there."""
    return from_generators(new, [[new.names.index(p.frame.names[d - 1]) + 1 for d in g] for g in p.generators])


def _up_closed_on(frame):
    return st.lists(st.sets(st.integers(1, frame.n), min_size=1), max_size=4).map(
        lambda gs: from_generators(frame, gs))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 5), added=st.integers(0, 2))
def test_embedding_renames_by_name(data, n, added):
    """Any order of the old names, with new names anywhere among them, on random elements."""
    old = build_frame([f"t{i}" for i in range(1, n + 1)])
    new = build_frame(data.draw(st.permutations([*old.names, *(f"x{i}" for i in range(added))])))
    p = data.draw(_up_closed_on(old))
    assert embed_proposition(p, new) == reference_embedding(p, new)
    # an open-world source keeps its EMPTY mass, and its mode, on the grown frame
    non_empty = _up_closed_on(old).filter(lambda q: not q.is_empty)
    focal = data.draw(st.lists(non_empty, min_size=1, max_size=3, unique=True))
    m = MassAssignment(old, {empty(old): 0.5, **{q: 0.5 / len(focal) for q in focal}}, smets_mode=True)
    out = embed(m, new)
    assert out.frame == new and out.smets_mode
    assert dict(out.items()) == {reference_embedding(q, new): v for q, v in m.items()}


def by_expression(rec) -> dict[str, float]:
    """A session stage's result keyed by canonical expression."""
    return {to_expression(p): v for p, v in rec.result.items()}


def dyn12_sources(frame2):
    return [
        assignment(frame2, {"t1": 0.1, "t2": 0.2, "t1|t2": 0.3, "t1&t2": 0.4}),
        assignment(frame2, {"t1": 0.5, "t2": 0.3, "t1|t2": 0.1, "t1&t2": 0.1}),
    ]


class TestRunSession:
    def test_example_growth_then_constraint(self, frame2, frame3):
        m3 = assignment(frame3, {"t3": 0.4, "t1&t3": 0.3, "t2|t3": 0.3})
        history = list(run_session(frame2, dyn12_sources(frame2), [
            Stage(at="t1", add_elements=("t3",), add_source=m3),
            Stage(at="t2", set_constraints=("t3",)),
        ]))
        got = by_expression(history[1])
        assert got["t1&t2&t3"] == pytest.approx(0.464, abs=5e-5)
        assert got[to_expression(parse(frame3, "(t1|t2)&t3"))] == pytest.approx(0.012, abs=5e-5)
        final = by_expression(history[-1])
        assert final["t1"] == pytest.approx(0.147, abs=5e-5)
        assert final["t2"] == pytest.approx(0.179, abs=5e-5)
        assert final["t1|t2"] == pytest.approx(0.021, abs=5e-5)
        assert final["t1&t2"] == pytest.approx(0.653, abs=5e-5)

    def test_constraint_only_uses_raw_factors(self, frame4):
        m1 = assignment(frame4, {"t1": 0.5, "t2": 0.4, "t1&t2": 0.1})
        m2 = assignment(frame4, {"t1": 0.3, "t2": 0.2, "t1&t3": 0.1, "t4": 0.4})
        *_, last = run_session(frame4, [m1, m2],
                               [Stage(at="t1", set_constraints=("t1&t2", "t1&t3"))])
        got = by_expression(last)
        expected = {"t1": 0.23, "t2": 0.14, "t4": 0.04, "t1&t4": 0.20,
                    "t2&t4": 0.16, "t1|t2": 0.22, "t1|t2|t3": 0.01}
        assert set(got) == set(expected)
        for k, v in expected.items():
            assert got[k] == pytest.approx(v, abs=5e-5)

    def test_results_sum_to_one_every_stage(self, frame2, frame3):
        m3 = assignment(frame3, {"t3": 0.4, "t1&t3": 0.3, "t2|t3": 0.3})
        for rec in run_session(frame2, dyn12_sources(frame2), [
            Stage(at="t1", add_elements=("t3",), add_source=m3),
            Stage(at="t2", set_constraints=("t3",)),
            Stage(at="t3", set_constraints=()),
        ]):
            assert rec.result.total == pytest.approx(1.0, abs=1e-9)

    def test_single_source_rejected(self, frame2):
        with pytest.raises(FewerThanTwoSources):
            run_session(frame2, [assignment(frame2, {"t1": 1.0})], [])

    @pytest.mark.parametrize("field, text", [("add_elements", "ab"), ("add_elements", "t34"),
                                             ("set_constraints", "t1&t2")])
    def test_stage_refuses_a_string_for_a_sequence(self, field, text):
        # read as its characters, "ab" grew the frame by a and b, and "t1&t2" named 't'
        with pytest.raises(ScenarioError, match=f"'{field}' takes a sequence of strings, not the string"):
            Stage("x", **{field: text})

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
            embed(dsm_classic([s1, s2]), joint),
            embed(dsm_classic([s3, s4, s5]), joint),
        ])
        flat = dsm_classic([embed(m, joint) for m in (s1, s2, s3, s4, s5)])
        for p in set(grouped.keys()) | set(flat.keys()):
            assert grouped[p] == pytest.approx(flat[p], abs=1e-12)


@dataclass(frozen=True)
class RestoreReport:
    """Comparison of the post-constraint result against earlier results."""

    deviations: tuple[tuple[str, float], ...]  # (earlier label, max abs deviation)
    matches: tuple[str, ...]
    final: dict[str, float]  # the post-constraint result, by expression

    @property
    def restored(self) -> bool:
        return bool(self.matches)


def _max_deviation(a: dict[str, float], b: dict[str, float]) -> float:
    keys = set(a) | set(b)
    return max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys), default=0.0)


def restore_check(frame, sources, stages, constraints) -> RestoreReport:
    """Rerun a session with one more stage that sets `constraints`; report which result comes back.

    An earlier result matches when no mass deviates by more than 1e-9.
    Results on different frames compare by expression, which embedding
    preserves.  Either the new sources carried no mass touching the
    original singletons and an earlier result returns exactly, or residual
    mass keeps the outcome different.
    """
    *earlier, new = run_session(frame, sources,
                                [*stages, Stage(at="restore", set_constraints=tuple(constraints))])
    final = by_expression(new)
    deviations = tuple((rec.label, _max_deviation(final, by_expression(rec))) for rec in earlier)
    return RestoreReport(deviations, tuple(lbl for lbl, dev in deviations if dev <= 1e-9), final)


class TestRestoreCheck:
    def test_clean_recovery(self, frame2, frame4):
        m3 = assignment(frame4, {"t3": 0.5, "t4": 0.3, "t3&t4": 0.1, "t3|t4": 0.1})
        report = restore_check(frame2, dyn12_sources(frame2),
                               [Stage(at="t1", add_elements=("t3", "t4"), add_source=m3)],
                               ("t3", "t4"))
        assert report.restored
        assert "t0" in report.matches
        t0_dev = dict(report.deviations)["t0"]
        assert t0_dev <= 1e-12
        final = report.final
        assert final == pytest.approx({"t1": 0.21, "t2": 0.17, "t1|t2": 0.03, "t1&t2": 0.59})

    def test_residual_mass_blocks_recovery(self, frame2, frame3):
        m3 = assignment(frame3, {"t3": 0.4, "t1&t3": 0.3, "t2|t3": 0.3})
        report = restore_check(frame2, dyn12_sources(frame2),
                               [Stage(at="t1", add_elements=("t3",), add_source=m3)], ("t3",))
        assert not report.restored

    def test_constraints_via_restore_check(self, frame4):
        m1 = assignment(frame4, {"t1": 0.5, "t2": 0.4, "t1&t2": 0.1})
        m2 = assignment(frame4, {"t1": 0.3, "t2": 0.2, "t1&t3": 0.1, "t4": 0.4})
        report = restore_check(frame4, [m1, m2], [], ("t1&t2", "t1&t3"))
        assert not report.restored  # conflicting mass moved, t0 not recovered
        got = report.final
        assert got["t1"] == pytest.approx(0.23, abs=5e-5)
        assert got["t2"] == pytest.approx(0.14, abs=5e-5)
        assert got["t1|t2"] == pytest.approx(0.22, abs=5e-5)
        assert got["t1|t2|t3"] == pytest.approx(0.01, abs=5e-5)

    def test_remark_case_a_general(self, frame2):
        # any added source silent on the original singletons restores exactly
        f5 = build_frame(("t1", "t2", "x", "y", "z"))
        m3 = assignment(f5, {"x": 0.2, "y&z": 0.3, "x|y": 0.5})
        report = restore_check(frame2, dyn12_sources(frame2),
                               [Stage(at="t1", add_elements=("x", "y", "z"), add_source=m3)],
                               ("x", "y", "z"))
        assert report.restored and "t0" in report.matches


def oracle_session(frame, sources, stages, rule="dsmh", constraints=()):
    """The factor-list session: keep the factor assignments and re-run the public rule per stage.

    A new source first collapses the factors into their classic combination.
    Returns the per-stage results and, under dsmh, the per-stage breakdowns.
    """
    factors = [embed(src, frame) for src in sources]
    results, breakdowns = [], []
    for stage in [None, *stages]:
        if stage is not None:
            if stage.add_elements:
                grown = build_frame(frame.names + tuple(stage.add_elements))
                factors = [embed(f, grown) for f in factors]
                frame = grown
            if stage.add_source is not None:
                src = stage.add_source
                factors = [dsm_classic(factors), embed(src, frame)]
            if stage.set_constraints is not None:
                constraints = stage.set_constraints
        model = build_model(frame, [parse(frame, c) for c in constraints])
        if rule == "dsmh":
            breakdowns.append(dsm_hybrid(factors, model))
            results.append(compress(model, breakdowns[-1].result))
        else:
            results.append(dsm_classic(factors))
    return results, breakdowns


def assert_same_table(got, want):
    assert set(got.keys()) == set(want.keys())
    for p in want.keys():
        assert got[p] == pytest.approx(want[p], abs=1e-12)


def _pair_constraints(data, frame):
    pairs = [f"{a}&{b}" for i, a in enumerate(frame.names) for b in frame.names[i + 1:]]
    return tuple(data.draw(st.lists(st.sampled_from(pairs), max_size=2, unique=True)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_session_matches_factor_list_oracle(data):
    rng = data.draw(st.randoms(use_true_random=False))
    frame = build_frame([f"t{i}" for i in range(1, data.draw(st.integers(2, 3)) + 1)])
    sources = [random_bba(rng, frame, max_focal=3) for _ in range(data.draw(st.integers(2, 3)))]
    constraints = _pair_constraints(data, frame)
    stages, names = [], frame.names
    for k in range(data.draw(st.integers(1, 3))):
        before = build_frame(names)
        added = tuple(f"t{len(names) + j}" for j in range(1, data.draw(st.integers(0, 2)) + 1))
        names += added
        now = build_frame(names)
        source = None
        if data.draw(st.booleans()):
            # a late source may still be stated on the frame it was elicited on
            source = random_bba(rng, data.draw(st.sampled_from([before, now])), max_focal=3)
        swap = _pair_constraints(data, now) if data.draw(st.booleans()) else None
        stages.append(Stage(f"s{k}", added, source, swap))
    for rule in ("dsmh", "dsmc"):
        if rule == "dsmc":
            constraints = ()
            stages = [Stage(s.at, s.add_elements, s.add_source,
                            None if s.set_constraints is None else ()) for s in stages]
        history = list(run_session(frame, sources, stages, rule=rule, constraints=constraints))
        results, breakdowns = oracle_session(frame, sources, stages, rule, constraints)
        assert len(history) == len(results) == len(stages) + 1
        for rec, want in zip(history, results):
            assert_same_table(rec.result, want)
        if rule == "dsmc":
            assert all(rec.breakdown is None for rec in history) and not breakdowns
            continue
        assert len(history) == len(breakdowns)
        for rec, want in zip(history, breakdowns):
            for table in ("s1", "s2", "s3", "result"):
                assert_same_table(getattr(rec.breakdown, table), getattr(want, table))
            assert_mass_accounting(rec.breakdown)


def _spy(monkeypatch, name):
    """Record the arguments of each call to dynamic.<name>, then make the call."""
    calls = []
    real = getattr(dynamic, name)
    monkeypatch.setattr(dynamic, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_constraint_only_stage_keeps_the_tables(frame2, frame3, monkeypatch):
    """A constraint-only stage seals nothing: it folds the same focal tables under the new model.

    The session folds the classic rule (S1) once per source that changes
    its tables, and reads that S1 as it is on a constraint-only or
    grow-only stage, under `dsmh` and `dsmc` alike.
    """
    folds = _spy(monkeypatch, "_classic_fold")
    breakdowns = _spy(monkeypatch, "_hybrid_breakdown")  # (tables, model, s1)
    m3 = assignment(frame3, {"t3": 0.4, "t1&t3": 0.3, "t2|t3": 0.3})
    for rule, first, last in (("dsmh", ("t1&t2",), ("t3",)), ("dsmc", (), ())):
        stages = [Stage(at="t1", set_constraints=first), Stage(at="t2", add_elements=("t3",)),
                  Stage(at="t3", add_source=m3), Stage(at="t4", set_constraints=last)]
        folds.clear()
        breakdowns.clear()
        results = run_session(frame2, dyn12_sources(frame2), stages, rule=rule)
        assert len(folds) == 1
        history = [next(results), next(results)]
        if rule == "dsmh":  # dsmc reads S1 alone, so only dsmh hands the tables on
            assert breakdowns[1][0] is breakdowns[0][0]
        for count in (1, 2, 2):
            history.append(next(results))
            assert len(folds) == count
        want, _ = oracle_session(frame2, dyn12_sources(frame2), stages, rule)
        for rec, result in zip(history, want, strict=True):
            assert_same_table(rec.result, result)


def test_session_keeps_no_earlier_result(frame2, frame3):
    """Each stage's result is the caller's: once read and dropped, nothing in the session holds it."""
    m3 = assignment(frame3, {"t3": 0.4, "t1&t3": 0.3, "t2|t3": 0.3})
    results = run_session(frame2, dyn12_sources(frame2), [
        Stage(at="t1", add_elements=("t3",), add_source=m3),
        Stage(at="t2", set_constraints=("t3",)),
    ])
    t0 = weakref.ref(next(results))
    assert next(results).label == "t1"
    gc.collect()
    assert t0() is None
    assert [rec.label for rec in results] == ["t2"]


def test_suspended_session_holds_no_breakdown(frame2, frame3):
    """A stage read and dropped leaves no S1/S2/S3 breakdown alive while the session waits."""
    m3 = assignment(frame3, {"t3": 0.4, "t1&t3": 0.3, "t2|t3": 0.3})
    results = run_session(frame2, dyn12_sources(frame2), [
        Stage(at="t1", add_elements=("t3",), add_source=m3),
        Stage(at="t2", set_constraints=("t3",)),
    ])
    assert next(results).label == "t0"
    rec = next(results)
    assert rec.label == "t1"
    breakdown = weakref.ref(rec.breakdown)
    del rec
    gc.collect()
    assert breakdown() is None
    assert [rec.label for rec in results] == ["t2"]


def test_session_folds_later_stages_on_demand(frame2, monkeypatch):
    """run_session folds t0 at once, and takes and applies each later stage only when read."""
    folds = _spy(monkeypatch, "_classic_fold")
    breakdowns = _spy(monkeypatch, "_hybrid_breakdown")
    taken = []
    late = assignment(frame2, {"t1": 0.6, "t1|t2": 0.4})
    feed = (taken.append(stage.at) or stage for stage in
            [Stage(at="t1", set_constraints=("t1&t2",)), Stage(at="t2", add_source=late)])
    results = run_session(frame2, dyn12_sources(frame2), feed)
    assert (taken, len(folds), len(breakdowns)) == ([], 1, 1)
    assert next(results).label == "t0"
    assert (taken, len(folds), len(breakdowns)) == ([], 1, 1)
    assert next(results).label == "t1"
    assert (taken, len(folds), len(breakdowns)) == (["t1"], 1, 2)
    assert [rec.label for rec in results] == ["t2"]
    assert (taken, len(folds), len(breakdowns)) == (["t1", "t2"], 2, 3)


def test_constraints_are_parsed_once(frame2, monkeypatch):
    """A constraint set is parsed when it is set, not again at each later stage."""
    parsed = _spy(monkeypatch, "parse")
    stages = [Stage(at=f"t{i}") for i in range(1, 6)]
    results = list(run_session(frame2, dyn12_sources(frame2), stages, constraints=("t1&t2",)))
    assert len(results) == 6
    assert parsed == [(frame2, "t1&t2")]


def test_unknown_rule_raises_before_any_fold(frame2, monkeypatch):
    folds = _spy(monkeypatch, "_classic_fold")
    with pytest.raises(RuleNotApplicable, match="'yager'"):
        run_session(frame2, dyn12_sources(frame2), [], rule="yager")
    assert folds == []


def test_huge_integer_label():
    with pytest.raises(ScenarioError, match="too long"):
        dynamic.stages_from([{"at": 10**5000}], ("a", "b"), None)
