"""Constraint models: emptiness, reduction, survivors, matrices, compression."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from dsmfusion import (
    HybridModel,
    MassAssignment,
    Proposition,
    build_frame,
    build_model,
    compress,
    dsm_hybrid,
    empty,
    encoding_matrix,
    enumerate_hpset,
    from_generators,
    parse,
    shafer_model,
    singleton,
    survivors,
    to_expression,
)
from dsmfusion.errors import FrameMismatch, MassOnEmptyClass, NotAnElement, VacuousModel
from dsmfusion.lattice import _canonical_key
from dsmfusion.model import compression_report
from conftest import assignment, atom_labels, random_proposition


def model_for(frame, *exprs):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_model(frame, [parse(frame, e) for e in exprs])


class TestBuildModel:
    def test_single_top_constraint(self, frame3):
        m = model_for(frame3, "t1&t2&t3")
        assert atom_labels(3, m.empty_mask) == {"123"}

    def test_subset_implication(self, frame3):
        m = model_for(frame3, "t1&t2")
        empties = atom_labels(3, m.empty_mask)
        assert empties == {"12", "123"}
        assert m.phi(parse(frame3, "t1&t2&t3")) == 0

    def test_shafer_via_mixed_constraint(self, frame3):
        m = model_for(frame3, "((t1&t2)|t3)&(t1|t2)")
        empties = atom_labels(3, m.empty_mask)
        assert empties == {"12", "13", "23", "123"}

    def test_vacuous_rejected(self, frame3):
        with pytest.raises(VacuousModel):
            build_model(frame3, [parse(frame3, "t1|t2|t3")])

    def test_trivial_warns(self, frame3):
        with pytest.warns(UserWarning):
            build_model(frame3, [parse(frame3, "t1"), parse(frame3, "t2")])

    def test_no_constraints_is_free(self, frame3):
        m = build_model(frame3, [])
        assert m.is_free
        assert m.empty_mask == 0

    def test_no_constraints_never_warns(self):
        # one singleton leaves one atom, but no constraint removed anything
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for names in (["t1"], ["t1", "t2"]):
                frame = build_frame(names)
                assert build_model(frame, []).is_free


class TestPhi:
    def test_free_model(self, frame3):
        m = build_model(frame3, [])
        for p in enumerate_hpset(frame3):
            assert m.phi(p) == (0 if p.is_empty else 1)

    def test_m2(self, frame3):
        m = model_for(frame3, "t1&t2")
        assert m.phi(parse(frame3, "t1&t2")) == 0
        assert m.phi(parse(frame3, "t1&t3")) == 1

    def test_absolute_empty(self, frame3):
        assert build_model(frame3, []).phi(empty(frame3)) == 0

    def test_frame_mismatch(self, frame3, frame2):
        with pytest.raises(FrameMismatch):
            build_model(frame3, []).phi(singleton(frame2, 1))


class TestReduce:
    def test_m2_equivalences(self, frame3):
        m = model_for(frame3, "t1&t2")
        assert m.reduce(parse(frame3, "(t1|t3)&t2")) == parse(frame3, "t2&t3")
        assert m.reduce(parse(frame3, "(t2|t3)&t1")) == parse(frame3, "t1&t3")
        assert m.reduce(parse(frame3, "((t1&t2)|t3)&(t1|t2)")) == parse(frame3, "(t1|t2)&t3")
        assert m.reduce(parse(frame3, "(t1&t2)|t3")) == parse(frame3, "t3")

    def test_m5_non_existential(self, frame3):
        m = model_for(frame3, "t1")
        assert m.reduce(parse(frame3, "t1|t2")) == parse(frame3, "t2")

    def test_free_identity(self, frame3):
        m = build_model(frame3, [])
        for p in enumerate_hpset(frame3):
            assert m.reduce(p) == p

    def test_idempotent(self, frame3):
        rng = random.Random(7)
        m = model_for(frame3, "t1&t2")
        for _ in range(50):
            p = random_proposition(rng, frame3, allow_empty=True)
            assert m.reduce(m.reduce(p)) == m.reduce(p)

    def test_untouched_survivor(self, frame3):
        m = model_for(frame3, "t1&t2")
        p = parse(frame3, "t3")
        assert p.mask & m.empty_mask != 0  # t3 contains the 123 atom
        q = parse(frame3, "t1&t3")
        assert m.reduce(q) == q  # canonical member of its own class


class TestSurvivors:
    @pytest.mark.parametrize("exprs,count", [
        (("t1&t2",), 13),
        (("(t1|t3)&t2",), 10),
        (("((t1&t2)|t3)&(t1|t2)",), 8),
        (("t1",), 5),
        (("t1", "t2"), 2),
        (("(t1&t2)|t3",), 4),
    ])
    def test_reference_counts(self, frame3, exprs, count):
        assert len(survivors(model_for(frame3, *exprs))) == count

    def test_m1_count(self, frame3):
        assert len(survivors(model_for(frame3, "t1&t2&t3"))) == 18

    def test_classes_partition(self, frame3):
        m = model_for(frame3, "t1&t2")
        classes = survivors(m)
        members = [p for cls in classes for p in cls.members]
        assert sorted(members, key=lambda p: _canonical_key(p.mask)) == enumerate_hpset(frame3)
        for cls in classes:
            for member in cls.members:
                assert m.reduce(member) == cls.representative
        # n=5 under two constraints: the lattice grouped by surviving atoms, members in
        # canonical order, classes by their surviving atoms (count, then bitset)
        frame5 = build_frame([f"t{i}" for i in range(1, 6)])
        m5 = model_for(frame5, "(t1|t2)&t3", "t4&t5")
        groups = {}
        for p in enumerate_hpset(frame5):
            groups.setdefault(p.mask & m5.alive, []).append(p)
        classes = survivors(m5)
        assert [cls.representative.mask & m5.alive for cls in classes] == \
            sorted(groups, key=lambda r: (r.bit_count(), r))
        for cls in classes:
            assert list(cls.members) == groups[cls.representative.mask & m5.alive]
            assert cls.representative == m5.reduce(cls.members[0])
            assert len(cls) == len(cls.members)
        assert len(classes) == 344

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(1, 5))
    def test_representative_is_the_first_member(self, data, n):
        frame = build_frame([f"t{i}" for i in range(1, n + 1)])
        constraints = data.draw(st.lists(st.sets(st.integers(1, n), min_size=1), max_size=3))
        model = HybridModel(frame, from_generators(frame, constraints).mask)
        for cls in survivors(model):
            assert cls.representative == cls.members[0]
            assert cls.representative == model.reduce(cls.members[0])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_shafer_power_set_bijection(self, n):
        frame = build_frame([f"t{i}" for i in range(1, n + 1)])
        classes = survivors(shafer_model(frame))
        assert len(classes) == 2**n
        reps = {cls.representative for cls in classes}
        assert len(reps) == 2**n
        for rep in reps:
            assert all(len(g) == 1 for g in rep.generators)


class TestEncodingMatrix:
    def test_shafer_n3(self, frame3):
        model = model_for(frame3, "((t1&t2)|t3)&(t1|t2)")
        basis, matrix = encoding_matrix(model, survivors(model))
        assert basis == [(1,), (2,), (3,)]
        assert len(matrix) == 8
        assert sorted(tuple(r) for r in matrix) == sorted(
            [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
             (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)]
        )
        assert matrix[0] == [0, 0, 0]

    def test_m6(self, frame3):
        model = model_for(frame3, "t1", "t2")
        basis, matrix = encoding_matrix(model, survivors(model))
        assert basis == [(3,)]
        assert matrix == [[0], [1]]

    def test_m7(self, frame3):
        model = model_for(frame3, "(t1&t2)|t3")
        basis, matrix = encoding_matrix(model, survivors(model))
        assert basis == [(1,), (2,)]
        assert sorted(tuple(r) for r in matrix) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_m1_shape(self, frame3):
        model = model_for(frame3, "t1&t2&t3")
        basis, matrix = encoding_matrix(model, survivors(model))
        assert basis == [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]
        assert len(matrix) == 18
        assert len(set(map(tuple, matrix))) == 18
        # row for t1 under the canonical basis: atoms 1, 12, 13 survive
        t1_row_index = [i for i, cls in enumerate(survivors(model))
                        if cls.representative == parse(frame3, "t1")]
        assert matrix[t1_row_index[0]] == [1, 0, 0, 1, 1, 0]


class TestCompress:
    def test_free_identity(self, frame3):
        m = build_model(frame3, [])
        a = assignment(frame3, {"t1": 0.4, "t2&t3": 0.6})
        c = compress(m, a)
        assert c.items() == a.items()

    def test_reference_m4_class(self, frame3):
        model = model_for(frame3, "((t1&t2)|t3)&(t1|t2)")
        a = assignment(frame3, {"t3": 0.17, "(t1&t2)|t3": 0.07, "t1": 0.76})
        c = compress(model, a)
        assert c[parse(frame3, "t3")] == pytest.approx(0.24)

    def test_reference_m3_class(self, frame3):
        model = model_for(frame3, "(t1|t3)&t2")
        a = assignment(frame3, {
            "t1&t3": 0.12, "(t1|t2)&t3": 0.03, "(t2|t3)&t1": 0.02,
            "((t1&t2)|t3)&(t1|t2)": 0.0, "t2": 0.83,
        })
        c = compress(model, a)
        assert c[parse(frame3, "t1&t3")] == pytest.approx(0.17)

    def test_mass_on_empty_class(self, frame3):
        model = model_for(frame3, "t1&t2")
        a = assignment(frame3, {"t1&t2": 0.3, "t3": 0.7})
        with pytest.raises(MassOnEmptyClass):
            compress(model, a)

    def test_mass_on_empty_class_names_the_first_member(self, frame3):
        """The error names the model-empty member that comes first in canonical order."""
        model = model_for(frame3, "t1&t2")
        a = assignment(frame3, {"t1&t2": 0.2, "t1&t2&t3": 0.1, "t3": 0.7})
        with pytest.raises(MassOnEmptyClass, match=r"^mass 0\.1 on t1&t2&t3, which is empty under the model$"):
            compress(model, a)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 4))
    def test_totals_are_compression_reports(self, data, n):
        """compress gives exactly the totals compression_report lists, classes of many members included.

        Each drawn element is taken with variants that add model-empty atoms
        to it, which fall in its class.
        """
        frame = build_frame([f"t{i}" for i in range(1, n + 1)])
        digit_set = st.sets(st.integers(1, n), min_size=1)
        constraints = data.draw(st.lists(digit_set, min_size=1, max_size=3))
        model = HybridModel(frame, from_generators(frame, constraints).mask)
        assume(model.alive)
        masks = set()
        for gens in data.draw(st.lists(st.lists(digit_set, min_size=1, max_size=3), min_size=1, max_size=5)):
            mask = from_generators(frame, gens).mask
            if mask & model.alive:
                masks.add(mask)
                for extra in data.draw(st.lists(digit_set, max_size=3)):  # supersets of a constraint
                    dead = from_generators(frame, [extra | data.draw(st.sampled_from(constraints))])
                    masks.add(mask | dead.mask)
        if not masks:
            return
        weights = data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(masks), max_size=len(masks)))
        scale = sum(weights)
        m = MassAssignment._from_masks(frame, {mask: w / scale for mask, w in zip(sorted(masks), weights)})
        report = compression_report(model, m._masses)
        assert compress(model, m)._masses == {rep: total for rep, _, total in report}

    def test_total_preserved(self, frame3):
        rng = random.Random(13)
        model = model_for(frame3, "t1&t2")
        for _ in range(30):
            props = {}
            while len(props) < 4:
                q = random_proposition(rng, frame3)
                if model.phi(q) and q not in props:
                    props[q] = rng.random() + 0.01
            scale = sum(props.values())
            a = MassAssignment(frame3, {q: v / scale for q, v in props.items()})
            c = compress(model, a)
            assert abs(c.total - a.total) <= 1e-12


class TestConstraintClosureProperties:
    def test_monotonicity_and_union_closure(self):
        import warnings

        rng = random.Random(99)
        for n in (2, 3, 4):
            frame = build_frame([f"t{i}" for i in range(1, n + 1)])
            for _ in range(40):
                c = random_proposition(rng, frame)
                if c.mask == frame.full_mask:
                    continue
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    model = build_model(frame, [c])
                a = random_proposition(rng, frame, allow_empty=True)
                b = random_proposition(rng, frame, allow_empty=True)
                if model.phi(a) == 0:
                    for q in enumerate_hpset(frame):
                        if q.mask and q.mask & ~a.mask == 0:
                            assert model.phi(q) == 0
                if model.phi(a) == 0 and model.phi(b) == 0:
                    assert model.phi(a | b) == 0


class TestSixteenSingletons:
    """Parsing, checked construction and hybrid fusion at n=16, where a mask has 65535 atoms."""

    EXPRESSIONS = ["(t1&t2)|t16", "t3&(t4|t5)&t16", "((t1|t2)&(t3|t4))|(t5&t6&t7)",
                   "t8|t9|(t10&t11&t12&t13)"]

    @pytest.fixture(scope="class")
    def frame16(self):
        return build_frame([f"t{i}" for i in range(1, 17)])

    def test_parse_round_trip_and_checked_construction(self, frame16):
        for text in self.EXPRESSIONS:
            p = parse(frame16, text)
            assert parse(frame16, to_expression(p)) == p
            assert Proposition(frame16, p.mask) == p
        # the atom 12 alone, without 123 and the other atoms above it, is not up-closed
        t1t2 = parse(frame16, "t1&t2").mask
        with pytest.raises(NotAnElement):
            Proposition(frame16, t1t2 & -t1t2)

    def test_hybrid_fusion_and_compression(self, frame16):
        model = model_for(frame16, "t1&t2")
        m1 = assignment(frame16, {"t1": 0.4, "t2|t3": 0.35, "t16&t4": 0.25})
        m2 = assignment(frame16, {"t2": 0.5, "t1|t16": 0.3, "t3&t5": 0.2})
        result = dsm_hybrid([m1, m2], model).result
        assert result.total == pytest.approx(1.0, abs=1e-12)
        assert not any(model.is_empty(p) for p in result.keys())
        compressed = compress(model, result)
        assert compressed.total == pytest.approx(1.0, abs=1e-12)
        assert not any(model.is_empty(p) for p in compressed.keys())
