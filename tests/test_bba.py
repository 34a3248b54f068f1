"""Mass assignment validation, the vacuous element, belief and plausibility."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from dsmfusion import (
    MassAssignment,
    bel,
    build_frame,
    complement,
    dsm_classic,
    empty,
    parse,
    pl,
    singleton,
    total_ignorance,
    vacuous,
)
from dsmfusion.errors import (
    EmptySetMass,
    FrameMismatch,
    MassSumNotOne,
    NegativeMass,
    NotAnElement,
    NotPowerSetSupport,
)
from dsmfusion.lattice import _canonical_key
from conftest import SOURCE_A, SOURCE_B, assignment


class TestValidate:
    def test_reference_source_ok(self, frame3):
        assert assignment(frame3, SOURCE_A).validate()
        assert assignment(frame3, SOURCE_B).validate()

    def test_sum_not_one(self, frame3):
        with pytest.raises(MassSumNotOne) as exc:
            assignment(frame3, {"t1": 0.5})
        assert exc.value.actual == pytest.approx(0.5)

    def test_negative(self, frame3):
        # the second is negative by less than 1e-3 and still sums to one
        for masses in ({"t1": 1.5, "t2": -0.5}, {"t1": 1.0001, "t2": -0.0001}):
            with pytest.raises(NegativeMass):
                assignment(frame3, masses)

    def test_empty_set_mass(self, frame3):
        from dsmfusion import empty

        with pytest.raises(EmptySetMass):
            MassAssignment(frame3, {empty(frame3): 0.1, total_ignorance(frame3): 0.9})

    def test_empty_set_mass_smets_mode(self, frame3):
        from dsmfusion import empty

        m = MassAssignment(
            frame3, {empty(frame3): 0.1, total_ignorance(frame3): 0.9}, smets_mode=True
        )
        assert m[empty(frame3)] == 0.1

    def test_tolerance(self, frame3):
        assignment(frame3, {"t1": 0.5 + 4e-10, "t2": 0.5})  # inside 1e-9
        with pytest.raises(MassSumNotOne):
            assignment(frame3, {"t1": 0.5 + 1e-8, "t2": 0.5})

    def test_huge_masses(self, frame3):
        # each is finite, but their sum overflows a double
        with pytest.raises(MassSumNotOne):
            assignment(frame3, {"t1": 1e308, "t2": 1e308})

    @pytest.mark.parametrize("bad,error", [
        (float("nan"), MassSumNotOne),
        (float("inf"), MassSumNotOne),
        (float("-inf"), NegativeMass),
    ])
    def test_non_finite(self, frame3, bad, error):
        with pytest.raises(error):
            assignment(frame3, {"t1": bad, "t2": 1.0})
        with pytest.raises(error):
            assignment(frame3, {"t1": bad})

    @pytest.mark.parametrize("key", ["t1", None, 1])
    def test_key_not_a_proposition(self, frame3, key):
        with pytest.raises(NotAnElement):
            MassAssignment(frame3, {key: 1.0})

    def test_key_from_another_frame(self, frame2, frame3):
        with pytest.raises(FrameMismatch):
            MassAssignment(frame3, {singleton(frame2, 1): 1.0})


class TestVacuous:
    def test_n2_n3(self, frame2, frame3):
        assert vacuous(frame2)[parse(frame2, "t1|t2")] == 1.0
        assert vacuous(frame3)[parse(frame3, "t1|t2|t3")] == 1.0

    def test_neutral_element(self, frame3):
        m = assignment(frame3, SOURCE_A)
        combined = dsm_classic([m, vacuous(frame3)])
        for prop, value in m.items():
            assert combined[prop] == pytest.approx(value, abs=1e-15)
        assert len(combined.focal) == len(m.focal)


class TestBelPl:
    def test_bel_total(self, frame2):
        m = assignment(frame2, {"t1": 0.6, "t2": 0.4})
        assert bel(m, total_ignorance(frame2)) == pytest.approx(1.0)
        assert bel(m, parse(frame2, "t1")) == pytest.approx(0.6)

    def test_bel_reference_compressed_table(self, frame3):
        # exclusive-singleton combination of the reference sources, compressed
        m = assignment(frame3, {
            "t3": 0.24, "t2": 0.13, "t2|t3": 0.05, "t1": 0.18,
            "t1|t3": 0.17, "t1|t2": 0.11, "t1|t2|t3": 0.12,
        })
        assert bel(m, parse(frame3, "t1|t3")) == pytest.approx(0.18 + 0.24 + 0.17)

    def test_pl(self, frame2):
        m = assignment(frame2, {"t1": 0.6, "t2": 0.4})
        assert pl(m, total_ignorance(frame2)) == pytest.approx(1.0)
        assert pl(m, parse(frame2, "t1")) == pytest.approx(0.6)
        m2 = assignment(frame2, {"t1": 0.3, "t1|t2": 0.7})
        assert pl(m2, parse(frame2, "t2")) == pytest.approx(0.7)

    def test_not_power_set(self, frame3):
        m = assignment(frame3, {"t1&t2": 1.0})
        with pytest.raises(NotPowerSetSupport):
            bel(m, parse(frame3, "t1"))
        ok = assignment(frame3, {"t1": 1.0})
        with pytest.raises(NotPowerSetSupport):
            bel(ok, parse(frame3, "t1&t2"))

    def test_complement(self, frame3):
        assert complement(parse(frame3, "t1")) == parse(frame3, "t2|t3")
        assert complement(total_ignorance(frame3)).is_empty


@settings(max_examples=120)
@given(seed=st.integers(0, 10**9), n=st.integers(2, 4))
def test_bel_le_pl_and_complement_identity(seed, n):
    rng = random.Random(seed)
    frame = build_frame([f"t{i}" for i in range(1, n + 1)])
    subsets = st.sets(st.integers(1, n), min_size=1, max_size=n)
    # random power-set bba
    props = []
    while len(props) < rng.randint(1, 4):
        digits = rng.sample(range(1, n + 1), rng.randint(1, n))
        prop = None
        for d in digits:
            s = singleton(frame, d)
            prop = s if prop is None else (prop | s)
        if prop not in props:
            props.append(prop)
    raw = [rng.random() + 0.01 for _ in props]
    m = MassAssignment(frame, {q: w / sum(raw) for q, w in zip(props, raw)})
    digits = rng.sample(range(1, n + 1), rng.randint(1, n))
    a = None
    for d in digits:
        s = singleton(frame, d)
        a = s if a is None else (a | s)
    assert bel(m, a) <= pl(m, a) + 1e-12
    assert pl(m, a) == pytest.approx(1.0 - bel(m, complement(a)), abs=1e-12)


class TestMaskStore:
    def test_key_from_another_frame_reads_default(self, frame3):
        other = build_frame(("a", "b", "c"))  # same atom bitsets, different frame
        m = assignment(frame3, {"t1": 0.4, "t1|t2": 0.6})
        key = parse(other, "a")
        assert key.mask == parse(frame3, "t1").mask
        assert m.get(key, 7.0) == 7.0
        assert m[key] == 0.0
        assert m.get(parse(frame3, "t1"), 7.0) == 0.4

    def test_entries_in_canonical_order(self, frame3):
        m = assignment(frame3, {"t1|t2|t3": 0.2, "t1": 0.3, "t1&t2": 0.5})
        keys = [_canonical_key(p.mask) for p in m.keys()]
        assert keys == sorted(keys)
        assert m.focal == m.items()
        assert [v for _, v in m.items()] == [0.5, 0.3, 0.2]

    @pytest.mark.parametrize("masses,smets_mode,error", [
        # 64 is t1&t2&t3, 96 is t2&t3 and 127 total ignorance on frame3
        ({64: 1.5, 96: -0.5}, False, NegativeMass),
        ({64: float("nan")}, False, MassSumNotOne),
        ({64: 0.5}, False, MassSumNotOne),
        ({0: 0.1, 127: 0.9}, False, EmptySetMass),
    ])
    def test_trusted_constructor_validates(self, frame3, masses, smets_mode, error):
        with pytest.raises(error):
            MassAssignment._from_masks(frame3, masses, smets_mode)

    def test_trusted_constructor_open_world(self, frame3):
        m = MassAssignment._from_masks(frame3, {0: 0.1, 127: 0.8, 64: 0.1, 96: 0.0}, smets_mode=True)
        assert m[empty(frame3)] == 0.1
        assert len(m) == 3
