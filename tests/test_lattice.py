"""Lattice construction, enumeration, anti-absorption and algebraic laws."""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dsmfusion import (
    FRAME_LIMIT,
    HybridModel,
    Proposition,
    build_frame,
    empty,
    enumerate_hpset,
    from_generators,
    singleton,
    to_expression,
    total_ignorance,
    u_of,
)
from dsmfusion.errors import (
    DuplicateName,
    EmptyFrame,
    FrameMismatch,
    FrameTooLarge,
    IndexOutOfRange,
    InvalidIdentifier,
    NotAnElement,
)
from dsmfusion.lattice import (
    GENERATOR_CACHE_SIZE, _atom_bits, _canonical_key, _digit_masks, _digit_tuple, _generators, _up_mask)
from conftest import atom_digits, atom_labels, label


def brute_force_up_set_count(n):
    """Independent oracle: count up-closed subsets of the atom poset directly."""
    digit_sets = []
    for mask in range(1, 2**n):
        digit_sets.append(frozenset(i + 1 for i in range(n) if mask >> i & 1))
    atoms = sorted(digit_sets, key=lambda s: (len(s), sorted(s)))
    count = 0
    for subset in range(2 ** len(atoms)):
        chosen = [atoms[i] for i in range(len(atoms)) if subset >> i & 1]
        ok = True
        for s in chosen:
            for t in atoms:
                if s < t and t not in chosen:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def oracle_generator_positions(n, mask):
    """Independent oracle: scan every atom, keep those with no present proper subset."""
    atoms = atom_digits(n)
    present = [i for i in range(2**n - 1) if mask >> i & 1]
    digit_sets = {i: frozenset(atoms[i]) for i in present}
    return tuple(i for i in present
                 if not any(digit_sets[j] < digit_sets[i] for j in present if j != i))


class TestFrame:
    def test_build(self):
        f = build_frame(["t1", "t2", "t3"])
        assert f.n == 3
        assert f.names == ("t1", "t2", "t3")

    def test_empty_frame(self):
        with pytest.raises(EmptyFrame):
            build_frame([])

    def test_duplicate_name(self):
        with pytest.raises(DuplicateName):
            build_frame(["a", "a"])

    @pytest.mark.parametrize("bad", ["1abc", "", "a b", "x-y"])
    def test_invalid_identifier(self, bad):
        with pytest.raises(InvalidIdentifier):
            build_frame(["ok", bad])

    @pytest.mark.parametrize("names", ["ab", "t1"])
    def test_string_is_not_a_sequence_of_names(self, names):
        # "ab" was read as the frame (a, b), and "t1" refused as the name '1'
        with pytest.raises(InvalidIdentifier, match=f"not the string {names!r}"):
            build_frame(names)

    def test_empty_is_no_singleton_name(self):
        # "EMPTY" names the empty set in mass keys and printed tables
        with pytest.raises(InvalidIdentifier):
            build_frame(["EMPTY", "b"])
        assert build_frame(["EMPTY1", "Empty", "b"]).n == 3

    def test_frame_limit(self):
        assert FRAME_LIMIT == 18
        assert build_frame([f"t{i}" for i in range(1, 19)]).n == 18
        with pytest.raises(FrameTooLarge):
            build_frame([f"t{i}" for i in range(1, 20)])


def decoded_atoms(n):
    """The atom order as the library stores it, decoded to digit tuples."""
    return [_digit_tuple(bits) for bits in _atom_bits(n)]


class TestAtoms:
    def test_universe_n3(self, frame3):
        labels = [label(digits) for digits in decoded_atoms(frame3.n)]
        assert labels == ["1", "2", "3", "12", "13", "23", "123"]

    def test_universe_n1(self):
        f = build_frame(["only"])
        assert [label(digits) for digits in decoded_atoms(f.n)] == ["1"]

    def test_universe_n4_count(self):
        f = build_frame(["a", "b", "c", "d"])
        assert len(_atom_bits(f.n)) == f.atom_count == 15

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    def test_digit_masks(self, n):
        atoms = atom_digits(n)
        assert decoded_atoms(n) == atoms
        assert _atom_bits(n) == tuple(sum(1 << (d - 1) for d in a) for a in atoms)
        assert _digit_masks(n) == tuple(
            sum(1 << pos for pos, a in enumerate(atoms) if d in a) for d in range(1, n + 1))


class TestBasicOps:
    def test_singleton_upclosure(self, frame3):
        s1 = singleton(frame3, 1)
        assert atom_labels(3, s1.mask) == {"1", "12", "13", "123"}

    def test_singleton_n1(self):
        f = build_frame(["x"])
        assert atom_labels(1, singleton(f, 1).mask) == {"1"}

    def test_singleton_n2(self):
        f = build_frame(["a", "b"])
        assert atom_labels(2, singleton(f, 2).mask) == {"2", "12"}

    def test_singleton_out_of_range(self, frame3):
        with pytest.raises(IndexOutOfRange):
            singleton(frame3, 4)
        with pytest.raises(IndexOutOfRange):
            singleton(frame3, 0)

    def test_conjoin(self, frame3):
        t1, t2 = singleton(frame3, 1), singleton(frame3, 2)
        assert atom_labels(3, (t1 & t2).mask) == {"12", "123"}

    def test_conjoin_idempotent_annihilator(self, frame3):
        t1 = singleton(frame3, 1)
        assert t1 & t1 == t1
        assert t1 & empty(frame3) == empty(frame3)

    def test_disjoin(self, frame3):
        t1, t2 = singleton(frame3, 1), singleton(frame3, 2)
        assert atom_labels(3, (t1 | t2).mask) == {"1", "2", "12", "13", "23", "123"}

    def test_disjoin_identity_absorption(self, frame3):
        t1, t2 = singleton(frame3, 1), singleton(frame3, 2)
        assert t1 | empty(frame3) == t1
        assert t1 | (t1 & t2) == t1

    def test_leq(self, frame3):
        t1, t2, t3 = (singleton(frame3, i) for i in (1, 2, 3))
        assert t1 & t2 & t3 <= t1 & t2
        assert empty(frame3) <= t1
        f2 = build_frame(["t1", "t2"])
        a, b = singleton(f2, 1), singleton(f2, 2)
        assert not a <= b

    def test_frame_mismatch(self, frame3, frame2):
        with pytest.raises(FrameMismatch):
            singleton(frame3, 1) & singleton(frame2, 1)

    def test_total_ignorance(self, frame3):
        assert total_ignorance(frame3).mask.bit_count() == 7
        f1 = build_frame(["x"])
        assert total_ignorance(f1) == singleton(f1, 1)
        f2 = build_frame(["a", "b"])
        assert total_ignorance(f2) == singleton(f2, 1) | singleton(f2, 2)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 2), (2, 5), (3, 19), (4, 167), (5, 7580)])
    def test_reference_counts(self, n, count):
        f = build_frame([f"t{i}" for i in range(1, n + 1)])
        assert len(enumerate_hpset(f)) == count

    def test_count_matches_brute_force_oracle(self):
        # Counts frozen from the independent enumerator: 167 for n=4.
        assert brute_force_up_set_count(4) == 167
        f = build_frame(["a", "b", "c", "d"])
        assert len(enumerate_hpset(f)) == 167

    def test_oracle_agrees_small(self):
        for n in (1, 2, 3):
            f = build_frame([f"t{i}" for i in range(1, n + 1)])
            assert len(enumerate_hpset(f)) == brute_force_up_set_count(n)

    def test_no_duplicates_and_deterministic(self, frame3):
        hp = enumerate_hpset(frame3)
        assert len(set(hp)) == len(hp)
        assert hp == enumerate_hpset(frame3)
        keys = [_canonical_key(p.mask) for p in hp]
        assert keys == sorted(keys)

    def test_too_large(self):
        f = build_frame([f"t{i}" for i in range(1, 7)])
        with pytest.raises(FrameTooLarge):
            enumerate_hpset(f)

    def test_n2_elements(self):
        f = build_frame(["t1", "t2"])
        exprs = {to_expression(p) for p in enumerate_hpset(f)}
        assert exprs == {"EMPTY", "t1&t2", "t1", "t2", "t1|t2"}

    def test_upclosure_invariant(self):
        f = build_frame(["a", "b", "c", "d"])
        atoms = atom_digits(f.n)
        for prop in enumerate_hpset(f):
            present = {a for i, a in enumerate(atoms) if prop.mask >> i & 1}
            for a in present:
                for b in atoms:
                    if set(a) < set(b):
                        assert b in present


class TestAntiAbsorption:
    def test_minimal_single_chain(self, frame3):
        x = from_generators(frame3, [(3,), (1, 3), (2, 3), (1, 2, 3)])
        assert x.generators == ((3,),)
        assert to_expression(u_of(x)) == "t3"

    def test_minimal_incomparable(self, frame3):
        x = from_generators(frame3, [(1, 3), (2, 3), (1, 2, 3)])
        assert x.generators == ((1, 3), (2, 3))
        assert u_of(x) == total_ignorance(frame3)

    def test_minimal_top(self, frame3):
        x = from_generators(frame3, [(1, 2, 3)])
        assert x.generators == ((1, 2, 3),)

    def test_u_meet_join_agree(self, frame3):
        t1, t2 = singleton(frame3, 1), singleton(frame3, 2)
        both = t1 | t2
        assert u_of(t1 & t2) == both
        assert u_of(both) == both

    def test_u_of_empty(self, frame3):
        assert u_of(empty(frame3)) == empty(frame3)

    def test_u_23_123(self, frame3):
        x = from_generators(frame3, [(2, 3)])
        assert atom_labels(3, x.mask) == {"23", "123"}
        assert to_expression(u_of(x)) == "t2|t3"

    def test_u_chain_example(self, frame3):
        x = from_generators(frame3, [(1,)])
        assert atom_labels(3, x.mask) == {"1", "12", "13", "123"}
        # adding 23 gives atoms {1,12,13,23,123}: minimal parts {1},{23}
        y = x | from_generators(frame3, [(2, 3)])
        assert u_of(y) == total_ignorance(frame3)

    def test_u_idempotent_extensive_enumerated(self, frame3):
        for prop in enumerate_hpset(frame3):
            u = u_of(prop)
            assert u_of(u) == u
            assert prop <= u

    def test_minimal_parts_reconstruct(self, frame3):
        for prop in enumerate_hpset(frame3):
            digit_sets = [set(g) for g in prop.generators]
            for i, a in enumerate(digit_sets):
                for j, b in enumerate(digit_sets):
                    if i != j:
                        assert not a < b and not b < a
            assert from_generators(frame3, prop.generators) == prop


class TestExpressions:
    def test_mixed_term(self, frame3):
        p = from_generators(frame3, [(1, 2), (3,)])
        assert to_expression(p) == "(t1&t2)|t3"

    def test_single_generator(self, frame3):
        assert to_expression(singleton(frame3, 1)) == "t1"
        assert to_expression(singleton(frame3, 1) & singleton(frame3, 2)) == "t1&t2"

    def test_empty(self, frame3):
        assert to_expression(empty(frame3)) == "EMPTY"


# --- algebraic laws over random propositions (n <= 4) ---

def _props(n):
    frame = build_frame([f"t{i}" for i in range(1, n + 1)])
    gen = st.lists(
        st.sets(st.integers(1, n), min_size=1, max_size=n).map(tuple),
        min_size=0, max_size=3,
    ).map(lambda gs: from_generators(frame, gs))
    return gen


@settings(max_examples=150)
@given(data=st.data(), n=st.integers(2, 4))
def test_lattice_laws(data, n):
    props = _props(n)
    p = data.draw(props)
    q = data.draw(props)
    r = data.draw(props)
    assert p & q == q & p
    assert p | q == q | p
    assert (p & q) & r == p & (q & r)
    assert (p | q) | r == p | (q | r)
    assert p | (p & q) == p
    assert p & (p | q) == p
    assert p & (q | r) == (p & q) | (p & r)


@settings(max_examples=150)
@given(data=st.data(), n=st.integers(2, 4))
def test_canonical_uniqueness_and_u_props(data, n):
    props = _props(n)
    p = data.draw(props)
    q = data.draw(props)
    assert (p == q) == (p.mask == q.mask)
    u = u_of(p)
    assert u_of(u) == u
    assert p <= u


def _up_closed(frame):
    """Random up-closed atom bitsets, as the up-closure of random digit sets."""
    n = frame.n
    return st.lists(st.sets(st.integers(1, n), min_size=1), max_size=4).map(
        lambda gs: from_generators(frame, gs).mask)


@settings(max_examples=200)
@given(data=st.data(), n=st.integers(1, 6))
def test_generator_extraction_matches_oracle(data, n):
    frame = build_frame([f"t{i}" for i in range(1, n + 1)])
    p = data.draw(_up_closed(frame))
    e = data.draw(_up_closed(frame))
    survivors = p & ~e
    atoms = atom_digits(n)

    def oracle_digit_bitsets(mask):
        return [sum(1 << (d - 1) for d in atoms[i]) for i in oracle_generator_positions(n, mask)]

    assert _generators(n, p) == oracle_digit_bitsets(p)
    assert _generators(n, survivors) == oracle_digit_bitsets(survivors)
    digits = {d for i in oracle_generator_positions(n, p) for d in atoms[i]}
    assert u_of(Proposition(frame, p)) == from_generators(frame, [(d,) for d in digits])
    model = HybridModel(frame, e)
    representative = from_generators(
        frame, [atoms[i] for i in oracle_generator_positions(n, survivors)])
    assert model.reduce(Proposition(frame, p)) == representative
    if n <= 5:
        # any atom set, convex or not
        mask = sum(1 << i for i in data.draw(st.sets(st.integers(0, frame.atom_count - 1))))
        assert _generators(n, mask) == oracle_digit_bitsets(mask)
    assert _up_mask.cache_info().maxsize == GENERATOR_CACHE_SIZE


@settings(max_examples=100)
@given(data=st.data(), n=st.integers(8, 12))
def test_wide_frame_antichain_round_trip(data, n):
    """from_generators then .generators gives back a random antichain at n=8..12."""
    frame = build_frame([f"t{i}" for i in range(1, n + 1)])
    digit_set = st.frozensets(st.integers(1, n), min_size=1)
    candidates = data.draw(st.lists(digit_set, min_size=1, max_size=4))
    antichain = {g for g in candidates if not any(h < g for h in candidates)}
    p = from_generators(frame, antichain)
    gens = p.generators
    assert set(map(frozenset, gens)) == antichain
    assert len(gens) == len(antichain)
    # reference printer: largest generator first, then lexicographic
    ordered = sorted(gens, key=lambda g: (-len(g), g))
    terms = ["&".join(frame.names[d - 1] for d in g) for g in ordered]
    if len(terms) > 1:
        terms = [f"({t})" if "&" in t else t for t in terms]
    assert to_expression(p) == "|".join(terms)
    assert list(gens) == sorted(gens, key=lambda g: (len(g), g))


def reference_expression(p):
    """to_expression spelled out from `p.generators`, sorted by length in reverse (a stable sort)."""
    if p.is_empty:
        return "EMPTY"
    gens = sorted(p.generators, key=len, reverse=True)
    terms = ["&".join(p.frame.names[d - 1] for d in g) for g in gens]
    if len(gens) > 1:
        terms = [f"({term})" if len(g) > 1 else term for g, term in zip(gens, terms)]
    return "|".join(terms)


def test_to_expression_matches_reference_on_every_n5_element():
    names = ["t4", "t1", "t5", "t3", "t2"]  # shuffled: names and digits in different orders
    frame = build_frame(names)
    elements = enumerate_hpset(frame)
    assert len(elements) == 7580
    for _ in range(2):  # the frame's terms filled, then read back
        for p in elements:
            assert to_expression(p) == reference_expression(p)


@settings(max_examples=150)
@given(data=st.data(), n=st.integers(8, 12))
def test_to_expression_matches_reference_on_wide_frames(data, n):
    frame = build_frame(data.draw(st.permutations([f"t{i}" for i in range(1, n + 1)])))
    digit_sets = st.lists(st.sets(st.integers(1, n), min_size=1), max_size=6)
    p = from_generators(frame, data.draw(digit_sets))
    assert to_expression(p) == reference_expression(p)
    assert to_expression(p) == reference_expression(p)  # from the frame's terms


class TestCheckedConstruction:
    def test_not_up_closed_raises(self, frame3):
        # atoms 1 and 123 without 12 and 13: once printed as (t1&t2&t3)|t1
        with pytest.raises(NotAnElement):
            Proposition(frame3, 1 | 1 << 6)

    @pytest.mark.parametrize("mask", [-1, 2**7, 2**7 + 1])
    def test_out_of_range_raises(self, frame3, mask):
        with pytest.raises(NotAnElement):
            Proposition(frame3, mask)

    def test_elements_build(self, frame3):
        for p in enumerate_hpset(frame3):
            assert Proposition(frame3, p.mask) == p


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 4))
def test_checked_construction_round_trips(data, n):
    frame = build_frame([f"t{i}" for i in range(1, n + 1)])
    full = frame.full_mask
    subsets = st.lists(st.sets(st.integers(1, n), min_size=1), max_size=3)
    mask = data.draw(st.one_of(
        st.integers(-2, full + 2),
        subsets.map(lambda gens: from_generators(frame, gens).mask),
    ))
    try:
        p = Proposition(frame, mask)
    except NotAnElement:
        return
    assert from_generators(frame, p.generators) == p
    assert from_generators(frame, p.generators).mask == mask


def test_readme_library_example():
    """The README's python block runs, and the two outputs it states hold."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(block, scope)
    p, frame = scope["p"], scope["frame"]
    assert p.generators == ((3,), (1, 2))
    assert from_generators(frame, p.generators) == p
