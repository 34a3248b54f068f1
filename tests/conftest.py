import random
from math import fsum

import pytest

from dsmfusion import MassAssignment, build_frame, from_generators, parse


@pytest.fixture
def frame3():
    return build_frame(("t1", "t2", "t3"))


@pytest.fixture
def frame2():
    return build_frame(("t1", "t2"))


def atom_digits(n):
    """Every atom's digit tuple in canonical order (size, then digits), built independently."""
    subsets = (tuple(d for d in range(1, n + 1) if b >> (d - 1) & 1) for b in range(1, 2**n))
    return sorted(subsets, key=lambda digits: (len(digits), digits))


def label(digits):
    """Digit codification of an atom: (1, 3) -> "13"."""
    return "".join(map(str, digits))


def atom_labels(n, mask):
    """Labels of the atoms in an atom bitset."""
    return {label(digits) for i, digits in enumerate(atom_digits(n)) if mask >> i & 1}


def p(frame, text):
    return parse(frame, text)


def assignment(frame, table):
    return MassAssignment(frame, {parse(frame, k): v for k, v in table.items()})


def random_proposition(rng: random.Random, frame, allow_empty=False):
    """Up-closure of one to three random non-empty digit subsets."""
    if allow_empty and rng.random() < 0.1:
        return from_generators(frame, [])
    k = rng.randint(1, 3)
    gens = []
    for _ in range(k):
        size = rng.randint(1, frame.n)
        gens.append(tuple(rng.sample(range(1, frame.n + 1), size)))
    return from_generators(frame, gens)


def random_bba(rng: random.Random, frame, max_focal=4):
    """Random assignment over distinct random propositions, normalized to 1."""
    n_focal = rng.randint(1, max_focal)
    props = []
    while len(props) < n_focal:
        q = random_proposition(rng, frame)
        if q not in props:
            props.append(q)
    raw = [rng.random() + 0.05 for _ in props]
    scale = 1.0 / sum(raw)
    return MassAssignment(frame, {q: w * scale for q, w in zip(props, raw)})


def assert_mass_accounting(bd):
    """A hybrid breakdown's two mass-accounting identities, within 1e-12.

    Conflict, the S1 mass on model-empty keys, equals S2's total plus S3's
    mass on surviving keys; S3's mass on model-empty keys equals S2's total.
    """
    def mass(table, empty):
        return fsum(v for q, v in table.items() if bd.model.is_empty(q) is empty)

    s2 = fsum(bd.s2.values())
    assert abs(mass(bd.s1, True) - (s2 + mass(bd.s3, False))) <= 1e-12
    assert abs(mass(bd.s3, True) - s2) <= 1e-12


# Fixed two-source tables on n=3 used across rule tests (reference inputs).
SOURCE_A = {"t1&t3": 0.10, "t3": 0.30, "t1&t2": 0.10, "t2": 0.20,
            "t1": 0.10, "t1|t3": 0.10, "t1|t2": 0.10}
SOURCE_B = {"t2&t3": 0.20, "t3": 0.10, "t1&t2": 0.20, "t2": 0.10,
            "t1": 0.20, "t1|t3": 0.20}
