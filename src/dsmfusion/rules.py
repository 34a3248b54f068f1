"""Combination rules: DSm classic and hybrid, plus the DST family.

Every rule reads conjunctive folds over the sources' focal sets.  A tuple
of focal elements matters only through its product mass and a few
associative masks, which a fold packs into one integer state.  A rule
turns every focal set into a row (a, o, value); the fold takes the sources
one at a time, steps each state s to s & a | o with mass times value, and
sums the mass reaching each state exactly (`fsum`).  Its work tracks the
distinct states rather than the number of tuples; `FOLD_LIMIT` bounds it.

The hybrid rule m(A) = φ(A)[S1(A) + S2(A) + S3(A)] runs one fold per term,
each holding only what the term reads (w is the frame's atom count):

  * S1, the classic rule (also `dsm_classic`, the mixture and session
    seals): the free-lattice intersection (meet), an atom bitset;
  * S3: the meet on the model's surviving atoms | the free-lattice union
    (join) << w; the last step keeps only the products whose surviving
    meet is 0 and books them straight on their join;
  * S2: the union of u() over model-empty focal sets only, as a digit
    bitset (n bits), so it runs only when every source has one.  It books
    on that union of singletons, or on total ignorance when that is empty.

S1 is folded once and handed to S2 and S3, which read only tuples whose
meet is empty under the model: when no S1 key is, neither of them runs.
The DST rules are the classic fold on Shafer's surviving atoms, the
singleton atoms (the low n bits), and Dubois-Prade is the hybrid rule
under Shafer's model, compressed to the power set: it books each
conflicting tuple on its union.  Every rule takes a sequence of two or
more sources.

The three tables keep their entries on model-empty rows, so a breakdown
can show where constrained mass sat before the transfer; the final mass
gates every row by the characteristic emptiness function, in one pass over
the three tables, which removes the overlap between the sums and makes the
result add to one without any normalization.  Tables and results are keyed
by atom bitset; Propositions are built where a caller reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import fsum, isfinite, prod
from numbers import Real
from typing import Collection, Iterable, Mapping, Sequence

from .bba import SUM_TOLERANCE, MassAssignment, is_power_set_element, require_power_set
from .errors import (
    CombinationTooLarge,
    FewerThanTwoSources,
    FrameMismatch,
    FullContradiction,
    NotAnElement,
    NotPowerSetSupport,
    ProbabilitiesNotNormalized,
    WeightsNotNormalized,
)
from .lattice import (FOLD_LIMIT, Frame, Proposition, _proposition, _singletons_union, _u_digits,
                      total_ignorance)
from .model import HybridModel, compress, shafer_model

#: CLI rule-selection strings.
RULE_NAMES = ("dsmc", "dsmh", "dempster", "yager", "smets", "dubois-prade", "mixture")


def _common_frame(ms: Sequence[MassAssignment]) -> Frame:
    if isinstance(ms, MassAssignment):  # its len() counts focal sets
        raise FewerThanTwoSources("expected a sequence of sources, got one MassAssignment")
    if len(ms) < 2:
        raise FewerThanTwoSources(f"need at least 2 sources, got {len(ms)}")
    frame = ms[0].frame
    for m in ms[1:]:
        if m.frame != frame:
            raise FrameMismatch("sources live on different frames")
    return frame


def _fsums(table: dict) -> dict:
    return dict(zip(table, map(fsum, table.values())))


def _total(tables: Iterable[Mapping[int, float]]) -> float:
    """The total a conjunctive fold of focal tables implies: the product of their totals."""
    return prod(fsum(t.values()) for t in tables)


def _check_step(states: dict, rows, bits: int) -> None:
    if len(states) * len(rows) * bits > FOLD_LIMIT:
        raise CombinationTooLarge(
            f"a fold step of {len(states)} states x {len(rows)} focal sets x {bits} bits "
            f"exceeds FOLD_LIMIT = {FOLD_LIMIT}")


def _fold(start: int, sources: Iterable[list[tuple[int, int, float]]], bits: int) -> dict[int, float]:
    """Fold sources of (a, o, value) rows into states: s becomes s & a | o, mass summed exactly.

    A step of states x rows x `bits` (the states' width) past FOLD_LIMIT is refused (`_check_step`).
    """
    states = {start: 1.0}
    for rows in sources:
        _check_step(states, rows, bits)
        step: dict[int, list[float]] = {}
        for state, mass in states.items():
            for a, o, value in rows:
                step.setdefault(state & a | o, []).append(mass * value)
        states = _fsums(step)
    return states


def _classic_fold(tables: Sequence[Mapping[int, float]], alive: int) -> dict[int, float]:
    """The classic rule on focal tables keyed by atom bitset: each tuple's mass on its meet & alive."""
    return _fold(alive, ([(mask, 0, v) for mask, v in t.items()] for t in tables), alive.bit_length())


def dsm_classic(ms: Sequence[MassAssignment]) -> MassAssignment:
    """Conjunctive combination on the free lattice; no normalization needed.

    Iterates over focal sets only.  Commutative and associative.
    """
    frame = _common_frame(ms)
    tables = [m._masses for m in ms]
    states = _classic_fold(tables, frame.full_mask)
    return MassAssignment._from_masks(frame, states, any(m.smets_mode for m in ms), _total(tables))


@dataclass(frozen=True)
class HybridBreakdown:
    """Hybrid-rule output with the three transfer tables kept separate.

    The tables are kept by atom bitset; `s1`, `s2` and `s3` build their
    Proposition-keyed maps on first read.
    """

    model: HybridModel
    result: MassAssignment
    _tables: tuple  # S1, S2, S3 by atom bitset

    def _table(self, i: int) -> dict[Proposition, float]:
        frame = self.model.frame
        return {_proposition(frame, mask): v for mask, v in self._tables[i].items()}

    s1 = cached_property(lambda self: self._table(0))
    s2 = cached_property(lambda self: self._table(1))
    s3 = cached_property(lambda self: self._table(2))


def _hybrid_tables(tables: Sequence[Mapping[int, float]], model: HybridModel,
                   s1: dict) -> tuple[dict, dict, dict]:
    """S1, S2 and S3 of focal tables keyed by atom bitset of the model's frame, given their S1."""
    frame = model.frame
    n, w, full, alive = frame.n, frame.atom_count, frame.full_mask, model.alive
    if all(mask & alive for mask in s1):
        return s1, {}, {}
    keep = full << w
    *head, last = tables
    states = _fold(alive, ([(mask | keep, mask << w, v) for mask, v in t.items()] for t in head), 2 * w)
    _check_step(states, last, 2 * w)
    s3: dict[int, list[float]] = {}
    dying: dict[int, list] = {}  # per surviving meet, the last rows that leave it no atom
    for state, mass in states.items():
        meet, join = state & full, state >> w
        if (rows := dying.get(meet)) is None:
            rows = dying[meet] = [(mask, v) for mask, v in last.items() if not meet & mask]
        for mask, v in rows:
            s3.setdefault(join | mask, []).append(mass * v)
    dead = [[(mask, v) for mask, v in t.items() if not mask & alive] for t in tables]
    s2: dict[int, list[float]] = {}
    if all(dead):
        low = (1 << n) - 1
        unions = _fold(0, ([(low, _u_digits(n, mask), v) for mask, v in rows] for rows in dead), n)
        for digits, mass in unions.items():
            target = _singletons_union(n, digits)
            s2.setdefault(target if target & alive else full, []).append(mass)
    return s1, _fsums(s2), _fsums(s3)


def _gate(model: HybridModel, tables: tuple[dict, dict, dict]) -> dict[int, float]:
    """The hybrid result: the sum of S1, S2 and S3 on every key not empty under the model."""
    alive = model.alive
    sums: dict[int, list[float]] = {}
    for table in tables:
        for mask, value in table.items():
            if mask & alive:
                sums.setdefault(mask, []).append(value)
    return _fsums(sums)


def _hybrid_breakdown(tables: Sequence[Mapping[int, float]], model: HybridModel,
                      s1: dict) -> HybridBreakdown:
    """The hybrid rule on focal tables keyed by atom bitset of the model's frame, given their S1."""
    parts = _hybrid_tables(tables, model, s1)
    result = MassAssignment._from_masks(model.frame, _gate(model, parts), total=_total(tables))
    return HybridBreakdown(model, result, parts)


def dsm_hybrid(ms: Sequence[MassAssignment], model: HybridModel) -> HybridBreakdown:
    """Combine under a constraint model, transferring empty-set mass.

    Works on the free lattice throughout; reduction to surviving classes is
    a separate step (see model.compress).
    """
    frame = _common_frame(ms)
    if model.frame != frame:
        raise FrameMismatch("model frame differs from the sources' frame")
    tables = [m._masses for m in ms]
    return _hybrid_breakdown(tables, model, _classic_fold(tables, frame.full_mask))


def _power_set_frame(ms: Sequence[MassAssignment]) -> Frame:
    """The sources' common frame, once every focal set is a union of singletons."""
    frame = _common_frame(ms)
    for m in ms:
        require_power_set(m)
    return frame


def _conjunctive_power_set(ms: Sequence[MassAssignment]) -> tuple[Frame, dict, float]:
    """The classic fold on Shafer's singleton atoms, the low n bits: the AND of the digit sets.

    Returns the sources' frame, the non-conflicting masses by atom bitset and the conflict.
    """
    frame = _power_set_frame(ms)
    n = frame.n
    states = _classic_fold([m._masses for m in ms], (1 << n) - 1)
    conflict = states.pop(0, 0.0)
    return frame, {_singletons_union(n, digits): mass for digits, mass in states.items()}, conflict


def dempster(ms: Sequence[MassAssignment]) -> tuple[MassAssignment, float]:
    """Normalized orthogonal sum of all the sources.

    Returns the combined assignment and the total degree of conflict (the
    conjunctive mass on EMPTY).  Raises FullContradiction when the conflict
    reaches 1 and the sum is undefined.
    """
    frame, combined, conflict = _conjunctive_power_set(ms)
    # Normalize by the surviving mass rather than 1 - conflict; the two
    # agree exactly but the former avoids cancellation near conflict 1.
    surviving = fsum(combined.values())
    if surviving <= 0.0 or conflict >= 1.0:
        raise FullContradiction("degree of conflict is 1; orthogonal sum undefined")
    normalized = {mask: v / surviving for mask, v in combined.items()}
    return MassAssignment._from_masks(frame, normalized), 1.0 - surviving


def _check_distribution(values: Collection, error: type[Exception], noun: str, nouns: str) -> None:
    """Refuse values that are not finite non-negative reals (booleans included) or do not sum to 1."""
    for w in values:
        if isinstance(w, bool) or not (isinstance(w, Real) and isfinite(w)):
            raise error(f"{noun} {w!r} is not a finite number")
        if w < 0:
            raise error(f"negative {noun} {w!r}")
    total = fsum(values)
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise error(f"{nouns} sum to {total!r}, expected 1")


def lefevre_combine(ms: Sequence[MassAssignment], weights: Mapping[Proposition, float]) -> MassAssignment:
    """Conjunctive combination of the sources with weighted redistribution of the conflict.

    The weights map subsets of the frame (EMPTY allowed) to coefficients
    summing to one; each A receives w(A) times the conflict, and w(EMPTY)
    keeps that share on EMPTY (open-world).  A key that is not a Proposition
    raises NotAnElement, one that is not a union of singletons
    NotPowerSetSupport, and a weight that is not a finite non-negative real
    number WeightsNotNormalized.
    """
    for prop in weights:
        if not isinstance(prop, Proposition):
            raise NotAnElement(f"weight key {prop!r} is not a Proposition")
        if not is_power_set_element(prop):
            raise NotPowerSetSupport(f"weight key {prop} is not a union of singletons")
    _check_distribution(weights.values(), WeightsNotNormalized, "weight", "weights")
    frame, out, conflict = _conjunctive_power_set(ms)
    empty_share = 0.0
    for prop, w in weights.items():
        if prop.frame != frame:
            raise FrameMismatch("weight key is not on the sources' frame")
        if prop.is_empty:
            empty_share += w * conflict
        elif w != 0.0:
            out[prop.mask] = out.get(prop.mask, 0.0) + w * conflict
    if empty_share:
        out[0] = empty_share
    return MassAssignment._from_masks(frame, out, empty_share > 0.0, _total(m._masses for m in ms))


def yager(ms: Sequence[MassAssignment]) -> MassAssignment:
    """All conflict goes to total ignorance."""
    return lefevre_combine(ms, {total_ignorance(_common_frame(ms)): 1.0})


def smets(ms: Sequence[MassAssignment]) -> MassAssignment:
    """All conflict stays on EMPTY (open world)."""
    return lefevre_combine(ms, {_proposition(_common_frame(ms), 0): 1.0})


def dubois_prade(ms: Sequence[MassAssignment]) -> MassAssignment:
    """Each conflicting product moves to the union of the focal sets that caused it.

    This is the hybrid rule under Shafer's model, compressed to the power
    set: S3 books a conflicting tuple on its union, and S2 moves the product
    of masses on EMPTY, one from every source, to total ignorance.
    """
    model = shafer_model(_power_set_frame(ms))
    return compress(model, dsm_hybrid(ms, model).result)


@dataclass(frozen=True)
class MixtureSpec:
    """Exclusive, exhaustive candidate models with prior probabilities."""

    entries: tuple[tuple[HybridModel, float], ...]

    def __post_init__(self):
        if not self.entries:
            raise ProbabilitiesNotNormalized("mixture needs at least one entry")
        frame = self.entries[0][0].frame
        if any(model.frame != frame for model, _ in self.entries):
            raise FrameMismatch("mixture models live on different frames")
        _check_distribution([p for _, p in self.entries], ProbabilitiesNotNormalized,
                            "probability", "probabilities")


def bayesian_mixture(ms: Sequence[MassAssignment], spec: MixtureSpec) -> MassAssignment:
    """Probability-weighted average of the per-model hybrid results.

    The classic fold (S1) runs once, S2 and S3 once per model.
    Mixing happens on uncompressed lattice keys; per-model compression
    would merge classes differently per model and is deliberately not
    applied before the mixture.
    """
    frame = _common_frame(ms)
    if spec.entries[0][0].frame != frame:
        raise FrameMismatch("mixture models are not on the sources' frame")
    tables = [m._masses for m in ms]
    s1 = _classic_fold(tables, frame.full_mask)
    sums: dict[int, list[float]] = {}
    for model, prob in spec.entries:
        for mask, value in _gate(model, _hybrid_tables(tables, model, s1)).items():
            sums.setdefault(mask, []).append(prob * value)
    return MassAssignment._from_masks(frame, _fsums(sums), total=_total(tables))
