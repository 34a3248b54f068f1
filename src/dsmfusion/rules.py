"""Combination rules: DSm classic and hybrid, plus the DST family.

Every rule reads one conjunctive fold over the sources' focal sets.  A
tuple of focal elements matters only through its product mass and three
associative masks: the free-lattice intersection (meet), the free-lattice
union (join) and the union of the members' u() (∪u).  The fold takes the
sources one at a time and keeps a map from (meet, join, ∪u) to mass, so
its work tracks the distinct states rather than the number of tuples.

The hybrid rule routes each state under the model:

  * S1 books its mass on the meet (the classic rule);
  * S2, when the join (so every member) is empty under the model, books it
    on ∪u (or on total ignorance when ∪u is itself empty);
  * S3, when the meet is empty under the model, books it on the join.

The three tables keep their entries on model-empty rows, so a breakdown
can show where constrained mass sat before the transfer; the final mass
gates every row by the characteristic emptiness function, which removes
the overlap between the sums and makes the result add to one without any
normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, isfinite
from typing import Mapping, Sequence

from .bba import MassAssignment, require_power_set
from .errors import (
    FewerThanTwoSources,
    FrameMismatch,
    FullContradiction,
    ProbabilitiesNotNormalized,
    WeightsNotNormalized,
)
from .lattice import Frame, Proposition, _singletons_in, _u_mask, total_ignorance
from .model import HybridModel

#: CLI rule-selection strings.
RULE_NAMES = ("dsmc", "dsmh", "dempster", "yager", "smets", "dubois-prade", "mixture")


def _common_frame(ms: Sequence[MassAssignment]) -> Frame:
    if len(ms) < 2:
        raise FewerThanTwoSources(f"need at least 2 sources, got {len(ms)}")
    frame = ms[0].frame
    for m in ms[1:]:
        if m.frame != frame:
            raise FrameMismatch("sources live on different frames")
    return frame


def _fsums(table: dict) -> dict:
    return {key: fsum(vals) for key, vals in table.items()}


def _fold(frame: Frame, ms: Sequence[MassAssignment], past: dict | None = None) -> dict:
    """Map each (meet, join, ∪u) state to the mass of the tuples reaching it, summed exactly."""
    n = frame.n
    tables = [m.focal for m in ms]
    if past is not None:
        # an earlier fold's states enter sealed: their classic combination is the first source
        tables.insert(0, _classic_masses(frame, past).items())
    sources = [[(p.mask, value, _u_mask(n, p.mask)) for p, value in table] for table in tables]
    # the first source's focal sets are distinct, so each is a state of its own
    states = {(mask, mask, u): value for mask, value, u in sources[0]}
    for rows in sources[1:]:
        step: dict[tuple[int, int, int], list[float]] = {}
        for (meet, join, u), mass in states.items():
            for mask, value, u_mask in rows:
                step.setdefault((meet & mask, join | mask, u | u_mask), []).append(mass * value)
        states = _fsums(step)
    return states


def _classic_masses(frame: Frame, states: dict) -> dict[Proposition, float]:
    """The classic rule on fold states: each state's mass on its meet."""
    sums: dict[int, list[float]] = {}
    for (meet, _, _), mass in states.items():
        sums.setdefault(meet, []).append(mass)
    return {Proposition(frame, mask): total for mask, total in _fsums(sums).items()}


def _map_states(states: dict, embed_mask) -> dict:
    """Carry states onto a larger frame; an embedding commutes with meet, join and u()."""
    return {(embed_mask(meet), embed_mask(join), embed_mask(u)): mass
            for (meet, join, u), mass in states.items()}


def dsm_classic(ms: Sequence[MassAssignment]) -> MassAssignment:
    """Conjunctive combination on the free lattice; no normalization needed.

    Iterates over focal sets only.  Commutative and associative.
    """
    frame = _common_frame(ms)
    masses = _classic_masses(frame, _fold(frame, ms))
    return MassAssignment(frame, masses, smets_mode=any(m.smets_mode for m in ms))


@dataclass(frozen=True)
class HybridBreakdown:
    """Hybrid-rule output with the three transfer tables kept separate."""

    model: HybridModel
    s1: Mapping[Proposition, float]
    s2: Mapping[Proposition, float]
    s3: Mapping[Proposition, float]
    result: MassAssignment


def _hybrid_breakdown(frame: Frame, states: dict, model: HybridModel) -> HybridBreakdown:
    """Route the fold's states through S1, S2 and S3 under one model."""
    empty_mask = model.empty_mask
    s1: dict[int, list[float]] = {}
    s2: dict[int, list[float]] = {}
    s3: dict[int, list[float]] = {}
    for (meet, join, u), mass in states.items():
        s1.setdefault(meet, []).append(mass)
        if join & ~empty_mask == 0:
            target = u if u & ~empty_mask else frame.full_mask
            s2.setdefault(target, []).append(mass)
        if meet & ~empty_mask == 0:
            s3.setdefault(join, []).append(mass)
    s1f, s2f, s3f = ({Proposition(frame, mask): total for mask, total in _fsums(table).items()}
                     for table in (s1, s2, s3))
    totals = {p: fsum((s1f.get(p, 0.0), s2f.get(p, 0.0), s3f.get(p, 0.0)))
              for p in set(s1f) | set(s2f) | set(s3f) if not model.is_empty(p)}
    return HybridBreakdown(model, s1f, s2f, s3f, MassAssignment(frame, totals))


def dsm_hybrid(ms: Sequence[MassAssignment], model: HybridModel) -> HybridBreakdown:
    """Combine under a constraint model, transferring empty-set mass.

    Works on the free lattice throughout; reduction to surviving classes is
    a separate step (see model.compress).
    """
    frame = _common_frame(ms)
    if model.frame != frame:
        raise FrameMismatch("model frame differs from the sources' frame")
    return _hybrid_breakdown(frame, _fold(frame, ms), model)


def _conjunctive_power_set(ms: Sequence[MassAssignment]) -> tuple[dict, dict]:
    """Shafer-model conjunctive combination of power-set assignments.

    Reduces each fold state's meet under Shafer's model.  Returns the
    non-empty part keyed by the reduced meet, and the conflict keyed by the
    join of the focal sets behind it (the Dubois-Prade target).
    """
    frame = _common_frame(ms)
    for m in ms:
        require_power_set(m)
    combined: dict[Proposition, list[float]] = {}
    conflicts: dict[Proposition, list[float]] = {}
    for (meet, join, _), mass in _fold(frame, ms).items():
        reduced = _singletons_in(frame.n, meet)
        if reduced:
            combined.setdefault(Proposition(frame, reduced), []).append(mass)
        else:
            conflicts.setdefault(Proposition(frame, join), []).append(mass)
    return _fsums(combined), _fsums(conflicts)


def dempster(ms: Sequence[MassAssignment]) -> tuple[MassAssignment, float]:
    """Normalized orthogonal sum of all the sources.

    Returns the combined assignment and the total degree of conflict (the
    conjunctive mass on EMPTY).  Raises FullContradiction when the conflict
    reaches 1 and the sum is undefined.
    """
    combined, conflicts = _conjunctive_power_set(ms)
    # Normalize by the surviving mass rather than 1 - conflict; the two
    # agree exactly but the former avoids cancellation near conflict 1.
    surviving = fsum(combined.values())
    if surviving <= 0.0 or fsum(conflicts.values()) >= 1.0:
        raise FullContradiction("degree of conflict is 1; orthogonal sum undefined")
    normalized = {p: v / surviving for p, v in combined.items()}
    return MassAssignment(ms[0].frame, normalized), 1.0 - surviving


def lefevre_combine(
    m1: MassAssignment,
    m2: MassAssignment,
    weights: Mapping[Proposition, float],
) -> MassAssignment:
    """Conjunctive combination with weighted redistribution of the conflict.

    The weights map subsets of the frame (EMPTY allowed) to coefficients
    summing to one; each A receives w(A) times the conflict, and w(EMPTY)
    keeps that share on EMPTY (open-world).
    """
    for w in weights.values():
        if not isfinite(w):
            raise WeightsNotNormalized(f"weight {w!r} is not a finite number")
    total_w = fsum(weights.values())
    if abs(total_w - 1.0) > 1e-9:
        raise WeightsNotNormalized(f"weights sum to {total_w!r}, expected 1")
    combined, conflicts = _conjunctive_power_set([m1, m2])
    conflict = fsum(conflicts.values())
    out = dict(combined)
    empty_share = 0.0
    for prop, w in weights.items():
        if prop.frame != m1.frame:
            raise FrameMismatch("weight key is not on the sources' frame")
        if prop.is_empty:
            empty_share += w * conflict
        elif w != 0.0:
            out[prop] = out.get(prop, 0.0) + w * conflict
    if empty_share:
        out[Proposition(m1.frame, 0)] = empty_share
    return MassAssignment(m1.frame, out, smets_mode=empty_share > 0.0)


def yager(m1: MassAssignment, m2: MassAssignment) -> MassAssignment:
    """All conflict goes to total ignorance."""
    return lefevre_combine(m1, m2, {total_ignorance(m1.frame): 1.0})


def smets(m1: MassAssignment, m2: MassAssignment) -> MassAssignment:
    """All conflict stays on EMPTY (open world)."""
    return lefevre_combine(m1, m2, {Proposition(m1.frame, 0): 1.0})


def dubois_prade(m1: MassAssignment, m2: MassAssignment) -> MassAssignment:
    """Each conflicting product moves to the union of the pair that caused it."""
    combined, conflicts = _conjunctive_power_set([m1, m2])
    out = dict(combined)
    for target, mass in conflicts.items():
        out[target] = out.get(target, 0.0) + mass
    return MassAssignment(m1.frame, out)


@dataclass(frozen=True)
class MixtureSpec:
    """Exclusive, exhaustive candidate models with prior probabilities."""

    entries: tuple[tuple[HybridModel, float], ...]

    def __post_init__(self):
        if not self.entries:
            raise ProbabilitiesNotNormalized("mixture needs at least one entry")
        frame = self.entries[0][0].frame
        for model, prob in self.entries:
            if model.frame != frame:
                raise FrameMismatch("mixture models live on different frames")
            if not isfinite(prob):
                raise ProbabilitiesNotNormalized(f"probability {prob!r} is not a finite number")
            if prob < 0:
                raise ProbabilitiesNotNormalized(f"negative probability {prob!r}")
        total = fsum(p for _, p in self.entries)
        if abs(total - 1.0) > 1e-9:
            raise ProbabilitiesNotNormalized(f"probabilities sum to {total!r}, expected 1")


def bayesian_mixture(ms: Sequence[MassAssignment], spec: MixtureSpec) -> MassAssignment:
    """Probability-weighted average of the per-model hybrid results.

    The sources are folded once and the states routed under each model.
    Mixing happens on uncompressed lattice keys; per-model compression
    would merge classes differently per model and is deliberately not
    applied before the mixture.
    """
    frame = _common_frame(ms)
    if spec.entries[0][0].frame != frame:
        raise FrameMismatch("mixture models are not on the sources' frame")
    states = _fold(frame, ms)
    sums: dict[Proposition, list[float]] = {}
    for model, prob in spec.entries:
        for prop, value in _hybrid_breakdown(frame, states, model).result.items():
            sums.setdefault(prop, []).append(prob * value)
    return MassAssignment(frame, _fsums(sums))
