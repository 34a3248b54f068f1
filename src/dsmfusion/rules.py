"""Combination rules: DSm classic and hybrid, plus the DST family.

The hybrid rule is evaluated tuple-by-tuple over the sources' focal sets.
For each tuple of focal elements with product mass p:

  * S1 books p on the free-lattice intersection (the classic rule);
  * S2, when every element of the tuple is empty under the model, books p on
    the union of the u() unions of the tuple (or on total ignorance when
    that union is itself empty);
  * S3, when the intersection is empty under the model, books p on the
    free-lattice union of the tuple.

The three tables keep their entries on model-empty rows, so a breakdown
can show where constrained mass sat before the transfer; the final mass
gates every row by the characteristic emptiness function, which removes
the overlap between the sums and makes the result add to one without any
normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
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
from .lattice import Frame, Proposition, conjoin, disjoin, total_ignorance, u_of
from .model import HybridModel, shafer_model

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


def dsm_classic(ms: Sequence[MassAssignment]) -> MassAssignment:
    """Conjunctive combination on the free lattice; no normalization needed.

    Iterates over focal sets only.  Commutative and associative.
    """
    frame = _common_frame(ms)
    sums: dict[int, list[float]] = {}
    for combo in product(*(m.focal for m in ms)):
        p = 1.0
        mask = frame.full_mask
        for prop, value in combo:
            p *= value
            mask &= prop.mask
        sums.setdefault(mask, []).append(p)
    smets = any(m.smets_mode for m in ms)
    masses = {Proposition(frame, mask): fsum(vals) for mask, vals in sums.items()}
    return MassAssignment(frame, masses, smets_mode=smets)


@dataclass(frozen=True)
class HybridBreakdown:
    """Hybrid-rule output with the three transfer tables kept separate."""

    model: HybridModel
    s1: Mapping[Proposition, float]
    s2: Mapping[Proposition, float]
    s3: Mapping[Proposition, float]
    result: MassAssignment

    def phi(self, p: Proposition) -> int:
        return self.model.phi(p)

    def total(self, p: Proposition) -> float:
        """phi(p) * (S1 + S2 + S3)(p), the final mass of p."""
        if self.model.is_empty(p):
            return 0.0
        return fsum((self.s1.get(p, 0.0), self.s2.get(p, 0.0), self.s3.get(p, 0.0)))


def dsm_hybrid(ms: Sequence[MassAssignment], model: HybridModel) -> HybridBreakdown:
    """Combine under a constraint model, transferring empty-set mass.

    Works on the free lattice throughout; reduction to surviving classes is
    a separate step (see model.compress).
    """
    frame = _common_frame(ms)
    if model.frame != frame:
        raise FrameMismatch("model frame differs from the sources' frame")

    it_mask = frame.full_mask
    prepared = []
    for m in ms:
        rows = []
        for prop, value in m.focal:
            rows.append((prop.mask, value, model.is_empty(prop), u_of(prop).mask))
        prepared.append(rows)

    s1: dict[int, list[float]] = {}
    s2: dict[int, list[float]] = {}
    s3: dict[int, list[float]] = {}
    empty_mask = model.empty_mask
    for combo in product(*prepared):
        p = 1.0
        inter = it_mask
        uni = 0
        all_empty = True
        u_union = 0
        for mask, value, is_empty, u_mask in combo:
            p *= value
            inter &= mask
            uni |= mask
            if is_empty:
                u_union |= u_mask
            else:
                all_empty = False
        s1.setdefault(inter, []).append(p)
        if all_empty:
            target = u_union if u_union & ~empty_mask else it_mask
            s2.setdefault(target, []).append(p)
        if inter & ~empty_mask == 0:
            s3.setdefault(uni, []).append(p)

    def finish(table: dict[int, list[float]]) -> dict[Proposition, float]:
        return {Proposition(frame, mask): fsum(vals) for mask, vals in table.items()}

    s1f, s2f, s3f = finish(s1), finish(s2), finish(s3)
    totals: dict[Proposition, float] = {}
    for prop in set(s1f) | set(s2f) | set(s3f):
        if model.is_empty(prop):
            continue
        totals[prop] = fsum((s1f.get(prop, 0.0), s2f.get(prop, 0.0), s3f.get(prop, 0.0)))
    result = MassAssignment(frame, totals)
    return HybridBreakdown(model, s1f, s2f, s3f, result)


def _conjunctive_power_set(
    m1: MassAssignment, m2: MassAssignment
) -> tuple[dict[Proposition, float], float, list[tuple[Proposition, Proposition, float]]]:
    """Shafer-model conjunctive combination of two power-set assignments.

    Returns the non-empty part, the total conflict, and the list of
    conflicting pairs (a1, a2, product mass).
    """
    if m1.frame != m2.frame:
        raise FrameMismatch("sources live on different frames")
    require_power_set(m1)
    require_power_set(m2)
    shafer = shafer_model(m1.frame)
    sums: dict[Proposition, list[float]] = {}
    conflicts: list[tuple[Proposition, Proposition, float]] = []
    for (a1, v1), (a2, v2) in product(m1.focal, m2.focal):
        p = v1 * v2
        meet = shafer.reduce(conjoin(a1, a2))
        if meet.is_empty:
            conflicts.append((a1, a2, p))
        else:
            sums.setdefault(meet, []).append(p)
    combined = {prop: fsum(vals) for prop, vals in sums.items()}
    conflict = fsum(p for _, _, p in conflicts)
    return combined, conflict, conflicts


def dempster(ms: Sequence[MassAssignment]) -> tuple[MassAssignment, float]:
    """Normalized orthogonal sum, folded pairwise left to right.

    Returns the combined assignment and the total degree of conflict (for
    two sources, the conjunctive mass on EMPTY).  Raises FullContradiction
    when the conflict reaches 1 and the sum is undefined.
    """
    frame = _common_frame(ms)
    acc = ms[0]
    surviving = 1.0
    for nxt in ms[1:]:
        combined, conflict, _ = _conjunctive_power_set(acc, nxt)
        # Normalize by the surviving mass rather than 1 - conflict; the two
        # agree exactly but the former avoids cancellation near conflict 1.
        scale = fsum(combined.values())
        if conflict >= 1.0 or scale <= 0.0:
            raise FullContradiction("degree of conflict is 1; orthogonal sum undefined")
        acc = MassAssignment(frame, {p: v / scale for p, v in combined.items()})
        surviving *= scale
    return acc, 1.0 - surviving


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
    combined, conflict, _ = _conjunctive_power_set(m1, m2)
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
    combined, _, conflicts = _conjunctive_power_set(m1, m2)
    out = dict(combined)
    for a1, a2, p in conflicts:
        target = disjoin(a1, a2)
        out[target] = out.get(target, 0.0) + p
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

    Mixing happens on uncompressed lattice keys; per-model compression
    would merge classes differently per model and is deliberately not
    applied before the mixture.
    """
    frame = _common_frame(ms)
    if spec.entries[0][0].frame != frame:
        raise FrameMismatch("mixture models are not on the sources' frame")
    sums: dict[Proposition, list[float]] = {}
    for model, prob in spec.entries:
        partial = dsm_hybrid(ms, model).result
        for prop, value in partial.items():
            sums.setdefault(prop, []).append(prob * value)
    return MassAssignment(frame, {p: fsum(vals) for p, vals in sums.items()})
