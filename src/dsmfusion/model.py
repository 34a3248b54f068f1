"""Integrity-constraint models: which lattice elements are forced empty.

A hybrid model is built by declaring some propositions empty.  Emptiness is
decided purely by atom inclusion: a proposition is empty under the model
exactly when all of its atoms are constrained away.  That single mechanism
covers exclusivity, non-existential and mixed constraints, makes the subset
implication automatic (anything inside a constrained element is constrained)
and keeps the constrained set closed under union.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from math import fsum
from typing import Iterable, Mapping, Sequence

from .bba import MassAssignment
from .errors import FrameMismatch, MassOnEmptyClass, VacuousModel
from .lattice import (Frame, Proposition, _atom_bits, _canonical_key, _check_enumerable, _digit_tuple,
                      _proposition, _up_closed_masks, _up_closure)


@dataclass(frozen=True)
class HybridModel:
    frame: Frame
    empty_mask: int

    @property
    def is_free(self) -> bool:
        return self.empty_mask == 0

    @cached_property
    def alive(self) -> int:
        """The atoms no constraint empties: a key holding none of them is empty (phi is 0)."""
        return self.frame.full_mask & ~self.empty_mask

    def _check(self, p: Proposition) -> None:
        if p.frame != self.frame:
            raise FrameMismatch("proposition is not on the model's frame")

    def is_empty(self, p: Proposition) -> bool:
        self._check(p)
        return not p.mask & self.alive

    def phi(self, p: Proposition) -> int:
        """Characteristic emptiness: 0 when p is (forced) empty, 1 otherwise."""
        return 0 if self.is_empty(p) else 1

    def reduce(self, p: Proposition) -> Proposition:
        """Canonical representative of p's equivalence class.

        Two propositions are equivalent when they keep the same atoms after
        removing the constrained ones; the representative is the smallest
        lattice element with those surviving atoms (the up-closure of their
        minimal parts), so EMPTY represents the merged-empty class.
        """
        self._check(p)
        return _proposition(self.frame, _up_closure(self.frame.n, p.mask & self.alive))


def build_model(frame: Frame, constraints: Iterable[Proposition]) -> HybridModel:
    """Derive the set of empty atoms from the declared constraints.

    Rejects the vacuous model (all atoms constrained away: nothing left to
    reason about).  Constraints that leave a single atom make a legal but
    degenerate model, which is flagged with a warning; no constraints give
    the free model, silently.
    """
    empty_mask = 0
    for c in constraints:
        if c.frame != frame:
            raise FrameMismatch("constraint is not on the model's frame")
        empty_mask |= c.mask
    if empty_mask == frame.full_mask:
        raise VacuousModel("constraints empty the whole frame")
    model = HybridModel(frame, empty_mask)
    if empty_mask and model.alive.bit_count() == 1:
        warnings.warn(
            "trivial model: a single atom survives, so only one non-empty "
            "proposition remains",
            stacklevel=2,
        )
    return model


def shafer_model(frame: Frame) -> HybridModel:
    """All pairwise exclusivity constraints; survivors form the power set.

    Exactly the singleton atoms (the low n bits) survive, so reduce() under
    this model is lattice._singletons_in.
    """
    return HybridModel(frame, frame.full_mask & ~((1 << frame.n) - 1))


@dataclass(frozen=True)
class EquivClass:
    """One model-equivalence class: its representative and its members' atom bitsets.

    `members`, the member propositions in canonical order, are built when
    first read; len() counts them without building them.
    """

    representative: Proposition
    member_masks: tuple[int, ...]

    @cached_property
    def members(self) -> tuple[Proposition, ...]:
        frame = self.representative.frame
        return tuple(_proposition(frame, mask) for mask in self.member_masks)

    def __len__(self) -> int:
        return len(self.member_masks)


def _classes(alive: int, keys: Iterable[int], items: Iterable) -> dict[int, list]:
    """Group items, each given with its atom-bitset key, into model-equivalence classes.

    A key's surviving atoms are `key & alive`.  Returns {surviving atoms:
    items}, unsorted, with items in input order; `survivors` and
    `compression_report` sort the classes by their surviving atom sets.
    """
    groups: dict[int, list] = {}
    get = groups.get
    for reduced, item in zip(map(alive.__and__, keys), items):
        group = get(reduced)
        if group is None:
            groups[reduced] = [item]
        else:
            group.append(item)
    return groups


def survivors(model: HybridModel) -> list[EquivClass]:
    """Partition of the whole hyper-power set into model-equivalence classes.

    The merged-empty class is included, so the class count matches the
    element counts of the reduced lattice.  Classes are ordered by their
    surviving atom sets (count, then bitset value); members come in
    canonical order.  The lattice is grouped as bitsets: each class builds
    one proposition, its representative, and its members when they are read.

    The representative is a class's first member.  The up-closure of the
    class's surviving atoms is a member, and a subset of every other member,
    so it has the fewest atoms and comes first in canonical order.
    """
    _check_enumerable(model.frame)
    frame, masks = model.frame, _up_closed_masks(model.frame.n)
    groups = _classes(model.alive, masks, masks)
    return [EquivClass(_proposition(frame, members[0]), tuple(members))
            for members in map(groups.__getitem__, sorted(groups, key=_canonical_key))]


def encoding_matrix(model: HybridModel,
                    classes: Sequence[EquivClass]) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """Binary encoding of the surviving classes over the non-empty atoms.

    `classes` are the model's classes as `survivors(model)` returns them,
    one row each in their order.  The basis lists the digit tuples of the
    unconstrained atoms in canonical order; a row has a 1 where the basis
    atom belongs to the class representative (the merged-empty class gives
    the all-zero row).
    """
    positions = [i for i in range(model.frame.atom_count) if model.alive >> i & 1]
    basis = [_digit_tuple(_atom_bits(model.frame.n)[i]) for i in positions]
    return basis, [[cls.representative.mask >> i & 1 for i in positions] for cls in classes]


def compression_report(
    model: HybridModel, masses: Mapping[int, float]
) -> list[tuple[int, tuple[tuple[int, float], ...], float]]:
    """Per-class provenance of masses keyed by atom bitset: (representative, members, total).

    The representative is a mask, the up-closure of the class's surviving
    atoms, which need not be among the members; members are (mask, mass)
    pairs in the order of the input mapping.  Classes come out in canonical
    order of their surviving atom sets.
    """
    n, groups = model.frame.n, _classes(model.alive, masses, masses.items())
    return [(_up_closure(n, reduced), tuple(groups[reduced]), fsum(v for _, v in groups[reduced]))
            for reduced in sorted(groups, key=_canonical_key)]


def compress(model: HybridModel, m: MassAssignment) -> MassAssignment:
    """Sum masses over model-equivalent propositions: the class totals of `compression_report`.

    Pure re-summation in one unsorted pass: the total is preserved and nothing
    is normalized.  Mass landing on the merged-empty class is an input error
    here (hybrid rule output never produces it), named by its first member.
    """
    if m.frame != model.frame:
        raise FrameMismatch("assignment is not on the model's frame")
    masses, alive, n = m._masses, model.alive, model.frame.n
    groups = _classes(alive, masses, masses.values())
    if 0 in groups:
        mask = next(mask for mask in masses if not mask & alive)  # masses are in canonical order
        prop = _proposition(model.frame, mask)
        raise MassOnEmptyClass(f"mass {masses[mask]!r} on {prop}, which is empty under the model")
    sums = {_up_closure(n, reduced): fsum(values) for reduced, values in groups.items()}
    return MassAssignment._from_masks(model.frame, sums, m.smets_mode, m.total)
