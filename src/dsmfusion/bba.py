"""Generalized basic belief assignments over the hyper-power set."""

from __future__ import annotations

from math import fsum
from typing import Iterable, Mapping

from .errors import (
    EmptySetMass,
    FrameMismatch,
    MassSumNotOne,
    NegativeMass,
    NotAnElement,
    NotPowerSetSupport,
)
from .lattice import Frame, Proposition, _canonical_key, _proposition, _singletons_in, total_ignorance

#: Absolute tolerance on the unit-sum check at validation time.  Internal
#: sums are never renormalized: a library-built result is checked against
#: the total its inputs imply (a fold against the product of its sources'
#: totals), so the sources' own deviations from one do not add up to a
#: refusal.
SUM_TOLERANCE = 1e-9


class MassAssignment:
    """A map from propositions to non-negative masses summing to one.

    Keys are canonical propositions on one frame; missing keys mean zero
    mass.  Mass on EMPTY is rejected unless `smets_mode` is set (open-world
    assignments keep their conflict on EMPTY).  Instances are immutable
    after construction.

    The masses are stored by atom bitset on the one frame, in canonical
    order (atom count, then bitset).  Library code that already holds
    masks builds instances through `_from_masks`, which runs the same
    checks against the total its inputs imply; `items()`, `keys()`, `focal`
    and `get()` are the Proposition edge.
    """

    __slots__ = ("frame", "_masses", "smets_mode", "_expected_total")

    def __init__(
        self,
        frame: Frame,
        masses: Mapping[Proposition, float] | Iterable[tuple[Proposition, float]],
        smets_mode: bool = False,
    ):
        if isinstance(masses, Mapping):
            masses = masses.items()
        collected: dict[int, float] = {}
        for prop, value in masses:
            if not isinstance(prop, Proposition):
                raise NotAnElement(f"mass key {prop!r} is not a Proposition")
            if prop.frame != frame:
                raise FrameMismatch(f"mass key {prop!r} is not on frame {frame!r}")
            collected[prop.mask] = collected.get(prop.mask, 0.0) + float(value)
        self._seal(frame, collected, smets_mode, 1.0)

    @classmethod
    def _from_masks(cls, frame: Frame, masses: Mapping[int, float], smets_mode: bool = False,
                    total: float = 1.0):
        """An assignment from masses keyed by atom bitsets of `frame`, validated to sum to `total`."""
        m = object.__new__(cls)
        m._seal(frame, masses, smets_mode, total)
        return m

    def _seal(self, frame: Frame, masses: Mapping[int, float], smets_mode: bool, total: float) -> None:
        masks = sorted(masses, key=_canonical_key)
        values = map(masses.__getitem__, masks)  # one lookup per mask: a wide mask hashes slowly
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "_masses", {mask: v for mask, v in zip(masks, values) if v != 0.0})
        object.__setattr__(self, "smets_mode", bool(smets_mode))
        object.__setattr__(self, "_expected_total", total)
        self.validate()

    def __setattr__(self, name, value):
        raise AttributeError("MassAssignment is immutable")

    def validate(self) -> bool:
        """Check the invariants, raising with the offending key on failure.

        The masses sum, within SUM_TOLERANCE, to one when built by the public
        constructor, and to the total its inputs imply when built by the library.
        """
        expected = self._expected_total
        for mask, value in self._masses.items():
            if value < 0:
                raise NegativeMass(f"m({_proposition(self.frame, mask)}) = {value!r} is negative")
        for value in self._masses.values():
            # nan compares false with everything, so the sum check below
            # would pass it; a mass above the total can overflow that sum
            if not value <= expected + SUM_TOLERANCE:
                raise MassSumNotOne(value, expected)
        total = fsum(self._masses.values())
        if abs(total - expected) > SUM_TOLERANCE:
            raise MassSumNotOne(total, expected)
        if not self.smets_mode and self._masses.get(0, 0.0) != 0.0:
            raise EmptySetMass(f"m(EMPTY) = {self._masses[0]!r} without smets_mode")
        return True

    def __getitem__(self, prop: Proposition) -> float:
        return self.get(prop)

    def get(self, prop: Proposition, default: float = 0.0) -> float:
        """The mass of prop; `default` when prop is no key, or lives on another frame."""
        if prop.frame is self.frame or prop.frame == self.frame:
            return self._masses.get(prop.mask, default)
        return default

    def items(self) -> tuple[tuple[Proposition, float], ...]:
        """Entries in canonical proposition order."""
        frame = self.frame
        return tuple((_proposition(frame, mask), v) for mask, v in self._masses.items())

    def keys(self) -> tuple[Proposition, ...]:
        return tuple(_proposition(self.frame, mask) for mask in self._masses)

    @property
    def focal(self) -> tuple[tuple[Proposition, float], ...]:
        """The focal sets: entries with strictly positive mass (every stored entry)."""
        return self.items()

    @property
    def total(self) -> float:
        return fsum(self._masses.values())

    def __len__(self) -> int:
        return len(self._masses)

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}: {v:.6g}" for p, v in self.items())
        return f"MassAssignment({{{inner}}})"


def vacuous(frame: Frame) -> MassAssignment:
    """The neutral assignment: all mass on total ignorance."""
    return MassAssignment(frame, {total_ignorance(frame): 1.0})


def is_power_set_element(p: Proposition) -> bool:
    """True when p is EMPTY or a union of singletons."""
    return p.mask == _singletons_in(p.frame.n, p.mask)


def require_power_set(m: MassAssignment) -> None:
    for mask in m._masses:
        if mask != _singletons_in(m.frame.n, mask):
            prop = _proposition(m.frame, mask)
            raise NotPowerSetSupport(f"focal set {prop} is not a union of singletons")


def complement(p: Proposition) -> Proposition:
    """Power-set complement: union of the singletons absent from p."""
    if not is_power_set_element(p):
        raise NotPowerSetSupport(f"{p} is not a union of singletons")
    # the singleton atoms absent from p are the low n bits of ~p.mask
    return _proposition(p.frame, _singletons_in(p.frame.n, ~p.mask))


def _require_power_set_query(m: MassAssignment, a: Proposition) -> None:
    """The checks of bel and pl: m and a are on the power set of one frame."""
    require_power_set(m)
    if a.frame != m.frame:
        raise FrameMismatch("proposition is not on the assignment's frame")
    if not is_power_set_element(a):
        raise NotPowerSetSupport(f"{a} is not a union of singletons")


def bel(m: MassAssignment, a: Proposition) -> float:
    """Belief of a: total mass of focal sets below a (power-set support only)."""
    _require_power_set_query(m, a)
    return fsum(v for p, v in m.focal if p <= a)


def pl(m: MassAssignment, a: Proposition) -> float:
    """Plausibility of a: total mass of focal sets meeting a within the power set."""
    _require_power_set_query(m, a)
    # p meets a in the power set when p & a keeps a singleton atom
    return fsum(v for p, v in m.focal if _singletons_in(m.frame.n, p.mask & a.mask))
