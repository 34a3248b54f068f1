"""Canonical hyper-power set lattice over a finite frame of singletons.

The hyper-power set over a frame of n singletons is the free distributive
lattice generated by the singletons under "&" (intersection) and "|" (union).
Every element is stored canonically as an up-closed set of Venn atoms, one
bit per atom.  An atom is a non-empty subset of singleton indices, stored
as its digit bitset with bit d-1 set for digit d; the atom 0b101 is the
Smarandache codification "13", the minimal region common to singletons 1
and 3 and nothing else.  A proposition contains an atom exactly when the
atom's digits are a superset of one of the proposition's generators.

Atom order is fixed (cardinality, then lexicographic digits) so bit
positions, printed tables and encoding matrices are reproducible.  The
singleton atoms come first: bit d-1 of a mask is the atom of digit d alone,
so the low n bits of a mask are its singleton atoms.

The per-n tables follow from that order's structure.  `_atom_bits` lists
each atom's digit bitset, which `_digit_tuple` decodes.  `_digit_masks`,
the atom bitset of each singleton, is built by block recursion: among the
size-k subsets of m digits, the comb(m-1, k-1) that hold the first digit
come first, so a digit's positions over a block are two shifted blocks over
m-1 digits.  `_up_closed_masks` walks the atoms from the highest position
down; the atoms above any position form an up-set, so each step keeps the
up-closed sets of the atoms seen so far and adds the atom to those holding
its proper supersets.

Generator extraction is one walk, `_generators`, behind `generators`,
`u_of`, `to_expression` and frame growth.  It takes one step per
generator and is exact on any atom set: the lowest atom present is
minimal, since its proper subsets all sit at lower positions, and
clearing its up-closure leaves the remaining generators.  `_up_closure`
takes these steps in a loop of its own, ORing up-closures as it clears them.
`to_expression` names each generator from its frame's `_terms`, at most
2^n - 1 strings, freed with the frame.

The public `Proposition(frame, mask)` checks that the mask is an element:
in range and up-closed.  Library code, which only ever builds elements,
goes through the unchecked `_proposition`.  u() is a union of singletons,
so its digit set (`_u_digits`, the OR of the generators' digit bitsets)
names it exactly; `_singletons_union` expands that to an atom bitset.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations
from math import comb
from typing import Iterable

from .errors import (
    DuplicateName,
    EmptyFrame,
    FrameMismatch,
    FrameTooLarge,
    IndexOutOfRange,
    InvalidIdentifier,
    NotAnElement,
)

#: Frames larger than this refuse to enumerate (the lattice grows like the
#: Dedekind numbers: 19 elements at n=3, 167 at n=4, 7580 at n=5, and
#: millions beyond).
ENUMERATION_LIMIT = 5

#: Frames larger than this are refused by build_frame.  Every proposition
#: is a bitset of 2^n - 1 atoms, so each singleton added doubles the memory
#: and time of every lattice operation; a two-source hybrid fusion at n=18
#: takes about 0.25 s and 30 MB on a 2-vCPU VM.
FRAME_LIMIT = 18

#: Budget on one step of a combination fold: states x focal sets x state
#: bits, checked before the step runs (`CombinationTooLarge` past it).  A
#: step makes at most states x focal sets states that many bits wide, so
#: this bounds its time and memory.  A random hybrid fusion of 6 sources x
#: 4 focal sets at n=16 peaks at 5.2e8 (1 s, 130 MB on a 2-vCPU VM); a 7th
#: source would take 2.0e9.
FOLD_LIMIT = 2**30

#: Budget on the atom bits a scenario's parsed masses hold: mass rows x the
#: atom count (2^n - 1) of the frame each row is parsed on, counted before
#: any expression is parsed; each mixture entry counts as one row, for its
#: model's empty atoms.  An n=18 row holds 32 KiB, so this admits 512 rows
#: there (16 MiB of masks); 10,000 such rows peaked at 358 MB under Python
#: 3.11 before the first fold step refused them.
LOAD_LIMIT = 2**27

#: Entries kept by `_up_mask`, the up-closures of single atoms that generator
#: walks read, keyed by frame size and digit bitset: every key of every frame
#: up to n=12 at once (8178 keys); beyond that the size bounds memory, as an
#: up-closure holds up to 2^n - 1 bits (32 KiB at FRAME_LIMIT), so the cache
#: can hold up to 256 MiB at n=18.  Printing a result fills one entry per
#: key: an n=18 `dsmc` of two sources of 64 distinct three-way meets each,
#: inside every limit, peaked at 20 MB after parsing, 146 MB after the fold
#: and 277 MB after `mass_lines`, with 3666 keys and as many cache entries
#: (Python 3.11, 2-vCPU VM).  Uncached, `_up_mask` of a three-digit atom
#: takes 0.95 us at n=12 and 17 us at n=18, against 0.12 us cached.
GENERATOR_CACHE_SIZE = 8192

_IDENT_RE = re.compile(r"(?!EMPTY\Z)[A-Za-z][A-Za-z0-9_]*\Z")


@lru_cache(maxsize=None)
def _atom_bits(n: int) -> tuple[int, ...]:
    """The digit bitset of every atom, in canonical order (bit d-1 for digit d)."""
    powers = [1 << d for d in range(n)]
    return tuple(chain.from_iterable(map(sum, combinations(powers, size)) for size in range(1, n + 1)))


def _digit_tuple(digits: int) -> tuple[int, ...]:
    """The digits of a digit bitset in ascending order: 0b101 -> (1, 3)."""
    return tuple(d + 1 for d in range(digits.bit_length()) if digits >> d & 1)


@lru_cache(maxsize=None)
def _digit_masks(n: int) -> tuple[int, ...]:
    """Entry d-1 is the bitset of atom positions whose digits include d."""
    # level[k][j]: positions of the j-th of the last m digits among their
    # size-k subsets in lexicographic order; those holding the first of the
    # m digits come first, then the size-k subsets of the other m-1.
    level = [()] * (n + 1)
    for m in range(1, n + 1):
        level = [(0,) * m] + [
            ((1 << comb(m - 1, k - 1)) - 1,
             *(head | tail << comb(m - 1, k - 1) for head, tail in zip(level[k - 1], level[k])))
            for k in range(1, n + 1)]
    masks, shift = [0] * n, 0
    for k in range(1, n + 1):
        for d, block in enumerate(level[k]):
            masks[d] |= block << shift
        shift += comb(n, k)
    return tuple(masks)


@lru_cache(maxsize=GENERATOR_CACHE_SIZE)
def _up_mask(n: int, digits: int) -> int:
    """Bitset of all atoms whose digit sets contain every digit of a digit bitset."""
    mask = (1 << (2**n - 1)) - 1
    per_digit = _digit_masks(n)
    while digits:
        low = digits & -digits
        mask &= per_digit[low.bit_length() - 1]
        digits ^= low
    return mask


def _singletons_union(n: int, digits: int) -> int:
    """Bitset of the union of the singletons named by a digit bitset."""
    per_digit = _digit_masks(n)
    out = 0
    while digits:
        low = digits & -digits
        out |= per_digit[low.bit_length() - 1]
        digits ^= low
    return out


def _generators(n: int, mask: int) -> list[int]:
    """Digit bitsets of the atoms of `mask` minimal under digit-set inclusion, in atom order.

    Every proper subset of an atom sits at a lower position, so the lowest
    atom present is minimal; clearing its up-closure leaves the other
    minimal atoms.  One step per generator, on any atom set.
    """
    bits = _atom_bits(n)
    out = []
    while mask:
        digits = bits[(mask & -mask).bit_length() - 1]
        out.append(digits)
        mask &= ~_up_mask(n, digits)
    return out


def _up_closure(n: int, mask: int) -> int:
    """Smallest up-closed atom bitset containing mask: its generators' up-closure."""
    bits = _atom_bits(n)
    out = 0
    while mask:
        up = _up_mask(n, bits[(mask & -mask).bit_length() - 1])
        out |= up
        mask &= ~up
    return out


def _singletons_in(n: int, mask: int) -> int:
    """Union of the singletons whose own atom lies in mask (the low n bits)."""
    return _singletons_union(n, mask & ((1 << n) - 1))


def _canonical_key(mask: int) -> tuple[int, int]:
    """The canonical element order of atom bitsets: atom count, then bitset value."""
    return (mask.bit_count(), mask)


@dataclass(frozen=True)
class Frame:
    """An ordered frame of uniquely named singletons."""

    names: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def atom_count(self) -> int:
        return 2**self.n - 1

    @property
    def full_mask(self) -> int:
        return (1 << self.atom_count) - 1

    @cached_property
    def _terms(self) -> dict[int, str]:
        """The "&"-joined names of each digit bitset `to_expression` has printed on this frame."""
        return {}

    def __repr__(self) -> str:
        return f"Frame({', '.join(self.names)})"


def build_frame(names: Iterable[str]) -> Frame:
    """Validate singleton names (not "EMPTY") and build a Frame of at most FRAME_LIMIT singletons."""
    if isinstance(names, str):
        raise InvalidIdentifier(f"a frame takes a sequence of names, not the string {names!r}")
    names = tuple(names)
    if not names:
        raise EmptyFrame("a frame needs at least one singleton name")
    if len(names) > FRAME_LIMIT:
        raise FrameTooLarge(f"a frame of {len(names)} singletons exceeds the limit {FRAME_LIMIT}")
    seen = set()
    for name in names:
        if not isinstance(name, str) or not _IDENT_RE.match(name):
            raise InvalidIdentifier(f"{name!r} is not a valid identifier")
        if name in seen:
            raise DuplicateName(f"duplicate singleton name {name!r}")
        seen.add(name)
    return Frame(names)


@dataclass(frozen=True, eq=False, slots=True)
class Proposition:
    """An element of the hyper-power set: an up-closed set of atoms.

    Equality and hashing go through the atom bitset, which is the canonical
    form; the generator antichain is derived from it on demand.  Raises
    NotAnElement unless `mask` is an up-closed atom bitset of `frame`.
    """

    frame: Frame
    mask: int

    def __post_init__(self):
        mask = self.mask
        if not (isinstance(mask, int) and 0 <= mask <= self.frame.full_mask
                and _up_closure(self.frame.n, mask) == mask):
            raise NotAnElement(f"{mask!r} is not an up-closed atom bitset of {self.frame!r}")

    def __eq__(self, other):
        if other.__class__ is not Proposition:
            return NotImplemented
        return self.mask == other.mask and (self.frame is other.frame or self.frame == other.frame)

    def __hash__(self) -> int:
        return hash(self.mask)

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        """Digit tuples of the minimal atoms, in atom order.

        The antichain uniquely determines (and is determined by) the mask;
        from_generators takes it back.
        """
        return tuple(map(_digit_tuple, _generators(self.frame.n, self.mask)))

    def __and__(self, other: "Proposition") -> "Proposition":
        _check_same_frame(self, other)
        return _proposition(self.frame, self.mask & other.mask)

    def __or__(self, other: "Proposition") -> "Proposition":
        _check_same_frame(self, other)
        return _proposition(self.frame, self.mask | other.mask)

    def __le__(self, other: "Proposition") -> bool:
        """Lattice order: self below other iff every atom of self is an atom of other."""
        _check_same_frame(self, other)
        return self.mask & ~other.mask == 0

    def __str__(self) -> str:
        return to_expression(self)

    def __repr__(self) -> str:
        return f"Proposition({to_expression(self)})"


def _proposition(frame: Frame, mask: int) -> Proposition:
    """Proposition without the element check, for masks the library built."""
    p = object.__new__(Proposition)
    object.__setattr__(p, "frame", frame)
    object.__setattr__(p, "mask", mask)
    return p


def _check_same_frame(p: Proposition, q: Proposition) -> None:
    if p.frame != q.frame:
        raise FrameMismatch(f"propositions live on different frames: {p.frame} vs {q.frame}")


def empty(frame: Frame) -> Proposition:
    return _proposition(frame, 0)


def from_generators(frame: Frame, digit_sets: Iterable[Iterable[int]]) -> Proposition:
    """Build the up-closure of a family of digit sets (need not be an antichain)."""
    mask = 0
    for digits in digit_sets:
        digits = tuple(sorted(set(digits)))
        if not digits:
            raise IndexOutOfRange("a generator needs at least one digit")
        if digits[0] < 1 or digits[-1] > frame.n:
            raise IndexOutOfRange(f"digits {digits} out of range 1..{frame.n}")
        mask |= _up_mask(frame.n, sum(1 << (d - 1) for d in digits))
    return _proposition(frame, mask)


def singleton(frame: Frame, i: int) -> Proposition:
    """The i-th singleton (1-based) as a lattice element."""
    if not 1 <= i <= frame.n:
        raise IndexOutOfRange(f"singleton index {i} out of range 1..{frame.n}")
    return _proposition(frame, _digit_masks(frame.n)[i - 1])


def total_ignorance(frame: Frame) -> Proposition:
    """The union of all singletons (every atom)."""
    return _proposition(frame, frame.full_mask)


def u_of(p: Proposition) -> Proposition:
    """Union of the singletons composing p.

    Computed from the minimal parts: every digit occurring in the
    anti-absorption residue contributes its singleton.  u(EMPTY) = EMPTY.
    """
    return _proposition(p.frame, _singletons_union(p.frame.n, _u_digits(p.frame.n, p.mask)))


def _u_digits(n: int, mask: int) -> int:
    """u() as a digit bitset: the OR of the digit bitsets of mask's generators."""
    digits = 0
    for generator in _generators(n, mask):
        digits |= generator
    return digits


def enumerate_hpset(frame: Frame) -> list[Proposition]:
    """Every element of the hyper-power set, EMPTY and total ignorance included.

    Deterministic order: atom count, then atom-bitset value.  Refuses frames
    beyond ENUMERATION_LIMIT.
    """
    _check_enumerable(frame)
    return [_proposition(frame, m) for m in _up_closed_masks(frame.n)]


def _check_enumerable(frame: Frame) -> None:
    if frame.n > ENUMERATION_LIMIT:
        raise FrameTooLarge(f"enumerating n={frame.n} exceeds the limit {ENUMERATION_LIMIT}")


@lru_cache(maxsize=None)
def _up_closed_masks(n: int) -> tuple[int, ...]:
    """All up-closed atom bitsets, sorted by (popcount, value)."""
    bits = _atom_bits(n)
    masks = [0]
    for i in reversed(range(len(bits))):
        need = _up_mask(n, bits[i]) & ~(1 << i)
        masks += [m | 1 << i for m in masks if m & need == need]
    return tuple(sorted(masks, key=_canonical_key))


def to_expression(p: Proposition) -> str:
    """Canonical disjunctive expression over the generator antichain.

    Generators print largest first, ties kept in atom (lexicographic) order
    by a stable sort, joined by "|" as in the usual written "(t1&t2)|t3"; a
    multi-digit generator is parenthesized when it is not the only one.
    EMPTY prints as "EMPTY" (which the parser deliberately rejects).
    """
    mask = p.mask
    if not mask:
        return "EMPTY"
    names, terms = p.frame.names, p.frame._terms
    gens = _generators(len(names), mask)
    for digits in gens:
        if digits not in terms:
            terms[digits] = "&".join([names[d] for d in range(digits.bit_length()) if digits >> d & 1])
    if len(gens) == 1:
        return terms[gens[0]]
    gens.sort(key=int.bit_count, reverse=True)
    return "|".join([f"({terms[g]})" if g & (g - 1) else terms[g] for g in gens])
