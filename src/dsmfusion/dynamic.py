"""Dynamic fusion: frame growth, staged sources and constraint changes.

A session is one call, `run_session`, over focal tables keyed by atom
bitset.  It keeps the focal tables of its sources, not their combination,
because a constraint arriving later must re-run the hybrid transfer over
the same tuples.  It keeps their classic (S1) fold too: a new source and
the previous S1 become the tables, folded once; every other stage and
`dsmc` read S1 as it is.  Constraints are parsed once, when set.  Frame
growth embeds each distinct mask of the tables, of S1 and of the model's
empty atoms once, on masks, by renaming each generator's digits to the
same singletons' positions on the grown frame; embedding commutes with
meet, join and u(), so the folds and the model are unchanged.

A session is one loop over its stages, the initial block "t0" first, and
keeps no earlier results: it makes each stage's compressed result when the
caller asks for it (so the CLI refuses `--compress` on events), and the
caller keeps what it reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import chain
from typing import Callable, Iterable, Iterator

from .bba import MassAssignment
from .errors import MissingName, RuleNotApplicable, ScenarioError
from .exprparse import parse
from .lattice import Frame, Proposition, _generators, _proposition, _up_mask, build_frame
from .model import HybridModel, build_model, compress
from .rules import HybridBreakdown, _classic_fold, _common_frame, _hybrid_breakdown, _total


def _embed_mask(old: Frame, new: Frame, mask: int) -> int:
    """An atom bitset of `old` on `new`: its generators, renamed by singleton name, up-closed."""
    for name in old.names:
        if name not in new.names:
            raise MissingName(f"singleton {name!r} missing from the target frame")
    moved = [1 << new.names.index(name) for name in old.names]  # each old digit's bit on `new`
    out = 0
    for digits in _generators(old.n, mask):
        out |= _up_mask(new.n, sum(moved[d] for d in range(digits.bit_length()) if digits >> d & 1))
    return out


def embed_proposition(p: Proposition, new: Frame) -> Proposition:
    """Reinterpret a lattice term over a larger frame via its generators."""
    return _proposition(new, _embed_mask(p.frame, new, p.mask))


def embed(m: MassAssignment, new: Frame) -> MassAssignment:
    """Carry an assignment from its frame onto an enlarged one, term by term.

    Masses are unchanged and each proposition keeps its generator antichain,
    so the vacuous assignment on the old frame stays on the old singletons'
    union rather than becoming the new total ignorance.
    """
    remapped = {_embed_mask(m.frame, new, mask): v for mask, v in m._masses.items()}
    return MassAssignment._from_masks(new, remapped, m.smets_mode, m.total)


@dataclass(frozen=True)
class Stage:
    """One dated event: enlarge the frame, add a source, or swap constraints.

    `set_constraints` replaces the active constraint set entirely (None means
    leave it alone); persisting constraints must be re-listed.
    """

    at: str
    add_elements: tuple[str, ...] = ()
    add_source: MassAssignment | None = None
    set_constraints: tuple[str, ...] | None = None


def _list(obj: dict, key: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(f"'{key}' must be a list: {value!r}")
    return value


def _string_list(obj: dict, key: str) -> tuple[str, ...]:
    value = _list(obj, key)
    if not all(isinstance(v, str) for v in value):
        raise ScenarioError(f"'{key}' must be a list of strings: {value!r}")
    return tuple(value)


def stages_from(specs, names: tuple[str, ...],
                source_of: Callable[[Frame, object], MassAssignment]) -> list[Stage]:
    """Stages from stage dicts ("at", "add_elements", "add_source", "set_constraints").

    `names` are the starting frame's singletons; each added source is built
    by `source_of(frame, spec["add_source"])` on the frame grown so far.  A
    missing "at" reads "t<position>"; a given one is a string or an integer.
    Malformed dicts raise ScenarioError.
    """
    stages = []
    for i, spec in enumerate(specs):
        if not isinstance(spec, dict):
            raise ScenarioError(f"event #{i + 1} must be an object: {spec!r}")
        label = spec.get("at", f"t{i + 1}")
        if isinstance(label, bool) or not isinstance(label, (str, int)):
            raise ScenarioError(f"event #{i + 1} 'at' must be a string or an integer: {label!r}")
        added = _string_list(spec, "add_elements")
        names = names + added
        source = source_of(build_frame(names), spec["add_source"]) if "add_source" in spec else None
        constraints = _string_list(spec, "set_constraints") if "set_constraints" in spec else None
        try:
            label = str(label)
        except ValueError as exc:  # an int past the int-to-str digit limit
            raise ScenarioError(f"event #{i + 1} 'at' is an integer too long to print") from exc
        stages.append(Stage(label, added, source, constraints))
    return stages


@dataclass
class SessionResult:
    label: str
    result: MassAssignment  # compressed for reporting
    breakdown: HybridBreakdown | None  # None under 'dsmc'


def _hybrid_result(label: str, tables: list, model: HybridModel, s1: dict) -> SessionResult:
    """A 'dsmh' stage's result, built outside the session loop: no local there holds its breakdown."""
    breakdown = _hybrid_breakdown(tables, model, s1)
    return SessionResult(label, compress(model, breakdown.result), breakdown)


def _session(stages: Iterable[Stage], rule: str, frame: Frame, tables: list, s1: dict,
             model: HybridModel, smets_mode: bool) -> Iterator[SessionResult]:
    """Apply each stage to the session state, and make its (compressed) result, when it is read."""
    for stage in stages:
        if stage.add_elements:
            old, frame = frame, build_frame(frame.names + tuple(stage.add_elements))
            embed_mask = cache(partial(_embed_mask, old, frame))
            s1, *tables = [{embed_mask(mask): v for mask, v in t.items()} for t in (s1, *tables)]
            # embedding preserves meet and join: this is the constraints parsed on the new frame
            model = HybridModel(frame, embed_mask(model.empty_mask))
        if stage.add_source is not None:
            src = embed(stage.add_source, frame)
            tables = [s1, src._masses]
            s1 = _classic_fold(tables, frame.full_mask)
            smets_mode = smets_mode or src.smets_mode
        if stage.set_constraints is not None:
            model = build_model(frame, (parse(frame, c) for c in stage.set_constraints))
        if rule == "dsmh":
            yield _hybrid_result(stage.at, tables, model, s1)
        elif model.is_free:
            yield SessionResult(
                stage.at, MassAssignment._from_masks(frame, s1, smets_mode, _total(tables)), None)
        else:
            raise RuleNotApplicable("rule 'dsmc' ignores constraints; use 'dsmh'")


def run_session(frame: Frame, sources: list[MassAssignment], stages: Iterable[Stage],
                rule: str = "dsmh", constraints: tuple[str, ...] = ()) -> Iterator[SessionResult]:
    """The results of the initial block (stage "t0") and of each stage, in order.

    `rule` is 'dsmh' or 'dsmc'.  "t0" is the session's first stage, folded
    at call time, so a bad start raises here; each later stage is taken
    from `stages`, which may be any iterable (a live feed included), and
    applied only when the caller asks for its result.
    """
    if rule not in ("dsmh", "dsmc"):
        raise RuleNotApplicable(f"rule {rule!r} cannot drive a session")
    # parsed one at a time, before any fold: an n=18 constraint holds 32 KiB until
    # build_model ORs it in
    model = build_model(frame, (parse(frame, c) for c in constraints))
    embedded = [embed(src, frame) for src in sources]
    _common_frame(embedded)  # at least two sources
    tables = [m._masses for m in embedded]
    s1 = _classic_fold(tables, frame.full_mask)
    smets_mode = any(m.smets_mode for m in sources)
    session = _session(chain([Stage("t0")], stages), rule, frame, tables, s1, model, smets_mode)
    # an exhausted list iterator lets go of its list, and with it of t0's result
    return chain(iter([next(session)]), session)
