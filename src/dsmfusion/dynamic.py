"""Dynamic fusion: frame growth, staged sources and constraint changes.

A session keeps the focal tables of its sources (atom bitset -> mass),
not their combination, because a constraint arriving later must re-run
the hybrid transfer over the same tuples.  It keeps their classic (S1)
fold too: a new source and the previous S1 become the tables, folded
once; every other stage and `dsmc` read S1 as it is.  Frame
growth embeds each distinct mask of the tables and of S1 once; embedding
commutes with meet, join and u(), so the folds are unchanged.

A session keeps no results: `run_session` yields each stage's compressed
result when the caller asks for it (so the CLI refuses `--compress` on
events), and the caller keeps what it reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain
from typing import Callable, Iterator

from .bba import MassAssignment
from .errors import FrameMismatch, MissingName, RuleNotApplicable, ScenarioError
from .exprparse import parse
from .lattice import Frame, Proposition, _proposition, build_frame, from_generators, to_expression
from .model import build_model, compress
from .rules import HybridBreakdown, _classic_fold, _common_frame, _hybrid_breakdown


def embed_proposition(p: Proposition, new: Frame) -> Proposition:
    """Reinterpret a lattice term over a larger frame via its generators."""
    old = p.frame
    for name in old.names:
        if name not in new.names:
            raise MissingName(f"singleton {name!r} missing from the target frame")
    return from_generators(new, [[new.index(old.names[d - 1]) for d in g] for g in p.generators])


def embed(m: MassAssignment, old: Frame, new: Frame) -> MassAssignment:
    """Carry an assignment onto an enlarged frame, term by term.

    Masses are unchanged and each proposition keeps its generator antichain,
    so the vacuous assignment on the old frame stays on the old singletons'
    union rather than becoming the new total ignorance.
    """
    if m.frame != old:
        raise FrameMismatch("assignment is not on the declared old frame")
    remapped = {embed_proposition(p, new): v for p, v in m.items()}
    return MassAssignment(new, remapped, smets_mode=m.smets_mode)


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

    def by_expression(self) -> dict[str, float]:
        return {to_expression(p): v for p, v in self.result.items()}


@dataclass
class FusionSession:
    frame: Frame
    tables: list  # the focal tables (atom bitset -> mass) folded since the last seal
    s1: dict  # the classic fold of `tables`
    constraint_exprs: tuple[str, ...] = ()
    rule: str = "dsmh"
    smets_mode: bool = False  # set once any source is open-world

    @classmethod
    def start(
        cls,
        frame: Frame,
        sources: list[MassAssignment],
        constraints: tuple[str, ...] = (),
        rule: str = "dsmh",
    ) -> "FusionSession":
        embedded = [embed(src, src.frame, frame) for src in sources]
        _common_frame(embedded)  # at least two sources
        tables = [m._masses for m in embedded]
        return cls(frame, tables, _classic_fold(tables, frame.full_mask), tuple(constraints), rule,
                   any(m.smets_mode for m in sources))

    def combine(self, label: str) -> SessionResult:
        """The (compressed) result of the current tables under the current constraints."""
        model = build_model(self.frame, (parse(self.frame, c) for c in self.constraint_exprs))
        if self.rule == "dsmh":
            breakdown = _hybrid_breakdown(self.frame, self.tables, model, self.s1)
            result = compress(model, breakdown.result)
        elif self.rule == "dsmc":
            if not model.is_free:
                raise RuleNotApplicable("rule 'dsmc' ignores constraints; use 'dsmh'")
            result = MassAssignment._from_masks(self.frame, self.s1, smets_mode=self.smets_mode)
            breakdown = None
        else:
            raise RuleNotApplicable(f"rule {self.rule!r} cannot drive a session")
        return SessionResult(label, result, breakdown)

    def apply(self, stage: Stage) -> SessionResult:
        """Process one stage and return the recombined (compressed) result."""
        if stage.add_elements:
            old, new = self.frame, build_frame(self.frame.names + tuple(stage.add_elements))
            embed_mask = cache(lambda mask: embed_proposition(_proposition(old, mask), new).mask)
            self.frame = new
            self.s1, *self.tables = [{embed_mask(mask): v for mask, v in t.items()}
                                     for t in (self.s1, *self.tables)]
        if stage.add_source is not None:
            src = embed(stage.add_source, stage.add_source.frame, self.frame)
            self.tables = [self.s1, src._masses]
            self.s1 = _classic_fold(self.tables, self.frame.full_mask)
            self.smets_mode = self.smets_mode or src.smets_mode
        if stage.set_constraints is not None:
            self.constraint_exprs = tuple(stage.set_constraints)
        return self.combine(stage.at)


def run_session(
    frame: Frame,
    sources: list[MassAssignment],
    stages: list[Stage],
    rule: str = "dsmh",
    constraints: tuple[str, ...] = (),
) -> Iterator[SessionResult]:
    """The results of the initial block (labelled "t0") and of each stage, in order.

    "t0" is folded at call time, so a bad start raises here; each later
    stage is applied only when the caller asks for its result.
    """
    session = FusionSession.start(frame, sources, constraints, rule)
    # an exhausted list iterator lets go of its list, and with it of t0's result
    return chain(iter([session.combine("t0")]), map(session.apply, stages))
