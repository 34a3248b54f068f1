"""Command-line interface.

Commands:

  hpset      enumerate the (constrained) hyper-power set, optionally with
             the binary encoding matrix
  combine    run a combination rule over a scenario file, with optional
             per-sum breakdown, compression and CSV output
  sweep      emit the near-contradiction epsilon sweep as CSV
  reproduce  recompute a built-in worked example and verify it

Each command returns its exit code and its output lines, which `main`
writes to stdout in one piece, so a command that fails writes nothing
there.  Exit codes: 0 success, 1 reproduction mismatch, 2 input or
validation error, 3 rule undefined (full contradiction).
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal, InvalidOperation
from functools import cache
from math import fsum
from operator import mul
from typing import Sequence

from .bba import MassAssignment
from .dynamic import _list, _string_list, run_session, stages_from
from .errors import DsmError, FullContradiction, ScenarioError
from .exprparse import _parse_or_empty, parse
from .lattice import (ENUMERATION_LIMIT, FRAME_LIMIT, LOAD_LIMIT, Frame, _canonical_key,
                      _check_enumerable, _up_closed_masks, build_frame)
from .model import build_model, encoding_matrix, shafer_model, survivors
from .render import breakdown_lines, class_lines, compressed_lines, mass_lines
from .rules import (
    MixtureSpec,
    RULE_NAMES,
    bayesian_mixture,
    dempster,
    dsm_classic,
    dsm_hybrid,
    dubois_prade,
    smets,
    yager,
)
from .worked_examples import EXAMPLE_IDS, run_example

SWEEP_LIMIT = 10_001  # sweep rows: epsilon in steps of 1e-4
_DST_RULES = {"yager": yager, "smets": smets, "dubois-prade": dubois_prade}  # each takes the sources alone


def _parse_mass(text) -> float:
    # Masses travel as decimal strings so files parse identically everywhere;
    # plain JSON numbers go the same way (an int past the float range becomes
    # inf, which validation refuses); JSON booleans (ints in Python) do not.
    if isinstance(text, bool):
        raise ScenarioError(f"expected a decimal number, not {text!r}")
    try:
        return float(Decimal(str(text)))
    except (InvalidOperation, ValueError) as exc:  # ValueError: signaling NaN
        raise ScenarioError(f"bad decimal mass {text!r}") from exc


def _load_scenario(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError: undecodable bytes, bad JSON or an int literal past the
        # int-to-str digit limit; RecursionError: nesting past the parser's depth
        raise ScenarioError(f"scenario {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "frame" not in doc or "sources" not in doc:
        raise ScenarioError("scenario must be an object with 'frame' and 'sources'")
    return doc


def _source_from(obj: dict, frame: Frame, smets_mode: bool) -> MassAssignment:
    if not isinstance(obj, dict) or not isinstance(obj.get("masses"), list):
        raise ScenarioError("each source needs a 'masses' list")
    rows = []
    for row in obj["masses"]:
        if not isinstance(row, dict) or "prop" not in row or "mass" not in row:
            raise ScenarioError(f"mass rows need 'prop' and 'mass': {row!r}")
        text = row["prop"]
        if not isinstance(text, str):
            raise ScenarioError(f"'prop' must be an expression string: {text!r}")
        # "EMPTY" lets open-world (smets_mode) sources put mass on the empty set
        rows.append((_parse_or_empty(frame, text), _parse_mass(row["mass"])))
    # MassAssignment sums the masses of repeated keys in row order
    return MassAssignment(frame, rows, smets_mode=smets_mode)


def _check_load(doc: dict, n: int) -> None:
    """Refuse, before any expression is parsed, masses that would hold past LOAD_LIMIT atom bits.

    Counts the mass rows of the sources on the scenario's n singletons, one
    row more for each mixture entry (its model's empty atoms), and the rows
    of each event's added source on the frame that event grows; malformed
    parts count nothing here and are refused where they are read.
    """
    def rows(source) -> int:
        masses = source.get("masses") if isinstance(source, dict) else None
        return len(masses) if isinstance(masses, list) else 0

    mixture = doc.get("mixture")
    entries = len(mixture) if isinstance(mixture, list) else 0
    bits = (sum(map(rows, doc["sources"])) + entries) * ((1 << n) - 1)
    events = doc.get("events")
    for event in events if isinstance(events, list) else ():
        if isinstance(event, dict):
            added = event.get("add_elements")
            n += len(added) if isinstance(added, list) else 0
            if n > FRAME_LIMIT:  # build_frame refuses this and every later source unparsed
                break
            bits += rows(event.get("add_source")) * ((1 << n) - 1)
    if bits > LOAD_LIMIT:
        raise ScenarioError(f"the scenario's masses would hold {bits} atom bits, "
                            f"past LOAD_LIMIT = {LOAD_LIMIT}")


def _breakdown_rows(bd) -> Sequence[int]:
    # Small frames show every lattice element; larger ones only the keys the
    # combination touched (the result's keys are among S1's, S2's and S3's).
    n = bd.model.frame.n
    if n <= ENUMERATION_LIMIT:
        return _up_closed_masks(n)
    s1, s2, s3 = bd._tables
    return sorted(s1.keys() | s2.keys() | s3.keys(), key=_canonical_key)


def cmd_hpset(args) -> tuple[int, list[str]]:
    frame = build_frame([s for s in args.frame.split(",") if s])
    _check_enumerable(frame)  # before any constraint is read

    def constraints():
        for item in args.constraints or []:
            # no identifier starts with "@", so a file spelled "@path" shadows no expression
            if item.startswith("@"):
                try:
                    with open(item[1:], "r", encoding="utf-8") as fh:
                        exprs = [ln.strip() for ln in fh if ln.strip()]
                except (OSError, UnicodeDecodeError) as exc:
                    raise ScenarioError(f"cannot read constraints file {item[1:]!r}: {exc}") from exc
            else:
                exprs = [item]
            yield from (parse(frame, e) for e in exprs)

    model = build_model(frame, constraints())
    classes = survivors(model)
    lines = [*class_lines(classes), f"total classes: {len(classes)}"]
    if args.matrix:
        basis, matrix = encoding_matrix(model, classes)
        lines.append("basis: " + " ".join(f"<{''.join(map(str, digits))}>" for digits in basis))
        lines += (" ".join(str(x) for x in row) for row in matrix)
    return 0, lines


def _combine_static(doc: dict, frame: Frame, sources, model, args) -> tuple[int, list[str]]:
    csv = args.out == "csv"
    rule = args.rule
    if rule in ("dempster", "yager", "smets", "dubois-prade") and model.empty_mask & ((1 << frame.n) - 1):
        raise ScenarioError(f"rule {rule!r} cannot honour a constraint emptying a singleton; use 'dsmh'")
    lines = []
    if rule == "dsmh":
        bd = dsm_hybrid(sources, model)
        result = bd.result
    elif rule == "dsmc":
        if not model.is_free:
            raise ScenarioError("rule 'dsmc' ignores constraints; drop them or use 'dsmh'")
        result = dsm_classic(sources)
    elif rule == "dempster":
        result, conflict = dempster(sources)
        lines.append(f"conflict={conflict:.6f}")
    elif rule in _DST_RULES:
        result = _DST_RULES[rule](sources)
    elif rule == "mixture":
        entries = _list(doc, "mixture")
        if not entries:
            raise ScenarioError("rule 'mixture' needs a 'mixture' list in the scenario")
        if not model.is_free:
            raise ScenarioError("rule 'mixture' takes constraints per 'mixture' entry, not top-level")
        pairs = []
        for ent in entries:
            if not isinstance(ent, dict) or "probability" not in ent:
                raise ScenarioError(f"mixture entries need a 'probability': {ent!r}")
            constraints = (parse(frame, e) for e in _string_list(ent, "constraints"))
            pairs.append((build_model(frame, constraints), _parse_mass(ent["probability"])))
        if args.compress:
            raise ScenarioError("--compress is undefined for 'mixture' (no single model)")
        result = bayesian_mixture(sources, MixtureSpec(tuple(pairs)))

    if args.breakdown:
        lines += breakdown_lines(bd, _breakdown_rows(bd), csv)
    else:
        lines += mass_lines(result, csv)
    if args.compress:
        lines.append("" if csv else "-- compressed --")
        lines += compressed_lines(model, result._masses, csv)
    return 0, lines


def cmd_combine(args) -> tuple[int, list[str]]:
    doc = _load_scenario(args.scenario)
    if not isinstance(doc["frame"], list):
        raise ScenarioError("'frame' must be a list of singleton names")
    frame = build_frame(doc["frame"])
    smets_mode = doc.get("smets_mode", False)
    if not isinstance(smets_mode, bool):
        raise ScenarioError(f"'smets_mode' must be true or false: {smets_mode!r}")
    if not isinstance(doc["sources"], list) or not doc["sources"]:
        raise ScenarioError("scenario has no sources")
    _check_load(doc, frame.n)
    sources = [_source_from(s, frame, smets_mode) for s in doc["sources"]]
    constraint_exprs = _string_list(doc, "constraints")
    events = _list(doc, "events")
    if events and args.rule not in ("dsmh", "dsmc"):
        raise ScenarioError("scenarios with events run under 'dsmh' or 'dsmc'")
    if args.breakdown and args.rule != "dsmh":
        raise ScenarioError("--breakdown is only meaningful with rule 'dsmh'")
    if events and args.compress:
        raise ScenarioError("--compress does not apply to events: every stage's result is compressed")
    if not events:
        # parsed one at a time (a session parses its own): an n=18 constraint holds
        # 32 KiB until build_model ORs it in
        model = build_model(frame, (parse(frame, e) for e in constraint_exprs))
        return _combine_static(doc, frame, sources, model, args)

    stages = stages_from(events, frame.names, lambda grown, obj: _source_from(obj, grown, smets_mode))
    csv = args.out == "csv"
    lines = []
    for rec in run_session(frame, sources, stages, rule=args.rule, constraints=constraint_exprs):
        lines.append(f"== stage {rec.label} ==" if not csv else f"# stage {rec.label}")
        lines += mass_lines(rec.result, csv)
        if args.breakdown:
            lines += breakdown_lines(rec.breakdown, _breakdown_rows(rec.breakdown), csv)
    return 0, lines


def sweep_rows(steps: int) -> list[tuple[float, float | None, float | None, float, float, float]]:
    """Near-contradiction sweep: m1 = {t1: 1-e, t2: e}, m2 = {t1: e, t2: 1-e}.

    Returns (epsilon, dempster_t1, dempster_t2, dsmh_t1, dsmh_t2,
    dsmh_t1_or_t2) at `steps` uniform points covering [0, 1]; the normalized
    columns are None where the orthogonal sum is undefined.  `steps` runs
    from 2 to SWEEP_LIMIT.

    The rows come from four `dsm_hybrid` calls, one per pair (x, y) of the
    focal sets t1 and t2, each on the one-focal-set sources {x: 1} and
    {y: 1} under Shafer's model: that pair's route, 1.0 on the one key its
    product lands on (S1's meet, S3's join or S2's target).  A two-source
    combination is bilinear in the masses, so a row's hybrid entry on key A
    is the exactly rounded sum of m1(x) * m2(y) * route_xy(A) over the four
    pairs, as the engine folds it.  The meet of two different singletons is
    empty under Shafer's model, so the t1 and t2 entries are S1's, the sums
    Dempster's own fold makes, and t1|t2 holds the conflict: Dempster's
    columns normalize the t1 and t2 entries.
    """
    if not 2 <= steps <= SWEEP_LIMIT:
        raise ScenarioError(f"sweep takes 2 to {SWEEP_LIMIT} steps, not {steps}")
    frame = build_frame(("t1", "t2"))
    t1, t2, union = (parse(frame, e).mask for e in ("t1", "t2", "t1|t2"))
    shafer = shafer_model(frame)
    pairs = [(x, y) for x in (t1, t2) for y in (t1, t2)]
    routes = [dsm_hybrid([MassAssignment._from_masks(frame, {x: 1.0}),
                          MassAssignment._from_masks(frame, {y: 1.0})], shafer).result._masses
              for x, y in pairs]
    # route_xy(A) for the keys A = t1, t2, t1|t2, each over the pairs in order
    columns = [[route.get(key, 0.0) for route in routes] for key in (t1, t2, union)]
    rows = []
    for i in range(steps):
        eps = i / (steps - 1)
        m1, m2 = {t1: 1.0 - eps, t2: eps}, {t1: eps, t2: 1.0 - eps}
        products = [m1[x] * m2[y] for x, y in pairs]
        h1, h2, conflict = (fsum(map(mul, products, column)) for column in columns)
        surviving = fsum((h1, h2))
        if surviving <= 0.0 or conflict >= 1.0:
            d1 = d2 = None
        else:
            d1, d2 = h1 / surviving, h2 / surviving
        rows.append((eps, d1, d2, h1, h2, conflict))
    return rows


def cmd_sweep(args) -> tuple[int, list[str]]:
    rows = sweep_rows(args.epsilon_steps)

    lines = ["epsilon,dempster_t1,dempster_t2,dsmh_t1,dsmh_t2,dsmh_t1_or_t2"]
    for row in rows:
        if row[1] is None:  # both Dempster columns undefined: the two endpoints
            lines.append(",".join(["NaN" if v is None else format(v, ".12g") for v in row]))
        else:
            lines.append("%.12g,%.12g,%.12g,%.12g,%.12g,%.12g" % row)
    if not args.out:
        return 0, lines
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("".join(f"{line}\n" for line in lines))
    except OSError as exc:
        raise ScenarioError(f"cannot write {args.out!r}: {exc}") from exc
    return 0, []


def cmd_reproduce(args) -> tuple[int, list[str]]:
    report = run_example(args.example)
    return (0 if report.passed else 1), [*report.lines, report.verdict]


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsmfusion",
        description="Evidence combination over hyper-power sets (DSm classic/hybrid and DST rules).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hpset", help="enumerate the constrained hyper-power set")
    p.add_argument("--frame", required=True, help="comma-separated singleton names")
    p.add_argument("--constraints", action="append",
                   help="constraint expression, or @FILE with one per line (repeatable)")
    p.add_argument("--matrix", action="store_true", help="print basis and encoding matrix")
    p.set_defaults(fn=cmd_hpset)

    p = sub.add_parser("combine", help="combine the sources of a scenario file")
    p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    p.add_argument("--rule", choices=RULE_NAMES, default="dsmh")
    p.add_argument("--breakdown", action="store_true", help="show phi/S1/S2/S3 columns (dsmh)")
    p.add_argument("--compress", action="store_true", help="merge model-equivalent propositions")
    p.add_argument("--out", choices=("table", "csv"), default="table")
    p.set_defaults(fn=cmd_combine)

    p = sub.add_parser("sweep", help="emit the near-contradiction epsilon sweep as CSV")
    p.add_argument("--epsilon-steps", type=int, required=True, metavar="N")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("reproduce", help="recompute a built-in worked example and verify it")
    p.add_argument("--example", required=True, choices=EXAMPLE_IDS, metavar="ID",
                   help=f"one of: {', '.join(EXAMPLE_IDS)}")
    p.set_defaults(fn=cmd_reproduce)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, lines = args.fn(args)
    except FullContradiction as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except DsmError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    sys.stdout.write("".join(f"{line}\n" for line in lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
