"""Requests and output checks for the benchmark workloads.

Each request calls the library through its module attributes at call time
(dsmfusion.dsm_hybrid, dsmfusion.cli.main, ...), so the traced run can wrap
them.  The checks use references to the library taken at import time, so
they never show up in a trace, and they run outside the timed region.
"""

from __future__ import annotations

import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from math import fsum
from pathlib import Path

import dsmfusion as df
import dsmfusion.cli as df_cli
from dsmfusion.lattice import to_expression as _render

import gen

REFS = Path(__file__).resolve().parent / "refs"

MASS_TOLERANCE = 1e-9
# Printed tables carry six decimals; an ulp-level change may move the last one.
PRINTED_TOLERANCE = 2e-6


class Request:
    __slots__ = ("id", "kind", "call", "check")

    def __init__(self, rid, kind, call, check):
        self.id, self.kind, self.call, self.check = rid, kind, call, check


def load_refs(workload: str) -> dict:
    with open(REFS / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- mass results ---------------------------------------------------------


def canonical_masses(items) -> dict[str, float]:
    """{canonical expression: mass} of rendered (expression, mass) pairs."""
    out: dict[str, float] = {}
    for expr, value in items:
        key = gen.canonical(expr)
        if key in out:
            raise ValueError(f"two result keys render as {key}")
        out[key] = value
    return out


def masses_ok(result: dict[str, float], ref: dict[str, float]) -> bool:
    """Finite, non-negative, sums to 1 and matches the reference."""
    values = list(result.values())
    if not all(math.isfinite(v) and v >= 0.0 for v in values):
        return False
    if abs(fsum(values) - 1.0) > MASS_TOLERANCE:
        return False
    return all(abs(result.get(k, 0.0) - ref.get(k, 0.0)) <= MASS_TOLERANCE
               for k in set(result) | set(ref))


def _rendered(m) -> list[tuple[str, float]]:
    return [("EMPTY" if p.is_empty else _render(p), v) for p, v in m.items()]


def _mass_on_empty(is_empty, *assignments) -> bool:
    return any(v > 0.0 and is_empty(p) for m in assignments for p, v in m.items())


# -- fuse_many_sources ----------------------------------------------------


def _fuse_hybrid(sources, model):
    breakdown = df.dsm_hybrid(sources, model)
    return model, breakdown, df.compress(model, breakdown.result)


def _fuse_classic(sources):
    return df.dsm_classic(sources)


def _check_fuse_hybrid(ref, out) -> bool:
    model, breakdown, compressed = out
    if _mass_on_empty(model.is_empty, breakdown.result, compressed):
        return False
    return masses_ok(canonical_masses(_rendered(compressed)), ref)


def _check_fuse_classic(ref, out) -> bool:
    if _mass_on_empty(lambda p: p.is_empty, out):
        return False
    return masses_ok(canonical_masses(_rendered(out)), ref)


def _assignment(frame, rows):
    return df.MassAssignment(frame, {df.parse(frame, e): m for e, m in rows})


class FuseManySources:
    """Library calls on prebuilt sources: 3 of 4 hybrid+compress, 1 of 4 classic."""

    def __init__(self, specs, seed):
        self.pool = []
        for spec in specs:
            frame = df.build_frame(spec["names"])
            sources = [_assignment(frame, rows) for rows in spec["sources"]]
            if spec["kind"] == "hybrid":
                model = df.build_model(frame, [df.parse(frame, spec["constraint"])])
                call, check = (lambda s=sources, m=model: _fuse_hybrid(s, m)), _check_fuse_hybrid
            else:
                call, check = (lambda s=sources: _fuse_classic(s)), _check_fuse_classic
            self.pool.append(Request(spec["id"], spec["kind"], call, check))

    def pass_requests(self, pass_index: int) -> list[Request]:
        return self.pool

    def warmup_requests(self) -> list[Request]:
        return _first_of_each_kind(self.pool)


# -- wide_frame -----------------------------------------------------------


def _wide(names, tpl):
    frame = df.build_frame(names)
    sources = [_assignment(frame, rows) for rows in tpl["sources"]]
    model = df.build_model(frame, [df.parse(frame, c) for c in tpl["constraints"]])
    breakdown = df.dsm_hybrid(sources, model)
    compressed = df.compress(model, breakdown.result)
    rendered = [(df.to_expression(p), v) for p, v in compressed.items()]
    return model, breakdown, compressed, rendered


def _check_wide(ref, out) -> bool:
    model, breakdown, compressed, rendered = out
    if _mass_on_empty(model.is_empty, breakdown.result, compressed):
        return False
    return masses_ok(canonical_masses(rendered), ref)


class WideFrame:
    """parse -> build_model -> dsm_hybrid -> compress -> to_expression at n = 10..12.

    Every request of every pass renames the singletons, so it meets lattice
    bitsets the library's caches have not seen, as a long-running process
    fed new evidence would.
    """

    def __init__(self, specs, seed):
        self.specs, self.seed = specs, seed

    def pass_requests(self, pass_index: int) -> list[Request]:
        out = []
        for position, tpl in enumerate(self.specs):
            names = gen.wide_names(self.seed, pass_index, position, tpl["n"])
            out.append(Request(tpl["id"], "wide", lambda nm=names, t=tpl: _wide(nm, t), _check_wide))
        return out

    def warmup_requests(self) -> list[Request]:
        first = min(self.specs, key=lambda t: t["id"])
        names = gen.wide_names(self.seed, -1, 0, first["n"])
        return [Request(first["id"], "wide", lambda: _wide(names, first), _check_wide)]


# -- cli_small ------------------------------------------------------------

_ELEMENT = re.compile(r"[A-Za-z0-9_.&|()\-]+\Z")
_EXPRESSION = re.compile(r"[t0-9&|()]*t[t0-9&|()]*\Z")


def _floats(pieces) -> list[float]:
    out = []
    for piece in pieces:
        try:
            out.append(float(piece))
        except ValueError:
            pass
    return out


def printed_pairs(text: str) -> dict[str, list[list[float]]]:
    """(element, values) pairs of printed output, grouped by element.

    Only the numbers per element are kept, not the layout, so column
    widths, headers and titles may change without failing the check.
    Elements are keyed by their canonical expression, which does not
    depend on the order of the frame's singletons.
    """
    groups: dict[str, list[list[float]]] = {}
    for line in text.splitlines():
        tokens = [t for t in re.split(r"[\s,]+", line.strip()) if t]
        if not tokens:
            continue
        key, rest = tokens[0], tokens[1:]
        if "=" in key:
            key, _, value = key.partition("=")
            rest = [value] + rest
        if not _ELEMENT.match(key):
            continue
        if _EXPRESSION.match(key):
            key = gen.canonical(key)
        numbers = []
        for token in rest:
            # "a+b=c" lists a class's members in bitset order, which depends
            # on the singletons' order: compare the addends as a multiset.
            head, _, tail = token.rpartition("=")
            numbers += sorted(_floats(head.split("+"))) + _floats([tail])
        if numbers:
            groups.setdefault(key, []).append(numbers)
    for rows in groups.values():
        rows.sort(key=lambda r: (len(r), [0.0 if math.isnan(x) else x for x in r]))
    return groups


def pairs_match(got: dict, want: dict) -> bool:
    if got.keys() != want.keys():
        return False
    for key, rows in want.items():
        if len(got[key]) != len(rows):
            return False
        for a, b in zip(got[key], rows):
            if len(a) != len(b):
                return False
            for x, y in zip(a, b):
                if not (math.isnan(x) and math.isnan(y)) and not abs(x - y) <= PRINTED_TOLERANCE:
                    return False
    return True


@cache
def sweep_reference(steps: int) -> dict:
    """Closed form of the sweep: m1 = {t1: 1-e, t2: e}, m2 = {t1: e, t2: 1-e}.

    Dempster splits evenly except at the endpoints, where it is undefined;
    the hybrid rule keeps e(1-e) on each singleton and moves the conflict
    (1-e)^2 + e^2 to t1|t2.
    """
    rows = {}
    for i in range(steps):
        e = i / (steps - 1)
        d = math.nan if e in (0.0, 1.0) else 0.5
        rows[format(e, ".12g")] = [[d, d, e * (1 - e), e * (1 - e), (1 - e) ** 2 + e**2]]
    return rows


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = df_cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


class _CliCheck:
    """Exit code 0, PASS verdicts, printed pairs equal to the reference.

    Output equal to one already verified for the same request passes
    without parsing again.
    """

    def __init__(self):
        self.verified: dict[str, str] = {}

    def __call__(self, rid, kind, ref, out) -> bool:
        code, text = out
        if code != 0:
            return False
        if self.verified.get(rid) == text:
            return True
        if kind == "reproduce":
            verdicts = [ln for ln in text.splitlines() if ln.startswith(("PASS", "FAIL"))]
            if len(verdicts) != 1 or not verdicts[0].startswith("PASS "):
                return False
        if not pairs_match(printed_pairs(text), ref):
            return False
        self.verified[rid] = text
        return True


class CliSmall:
    """In-process dsmfusion.cli.main over the fixed command mix."""

    def __init__(self, specs, seed):
        checker = _CliCheck()
        self.pool = []
        for spec in specs:
            rid, kind, argv = spec["id"], spec["kind"], spec["argv"]
            check = (lambda ref, out, r=rid, k=kind: checker(r, k, ref, out))
            self.pool.append(Request(rid, kind, lambda a=argv: _cli(a), check))

    def pass_requests(self, pass_index: int) -> list[Request]:
        return self.pool

    def warmup_requests(self) -> list[Request]:
        return _first_of_each_kind(self.pool)


def _first_of_each_kind(pool: list[Request]) -> list[Request]:
    seen: dict[str, Request] = {}
    for req in sorted(pool, key=lambda r: r.id):
        seen.setdefault(req.kind, req)
    return list(seen.values())


WORKLOAD_CLASSES = {
    "fuse_many_sources": FuseManySources,
    "wide_frame": WideFrame,
    "cli_small": CliSmall,
}


def reference_for(refs: dict, rid: str):
    if rid == "cli/sweep":
        return sweep_reference(gen.SWEEP_STEPS)
    return refs[rid]


def check(refs: dict, req: Request, out) -> bool:
    """True when the output passes; an error inside a check counts as a failure."""
    try:
        return bool(req.check(reference_for(refs, req.id), out))
    except Exception:  # noqa: BLE001 - any malformed output is a failed request
        return False
