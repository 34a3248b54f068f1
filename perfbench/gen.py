"""Seeded inputs for the three benchmark workloads.

Pure Python: this module never imports dsmfusion, so the parent process of
the benchmark can generate inputs without loading the library.

Each workload has a fixed set of request templates (gen.universe), drawn
once from a fixed master seed: for the fusion workloads, one for each of
a list of strata (frame size, sources, focal-set counts).  record.py records a reference result for every template in
refs/.  A run's --seed draws the order of the requests and the order of
every frame's singleton names.  Renaming singletons changes every lattice
bitset the library works on, and so which cache entries it builds and
hits, but not the results up to renaming, which the checks undo by
comparing canonical expressions.  Every seed therefore runs the same mix
of request shapes, which keeps the timings of two seeds comparable, and
every input has a recorded reference.
"""

from __future__ import annotations

import math
import random
import statistics
from itertools import combinations_with_replacement

MASTER = "dsmfusion-perfbench-1"

WORKLOADS = ("fuse_many_sources", "wide_frame", "cli_small")


def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in (MASTER,) + parts))


def names_for(n: int) -> list[str]:
    return [f"t{i}" for i in range(1, n + 1)]


# -- propositions as generator antichains ---------------------------------


def _antichain(gens) -> tuple[tuple[int, ...], ...]:
    """Minimal digit sets of a family: the canonical form of its up-closure."""
    sets = sorted({tuple(sorted(g)) for g in gens}, key=lambda g: (len(g), g))
    keep: list[tuple[int, ...]] = []
    for g in sets:
        if not any(set(k) <= set(g) for k in keep):
            keep.append(g)
    return tuple(sorted(keep, key=lambda g: (-len(g), g)))


def _expr(antichain) -> str:
    terms = []
    for g in antichain:
        term = "&".join(f"t{d}" for d in g)
        terms.append(f"({term})" if len(g) > 1 and len(antichain) > 1 else term)
    return "|".join(terms)


def _atom_count(n: int, antichain) -> int:
    """Venn atoms (non-empty digit subsets) lying above some generator."""
    gens = [sum(1 << (d - 1) for d in g) for g in antichain]
    return sum(1 for atom in range(1, 1 << n) if any(atom & g == g for g in gens))


def _random_element(rng: random.Random, n: int, sizes: tuple[int, int], max_gens: int = 3):
    gens = [rng.sample(range(1, n + 1), rng.randint(*sizes)) for _ in range(rng.randint(1, max_gens))]
    return _antichain(gens)


def _masses(rng: random.Random, exprs: list[str]) -> list[list]:
    raw = [rng.random() + 0.05 for _ in exprs]
    total = sum(raw)
    return [[e, w / total] for e, w in zip(exprs, raw)]


def canonical(expr: str) -> str:
    """Name-order-free form of a rendered expression: "(t3&t1)|t2" -> "1.3|2"."""
    if expr == "EMPTY":
        return expr
    gens = []
    for term in expr.split("|"):
        digits = sorted(int(name.strip("() ")[1:]) for name in term.split("&"))
        gens.append(".".join(str(d) for d in digits))
    return "|".join(sorted(gens, key=lambda g: (g.count("."), g)))


# -- fuse_many_sources ----------------------------------------------------

FUSE_STRATA_COUNT = 24
FUSE_POOL_SIZE = 24


def _focal_counts(target: float, sources: int) -> tuple[int, ...]:
    best = min(
        combinations_with_replacement(range(3, 7), sources),
        key=lambda c: (abs(math.log(math.prod(c)) - math.log(target)), c),
    )
    return best


def fuse_strata() -> list[dict]:
    """Implied tuple counts spaced log-uniformly over 10^3..10^5."""
    out = []
    for i in range(FUSE_STRATA_COUNT):
        sources = 6 + i % 2
        counts = list(_focal_counts(10 ** (3 + 2 * (i + 0.5) / FUSE_STRATA_COUNT), sources))
        _rng("fuse", "strata", i).shuffle(counts)
        out.append({
            "n": 5 + (i // 4) % 2,
            "focal": counts,
            "kind": "classic" if i % 4 == 3 else "hybrid",
        })
    return out


def fuse_template(i: int) -> dict:
    stratum = fuse_strata()[i]
    n = stratum["n"]
    rng = _rng("fuse", i)
    pool: list = []
    while len(pool) < FUSE_POOL_SIZE:
        element = _random_element(rng, n, (1, n))
        if element not in pool:
            pool.append(element)
    sources = []
    for k in stratum["focal"]:
        sources.append(_masses(rng, [_expr(e) for e in rng.sample(pool, k)]))
    tpl = {"id": f"fuse/{i}", "kind": stratum["kind"], "n": n, "sources": sources}
    if stratum["kind"] == "hybrid":
        allowed = [e for e in pool if _atom_count(n, e) <= 2**n - 3]
        tpl["constraint"] = _expr(rng.choice(allowed))
    return tpl


# -- wide_frame -----------------------------------------------------------

WIDE_STRATA_COUNT = 18


def wide_strata() -> list[dict]:
    out = []
    for i in range(WIDE_STRATA_COUNT):
        rng = _rng("wide", "strata", i)
        out.append({
            "n": 10 + i % 3,
            "focal": [rng.randint(3, 4) for _ in range(2 + (i // 3) % 2)],
            "constraints": 1 + (i // 6) % 3,
        })
    return out


def wide_template(i: int) -> dict:
    stratum = wide_strata()[i]
    n = stratum["n"]
    rng = _rng("wide", i)
    sources = []
    for k in stratum["focal"]:
        exprs: list[str] = []
        while len(exprs) < k:
            e = _expr(_random_element(rng, n, (2, 4)))
            if e not in exprs:
                exprs.append(e)
        sources.append(_masses(rng, exprs))
    constraints = []
    while len(constraints) < stratum["constraints"]:
        c = _expr(_random_element(rng, n, (3, 5), max_gens=2))
        if c not in constraints:
            constraints.append(c)
    return {"id": f"wide/{i}", "n": n, "sources": sources, "constraints": constraints}


def wide_names(seed: int, pass_index: int, position: int, n: int) -> list[str]:
    """Singleton order of one request of one pass.

    Every request of every pass renames, so lattice caches miss; renaming
    per request rather than per pass keeps the cost of one unlucky order
    from landing on a whole pass.
    """
    names = names_for(n)
    random.Random(f"{seed}/wide/{pass_index}/{position}").shuffle(names)
    return names


# -- cli_small ------------------------------------------------------------

EXAMPLE_IDS = (
    tuple(f"m{i}" for i in range(1, 8))
    + tuple(f"general-m{i}" for i in range(1, 8))
    + ("dyn1",)
    + tuple(f"dyn3.{i}" for i in range(1, 8))
    + ("contradiction",)
)

SWEEP_STEPS = 1001

# (slot kind, count): the scenario-driven part of the command mix.
CLI_SLOTS = (("dsmh", 4), ("dempster", 2), ("yager", 1), ("mixture", 1), ("events", 2))

_CLI_RULE_FLAGS = {
    "dsmh": ["--rule", "dsmh", "--breakdown", "--compress"],
    "dempster": ["--rule", "dempster"],
    "yager": ["--rule", "yager"],
    "mixture": ["--rule", "mixture"],
    "events": ["--rule", "dsmh"],
}


def _power_set_source(rng: random.Random, n: int) -> list[list]:
    """Unions of singletons only, always including total ignorance (conflict < 1)."""
    exprs = ["|".join(f"t{d}" for d in range(1, n + 1))]
    count = rng.randint(3, 4)
    while len(exprs) < count:
        e = _expr(_antichain([[d] for d in rng.sample(range(1, n + 1), rng.randint(1, n - 1))]))
        if e not in exprs:
            exprs.append(e)
    return _masses(rng, exprs)


def _lattice_source(rng: random.Random, n: int) -> list[list]:
    exprs: list[str] = []
    count = rng.randint(3, 5)
    while len(exprs) < count:
        e = _expr(_random_element(rng, n, (1, n)))
        if e not in exprs:
            exprs.append(e)
    return _masses(rng, exprs)


def _scenario_masses(rows: list[list]) -> list[dict]:
    return [{"prop": e, "mass": repr(m)} for e, m in rows]


def _pair_constraint(rng: random.Random, n: int) -> str:
    a, b = sorted(rng.sample(range(1, n + 1), 2))
    return f"t{a}&t{b}"


def cli_scenario(kind: str, slot: int) -> dict:
    rng = _rng("cli", kind, slot)
    n = 3 + slot % 2
    names = names_for(n)
    if kind in ("dempster", "yager"):
        count = 2 if kind == "yager" else 3
        sources = [_power_set_source(rng, n) for _ in range(count)]
    else:
        sources = [_lattice_source(rng, n) for _ in range(rng.randint(2, 3))]
    doc = {
        "frame": names,
        "sources": [{"name": f"s{k + 1}", "masses": _scenario_masses(s)}
                    for k, s in enumerate(sources)],
    }
    if kind == "dsmh":
        doc["constraints"] = sorted({_pair_constraint(rng, n) for _ in range(rng.randint(0, 2))})
    elif kind == "mixture":
        p = rng.choice(["0.25", "0.5", "0.75"])
        doc["mixture"] = [
            {"constraints": [_pair_constraint(rng, n)], "probability": p},
            {"constraints": [], "probability": str(1 - float(p))},
        ]
    elif kind == "events":
        grown = names + [f"t{n + 1}"]
        added = _lattice_source(rng, n + 1)
        doc["constraints"] = [_pair_constraint(rng, n)]
        doc["events"] = [
            {"at": "t1", "add_elements": [grown[-1]],
             "add_source": {"name": "late", "masses": _scenario_masses(added)}},
            {"at": "t2", "set_constraints": [_pair_constraint(rng, n + 1), f"t{n + 1}&t1"]},
        ]
    return doc


def hpset5_constraints() -> list[str]:
    rng = _rng("cli", "hpset5")
    return sorted({_pair_constraint(rng, 5) for _ in range(2)})


def _scenario_request(kind: str, slot: int) -> dict:
    rid = f"cli/{kind}/{slot}"
    return {
        "id": rid, "kind": kind,
        "argv": ["combine", "--scenario", "{dir}/" + rid.replace("/", "_") + ".json"]
        + _CLI_RULE_FLAGS[kind],
        "scenario": cli_scenario(kind, slot),
    }


def _hpset5_request() -> dict:
    argv = ["hpset", "--frame", "t1,t2,t3,t4,t5"]
    for c in hpset5_constraints():
        argv += ["--constraints", c]
    return {"id": "cli/hpset5", "kind": "hpset5", "argv": argv}


def _cli_fixed_requests() -> list[dict]:
    reqs = [{"id": f"cli/reproduce/{x}", "kind": "reproduce", "argv": ["reproduce", "--example", x]}
            for x in EXAMPLE_IDS]
    reqs.append({"id": "cli/hpset4", "kind": "hpset4",
                 "argv": ["hpset", "--frame", "t1,t2,t3,t4", "--matrix"]})
    reqs.append({"id": "cli/sweep", "kind": "sweep",
                 "argv": ["sweep", "--epsilon-steps", str(SWEEP_STEPS)]})
    return reqs


# -- per-seed request pools -----------------------------------------------


def universe(workload: str) -> list[dict]:
    """Every request template of the workload, singletons in their natural order."""
    if workload == "fuse_many_sources":
        return [dict(fuse_template(i), names=names_for(fuse_strata()[i]["n"]))
                for i in range(FUSE_STRATA_COUNT)]
    if workload == "wide_frame":
        return [wide_template(i) for i in range(WIDE_STRATA_COUNT)]
    if workload == "cli_small":
        reqs = _cli_fixed_requests()
        for kind, count in CLI_SLOTS:
            reqs += [_scenario_request(kind, slot) for slot in range(count)]
        return reqs + [_hpset5_request()]
    raise ValueError(f"unknown workload {workload!r}")


def requests(workload: str, seed: int) -> list[dict]:
    """The request pool one pass of the workload runs, in order.

    wide_frame renames per request and pass instead (wide_names), so that
    no pass reuses the bitsets of an earlier one.
    """
    rng = random.Random(f"{seed}/{workload}")
    pool = universe(workload)
    for spec in pool:
        if "names" in spec:
            rng.shuffle(spec["names"])
        if "scenario" in spec:
            rng.shuffle(spec["scenario"]["frame"])
        if spec.get("kind") == "hpset5":
            frame = spec["argv"][2].split(",")
            rng.shuffle(frame)
            spec["argv"][2] = ",".join(frame)
    rng.shuffle(pool)
    return pool


def input_stats(workload: str) -> dict:
    """Frame sizes, sources, focal counts and implied tuples (the same for every seed)."""
    if workload == "cli_small":
        return {"requests_per_pass": len(universe(workload))}
    pool = universe(workload)
    tuples = sorted(math.prod(len(src) for src in t["sources"]) for t in pool)
    return {
        "requests_per_pass": len(pool),
        "n": sorted({t["n"] for t in pool}),
        "sources": sorted({len(t["sources"]) for t in pool}),
        "focal": sorted({len(src) for t in pool for src in t["sources"]}),
        "tuples_min": tuples[0],
        "tuples_median": statistics.median(tuples),
        "tuples_max": tuples[-1],
    }
