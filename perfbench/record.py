"""Record the reference outputs in refs/ from the library in this checkout.

    python3 perfbench/record.py

Runs every template any seed can draw (gen.universe) once, checks the
result invariants, and writes refs/<workload>.json.  The references were
recorded from the initial implementation; later changes must reproduce
them within the checks' tolerances, so re-record only when an output is
meant to change.
"""

from __future__ import annotations

import json
import shutil
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import workloads as wl  # noqa: E402


def _fuse(tpl) -> dict:
    work = wl.FuseManySources([tpl], seed=0)
    (req,) = work.pool
    out = req.call()
    result = out[2] if tpl["kind"] == "hybrid" else out
    return req, out, _rounded(wl.canonical_masses(wl._rendered(result)))


def _wide(tpl) -> dict:
    out = wl._wide(gen.names_for(tpl["n"]), tpl)
    return None, out, _rounded(wl.canonical_masses(out[3]))


def _rounded(masses: dict) -> dict:
    """Twelve significant digits: far inside the checks' 1e-9 tolerance."""
    return {k: float(f"{v:.12g}") for k, v in masses.items()}


def record(workload: str, workdir: Path) -> dict:
    refs = {}
    for spec in gen.universe(workload):
        if workload == "fuse_many_sources":
            req, out, ref = _fuse(spec)
            ok = req.check(ref, out)
        elif workload == "wide_frame":
            _, out, ref = _wide(spec)
            ok = wl._check_wide(ref, out)
        else:
            if spec["id"] == "cli/sweep":
                continue
            if "scenario" in spec:
                path = workdir / (spec["id"].replace("/", "_") + ".json")
                path.write_text(json.dumps(spec["scenario"]), encoding="utf-8")
            argv = [a.replace("{dir}", str(workdir)) for a in spec["argv"]]
            code, text = wl._cli(argv)
            ref = wl.printed_pairs(text)
            ok = wl._CliCheck()(spec["id"], spec["kind"], ref, (code, text))
        if not ok:
            raise SystemExit(f"record: {spec['id']} fails its own checks")
        refs[spec["id"]] = ref
    return refs


def main() -> int:
    warnings.simplefilter("ignore")
    workdir = ROOT / ".bench_build" / "perfbench" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in gen.WORKLOADS:
            refs = record(workload, workdir)
            lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(refs.items())]
            (wl.REFS / f"{workload}.json").write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
            print(f"{workload}: {len(refs)} references; inputs {gen.input_stats(workload)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
