"""Seeded benchmark of dsmfusion: three closed-loop workloads, timed or traced.

    python3 perfbench/run.py --workload fuse_many_sources --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout; it imports the library from src/.
Workloads (see BENCHMARK.json for why each was chosen):

  fuse_many_sources  dsm_hybrid + compress (3 of 4) and dsm_classic (1 of 4)
                     on 6-7 sources at n = 5..6: the combination engine
  wide_frame         parse -> build_model -> dsm_hybrid -> compress ->
                     to_expression at n = 10..12: the lattice and model layers
  cli_small          in-process dsmfusion.cli.main over every reproduce ID,
                     combine with every rule, hpset and sweep

With --trace 0 it prints the end-to-end metrics: set-up time is the median
over several fresh processes (start, import, load inputs, one warm-up
request of each kind), and the last of them then runs the timed closed
loop: one client, whole passes of the request pool until --seconds have
gone by; the timings are taken from each request's median latency over
the passes.  With --trace 1 one fresh process runs an untraced half and a
traced half and prints per-layer self times, counts and the tracing
overhead.  Every output is checked against refs/; a failed check counts as
a failed request.  The last line of output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import gen

SETUP_RUNS = 5
# The counts that must repeat exactly for a given seed and program.
EXACT_COUNTS = (
    "rules.tuples", "rules.distinct_keys", "model.compress.keys_in", "model.compress.keys_out",
    "model.survivors.classes", "exprparse.parse.calls", "lattice.to_expression.calls",
)
# Every worker must be done this long after the benchmark started.
DEADLINE_S = 170


class BenchError(Exception):
    pass


def _spawn(root: Path, args, mode: str, inputs: Path) -> tuple[float, dict]:
    """Start a worker; returns (seconds until it was set up, its report).

    A worker still running at the deadline is killed, and the run fails.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(root / "perfbench" / "worker.py"), "--workload", args.workload,
           "--inputs", str(inputs), "--seed", str(args.seed), "--mode", mode,
           "--seconds", str(args.seconds)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, args.deadline - perf_counter()), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    if first.strip() != "ready" or code != 0 or not lines:
        raise BenchError(f"worker ({mode}) exited with code {code}")
    return setup_s, json.loads(lines[-1])


def _write_inputs(workdir: Path, workload: str, seed: int) -> Path:
    specs = gen.requests(workload, seed)
    for spec in specs:
        if "scenario" in spec:
            path = workdir / (spec["id"].replace("/", "_") + ".json")
            path.write_text(json.dumps(spec.pop("scenario")), encoding="utf-8")
        if "argv" in spec:
            spec["argv"] = [a.replace("{dir}", str(workdir)) for a in spec["argv"]]
    inputs = workdir / "inputs.json"
    inputs.write_text(json.dumps(specs), encoding="utf-8")
    return inputs


def _good(passes: list) -> list:
    """Latencies of the requests that passed their checks, from per-pass lists."""
    return [x for p in passes for x in p if x is not None]


def _rate(passes: list) -> float:
    """Requests per second of request time, closed loop, one client."""
    latencies = _good(passes)
    return len(latencies) / sum(latencies)


def _typical_pass(passes: list) -> list[float]:
    """Each request's median latency over the passes, sorted; failures left out.

    Every pass runs the same pool in the same order, so position i is one
    request.  A host slowdown during fewer than half of the passes does not
    move a median, and a median, unlike the extreme samples that meet at a
    latency gap between two requests, does not jump with a few samples.
    """
    per_request = zip(*passes)
    return sorted(statistics.median(ok) for lat in per_request
                  if (ok := [x for x in lat if x is not None]))


def _end_to_end(root: Path, args, inputs: Path) -> tuple[dict, int, int, bool]:
    setups, attempted, failed = [], 0, 0
    for _ in range(SETUP_RUNS - 1):
        setup_s, report = _spawn(root, args, "setup", inputs)
        setups.append(setup_s)
        attempted += report["attempted"]
        failed += report["failed"]
    setup_s, report = _spawn(root, args, "run", inputs)
    setups.append(setup_s)
    attempted += report["attempted"]
    failed += report["failed"]

    passes = report["passes"]
    typical = _typical_pass(passes)
    if not typical:
        raise BenchError("no request succeeded")
    print(f"perfbench: {args.workload} seed {args.seed}: {len(_good(passes))} timed requests "
          f"in {len(passes)} passes of {len(typical)}; latency_tail_ms is the slowest request's "
          f"median, about p{100 - 50 / len(typical):.3g} with about {len(passes) // 2} samples "
          f"beyond it; error_ratio {failed}/{attempted}; set-up runs " + " ".join(f"{s:.3f}" for s in setups) + " s")
    metrics = {
        "ops_per_s": len(typical) / sum(typical),
        "latency_p50_ms": 1000 * statistics.median(typical),
        "latency_tail_ms": 1000 * typical[-1],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report["rss_kb"] / 1024,
    }
    return metrics, attempted, failed, True


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")) + sorted((root / "perfbench").glob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _counts_repeat(root: Path, args, counts: dict) -> bool:
    """Compare the exact counts with an earlier traced run of this seed and program."""
    store = root / ".bench_build" / "perfbench" / "counts"
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{args.workload}-{args.seed}-{_source_digest(root)}.json"
    exact = {k: counts.get(k, 0) for k in EXACT_COUNTS}
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        if earlier != exact:
            sys.stderr.write(f"perfbench: counts differ from an earlier run: {earlier} vs {exact}\n")
            return False
    else:
        path.write_text(json.dumps(exact), encoding="utf-8")
    return True


def _per_layer(root: Path, args, inputs: Path) -> tuple[dict, int, int, bool]:
    _, report = _spawn(root, args, "trace", inputs)
    attempted, failed = report["attempted"], report["failed"]
    counts = report["counts"]
    metrics = dict(report["layer"])
    metrics.update(counts)
    tuples = counts.get("rules.tuples", 0)
    metrics["rules.distinct_per_tuple"] = counts.get("rules.distinct_keys", 0) / tuples if tuples else 0.0
    untraced, traced = _rate(report["untraced_passes"]), _rate(report["traced_passes"])
    metrics["trace.ops_per_s_untraced"] = untraced
    metrics["trace.ops_per_s_traced"] = traced
    metrics["trace.overhead_ops_per_s"] = untraced - traced
    metrics["trace.spans_per_pass"] = report["spans_per_pass"]
    metrics["error_ratio"] = failed / attempted
    repeat = report["counts_repeat"] and _counts_repeat(root, args, counts)
    if not report["counts_repeat"]:
        sys.stderr.write("perfbench: counts differ between passes of one run\n")
    print(f"perfbench: {args.workload} seed {args.seed}: traced {report['passes']} passes, "
          f"counts per pass " + json.dumps({k: counts.get(k, 0) for k in EXACT_COUNTS}))
    return metrics, attempted, failed, repeat


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    args.deadline = perf_counter() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "dsmfusion" / "__init__.py").is_file():
        sys.stderr.write("perfbench: run from the root of a dsmfusion checkout (src/dsmfusion missing)\n")
        return 2
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    workdir = root / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = _write_inputs(workdir, args.workload, args.seed)
        measure = _per_layer if args.trace else _end_to_end
        metrics, attempted, failed, counts_ok = measure(root, args, inputs)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": failed == 0 and counts_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
