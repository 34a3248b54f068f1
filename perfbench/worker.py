"""One fresh benchmark process: set up, then run the timed or traced loop.

Started by run.py with the checkout's src/ on PYTHONPATH.  It imports
dsmfusion, loads the generated inputs and runs one warm-up request of each
kind, then prints "ready" (run.py times set-up up to that line).  In mode
"setup" it stops there.  In mode "run" it runs whole passes of the request
pool in a closed loop (one client, next request sent when the previous one
returned) until the time is up.  In mode "trace" it runs an untraced half
and a traced half and reports per-layer self times and counts.  The last
line of its output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import warnings
from collections import Counter
from itertools import count
from time import perf_counter

# Set-up starts here: the import below loads dsmfusion.
import workloads


def _run_pass(reqs, refs, on_request=None) -> list:
    """Run one pass; returns the latency of each request, None where it failed."""
    latencies = []
    for req in reqs:
        if on_request is not None:
            on_request()
        t0 = perf_counter()
        try:
            out = req.call()
        except Exception:  # noqa: BLE001 - a raising request is a failed request
            out, ok = None, False
        else:
            ok = True
        t1 = perf_counter()
        if ok and workloads.check(refs, req, out):
            latencies.append(t1 - t0)
        else:
            latencies.append(None)
            sys.stderr.write(f"perfbench: request {req.id} failed\n")
    return latencies


def _timed(work, refs, seconds: float) -> dict:
    """Whole passes until `seconds` have gone by; peak RSS after the first pass.

    Latencies are reported per pass, in pool order, None for a failed request.
    """
    passes, rss_kb = [], None
    t_end = perf_counter() + seconds
    while not passes or perf_counter() < t_end:
        passes.append(_run_pass(work.pass_requests(len(passes)), refs))
        if rss_kb is None:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed = sum(lat is None for p in passes for lat in p)
    return {"passes": passes, "failed": failed, "attempted": sum(map(len, passes)),
            "rss_kb": rss_kb}


def _traced(work, refs, seconds: float) -> dict:
    from spans import MODULES, Tracer

    pass_numbers = count()

    def next_pass():
        return work.pass_requests(next(pass_numbers))

    # One untimed pass first, so both halves start with the same caches.
    warm = [_run_pass(next_pass(), refs)]
    untraced = []
    t_half = perf_counter() + seconds / 2
    while not untraced or perf_counter() < t_half:
        untraced.append(_run_pass(next_pass(), refs))

    tracer = Tracer()
    traced, pass_counts = [], []

    def new_request():
        tracer.request_id += 1

    tracer.install()
    try:
        t_end = perf_counter() + seconds / 2
        while len(traced) < 2 or perf_counter() < t_end:
            before = Counter(tracer.counts)
            traced.append(_run_pass(next_pass(), refs, new_request))
            pass_counts.append(tracer.counts - before)
    finally:
        tracer.uninstall()

    busy = sum(x for p in traced for x in p if x is not None)
    if busy == 0.0:
        raise SystemExit("perfbench: no traced request succeeded")
    self_s = tracer.self_times()
    shares = Counter()
    for name, seconds_ in self_s.items():
        shares[name.split(".")[0]] += seconds_ / busy
    layer = {f"{name}.self_s": v / len(traced) for name, v in self_s.items()}
    layer.update({f"{m}.self_share": shares[m] for m in MODULES})
    layer["bench.self_share"] = 1.0 - tracer.top_level_time() / busy
    everything = warm + untraced + traced
    return {
        "failed": sum(x is None for p in everything for x in p),
        "attempted": sum(map(len, everything)),
        "counts": dict(pass_counts[0]),
        "counts_repeat": all(c == pass_counts[0] for c in pass_counts),
        "layer": layer,
        "passes": len(traced),
        "spans_per_pass": tracer.span_count / len(traced),
        "untraced_passes": untraced,
        "traced_passes": traced,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOAD_CLASSES))
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args()
    # Degenerate-model warnings are part of no workload; keep stderr quiet.
    warnings.simplefilter("ignore")

    with open(args.inputs, encoding="utf-8") as fh:
        specs = json.load(fh)
    work = workloads.WORKLOAD_CLASSES[args.workload](specs, args.seed)
    warmup = []
    for req in work.warmup_requests():
        try:
            warmup.append((req, req.call()))
        except Exception:  # noqa: BLE001 - counted as a failed request below
            warmup.append((req, None))
    sys.stdout.write("ready\n")
    sys.stdout.flush()

    refs = workloads.load_refs(args.workload)
    warm_failed = sum(not workloads.check(refs, req, out) for req, out in warmup)
    if args.mode == "setup":
        report = {"failed": 0, "attempted": 0}
    elif args.mode == "run":
        report = _timed(work, refs, args.seconds)
    else:
        report = _traced(work, refs, args.seconds)
    report["failed"] += warm_failed
    report["attempted"] += len(warmup)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
