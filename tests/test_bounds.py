"""The CLI's time and peak-RSS bounds at FRAME_LIMIT = 18 singletons: each row runs
`python -m dsmfusion` under coreutils `timeout` through peak_rss.py, on Linux only."""

import json
import os
import subprocess
import sys
from itertools import chain, combinations, islice

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(TESTS)
NAMES = [f"t{i}" for i in range(1, 19)]


def source(name, *masses):
    return {"name": name, "masses": [{"prop": p, "mass": m} for p, m in masses]}


def meets(count):
    """The first `count` 3- to 5-way meets of the 18 singletons."""
    return islice(chain.from_iterable(combinations(NAMES, k) for k in (3, 4, 5)), count)


def frame18():
    # every proposition carries 2^18 - 1 atom bits: a slow lattice walk shows as a timeout,
    # a second per-atom table (such as digit tuples beside the digit bitsets) as a peak past 40 MB
    return {"frame": NAMES,
            "sources": [source("s1", ("t1", "0.4"), ("t2|t3", "0.35"), ("t17&t18", "0.25")),
                        source("s2", ("t2", "0.5"), ("t1|t18", "0.3"), ("(t3&t4)|t5", "0.2"))],
            "constraints": ["t1&t2"]}


def events18():
    # a session that kept every stage's result and S1/S2/S3 breakdown until the end peaked at 178 MB
    return dict(frame18(), events=[{"at": f"s{i}"} for i in range(1, 401)])


def grow18():
    # frame18 on t1..t17, then one event that adds t18 and a source, and one that re-constrains:
    # growth embeds every mask of the tables, of S1 and of the model onto 2^18 - 1 atom bits
    return {"frame": NAMES[:17],
            "sources": [source("s1", ("t1", "0.4"), ("t2|t3", "0.35"), ("t16&t17", "0.25")),
                        source("s2", ("t2", "0.5"), ("t1|t17", "0.3"), ("(t3&t4)|t5", "0.2"))],
            "constraints": ["t1&t2"],
            "events": [{"at": "grown", "add_elements": ["t18"],
                        "add_source": source("s3", ("t18", "0.6"), ("t17|t18", "0.4"))},
                       {"at": "reconstrained", "set_constraints": ["t1&t2", "t17&t18"]}]}


def dp18():
    # Dubois-Prade is the hybrid rule under Shafer's model: two power-set sources with
    # conflicting pairs run its S3 fold at 2 x (2^18 - 1) bits and compress to the power set
    return {"frame": NAMES,
            "sources": [source("s1", ("t1", "0.4"), ("t2|t3", "0.35"), ("t17|t18", "0.25")),
                        source("s2", ("t2", "0.5"), ("t1|t18", "0.3"), ("t3|t5", "0.2"))]}


def past_fold_limit():
    # 65 and 64 focal sets: the classic fold's second step would take 65 meets of 2^18 - 1 atom bits
    # through 64 focal sets, 1.09e9 bits of work, just past FOLD_LIMIT = 2^30 (run, over 100 MB)
    props = NAMES + [f"{a}&{b}" for a, b in combinations(NAMES, 2)]
    a = [{"prop": p, "mass": "0.015"} for p in props[1:65]] + [{"prop": props[0], "mass": "0.04"}]
    b = [{"prop": p, "mass": "0.015625"} for p in props[:64]]
    return {"frame": NAMES, "sources": [{"name": "a", "masses": a}, {"name": "b", "masses": b}]}


def load18():
    # 467 KB of mass rows of 2^18 - 1 atom bits (32 KiB) each: refused only at the first
    # fold step, it peaked at 358 MB
    a = [{"prop": "&".join(m), "mass": "0.0001"} for m in meets(10000)]
    return {"frame": NAMES, "sources": [{"name": "a", "masses": a}, source("b", ("t1", "1"))]}


def mixture18():
    # every entry's model holds a 2^18 - 1 bit mask, so uncounted they exited 0 at 163 MB
    mixture = [{"constraints": ["&".join(m)], "probability": "0.00025"} for m in meets(4000)]
    return {"frame": NAMES, "sources": [source("a", ("t1", "1")), source("b", ("t2", "1"))],
            "mixture": mixture}


def cons18():
    # parsed into a list before the frame was refused, they peaked at 352 MB
    return "".join("&".join(m) + "\n" for m in meets(10000))


# id: builder (None: the file is an output), argv with {} for the file, exit code,
# peak-RSS bound in MB, timeout in seconds, and the output's line count if checked
BOUNDS = {
    "fusion": (frame18, "combine --scenario {} --rule dsmh --breakdown --compress", 0, 40, 60, None),
    "session-400-stages": (events18, "combine --scenario {} --rule dsmh", 0, 40, 60, None),
    "growth-17-to-18": (grow18, "combine --scenario {} --rule dsmh --breakdown", 0, 48, 60, None),
    "dubois-prade": (dp18, "combine --scenario {} --rule dubois-prade", 0, 40, 60, None),
    "past-fold-limit": (past_fold_limit, "combine --scenario {} --rule dsmh", 2, 40, 60, None),
    "past-load-limit": (load18, "combine --scenario {} --rule dsmh", 2, 40, 60, None),
    "mixture-past-load-limit": (mixture18, "combine --scenario {} --rule mixture", 2, 40, 60, None),
    "hpset-past-enumeration-limit": (cons18, f"hpset --frame {','.join(NAMES)} --constraints @{{}}",
                                     2, 40, 60, None),
    "sweep-limit": (None, "sweep --epsilon-steps 10001 --out {}", 0, 40, 20, 10002),
}


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB only on Linux")
@pytest.mark.parametrize("build,argv,code,bound_mb,seconds,lines", BOUNDS.values(), ids=list(BOUNDS))
def test_peak_rss_within_bound(tmp_path, build, argv, code, bound_mb, seconds, lines):
    path = tmp_path / "scenario"
    if build is not None:
        scenario = build()
        path.write_text(scenario if isinstance(scenario, str) else json.dumps(scenario), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    run = subprocess.run([sys.executable, os.path.join(TESTS, "peak_rss.py"), str(code), str(bound_mb),
                          "timeout", str(seconds), sys.executable, "-m", "dsmfusion",
                          *(a.format(path) for a in argv.split())],
                         capture_output=True, text=True, env=env, cwd=REPO)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    if lines is not None:
        assert path.read_text(encoding="utf-8").count("\n") == lines
