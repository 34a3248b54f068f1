"""CLI output, byte for byte, against a recording.

golden_cli.json holds the stdout, stderr, warnings and exit code of every
`reproduce` ID, `sweep --epsilon-steps 101`, `hpset --matrix` on the free
frames of one to four singletons and on two constrained frames (n=4 and
n=5), and five scenarios (hybrid with constraints, a two-source power set,
a mixture, events, an open-world source) under every rule and flag set.  CI runs this file under two hash
seeds, so the output cannot depend on set or dict order of hashed keys.

Re-record, only when an output is meant to change, with
`PYTHONPATH=src python tests/test_golden_cli.py`.
"""

import io
import json
import os
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from dsmfusion.cli import main
from dsmfusion.worked_examples import EXAMPLE_IDS

GOLDEN = Path(__file__).with_name("golden_cli.json")
RULES = ("dsmc", "dsmh", "dempster", "yager", "smets", "dubois-prade", "mixture")
FLAGS = ((), ("--breakdown",), ("--compress",), ("--out", "csv", "--breakdown"))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "warnings": [str(w.message) for w in caught]}


def commands(scenarios):
    cmds = [("reproduce", "--example", x) for x in EXAMPLE_IDS]
    cmds.append(("sweep", "--epsilon-steps", "101"))
    for n in range(1, 5):
        cmds.append(("hpset", "--frame", ",".join(f"t{i}" for i in range(1, n + 1)), "--matrix"))
    cmds.append(("hpset", "--frame", "t1,t2,t3,t4", "--constraints", "t1&t2", "--matrix"))
    cmds.append(("hpset", "--frame", "t1,t2,t3,t4,t5", "--constraints", "(t1|t2)&t3",
                 "--constraints", "t4&t5", "--matrix"))
    for name in scenarios:
        for rule in RULES:
            for flags in FLAGS:
                cmds.append(("combine", "--scenario", f"{name}.json", "--rule", rule, *flags))
    return cmds


def write_scenarios(directory, scenarios):
    for name, doc in scenarios.items():
        (directory / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")


RECORDED = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", RECORDED["cases"], ids=lambda case: " ".join(case["argv"]))
def test_output_matches_recording(case, tmp_path, monkeypatch):
    write_scenarios(tmp_path, RECORDED["scenarios"])
    monkeypatch.chdir(tmp_path)
    assert run(case["argv"]) == case


def test_recording_covers_every_command():
    assert [case["argv"] for case in RECORDED["cases"]] == [
        list(argv) for argv in commands(RECORDED["scenarios"])]


if __name__ == "__main__":
    import tempfile

    scenarios = RECORDED["scenarios"]
    with tempfile.TemporaryDirectory() as tmp:
        write_scenarios(Path(tmp), scenarios)
        here = os.getcwd()
        os.chdir(tmp)
        try:
            cases = [run(argv) for argv in commands(scenarios)]
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps({"scenarios": scenarios, "cases": cases}, indent=1) + "\n",
                      encoding="utf-8")
    sys.stdout.write(f"recorded {len(cases)} commands in {GOLDEN}\n")
