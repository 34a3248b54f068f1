"""Command-line behavior: outputs, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from math import fsum, isfinite
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from dsmfusion import (ENUMERATION_LIMIT, LOAD_LIMIT, RULE_NAMES, MassAssignment, build_frame,
                       build_model, compress, dempster, dsm_hybrid, parse, shafer_model, survivors,
                       to_expression)
from dsmfusion import cli, dynamic
from dsmfusion import model as dsm_model
from dsmfusion.cli import SWEEP_LIMIT, main, sweep_rows
from dsmfusion.errors import FullContradiction, ScenarioError
from dsmfusion.lattice import _canonical_key
from conftest import SOURCE_A, SOURCE_B
from test_bounds import NAMES, past_fold_limit, source

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")


def run_cli(*argv, hash_seed=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return subprocess.run(
        [sys.executable, "-m", "dsmfusion", *argv],
        capture_output=True, text=True, env=env, cwd=REPO,
    )


SCENARIO_REF = {"frame": ["t1", "t2", "t3"],
                "sources": [source(name, *((p, f"{m:.2f}") for p, m in table.items()))
                            for name, table in (("s1", SOURCE_A), ("s2", SOURCE_B))]}


# Two valid sources on one-letter names, so a string where a list belongs
# splits into characters that still parse.
SCENARIO_AB = {
    "frame": ["a", "b"],
    "sources": [
        {"name": "x", "masses": [{"prop": "a", "mass": "0.6"}, {"prop": "b", "mass": "0.4"}]},
        {"name": "y", "masses": [{"prop": "a", "mass": "0.7"}, {"prop": "b", "mass": "0.3"}]},
    ],
}

SOURCES_SHORT_OF_ONE = {
    "frame": ["t1", "t2", "t3"],
    "sources": [{"name": f"s{i}", "masses": [{"prop": t, "mass": "0.3333333333"} for t in ("t1", "t2", "t3")]}
                for i in range(12)],
}

SOURCES_PAST_ONE = {
    "frame": ["t1", "t2", "t3"],
    "sources": [
        {"name": "x", "masses": [{"prop": "t1", "mass": "0.6000000009"}, {"prop": "t2", "mass": "0.4"}]},
        {"name": "y", "masses": [{"prop": "t2", "mass": "0.5000000009"}, {"prop": "t1|t3", "mass": "0.5"}]},
    ],
}


def with_extra_mass(text):
    doc = json.loads(json.dumps(SCENARIO_AB))
    doc["sources"][0]["masses"].append({"prop": "a&b", "mass": text})
    return doc


FIT_ROWS = LOAD_LIMIT // (2**18 - 1)  # 512 mass rows at n=18


def load_rows(rows):
    """A scenario on 18 singletons with `rows` mass rows in all.

    They are split across its two sources and an event's added source.
    """
    def rows_of(k):
        return {"name": "s", "masses": [{"prop": "t1", "mass": "1"}] * k}

    third = rows // 3
    return {"frame": NAMES, "sources": [rows_of(third), rows_of(third)],
            "events": [{"at": "t1"}, {"at": "t2", "add_source": rows_of(rows - 2 * third)}]}


def with_first_masses(*rows):
    doc = json.loads(json.dumps(SCENARIO_AB))
    doc["sources"][0]["masses"] = [{"prop": p, "mass": m} for p, m in rows]
    return doc


@pytest.fixture
def scenario_file(tmp_path):
    def write(doc, name="scenario.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    return write


class TestHpset:
    def test_free_n3_has_19_rows(self, capsys):
        assert main(["hpset", "--frame", "t1,t2,t3"]) == 0
        out = capsys.readouterr().out
        rows = [ln for ln in out.splitlines() if "members=" in ln]
        assert len(rows) == 19
        assert "total classes: 19" in out

    def test_constrained_has_13(self, capsys):
        assert main(["hpset", "--frame", "t1,t2,t3", "--constraints", "t1&t2"]) == 0
        assert "total classes: 13" in capsys.readouterr().out

    def test_single_singleton(self, capsys):
        assert main(["hpset", "--frame", "t1"]) == 0
        out = capsys.readouterr().out
        assert len([ln for ln in out.splitlines() if "members=" in ln]) == 2

    def test_empty_as_a_singleton_name_exit_2(self, capsys):
        # it would print "EMPTY" for both the empty class and the singleton's
        assert main(["hpset", "--frame", "EMPTY,b"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "'EMPTY'" in err

    def test_matrix(self, capsys):
        assert main(["hpset", "--frame", "t1,t2,t3",
                     "--constraints", "((t1&t2)|t3)&(t1|t2)", "--matrix"]) == 0
        out = capsys.readouterr().out
        assert "basis: <1> <2> <3>" in out
        assert "0 0 0" in out and "1 1 1" in out

    def test_matrix_reads_the_listed_classes(self, capsys):
        # the matrix rows are the classes hpset lists: the lattice is grouped once
        spy = mock.Mock(wraps=survivors)
        with mock.patch.object(cli, "survivors", spy), mock.patch.object(dsm_model, "survivors", spy):
            assert main(["hpset", "--frame", "t1,t2,t3,t4", "--matrix"]) == 0
        assert spy.call_count == 1
        out = capsys.readouterr().out
        assert "total classes: 167" in out and "basis: " in out

    def test_constraints_file(self, capsys, tmp_path):
        path = tmp_path / "cons.txt"
        path.write_text("t1&t2\n\nt1&t3\n", encoding="utf-8")
        assert main(["hpset", "--frame", "t1,t2,t3", "--constraints", f"@{path}"]) == 0
        out = capsys.readouterr().out
        assert "total classes:" in out

    def test_expression_not_read_as_file(self, capsys, tmp_path, monkeypatch):
        # a file named like an expression is read only when spelled "@t3"
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t3").write_text("t1&t2\n", encoding="utf-8")
        assert main(["hpset", "--frame", "t1,t2,t3", "--constraints", "t3"]) == 0
        assert "total classes: 5" in capsys.readouterr().out
        assert main(["hpset", "--frame", "t1,t2,t3", "--constraints", "@t3"]) == 0
        assert "total classes: 13" in capsys.readouterr().out

    def test_bad_expression_exit_2(self):
        res = run_cli("hpset", "--frame", "t1,t2", "--constraints", "t1 &")
        assert res.returncode == 2
        assert "byte" in res.stderr

    def test_frame_refused_before_constraints(self, tmp_path):
        # a frame past ENUMERATION_LIMIT is refused before any constraint is read or parsed
        frame = ",".join(f"t{i}" for i in range(1, ENUMERATION_LIMIT + 2))
        for cons in ("t1 &", f"@{tmp_path / 'none'}"):
            res = run_cli("hpset", "--frame", frame, "--constraints", cons)
            assert res.returncode == 2
            n = ENUMERATION_LIMIT + 1
            assert res.stderr == f"error: enumerating n={n} exceeds the limit {ENUMERATION_LIMIT}\n"


class TestCombine:
    def test_breakdown_matches_reference(self, scenario_file, capsys):
        doc = dict(SCENARIO_REF)
        doc["constraints"] = ["t1&t2&t3"]
        path = scenario_file(doc)
        assert main(["combine", "--scenario", path, "--rule", "dsmh", "--breakdown"]) == 0
        out = capsys.readouterr().out
        line = next(ln for ln in out.splitlines() if ln.startswith("(t1&t3)|(t2&t3)"))
        # the (t1|t2)&t3 row: phi=1 S1=0.01 S3=0.02 m=0.03
        assert "0.010000" in line and "0.020000" in line and "0.030000" in line

    def test_compress(self, scenario_file, capsys):
        doc = dict(SCENARIO_REF)
        doc["constraints"] = ["((t1&t2)|t3)&(t1|t2)"]
        path = scenario_file(doc)
        assert main(["combine", "--scenario", path, "--rule", "dsmh", "--compress"]) == 0
        out = capsys.readouterr().out
        assert "0.170000+0.070000=0.240000" in out

    def test_dempster_conflict_line(self, scenario_file, capsys):
        doc = {
            "frame": ["t1", "t2"],
            "sources": [
                {"name": "a", "masses": [{"prop": "t1", "mass": "0.6"}, {"prop": "t2", "mass": "0.4"}]},
                {"name": "b", "masses": [{"prop": "t1", "mass": "0.7"}, {"prop": "t2", "mass": "0.3"}]},
            ],
        }
        path = scenario_file(doc)
        assert main(["combine", "--scenario", path, "--rule", "dempster"]) == 0
        out = capsys.readouterr().out
        assert "conflict=0.460000" in out

    def test_full_contradiction_exit_3(self, scenario_file):
        doc = {
            "frame": ["t1", "t2"],
            "sources": [
                {"name": "a", "masses": [{"prop": "t1", "mass": "1.0"}]},
                {"name": "b", "masses": [{"prop": "t2", "mass": "1.0"}]},
            ],
        }
        path = scenario_file(doc)
        assert main(["combine", "--scenario", path, "--rule", "dempster"]) == 3

    def test_single_source_exit_2(self, scenario_file):
        doc = {"frame": ["t1", "t2"],
               "sources": [{"name": "a", "masses": [{"prop": "t1", "mass": "1.0"}]}]}
        path = scenario_file(doc)
        assert main(["combine", "--scenario", path, "--rule", "dsmc"]) == 2

    @pytest.mark.parametrize("doc", [
        {"frame": "t1,t2", "sources": []},
        {"frame": ["t1", "t2"], "sources": "nope"},
        {"frame": ["t1", "t2"], "sources": [{"name": "a", "masses": [{"prop": "t1"}]},
                                            {"name": "b", "masses": []}]},
        {"frame": ["t1", "t2"], "sources": [{"name": "a"}, {"name": "b"}]},
        pytest.param(with_extra_mass("NaN"), id="nan-mass"),
        pytest.param(with_extra_mass("Infinity"), id="inf-mass"),
        pytest.param(with_extra_mass("sNaN"), id="snan-mass"),
        pytest.param(dict(SCENARIO_AB, mixture=[{"probability": "NaN"},
                                                {"constraints": ["a&b"], "probability": "1"}]),
                     id="nan-probability"),
        pytest.param(dict(SCENARIO_AB, constraints=[5]), id="constraint-not-string"),
        pytest.param(dict(SCENARIO_AB, constraints="a"), id="constraints-string"),
        pytest.param(dict(SCENARIO_AB, mixture=[{"constraints": [5], "probability": "1"}]),
                     id="mixture-constraint-not-string"),
        pytest.param(dict(SCENARIO_AB, mixture=[{"constraints": "a", "probability": "1"}]),
                     id="mixture-constraints-string"),
        pytest.param(dict(SCENARIO_AB, events=[{"add_elements": "c"}]), id="add-elements-string"),
        pytest.param(dict(SCENARIO_AB, events=[{"set_constraints": [7]}]),
                     id="set-constraint-not-string"),
        pytest.param(dict(SCENARIO_AB, smets_mode="false"), id="smets-mode-string"),
        pytest.param(with_first_masses(("a", "1e308"), ("b", "1e308")), id="overflow-mass"),
        pytest.param(with_first_masses(("a", True)), id="bool-mass"),
        pytest.param(dict(SCENARIO_AB, mixture=[{"probability": True}]), id="bool-probability"),
        pytest.param(with_extra_mass(10**400), id="huge-int-mass"),
        pytest.param(dict(SCENARIO_AB, mixture=[{"probability": 10**400},
                                                {"constraints": ["a&b"], "probability": 1}]),
                     id="huge-int-probability"),
        pytest.param(dict(SCENARIO_AB, constraints=["(" * 2000 + "a&b" + ")" * 2000]),
                     id="deep-parens"),
        pytest.param(dict(SCENARIO_AB, events=[{"add_elements": [f"c{i}" for i in range(17)]}]),
                     id="frame-grows-too-large"),
        pytest.param(dict(SCENARIO_AB, events=5), id="events-not-list"),
        pytest.param(dict(SCENARIO_AB, events=[{"at": None}]), id="at-null"),
        pytest.param(dict(SCENARIO_AB, events=[{"at": ["x"]}]), id="at-list"),
        pytest.param(dict(SCENARIO_AB, events=[{"at": True}]), id="at-bool"),
        pytest.param(dict(SCENARIO_AB, mixture=5), id="mixture-not-list"),
        pytest.param(dict(SCENARIO_AB, constraints=["a&b"], mixture=[{"probability": "1"}]),
                     id="mixture-top-level-constraints"),
        pytest.param(past_fold_limit(), id="past-fold-limit"),
        pytest.param([SCENARIO_AB], id="scenario-array"),
        pytest.param(with_first_masses((5, "1")), id="prop-not-string"),
        pytest.param(dict(SCENARIO_AB, mixture=[{"constraints": ["a&b"]}]), id="mixture-no-probability"),
        pytest.param(dict(SCENARIO_AB, mixture=[{"probability": "-0.5"},
                                                {"constraints": ["a&b"], "probability": "1.5"}]),
                     id="negative-probability"),
        pytest.param(dict(SCENARIO_AB, events=[5]), id="event-not-object"),
    ])
    def test_malformed_scenarios_exit_2(self, scenario_file, doc):
        path = scenario_file(doc)
        # dsmh, unlike dsmc, accepts constraints, so a misread one exits 0
        rule = "mixture" if "mixture" in doc else "dsmh"
        assert main(["combine", "--scenario", path, "--rule", rule]) == 2

    @pytest.mark.parametrize("rows,entries", [
        pytest.param(rows, entries, id=f"{rows}" + (f"+{entries}-mixture" if entries else ""))
        for rows, entries in [(FIT_ROWS, 0), (FIT_ROWS + 1, 0), (FIT_ROWS - 2, 2),
                              (FIT_ROWS - 2, 3), (3, FIT_ROWS - 3), (3, FIT_ROWS - 2)]])
    def test_load_limit(self, scenario_file, capsys, rows, entries):
        # 512 rows of 2^18 - 1 atom bits fit LOAD_LIMIT and reach the parser; one more is
        # refused before any expression is parsed.  A mixture entry counts as one row: its
        # model holds one mask of the frame's atoms.
        doc = load_rows(rows)
        doc["mixture"] = [{"constraints": ["t1&t2"], "probability": "1"}] * entries
        path = scenario_file(doc)
        with mock.patch.object(cli, "_parse_or_empty", side_effect=ScenarioError("parsed")):
            assert main(["combine", "--scenario", path, "--rule", "dsmh"]) == 2
        err = capsys.readouterr().err
        past = (rows + entries) * (2**18 - 1) > LOAD_LIMIT
        assert ("LOAD_LIMIT" in err) == past and ("parsed" in err) != past

    def test_unreadable_scenario_path_exit_2(self, tmp_path, capsys):
        assert main(["combine", "--scenario", str(tmp_path / "none.json"), "--rule", "dsmh"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "cannot read scenario" in captured.err

    def test_unreadable_files_exit_2(self, tmp_path):
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(json.dumps(SCENARIO_AB).replace('"a"', '"\u00e1"').encode("latin-1"))
        assert main(["combine", "--scenario", str(latin1), "--rule", "dsmh"]) == 2
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 100_000, encoding="utf-8")
        assert main(["combine", "--scenario", str(nested), "--rule", "dsmh"]) == 2
        # json.dumps refuses to write an int past the int-to-str digit limit
        long_int = tmp_path / "long_int.json"
        long_int.write_text(json.dumps(SCENARIO_AB).replace('"0.6"', "1" * 5000), encoding="utf-8")
        assert main(["combine", "--scenario", str(long_int), "--rule", "dsmh"]) == 2
        cons = tmp_path / "cons.txt"
        cons.write_bytes("t1&t2\n\u00e1\n".encode("latin-1"))
        assert main(["hpset", "--frame", "t1,t2,t3", "--constraints", f"@{cons}"]) == 2
        assert main(["hpset", "--frame", "t1,t2,t3", "--constraints", f"@{tmp_path}"]) == 2
        assert main(["hpset", "--frame", "t1,t2,t3", "--constraints", f"@{tmp_path / 'none'}"]) == 2
        assert main(["sweep", "--epsilon-steps", "3", "--out", str(tmp_path / "none" / "s.csv")]) == 2
        assert main(["sweep", "--epsilon-steps", "3", "--out", str(tmp_path)]) == 2

    def test_invalid_masses_exit_2(self, scenario_file):
        doc = {"frame": ["t1", "t2"],
               "sources": [{"name": "a", "masses": [{"prop": "t1", "mass": "0.5"}]},
                           {"name": "b", "masses": [{"prop": "t2", "mass": "1.0"}]}]}
        path = scenario_file(doc)
        assert main(["combine", "--scenario", path, "--rule", "dsmc"]) == 2

    def test_events_blocks(self, scenario_file, capsys):
        doc = {
            "frame": ["t1", "t2"],
            "sources": [
                {"name": "s1", "masses": [
                    {"prop": "t1", "mass": "0.1"}, {"prop": "t2", "mass": "0.2"},
                    {"prop": "t1|t2", "mass": "0.3"}, {"prop": "t1&t2", "mass": "0.4"}]},
                {"name": "s2", "masses": [
                    {"prop": "t1", "mass": "0.5"}, {"prop": "t2", "mass": "0.3"},
                    {"prop": "t1|t2", "mass": "0.1"}, {"prop": "t1&t2", "mass": "0.1"}]},
            ],
            "events": [
                {"at": "grow", "add_elements": ["t3"],
                 "add_source": {"name": "s3", "masses": [
                     {"prop": "t3", "mass": "0.4"}, {"prop": "t1&t3", "mass": "0.3"},
                     {"prop": "t2|t3", "mass": "0.3"}]}},
                {"at": "constrain", "set_constraints": ["t3"]},
            ],
        }
        path = scenario_file(doc)
        assert main(["combine", "--scenario", path, "--rule", "dsmh"]) == 0
        out = capsys.readouterr().out
        assert "== stage t0 ==" in out
        assert "== stage grow ==" in out
        assert "== stage constrain ==" in out
        tail = out.split("== stage constrain ==")[1]
        assert "0.653000" in tail and "0.147000" in tail

    @pytest.mark.parametrize("doc,rule", [
        # each source sums to 0.9999999999, inside SUM_TOLERANCE; twelve of them multiply
        # to 0.9999999988, which a check against 1 refused
        *(pytest.param(SOURCES_SHORT_OF_ONE, rule, id=f"short-{rule}") for rule in ("dsmc", "dsmh")),
        # each source sums to 1.0000000009; the unnormalized rules' results sum to 1.0000000018
        *(pytest.param(SOURCES_PAST_ONE, rule, id=f"past-{rule}")
          for rule in ("dsmh", "yager", "smets", "dubois-prade", "dempster")),
    ])
    def test_results_are_checked_against_their_sources_totals(self, scenario_file, capsys, doc, rule):
        assert main(["combine", "--scenario", scenario_file(doc), "--rule", rule]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("rule", ["dempster", "yager", "smets", "dubois-prade"])
    def test_dst_rules_refuse_an_empty_singleton(self, scenario_file, capsys, rule):
        free = scenario_file(SCENARIO_AB, "free.json")
        implied = scenario_file(dict(SCENARIO_AB, constraints=["a&b"]), "implied.json")
        assert main(["combine", "--scenario", free, "--rule", rule]) == 0
        expected = capsys.readouterr().out
        # Shafer's model already empties every intersection
        assert main(["combine", "--scenario", implied, "--rule", rule]) == 0
        assert capsys.readouterr().out == expected
        emptied = scenario_file(dict(SCENARIO_AB, frame=["a", "b", "c"], constraints=["a"]),
                                "emptied.json")
        for flags in ([], ["--compress"]):
            assert main(["combine", "--scenario", emptied, "--rule", rule, *flags]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "emptying a singleton" in captured.err

    def test_events_breakdown_needs_dsmh(self, scenario_file, capsys):
        path = scenario_file(dict(SCENARIO_AB, events=[{"at": "late", "add_elements": ["c"]}]))
        assert main(["combine", "--scenario", path, "--rule", "dsmc"]) == 0
        capsys.readouterr()
        # the flag is refused before the session folds anything
        with mock.patch.object(cli, "run_session", side_effect=AssertionError("folded")):
            assert main(["combine", "--scenario", path, "--rule", "dsmc", "--breakdown"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--breakdown" in captured.err
        assert main(["combine", "--scenario", path, "--rule", "dsmh", "--breakdown"]) == 0
        assert capsys.readouterr().out.count("phi") == 2

    @pytest.mark.parametrize("rule, constraints, message", [
        ("dsmh", ["t1|t2"], "constraints empty the whole frame"),
        ("dsmc", ["t1|t2"], "constraints empty the whole frame"),
        ("dsmc", ["t1&t2"], "rule 'dsmc' ignores constraints"),
    ])
    def test_a_stage_failing_after_t0_leaves_stdout_empty(self, scenario_file, capsys, rule,
                                                           constraints, message):
        # t0 and the first event fold before the second event fails
        path = scenario_file({
            "frame": ["t1", "t2"],
            "sources": [{"name": "a", "masses": [{"prop": "t1", "mass": "1"}]},
                        {"name": "b", "masses": [{"prop": "t2", "mass": "1"}]}],
            "events": [{"at": "first"}, {"at": "second", "set_constraints": constraints}]})
        assert main(["combine", "--scenario", path, "--rule", rule]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_events_build_their_model_once(self, scenario_file):
        # a trivial top-level model: parsed and warned about by the session alone
        path = scenario_file({
            "frame": ["t1", "t2"],
            "sources": [{"name": "a", "masses": [{"prop": "t1", "mass": "0.4"},
                                                 {"prop": "t2", "mass": "0.6"}]},
                        {"name": "b", "masses": [{"prop": "t2", "mass": "1"}]}],
            "constraints": ["t1"],
            "events": [{"at": "later"}]})
        spy = mock.Mock(wraps=parse)
        with mock.patch.object(cli, "parse", spy), mock.patch.object(dynamic, "parse", spy), \
                warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            assert main(["combine", "--scenario", path, "--rule", "dsmh"]) == 0
        assert [c.args[1] for c in spy.call_args_list] == ["t1"]
        assert [str(w.message) for w in caught if "trivial model" in str(w.message)] == \
            ["trivial model: a single atom survives, so only one non-empty proposition remains"]

    def test_events_refuse_a_bad_constraint_before_any_fold(self, scenario_file, capsys):
        path = scenario_file(dict(SCENARIO_AB, constraints=["a &"], events=[{"at": "later"}]))
        with mock.patch.object(dynamic, "_classic_fold", side_effect=AssertionError("folded")):
            assert main(["combine", "--scenario", path, "--rule", "dsmh"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err

    @pytest.mark.parametrize("rule", ["dsmh", "dsmc"])
    def test_events_refuse_compress(self, scenario_file, capsys, rule):
        path = scenario_file(dict(SCENARIO_AB, events=[{"at": "late", "add_elements": ["c"]}]))
        # every stage's block is already compressed; the flag is refused before any fold
        with mock.patch.object(cli, "run_session", side_effect=AssertionError("folded")):
            assert main(["combine", "--scenario", path, "--rule", rule, "--compress"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--compress" in captured.err

    def test_mixture(self, scenario_file, capsys):
        doc = dict(SCENARIO_REF)
        doc["mixture"] = [
            {"constraints": ["t1&t2&t3"], "probability": "0.5"},
            {"constraints": ["((t1&t2)|t3)&(t1|t2)"], "probability": "0.5"},
        ]
        path = scenario_file(doc)
        assert main(["combine", "--scenario", path, "--rule", "mixture"]) == 0
        out = capsys.readouterr().out
        line = next(ln for ln in out.splitlines() if ln.startswith("t3 "))
        assert "0.135000" in line
        with mock.patch.object(cli, "bayesian_mixture", side_effect=AssertionError("folded")):
            assert main(["combine", "--scenario", path, "--rule", "mixture", "--compress"]) == 2
        assert "--compress" in capsys.readouterr().err

    def test_csv_output(self, scenario_file, capsys):
        path = scenario_file(dict(SCENARIO_REF))
        assert main(["combine", "--scenario", path, "--rule", "dsmc", "--out", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "prop,mass"

    def test_smets_mode_empty_mass(self, scenario_file, capsys):
        doc = {
            "frame": ["t1", "t2"],
            "smets_mode": True,
            "sources": [
                {"name": "a", "masses": [{"prop": "EMPTY", "mass": "0.1"},
                                         {"prop": "t1|t2", "mass": "0.9"}]},
                {"name": "b", "masses": [{"prop": "t1", "mass": "1.0"}]},
            ],
        }
        path = scenario_file(doc)
        assert main(["combine", "--scenario", path, "--rule", "dsmc"]) == 0
        out = capsys.readouterr().out
        assert any(ln.startswith("EMPTY") and "0.100000" in ln for ln in out.splitlines())

    def test_smets_mode_session_keeps_empty_mass(self, scenario_file, capsys):
        # the late source, read under smets_mode too, holds no EMPTY mass; the sealed past keeps its own
        doc = {
            "frame": ["t1", "t2"],
            "smets_mode": True,
            "sources": [
                {"name": "a", "masses": [{"prop": "EMPTY", "mass": "0.2"},
                                         {"prop": "t1", "mass": "0.8"}]},
                {"name": "b", "masses": [{"prop": "t1|t2", "mass": "1.0"}]},
            ],
            "events": [{"at": "late", "add_elements": ["t3"], "add_source": {
                "name": "c", "masses": [{"prop": "t1|t3", "mass": "1.0"}]}}],
        }
        path = scenario_file(doc)
        assert main(["combine", "--scenario", path, "--rule", "dsmc", "--out", "csv"]) == 0
        late = capsys.readouterr().out.split("# stage late")[1].splitlines()
        assert "EMPTY,0.200000" in late and "t1,0.800000" in late

    def test_smets_mode_event_source_puts_mass_on_empty(self, scenario_file, capsys):
        # an added source is read under the scenario's smets_mode, as the first sources are
        doc = {
            "frame": ["t1", "t2"],
            "smets_mode": True,
            "sources": [
                {"name": "a", "masses": [{"prop": "t1", "mass": "1.0"}]},
                {"name": "b", "masses": [{"prop": "t1|t2", "mass": "1.0"}]},
            ],
            "events": [{"at": "late", "add_source": {
                "name": "c", "masses": [{"prop": "EMPTY", "mass": "0.5"}, {"prop": "t1", "mass": "0.5"}]}}],
        }
        path = scenario_file(doc)
        assert main(["combine", "--scenario", path, "--rule", "dsmc", "--out", "csv"]) == 0
        late = capsys.readouterr().out.split("# stage late")[1].splitlines()
        assert "EMPTY,0.500000" in late and "t1,0.500000" in late

    def test_touched_rows_and_classes_past_the_enumeration_limit(self, scenario_file, capsys):
        # on six singletons a breakdown lists only the keys the combination touched
        doc = {
            "frame": [f"t{i}" for i in range(1, 7)],
            "sources": [
                {"name": "a", "masses": [{"prop": "t1", "mass": "0.3"}, {"prop": "t2|t6", "mass": "0.3"},
                                         {"prop": "t4&t5", "mass": "0.4"}]},
                {"name": "b", "masses": [{"prop": "t2", "mass": "0.5"}, {"prop": "t1|t5", "mass": "0.2"},
                                         {"prop": "(t3&t4)|t6", "mass": "0.3"}]},
            ],
            "constraints": ["t1&t2", "t4&t5"],
        }
        assert len(doc["frame"]) > ENUMERATION_LIMIT
        path = scenario_file(doc)
        frame = build_frame(doc["frame"])
        sources = [MassAssignment(frame, [(parse(frame, r["prop"]), float(r["mass"])) for r in s["masses"]])
                   for s in doc["sources"]]
        model = build_model(frame, [parse(frame, c) for c in doc["constraints"]])
        bd = dsm_hybrid(sources, model)
        touched = sorted(set(bd.s1) | set(bd.s2) | set(bd.s3) | set(bd.result.keys()),
                         key=lambda p: _canonical_key(p.mask))
        assert set(bd.s3) - set(bd.s1)  # S3 books on joins that S1 never touched
        totals = {to_expression(p): f"{v:.6f}" for p, v in compress(model, bd.result).items()}

        assert main(["combine", "--scenario", path, "--rule", "dsmh", "--breakdown", "--compress"]) == 0
        table, classes = capsys.readouterr().out.split("-- compressed --\n")
        rows = [row.split() for row in table.splitlines()[1:]]
        assert [row[0] for row in rows] == [to_expression(p) for p in touched]
        for row, p in zip(rows, touched):
            cells = (bd.s1.get(p, 0.0), bd.s2.get(p, 0.0), bd.s3.get(p, 0.0), bd.result[p])
            assert row[1:] == [str(model.phi(p)), *(f"{v:.6f}" for v in cells)]
        # a merged class prints its members' masses joined by "+" and "=" before its total
        assert {row.split()[0]: row.split()[-1].split("=")[-1] for row in classes.splitlines()} == totals
        assert "=" in classes

        assert main(["combine", "--scenario", path, "--rule", "dsmh", "--out", "csv", "--compress"]) == 0
        _, csv_classes = capsys.readouterr().out.split("\n\n")
        header, *csv_rows = csv_classes.splitlines()
        assert header == "prop,mass,provenance"
        assert {name: total for name, total, _ in (row.split(",") for row in csv_rows)} == totals

    def test_empty_mass_without_smets_mode_exit_2(self, scenario_file):
        doc = {
            "frame": ["t1", "t2"],
            "sources": [
                {"name": "a", "masses": [{"prop": "EMPTY", "mass": "0.1"},
                                         {"prop": "t1|t2", "mass": "0.9"}]},
                {"name": "b", "masses": [{"prop": "t1", "mass": "1.0"}]},
            ],
        }
        path = scenario_file(doc)
        assert main(["combine", "--scenario", path, "--rule", "dsmc"]) == 2

    def test_empty_as_a_singleton_name_exit_2(self, scenario_file, capsys):
        # read as a mass key, "EMPTY" would be the empty set, not the singleton
        doc = {
            "frame": ["EMPTY", "b"],
            "smets_mode": True,
            "sources": [
                {"name": "a", "masses": [{"prop": "EMPTY", "mass": "0.4"}, {"prop": "b", "mass": "0.6"}]},
                {"name": "c", "masses": [{"prop": "EMPTY|b", "mass": "1.0"}]},
            ],
        }
        assert main(["combine", "--scenario", scenario_file(doc), "--rule", "dsmc"]) == 2
        grown = {"frame": ["a", "b"], "sources": SCENARIO_AB["sources"],
                 "events": [{"at": "late", "add_elements": ["EMPTY"]}]}
        assert main(["combine", "--scenario", scenario_file(grown), "--rule", "dsmh"]) == 2
        assert capsys.readouterr().out == ""

    def test_byte_deterministic(self, scenario_file):
        # different hash seeds shake out any set-ordering leaks
        doc = dict(SCENARIO_REF)
        doc["constraints"] = ["t1&t2"]
        path = scenario_file(doc)
        args = ("combine", "--scenario", path, "--rule", "dsmh", "--breakdown", "--compress")
        a = run_cli(*args, hash_seed=1)
        b = run_cli(*args, hash_seed=4242)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


def reference_sweep_rows(steps):
    """The sweep through the public rules: two assignments, then `dempster` and `dsm_hybrid`."""
    frame = build_frame(("t1", "t2"))
    t1 = parse(frame, "t1")
    t2 = parse(frame, "t2")
    union = parse(frame, "t1|t2")
    shafer = shafer_model(frame)
    rows = []
    for i in range(steps):
        eps = i / (steps - 1)
        m1 = MassAssignment(frame, {t1: 1.0 - eps, t2: eps})
        m2 = MassAssignment(frame, {t1: eps, t2: 1.0 - eps})
        try:
            dm, _ = dempster([m1, m2])
            d1, d2 = dm[t1], dm[t2]
        except FullContradiction:
            d1 = d2 = None
        hy = dsm_hybrid([m1, m2], shafer).result
        rows.append((eps, d1, d2, hy[t1], hy[t2], hy[union]))
    return rows


class TestSweep:
    @pytest.mark.parametrize("steps", [2, 3, 11, 101, 1001, SWEEP_LIMIT])
    def test_matches_public_rules(self, steps):
        # repr tells None, -0.0 and every last bit apart
        assert [tuple(map(repr, row)) for row in sweep_rows(steps)] == \
            [tuple(map(repr, row)) for row in reference_sweep_rows(steps)]

    def test_header_and_shape(self, capsys):
        assert main(["sweep", "--epsilon-steps", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "epsilon,dempster_t1,dempster_t2,dsmh_t1,dsmh_t2,dsmh_t1_or_t2"
        assert len(lines) == 6
        assert lines[1].startswith("0,NaN,NaN,")
        assert lines[-1].startswith("1,NaN,NaN,")

    def test_values(self):
        rows = sweep_rows(11)
        eps0 = rows[0]
        assert eps0[1] is None and eps0[5] == pytest.approx(1.0)
        for eps, d1, d2, h1, h2, h12 in rows[1:-1]:
            assert d1 == pytest.approx(0.5, abs=1e-12)
            assert d2 == pytest.approx(0.5, abs=1e-12)
            assert h1 == pytest.approx(eps * (1 - eps), abs=1e-12)
            assert h12 == pytest.approx((1 - eps) ** 2 + eps**2, abs=1e-12)
        row_01 = rows[1]
        assert row_01[0] == pytest.approx(0.1)
        assert row_01[3] == pytest.approx(0.09, abs=1e-12)
        assert row_01[5] == pytest.approx(0.82, abs=1e-12)

    @pytest.mark.parametrize("steps", [2, SWEEP_LIMIT])
    def test_four_engine_calls(self, steps):
        # one dsm_hybrid call per pair of focal sets, none per row
        with mock.patch.object(cli, "dsm_hybrid", wraps=dsm_hybrid) as spy:
            assert len(sweep_rows(steps)) == steps
        assert spy.call_count == 4

    @pytest.mark.parametrize("steps", [1, SWEEP_LIMIT + 1])
    def test_step_limit(self, capsys, steps):
        # refused before any row is computed
        with mock.patch.object(cli, "dsm_hybrid", side_effect=AssertionError("computed")):
            assert main(["sweep", "--epsilon-steps", str(steps)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and str(SWEEP_LIMIT) in captured.err

    def test_out_file(self, tmp_path, capsys):
        # the file holds what stdout would, and stdout holds nothing
        assert main(["sweep", "--epsilon-steps", "11"]) == 0
        expected = capsys.readouterr().out
        target = tmp_path / "sweep.csv"
        assert main(["sweep", "--epsilon-steps", "11", "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert expected.startswith("epsilon,")
        assert target.read_bytes() == expected.encode("utf-8")


class TestReproduce:
    def test_breakdown_rows_match_combine(self, scenario_file, capsys):
        from dsmfusion.worked_examples import MODEL_CONSTRAINTS, SOURCES_3

        doc = {
            "frame": ["t1", "t2", "t3"],
            "sources": [{"masses": [{"prop": k, "mass": repr(v)} for k, v in src.items()]}
                        for src in SOURCES_3],
            "constraints": list(MODEL_CONSTRAINTS["m2"]),
        }
        path = scenario_file(doc)
        assert main(["combine", "--scenario", path, "--rule", "dsmh", "--breakdown"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert main(["reproduce", "--example", "m2"]) == 0
        reproduced = set(capsys.readouterr().out.splitlines())
        assert len(set(rows)) == 20  # header and the 19 elements
        assert set(rows) <= reproduced

    def test_every_id_passes(self, capsys):
        from dsmfusion.worked_examples import EXAMPLE_IDS

        for example in EXAMPLE_IDS:
            assert main(["reproduce", "--example", example]) == 0, example
            out = capsys.readouterr().out
            assert out.strip().splitlines()[-1].startswith(f"PASS {example}")

    def test_unknown_example_exit_2(self):
        res = run_cli("reproduce", "--example", "nope")
        assert res.returncode == 2

    def test_unknown_rule_exit_2(self):
        # refused by the argument parser, before the (missing) scenario is read
        res = run_cli("combine", "--scenario", "missing.json", "--rule", "nope")
        assert res.returncode == 2
        assert "invalid choice" in res.stderr

    def test_console_entry_end_to_end(self):
        res = run_cli("reproduce", "--example", "m6")
        assert res.returncode == 0
        assert "PASS m6" in res.stdout


# --- scenario fuzzing: valid and broken pieces, every rule ---

FUZZ_FRAME = ["a", "b", "c"]
POWER_SET_PROPS = ["a", "b", "c", "a|b", "b|c", "a|b|c"]
FUZZ_PROPS = POWER_SET_PROPS + ["a&b", "b&c", "(a&b)|c"]
# the masses of one valid source, as decimal strings or JSON numbers
FUZZ_SPLITS = [["1"], ["0.5", "0.5"], ["0.3", "0.7"], ["0.2", 0.3, "0.5"], [0.25] * 4]
BAD_PROPS = st.sampled_from(["z", "a&", "", "EMPTY", 5, None])
BAD_MASSES = st.sampled_from(["NaN", "Infinity", "-0.5", "1e308", 1e308, float("nan"), "x", True, None])
WRONG_TYPE = st.sampled_from([5, "a&b", None, {"a": 1}, [5], True])
FUZZ_BASE = {"frame": FUZZ_FRAME, "sources": [{"masses": [{"prop": "a", "mass": "1"}]}] * 2}


def mostly(valid, broken):
    """Draw from `valid`, and about one time in four from `broken`."""
    return st.integers(0, 3).flatmap(lambda i: broken if i == 3 else valid)


FUZZ_CONSTRAINTS = mostly(st.lists(st.sampled_from(["a&b", "c", "a&b&c", "b&c"]), max_size=2),
                          WRONG_TYPE | st.just(["a|b|c"]) | st.just(["zz"]))


@st.composite
def fuzz_sources(draw, props):
    split = draw(st.sampled_from(FUZZ_SPLITS))
    chosen = draw(st.lists(st.sampled_from(props), min_size=len(split), max_size=len(split),
                           unique=True))
    rows = [{"prop": p, "mass": m} for p, m in zip(chosen, split)]
    if draw(st.integers(0, 7)) == 7:
        row = draw(st.sampled_from(rows))
        if draw(st.booleans()):
            row["prop"] = draw(BAD_PROPS)
        else:
            row["mass"] = draw(BAD_MASSES)
    return {"masses": rows}


@st.composite
def fuzz_docs(draw):
    """Scenario documents, mostly valid, each optional field of the right type or the wrong one."""
    doc = {"frame": FUZZ_FRAME}
    if draw(st.integers(0, 2)) == 2:
        doc["smets_mode"] = draw(mostly(st.booleans(), WRONG_TYPE))
    props = draw(st.sampled_from([POWER_SET_PROPS, FUZZ_PROPS]))
    if doc.get("smets_mode") is True:
        props = props + ["EMPTY"]
    doc["sources"] = draw(mostly(st.lists(fuzz_sources(props), min_size=2, max_size=3),
                                 st.lists(fuzz_sources(props), max_size=1)))
    if draw(st.booleans()):
        doc["constraints"] = draw(FUZZ_CONSTRAINTS)
    if draw(st.integers(0, 3)) == 3:
        event = st.fixed_dictionaries({}, optional={
            "at": st.sampled_from(["late", 7]),
            "add_elements": mostly(st.just(["d"]), WRONG_TYPE | st.just(["a"])),
            "add_source": mostly(fuzz_sources(props), WRONG_TYPE),
            "set_constraints": FUZZ_CONSTRAINTS,
        })
        doc["events"] = draw(mostly(st.lists(event, min_size=1, max_size=2), WRONG_TYPE))
    if draw(st.booleans()):
        entry = st.fixed_dictionaries({}, optional={"constraints": FUZZ_CONSTRAINTS})
        probabilities = draw(st.sampled_from([["1"], ["0.5", "0.5"], ["0.3", 0.7]]))
        entries = [dict(draw(entry), probability=p) for p in probabilities]
        if draw(st.integers(0, 3)) == 3:
            entries[0]["probability"] = draw(BAD_MASSES)
        doc["mixture"] = draw(mostly(st.just(entries), WRONG_TYPE))
    return doc


def check_results(rule, doc, out, results):
    """Finite, non-negative, unit-sum results with no mass where it cannot go."""
    for line in out.splitlines():
        if line and not line.startswith(("prop,", "conflict=", "# stage")):
            value = float(line.rsplit(",", 1)[1])
            assert isfinite(value) and value >= 0.0, line
    assert results
    for m in results:
        assert abs(fsum(v for _, v in m.items()) - 1.0) <= 1e-9
        if rule == "dsmh" and not doc.get("events"):
            model = build_model(m.frame, [parse(m.frame, c) for c in doc.get("constraints", [])])
            assert not any(model.is_empty(p) for p, v in m.items() if v > 0.0)
        elif rule != "smets" and doc.get("smets_mode") is not True:
            # only an open world keeps mass on EMPTY
            assert not any(p.is_empty for p, v in m.items() if v > 0.0)


@settings(max_examples=40, deadline=None)
@given(doc=fuzz_docs(), corrupt=st.integers(0, 9).map(lambda i: i == 9))
@example(doc=dict(FUZZ_BASE, events=5), corrupt=False)
@example(doc=dict(FUZZ_BASE, mixture=5), corrupt=False)
@example(doc=dict(FUZZ_BASE, constraints=["a&b"]), corrupt=True)
def test_scenario_fuzz(tmp_path_factory, doc, corrupt):
    # `corrupt` puts a byte that is not UTF-8 in front of both files
    prefix = b"\xff" if corrupt else b""
    tmp = tmp_path_factory.mktemp("fuzz")
    scenario = tmp / "scenario.json"
    scenario.write_bytes(prefix + json.dumps(doc).encode("utf-8"))
    constraints = doc.get("constraints", [])
    lines = constraints if isinstance(constraints, list) else [constraints]
    cons = tmp / "constraints.txt"
    cons.write_bytes(prefix + "\n".join(map(str, lines)).encode("utf-8"))
    # capsys is per test, not per example, so each command's stdout is redirected here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for rule in RULE_NAMES:
            out = io.StringIO()
            with mock.patch.object(cli, "mass_lines", wraps=cli.mass_lines) as spy, \
                    contextlib.redirect_stdout(out):
                code = main(["combine", "--scenario", str(scenario), "--rule", rule, "--out", "csv"])
            assert code in (0, 2, 3), rule
            if code == 0:
                check_results(rule, doc, out.getvalue(), [c.args[0] for c in spy.call_args_list])
            else:
                assert out.getvalue() == "", rule
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["hpset", "--frame", ",".join(FUZZ_FRAME), "--constraints", f"@{cons}"]) in (0, 2)
