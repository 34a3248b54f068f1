#!/usr/bin/env python3
"""Mutation gate: every listed mutant of the library must fail its tests.

Usage: python3 .github/mutants.py

Each entry of MUTANTS names a library file, a text that occurs in it exactly
once, the text that replaces it and the test files that must catch the
change.  The script copies the package, the tests, pyproject.toml and the
README into a temporary directory, checks that the named test files pass
there unmutated, then applies one mutant at a time and runs `pytest -x` on
its test files.  It exits 1 when a mutant survives, when its text is not found
exactly once, or when the unmutated tests fail.

EQUIVALENT lists mutants that change no result any test can observe, each
with its reason; they are not run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/dsmfusion"
TIMEOUT_S = 300  # per pytest run; a mutant that hangs its tests counts as killed


class Mutant(NamedTuple):
    name: str
    file: str  # relative to PACKAGE
    old: str
    new: str
    tests: tuple[str, ...]  # relative to tests/


MUTANTS = (
    Mutant("_gate keeps model-empty keys", "rules.py",
           "if mask & alive:\n                sums.setdefault(mask, []).append(value)",
           "if True:\n                sums.setdefault(mask, []).append(value)",
           ("test_rules.py",)),
    Mutant("S2 books on a model-empty target", "rules.py",
           "s2.setdefault(target if target & alive else full, [])",
           "s2.setdefault(target if target else full, [])",
           ("test_rules.py",)),
    Mutant("S2 falls back on the surviving atoms, not total ignorance", "rules.py",
           "s2.setdefault(target if target & alive else full, [])",
           "s2.setdefault(target if target & alive else alive, [])",
           ("test_rules.py", "test_acceptance.py")),
    Mutant("S2 folds when any source has a model-empty focal set", "rules.py",
           "if all(dead):", "if any(dead):",
           ("test_rules.py",)),
    Mutant("S3 keeps states whose meet survived", "rules.py",
           "[(mask, v) for mask, v in last.items() if not meet & mask]",
           "list(last.items())",
           ("test_rules.py",)),
    Mutant("S3's last step skips its FOLD_LIMIT check", "rules.py",
           "    _check_step(states, last, 2 * w)\n",
           "",
           ("test_rules.py",)),
    Mutant("S2/S3 skipped when any S1 key survives", "rules.py",
           "if all(mask & alive for mask in s1):",
           "if any(mask & alive for mask in s1):",
           ("test_rules.py",)),
    Mutant("u() from the first generator only", "lattice.py",
           "        digits |= generator\n    return digits",
           "        return generator\n    return digits",
           ("test_lattice.py", "test_rules.py")),
    Mutant("a session keeps every table instead of sealing to S1", "dynamic.py",
           "tables = [s1, src._masses]",
           "tables = [*tables, src._masses]",
           ("test_dynamic.py",)),
    Mutant("a session does not embed S1 on growth", "dynamic.py",
           "s1, *tables = [",
           "_, *tables = [",
           ("test_dynamic.py",)),
    Mutant("a session does not embed the model on growth", "dynamic.py",
           "model = HybridModel(frame, embed_mask(model.empty_mask))",
           "model = HybridModel(frame, model.empty_mask)",
           ("test_dynamic.py",)),
    Mutant("a suspended session holds the last stage's breakdown", "dynamic.py",
           "            yield _hybrid_result(stage.at, tables, model, s1)\n",
           "            breakdown = _hybrid_breakdown(tables, model, s1)\n"
           "            yield SessionResult(stage.at, compress(model, breakdown.result), breakdown)\n",
           ("test_dynamic.py",)),
    Mutant("a session folds t0 only when it is read", "dynamic.py",
           "return chain(iter([next(session)]), session)",
           "return session",
           ("test_dynamic.py",)),
    Mutant("embedding ignores the target's name order", "dynamic.py",
           "moved = [1 << new.names.index(name) for name in old.names]",
           "moved = [1 << i for i in range(old.n)]",
           ("test_dynamic.py",)),
    Mutant("embed drops smets_mode", "dynamic.py",
           "MassAssignment._from_masks(new, remapped, m.smets_mode, m.total)",
           "MassAssignment._from_masks(new, remapped, False, m.total)",
           ("test_dynamic.py",)),
    Mutant("build_frame admits EMPTY as a singleton name", "lattice.py",
           '"(?!EMPTY\\Z)[A-Za-z]',
           '"[A-Za-z]',
           ("test_lattice.py",)),
    Mutant("compress groups on the unmasked key", "model.py",
           "groups = _classes(alive, masses, masses.values())",
           "groups = _classes(model.frame.full_mask, masses, masses.values())",
           ("test_model.py", "test_rules.py")),
    Mutant("compress sums only a class's first member", "model.py",
           "fsum(values) for reduced, values in groups.items()",
           "values[0] for reduced, values in groups.items()",
           ("test_model.py", "test_rules.py")),
    Mutant("library-built results are checked against 1, not their inputs' total", "bba.py",
           "m._seal(frame, masses, smets_mode, total)",
           "m._seal(frame, masses, smets_mode, 1.0)",
           ("test_cli.py",)),
    Mutant("validate lets negatives down to -1e-3 through", "bba.py",
           "if value < 0:",
           "if value < -1e-3:",
           ("test_bba.py",)),
    Mutant("the weight check of lefevre_combine and MixtureSpec admits a negative value", "rules.py",
           "        if w < 0:\n",
           "        if False:\n",
           ("test_rules.py",)),
    Mutant("the weight check reads True as 1", "rules.py",
           "if isinstance(w, bool) or not (",
           "if not (",
           ("test_rules.py",)),
    Mutant("build_frame reads a string as its characters", "lattice.py",
           "    if isinstance(names, str):\n",
           "    if False:\n",
           ("test_lattice.py",)),
    Mutant("lefevre_combine checks its result against the first two sources' totals only", "rules.py",
           "_total(m._masses for m in ms))",
           "_total(m._masses for m in ms[:2]))",
           ("test_cli.py",)),
    Mutant("a bare MassAssignment reads as a sequence of its focal sets", "rules.py",
           "    if isinstance(ms, MassAssignment):",
           "    if False:",
           ("test_rules.py",)),
    Mutant("combine hands yager, smets and dubois-prade the first two sources only", "cli.py",
           "result = _DST_RULES[rule](sources)",
           "result = _DST_RULES[rule](sources[:2])",
           ("test_cli.py",)),
    Mutant("Stage reads a string as its characters", "dynamic.py",
           "if isinstance(value := getattr(self, field), str):",
           "if isinstance(value := getattr(self, field), bytes):",
           ("test_dynamic.py",)),
    Mutant("the FOLD_LIMIT check admits twice the limit", "rules.py",
           "if len(states) * len(rows) * bits > FOLD_LIMIT:",
           "if len(states) * len(rows) * bits > 2 * FOLD_LIMIT:",
           ("test_cli.py",)),
    Mutant("'&' binds no tighter than '|' in parse", "exprparse.py",
           '        elif tok == "&":\n            want_factor = True',
           '        elif tok == "&":\n            union, meet, want_factor = 0, union | meet, True',
           ("test_exprparse.py",)),
    Mutant("Dempster's rule divides by the total, not the surviving mass", "rules.py",
           "normalized = {mask: v / surviving for mask, v in combined.items()}",
           "normalized = {mask: v / (surviving + conflict) for mask, v in combined.items()}",
           ("test_rules.py",)),
    Mutant("the LOAD_LIMIT count skips event sources", "cli.py",
           'bits += rows(event.get("add_source")) * ((1 << n) - 1)',
           "bits += 0",
           ("test_cli.py",)),
    Mutant("the LOAD_LIMIT count drops mixture entries", "cli.py",
           'bits = (sum(map(rows, doc["sources"])) + entries) * ((1 << n) - 1)',
           'bits = sum(map(rows, doc["sources"])) * ((1 << n) - 1)',
           ("test_cli.py",)),
    Mutant("SWEEP_LIMIT admits one step more", "cli.py",
           "if not 2 <= steps <= SWEEP_LIMIT:",
           "if not 2 <= steps <= SWEEP_LIMIT + 1:",
           ("test_cli.py",)),
    Mutant("the sweep pairs a route with another pair's product", "cli.py",
           "fsum(map(mul, products, column))",
           "fsum(map(mul, products[1:] + products[:1], column))",
           ("test_cli.py",)),
    Mutant("hpset reads its constraints before checking its frame", "cli.py",
           "    _check_enumerable(frame)  # before any constraint is read\n",
           "",
           ("test_cli.py",)),
    Mutant("survivors groups on the unmasked key", "model.py",
           "_classes(model.alive, masks, masks)",
           "_classes(model.frame.full_mask, masks, masks)",
           ("test_model.py",)),
    Mutant("survivors takes a class's last member as its representative", "model.py",
           "EquivClass(_proposition(frame, members[0]), tuple(members))",
           "EquivClass(_proposition(frame, members[-1]), tuple(members))",
           ("test_model.py",)),
    Mutant("to_expression prints the smallest generator first", "lattice.py",
           "gens.sort(key=int.bit_count, reverse=True)",
           "gens.sort(key=int.bit_count)",
           ("test_lattice.py",)),
    Mutant("to_expression parenthesizes a singleton term", "lattice.py",
           'f"({terms[g]})" if g & (g - 1) else terms[g]',
           'f"({terms[g]})"',
           ("test_lattice.py",)),
    Mutant("the surviving atoms keep the bits past the frame", "model.py",
           "return self.frame.full_mask & ~self.empty_mask",
           "return ~self.empty_mask",
           ("test_model.py",)),
    Mutant("an event's added source ignores smets_mode", "cli.py",
           "_source_from(obj, grown, smets_mode))",
           "_source_from(obj, grown, False))",
           ("test_cli.py",)),
    Mutant("breakdown rows past ENUMERATION_LIMIT drop S3's keys", "cli.py",
           "sorted(s1.keys() | s2.keys() | s3.keys(), key=",
           "sorted(s1.keys() | s2.keys(), key=",
           ("test_cli.py",)),
    Mutant("hpset --matrix groups the lattice a second time", "cli.py",
           "encoding_matrix(model, classes)",
           "encoding_matrix(model, survivors(model))",
           ("test_cli.py",)),
    Mutant("main drops a command's last line", "cli.py",
           'sys.stdout.write("".join(f"{line}\\n" for line in lines))',
           'sys.stdout.write("".join(f"{line}\\n" for line in lines[:-1]))',
           ("test_cli.py",)),
    Mutant("sweep --out also writes its lines to stdout", "cli.py",
           "    return 0, []",
           "    return 0, lines",
           ("test_cli.py",)),
)

EQUIVALENT = (
    (Mutant("dempster reports its conflict as `conflict`", "rules.py",
            "return MassAssignment._from_masks(frame, normalized), 1.0 - surviving",
            "return MassAssignment._from_masks(frame, normalized), conflict",
            ()),
     "1 - surviving and the folded conflict are the same mass summed two ways; "
     "they differ only by rounding"),
)


def _pytest(cwd: Path, tests) -> tuple[bool, float]:
    """Whether pytest -x passes on the given test files, and its wall time."""
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           *(f"tests/{t}" for t in tests)]
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
        passed = done.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, time.perf_counter() - start


def main() -> int:
    failures = 0
    for m in (*MUTANTS, *(m for m, _ in EQUIVALENT)):
        count = (ROOT / PACKAGE / m.file).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            print(f"STALE    {m.name}: its text occurs {count} times in {m.file}")
            failures += 1
    if failures:
        return 1
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / PACKAGE, work / PACKAGE)
        shutil.copytree(ROOT / "tests", work / "tests")
        shutil.copy(ROOT / "pyproject.toml", work)
        shutil.copy(ROOT / "README.md", work)  # a test runs its library example
        every = sorted({t for m in MUTANTS for t in m.tests})
        passed, secs = _pytest(work, every)
        if not passed:
            print(f"FAIL     the unmutated tests fail ({secs:.1f} s): {' '.join(every)}")
            return 1
        print(f"ok       unmutated tests pass ({secs:.1f} s)")
        for m in MUTANTS:
            path = work / PACKAGE / m.file
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(m.old, m.new), encoding="utf-8")
            try:
                passed, secs = _pytest(work, m.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            print(f"{'SURVIVED' if passed else 'killed  '} {m.name} ({secs:.1f} s)")
            failures += passed
    for m, reason in EQUIVALENT:
        print(f"skipped  {m.name}: equivalent, {reason}")
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
