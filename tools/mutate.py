"""Mutation check: do the tests catch a broken join evaluator?

    python3 tools/mutate.py

Each mutant below is a file of the checkout, an exact old text that
occurs there once, the new text that replaces it, and the test files
that must catch the change.  The script copies the checkout's ``src/``
and ``tests/`` to a temporary directory and first runs every named test
file on the unmutated copy, which must pass, so that a kill is a real
kill.  Then, for each mutant, it applies the edit to a fresh copy, runs
the mutant's test files (stopping at the first failure) and records the
mutant as killed, with the first failing test id, or as survived.

An old text that does not occur exactly once stops the script before
any test runs: the code it guarded has moved, and the mutant must be
rewritten, not dropped.  A mutant known to change no behaviour carries
its reason in ``equivalent`` and is expected to survive.

Each run checks every mutant and rewrites the record,
``tools/mutants.json``.  The exit code is 0 when every mutant is killed
or is a recorded equivalent one that survived, 1 otherwise, and 2 when
the unmutated copy fails or an old text is missing.  Standard library
only; it runs the tests with ``python -m pytest``.  Manual and ungated:
one mutant costs one run of its test files (a few seconds to a minute).
"""

from __future__ import annotations

import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "tools" / "mutants.json"
ENGINE = "src/quadchase/engine.py"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    equivalent: Optional[str] = None


MUTANTS = (
    Mutant("mark bound inclusive on a fully bound atom", ENGINE,
           "if i is not None and (limit is None or i < limit):",
           "if i is not None and (limit is None or i <= limit):",
           ("tests/test_engine.py",)),
    Mutant("mark bound inclusive on a probed atom", ENGINE,
           "found = [q for q in found if positions[q] < limit]",
           "found = [q for q in found if positions[q] <= limit]",
           ("tests/test_engine.py",)),
    Mutant("repeated-variable check dropped", ENGINE,
           "        for j, k in repeats:\n"
           "            found = [q for q in found if q[j] is q[k]]\n",
           "", ("tests/test_engine.py",)),
    Mutant("no_skolem check dropped", ENGINE,
           "        for j in guarded:\n"
           "            found = [q for q in found if q[j].kind != SKOLEM]\n",
           "", ("tests/test_engine.py", "tests/test_query.py")),
    Mutant("identity check on the other bound positions dropped", ENGINE,
           "        if bound:\n"
           "            found = [q for q in found "
           "if tested(q) == wanted(row)]\n",
           "", ("tests/test_engine.py",)),
    Mutant("constant check on a seed tail dropped", ENGINE,
           "            tail = [q for q in bucket[start:]\n"
           "                    if (s is None or q[1] is s) and "
           "(p is None or q[2] is p)\n"
           "                    and (o is None or q[3] is o)]\n",
           "            tail = bucket[start:]\n", ("tests/test_engine.py",)),
    Mutant("early stop once a tail is the whole bucket removed", ENGINE,
           "        if not start:\n            return\n",
           "", ("tests/test_engine.py",)),
    Mutant("join order by constant positions first (a cross product)",
           ENGINE,
           "            sum(k in bound and k not in constants for k in "
           "atoms[a][1:]),\n"
           "            sum(k in constants for k in atoms[a][1:]), -a))",
           "            sum(k in constants for k in atoms[a][1:]),\n"
           "            sum(k in bound and k not in constants for k in "
           "atoms[a][1:]), -a))",
           ("tests/test_chase.py",)),
    Mutant("each step stores its rows before the next reads them", ENGINE,
           "        rows = _extend(rows, step, qg, mark, no_skolem)\n",
           "        rows = _extend(list(rows), step, qg, mark, no_skolem)\n",
           ("tests/test_query.py",)),
)


class MutationError(RuntimeError):
    """A mutant no longer applies, or the unmutated tests fail."""


def _copy(dest: Path) -> None:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part,
                        ignore=shutil.ignore_patterns(
                            "__pycache__", ".hypothesis", ".pytest_cache"))


def _mutated(tree: Path, mutant: Mutant) -> str:
    """The text of ``mutant``'s file in ``tree`` with the edit applied."""
    text = (tree / mutant.path).read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        raise MutationError("mutant %r: its old text occurs %d times in %s"
                            % (mutant.name, found, mutant.path))
    return text.replace(mutant.old, mutant.new)


def _run_tests(tree: Path, tests: tuple[str, ...]) -> Optional[str]:
    """None when ``tests`` pass in ``tree``, else the first failing test
    id (or pytest's last line when it names none)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-rf",
         "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    if failed:
        return failed.group(1)
    lines = (done.stdout + done.stderr).strip().splitlines()
    return lines[-1] if lines else "exit code %d" % done.returncode


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="quadchase-mutate-") as scratch:
        scratch = Path(scratch)
        try:
            for mutant in MUTANTS:  # every edit applies before tests run
                _mutated(ROOT, mutant)
            files = tuple(sorted({t for m in MUTANTS for t in m.tests}))
            _copy(scratch / "clean")
            failure = _run_tests(scratch / "clean", files)
            if failure is not None:
                raise MutationError("the unmutated copy fails %s" % failure)
        except MutationError as exc:
            print("mutate: %s" % exc, file=sys.stderr)
            return 2
        results = []
        for i, mutant in enumerate(MUTANTS):
            tree = scratch / ("mutant%d" % i)
            _copy(tree)
            (tree / mutant.path).write_text(_mutated(tree, mutant),
                                            encoding="utf-8")
            started = time.monotonic()
            failure = _run_tests(tree, mutant.tests)
            shutil.rmtree(tree)
            killed = failure is not None
            results.append({
                "name": mutant.name, "file": mutant.path,
                "tests": list(mutant.tests),
                "result": "killed" if killed else "survived",
                "first_failure": failure,
                "equivalent": mutant.equivalent,
                "seconds": round(time.monotonic() - started, 1)})
            print("%-8s %s%s" % (results[-1]["result"], mutant.name,
                                 " (%s)" % failure if killed else ""))
    ok = all((r["result"] == "killed") == (r["equivalent"] is None)
             for r in results)
    RECORD.write_text(json.dumps({
        "python": platform.python_version(),
        "baseline": "passed",
        "mutants": results,
        "ok": ok}, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
