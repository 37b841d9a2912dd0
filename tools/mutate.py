"""Mutation check: do the tests catch a broken fast path?

    python3 tools/mutate.py

Each mutant below is a file of the checkout, an exact old text that
occurs there once, the new text that replaces it, and the test files
that must catch the change.  The script copies the checkout's ``src/``
and ``tests/`` to a temporary directory and first runs every named test
file on the unmutated copy, which must pass, so that a kill is a real
kill.  Then, for each mutant, it applies the edit to a fresh copy, runs
the mutant's test files (stopping at the first failure) and records the
mutant as killed, with the first failing test id, or as survived.

An old text that does not occur exactly once, or an edit that leaves
the file without valid syntax, stops the script before any test runs:
the code it guarded has moved, and the mutant must be rewritten, not
dropped.  A mutant known to change no behaviour carries its reason in
``equivalent`` and is expected to survive.

Each run checks every mutant and rewrites the record,
``tools/mutants.json``.  The exit code is 0 when every mutant is killed
or is a recorded equivalent one that survived, 1 otherwise, and 2 when
the unmutated copy fails or a mutant does not apply.  Standard library
only; it runs the tests with ``python -m pytest``.  Manual and ungated:
one mutant costs one run of its test files (a few seconds to a minute).
The tier-1 ``tests/test_mutants.py`` runs no mutant, but fails when one
no longer applies or the record does not name exactly ``MUTANTS``, so
rerun the script whenever the list changes.
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
SYNTAX = "src/quadchase/syntax.py"
SEMANTICS = "src/quadchase/semantics.py"
TERMS = "src/quadchase/terms.py"


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
           "                tail = [q for q in tail\n"
           "                        if (s is None or q[1] is s)\n"
           "                        and (p is None or q[2] is p)\n"
           "                        and (o is None or q[3] is o)]\n",
           "                pass\n", ("tests/test_engine.py",)),
    Mutant("condition that a seed tail has a constant inverted", ENGINE,
           "            if s is not None or p is not None or o is not None:\n"
           "                tail = [",
           "            if not (s is not None or p is not None "
           "or o is not None):\n"
           "                tail = [", ("tests/test_engine.py",)),
    Mutant("repeated-variable check on the seed dropped", ENGINE,
           "    for j, k in repeats:\n"
           "        quads = [q for q in quads if q[j] is q[k]]\n",
           "", ("tests/test_engine.py",)),
    Mutant("no_skolem check on the seed dropped", ENGINE,
           "        if slot in no_skolem:\n"
           "            quads = [q for q in quads if q[j].kind != SKOLEM]\n",
           "        pass\n", ("tests/test_engine.py", "tests/test_query.py")),
    Mutant("row offset advanced after a fully bound step", ENGINE,
           "        if len(known) < 3:  # a fully bound step appends no "
           "quad\n", "        if True:\n", ("tests/test_engine.py",)),
    Mutant("early stop once a tail is the whole bucket removed", ENGINE,
           "        if not start:\n            break\n",
           "", ("tests/test_engine.py",)),
    Mutant("join order by constant positions first (a cross product)",
           ENGINE,
           "            sum(k in where and k not in constants for k in "
           "atoms[a][1:]),\n"
           "            sum(k in constants for k in atoms[a][1:]), -a))",
           "            sum(k in constants for k in atoms[a][1:]),\n"
           "            sum(k in where and k not in constants for k in "
           "atoms[a][1:]), -a))",
           ("tests/test_chase.py",)),
    Mutant("each step stores its rows before the next reads them", ENGINE,
           "        rows = _extend(rows, step, qg, mark, no_skolem)\n",
           "        rows = _extend(list(rows), step, qg, mark, no_skolem)\n",
           ("tests/test_query.py",)),
    Mutant("generating head's rows deduplicated without their last slot",
           ENGINE, "            rows = list(dict.fromkeys(rows))\n",
           "            rows = list({row[:-1]: row for row in rows}.values())\n",
           ("tests/test_engine.py",)),
    Mutant("one-argument skolem key getter gives the bare constant", ENGINE,
           "_tuple_getter([at[slots[a]] for a in t.args])",
           "(itemgetter(at[slots[t.args[0]]]) if len(t.args) == 1 else "
           "_tuple_getter([at[slots[a]] for a in t.args]))",
           ("tests/test_engine.py",)),
    Mutant("split reader given the line count, not the newline count",
           SYNTAX, "_read_split(text, lines - 1, strict)",
           "_read_split(text, lines, strict)", ("tests/test_syntax.py",)),
    Mutant("split reader's length check dropped", SYNTAX,
           "len(texts) != 5 * lines + 1 or ", "", ("tests/test_syntax.py",)),
    Mutant("split reader's space count on a chunk with a quote dropped",
           SYNTAX, """'"' in text and text.count(" ") != 4 * lines""",
           "False", ("tests/test_syntax.py",),
           equivalent="a chunk whose literal holds a space then fails the "
           "length check after the split instead of the space count "
           "before it: the same chunks are declined, only later"),
    Mutant("a context's compiled local rules never built", SEMANTICS,
           "        local[ctx] = local[ctx] or [SkolemRule(",
           "        local[ctx] = local[ctx] or [] and [SkolemRule(",
           ("tests/test_semantics.py", "tests/test_chase.py")),
    Mutant("extend skips the built s/p/o maps", TERMS,
           "            bucket.append(q)\n"
           "            s_map, p_map, o_map = self._maps[q[0]]\n",
           "            bucket.append(q)\n"
           "            continue\n"
           "            s_map, p_map, o_map = self._maps[q[0]]\n",
           ("tests/test_terms.py",)),
    Mutant("blank lets a label that is not a name through", TERMS,
           "    if not _WHOLE_NAME(label):\n",
           "    if not label:\n", ("tests/test_syntax.py",)),
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
    text = text.replace(mutant.old, mutant.new)
    try:  # a mutant the tests reject for its syntax is no kill
        compile(text, mutant.path, "exec")
    except SyntaxError as exc:
        raise MutationError("mutant %r does not compile: %s"
                            % (mutant.name, exc))
    return text


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
