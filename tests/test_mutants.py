"""The mutation record stays in step with the code it guards.

``tools/mutate.py`` is run by hand, so a refactor that moves the code a
mutant edits would otherwise go unnoticed until its next run.  These
checks cost no test run: every mutant must still apply (its old text
occurs once and the edited file compiles), and the committed record,
``tools/mutants.json``, must name exactly the script's mutants.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutate",
                                               ROOT / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)


@pytest.mark.parametrize("mutant", mutate.MUTANTS,
                         ids=[m.name for m in mutate.MUTANTS])
def test_every_mutant_still_applies(mutant):
    mutate._mutated(ROOT, mutant)
    assert all((ROOT / path).is_file() for path in mutant.tests)


def test_the_record_names_exactly_the_mutants():
    record = json.loads(mutate.RECORD.read_text(encoding="utf-8"))
    recorded = [(r["name"], r["file"], tuple(r["tests"]), r["equivalent"])
                for r in record["mutants"]]
    assert recorded == [(m.name, m.path, m.tests, m.equivalent)
                        for m in mutate.MUTANTS]
    assert record["ok"] is True
