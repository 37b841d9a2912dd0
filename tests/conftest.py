import pathlib
import sys

import pytest
from hypothesis import settings

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from quadchase import engine
from quadchase.engine import QuadSystem
from quadchase.syntax import parse_nquads, parse_rules

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# ``pytest --hypothesis-profile=ci`` runs ten times the examples of the
# default profile, in the tests that leave ``max_examples`` to it and in
# those that set their count through ``examples``.
DEFAULT_EXAMPLES = settings.get_profile("default").max_examples
settings.register_profile("ci", max_examples=10 * DEFAULT_EXAMPLES)


def examples(n: int) -> int:
    """``n`` examples under the default Hypothesis profile, and as many
    times more as the loaded profile has over the default."""
    return n * settings().max_examples // DEFAULT_EXAMPLES


def count_head_instances(monkeypatch) -> list[int]:
    """A one-item list that counts, from now on, the rule heads the
    engine builds on both of its paths: one per ``instantiate_head``
    call (per body grounding, or per distinct row of a head with a
    skolem function) and one per grounding of a plan whose output is its
    head (a one-atom rule without skolem function), which ``evaluate``
    gives as the head quad and ``derive`` builds in bulk."""
    heads = [0]
    instantiate, evaluate = engine.instantiate_head, engine.evaluate

    def counted_instantiate(*args):
        heads[0] += 1
        return instantiate(*args)

    def counted_evaluate(plan, *args):
        for row in evaluate(plan, *args):
            if plan.head is not None and not plan.head[4] \
                    and plan.output is not None:
                heads[0] += 1
            yield row

    monkeypatch.setattr(engine, "instantiate_head", counted_instantiate)
    monkeypatch.setattr(engine, "evaluate", counted_evaluate)
    return heads


def count_join_rows(monkeypatch) -> list[int]:
    """A one-item list that counts, from now on, the binding rows the
    join evaluator builds: those of each seed relation (``engine._seed``)
    and of each step after it (``engine._extend``), the last step's
    included."""
    rows = [0]

    def counted(build):
        def counted_build(*args):
            for row in build(*args):
                rows[0] += 1
                yield row
        return counted_build

    monkeypatch.setattr(engine, "_seed", counted(engine._seed))
    monkeypatch.setattr(engine, "_extend", counted(engine._extend))
    return rows


def load_system(nq_name: str, rules_name: str) -> QuadSystem:
    quads = parse_nquads((FIXTURES / nq_name).read_bytes())
    doc = parse_rules((FIXTURES / rules_name).read_bytes())
    return QuadSystem(quads, doc.rules)


@pytest.fixture
def example1_system() -> QuadSystem:
    return load_system("example1.nq", "example1.qrules")


@pytest.fixture
def fig3_system() -> QuadSystem:
    return load_system("fig3.nq", "fig3.qrules")


@pytest.fixture
def fixtures_dir() -> pathlib.Path:
    return FIXTURES
