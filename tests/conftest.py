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
    engine builds on both of its paths: one per body grounding
    (``instantiate_head``) and one per matching quad of a one-atom rule
    evaluated in one pass (``_select``)."""
    heads = [0]
    instantiate, select = engine.instantiate_head, engine._select

    def counted_instantiate(*args):
        heads[0] += 1
        return instantiate(*args)

    def counted_select(*args):
        built = list(select(*args))
        heads[0] += len(built)
        return built

    monkeypatch.setattr(engine, "instantiate_head", counted_instantiate)
    monkeypatch.setattr(engine, "_select", counted_select)
    return heads


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
