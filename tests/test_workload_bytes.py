"""The chase files of the benchmark workloads, byte for byte.

``perfbench/workloads.py`` is imported read-only, as in
``test_perfbench_hooks``.  Each workload, built at its default seed and
full size, goes through ``parse_nquads``, ``parse_rules``, ``run_chase``
and ``serialize_nquads``, and the SHA-256 of the chase file must stay
the one pinned here: a faster closure or join must not change a byte.
A larger rdfs-closure instance, with a deeper class chain than the
benchmark's, is checked against the generator's closed-form chase.
Every chunk of each workload's data file and chase file is split in
bulk: neither the row regex nor the character scanner reads a line.
"""

import collections
import hashlib
import pathlib

import pytest

from quadchase import (ChaseConfig, QuadSystem, get_semantics, parse_nquads,
                       parse_rules, run_chase, serialize_nquads, syntax)

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

CHASE_SHA256 = {
    "rdfs-closure":
        "19f3ec8962b2b1c8dc2c8be3df398fd83888713c986f11f24fb8fa549a9f4bff",
    "bridge-join":
        "6e05718b4f3753454676f074e27bcd4c84fa09bab6e59d8e9d24317aeb0c08e4",
    "horn-deep":
        "848ad7520bffd8132158adb60560ec45ae22bd5a7d0b5f6377628ae09482c2af",
}


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    return workloads


def chase_file(inputs) -> bytes:
    """The chase file the CLI writes for a workload's inputs."""
    system = QuadSystem(parse_nquads(inputs.data),
                        parse_rules(inputs.rules).rules)
    semantics = get_semantics(inputs.semantics,
                              resource_rule=inputs.resource_rule)
    result = run_chase(system, ChaseConfig(semantics=semantics))
    assert result.complete
    return serialize_nquads(result.quads)


@pytest.mark.parametrize("name", sorted(CHASE_SHA256))
def test_workload_chase_bytes(workloads, name):
    workload = workloads.WORKLOADS[name]
    chase = chase_file(workload.inputs(workload.default_seed))
    assert hashlib.sha256(chase).hexdigest() == CHASE_SHA256[name]


def test_rdfs_closure_at_300_entities_and_50_classes(workloads):
    inputs = workloads.gen_rdfs_closure(11, 300, 50)
    assert workloads.check_chase(inputs, chase_file(inputs)) == []


@pytest.mark.parametrize("name", sorted(CHASE_SHA256))
def test_every_workload_chunk_is_split(workloads, monkeypatch, name):
    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(workload.default_seed)
    chase = chase_file(inputs)
    monkeypatch.setattr(syntax, "_CHUNK_BYTES", 4096)
    calls = collections.Counter()
    for fn in ("_rows", "_scan_nquads_line"):
        def counted(*args, _fn=getattr(syntax, fn), _name=fn):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(syntax, fn, counted)
    for data in (inputs.data, chase):
        assert len(list(syntax._pieces(data))) > 4
        assert len(parse_nquads(data)) == data.count(b"\n")
    assert calls == {}
