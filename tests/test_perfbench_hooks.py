"""The benchmark's tracing hooks still find every name they patch, and
every workload's pipeline still gives the generator's answer.

``perfbench/tracing.py`` replaces module globals of ``quadchase`` at run
time; a traced worker exits with a hook error when a hooked name is gone
or never called.  One traced worker run per workload, at quarter size,
guards those names and checks the chase file and the answer against
what the workload's generator predicts in closed form.
"""

import json
import pathlib
import subprocess
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["rdfs-closure", "bridge-join",
                                  "horn-deep"])
def test_traced_worker_finds_every_hook(tmp_path, monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import workloads

    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(workload.default_seed, 0.25)
    case = run.write_case(tmp_path / "case", inputs)
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(run.WORKER), str(case), str(result), "--trace"],
        env=run.worker_env(), capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    record = json.loads(result.read_text())
    assert record["complete"] and record["trace"]["spans"]
    assert (record["quads_in"], record["quads_out"]) \
        == (inputs.quads_in, inputs.quads_out)
    assert workloads.check_chase(inputs, (case / "chase.nq").read_bytes()) \
        == []
    assert workloads.check_answer(inputs, record["answer"]) == []
