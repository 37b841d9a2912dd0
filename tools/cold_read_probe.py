"""In-process probe of the N-Quads reader's cost for terms it has not seen.

    python3 tools/cold_read_probe.py SRC [SRC ...] [--runs N] [--entities N]

Each ``SRC`` is a ``src/`` directory holding a ``quadchase`` package, so
two checkouts can be compared.  The script builds the bridge-join
workload's chase file once (``perfbench/workloads.py``, seed 11,
``--entities`` entities, two ``knows`` edges per subject: at 50,000
entities 225,000 quads and 25,000 labelled nulls) with the first
``SRC``.  Then, in ``--runs`` rounds, the order of the sources
alternating, each source gets one fresh process that:

* times ``syntax._scan_term`` on a skolem label already interned, and
  ``terms.blank`` on that label, each the least of 7 repeats of 200,000
  calls, in microseconds a call;
* parses the chase file once with the cyclic collector off, the intern
  table empty of its labelled nulls, in seconds.

It prints one JSON object: per source, the per-call minima over the
rounds and every cold parse time.  Standard library only; manual and
ungated.  The host's speed drifts, so compare sources only within one
run of the script.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_CHASE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
from quadchase import parse_nquads, parse_rules, run_chase, serialize_nquads
from quadchase.engine import QuadSystem
inputs = workloads.gen_bridge_join(11, int(sys.argv[3]), 2)
system = QuadSystem(parse_nquads(inputs.data), parse_rules(inputs.rules).rules)
open(sys.argv[4], "wb").write(serialize_nquads(run_chase(system).quads))
"""

_PROBE = """
import gc, json, sys, time, timeit
sys.path.insert(0, sys.argv[1])
from quadchase import syntax, terms
data = open(sys.argv[2], "rb").read()
gc.disable()
start = time.perf_counter()
syntax.parse_nquads(data)
cold = time.perf_counter() - start
label = data[data.index(b"_:sk_"):].split(b" ", 1)[0].decode()
def per_call(stmt):
    return min(timeit.repeat(stmt, number=200000, repeat=7,
                             globals=dict(syntax=syntax, terms=terms,
                                          text=label + " ",
                                          label=label[2:]))) / 0.2
print(json.dumps({"cold_parse_s": cold,
                  "scan_term_us": per_call("syntax._scan_term(text, 0, 1)"),
                  "blank_us": per_call("terms.blank(label)")}))
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", nargs="+", type=Path)
    parser.add_argument("--runs", type=int, default=15)
    parser.add_argument("--entities", type=int, default=50000)
    args = parser.parse_args()
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    results = {str(src): {"cold_parse_s": []} for src in args.src}
    with tempfile.TemporaryDirectory(prefix="quadchase-probe-") as scratch:
        chase = Path(scratch) / "chase.nq"
        subprocess.run([sys.executable, "-c", _CHASE, str(args.src[0]),
                        str(ROOT / "perfbench"), str(args.entities),
                        str(chase)], env=env, check=True)
        for run in range(args.runs):
            order = args.src if run % 2 == 0 else args.src[::-1]
            for src in order:
                done = subprocess.run(
                    [sys.executable, "-c", _PROBE, str(src), str(chase)],
                    env=env, check=True, capture_output=True, text=True)
                sample = json.loads(done.stdout)
                side = results[str(src)]
                side["cold_parse_s"].append(round(sample["cold_parse_s"], 4))
                for key in ("scan_term_us", "blank_us"):
                    side[key] = round(min(side.get(key, sample[key]),
                                          sample[key]), 3)
    print(json.dumps(results, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
