"""Layer-by-layer benchmark of the quadchase chase + query pipeline.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

NAME is ``rdfs-closure``, ``bridge-join``, ``horn-deep`` or ``all``.  Run
it from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  Each sample is a fresh worker process (the term
intern tables are process-global, so a reused process would measure a
warmer table and a cumulative peak RSS), run one at a time.

Before measuring, untimed, every invocation
  * runs the real ``quadchase chase``/``quadchase query`` CLI on the
    quarter-size inputs and checks its bytes and answers equal the
    worker's (CLI parity);
  * feeds damaged copies of that chase file to the checker and stops if
    any is accepted (checker self-test).
Then it runs samples for ``--seconds`` seconds.  Every sample's chase
file and answers are checked; a failed sample is counted, never dropped.

``--trace 0`` reports the end-to-end medians.  ``--trace 1`` alternates
untraced and traced samples and reports the per-layer medians, the
tracing overhead, and the growth report: log-log slopes of four traced
counts against quads added, over quarter, half and full size.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it are for people: a run record and each metric with its quartiles.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

MIN_SAMPLES = 5
# Host speed can swing by 2x within seconds on a shared VM.  Each worker times
# a fixed pure-Python kernel (worker.calibrate) before the chase step,
# between the steps and after the query step; a step's seconds are
# scaled by CALIBRATION_S over the mean kernel time on either side of
# it.  Reported times are therefore seconds on a host where the kernel
# takes CALIBRATION_S, and the raw medians are printed alongside.
CALIBRATION_S = 0.05
# Stop starting samples this long after the invocation began, so that
# a run always ends within three minutes.
HARD_STOP_S = 140.0

END_TO_END = (("setup_s", "s"), ("chase_s", "s"), ("query_s", "s"),
              ("pipeline_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER_UNITS = {"_s": "s", "_ratio": "ratio", "_slope": "slope",
                   "_bytes": "bytes"}
GROWTH = ("terms.indexed_quads", "engine.head_instances",
          "query.candidate_rows", "query.scanned_rows")


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a trustworthy result."""


def layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    except OSError:
        pass
    return None


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Fixed hash seed: set iteration order, and so the join's tie-breaks,
    # repeat from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def write_case(case: Path, inputs: workloads.Inputs) -> Path:
    case.mkdir()
    (case / "data.nq").write_bytes(inputs.data)
    (case / "rules.qrules").write_bytes(inputs.rules)
    (case / "query.ccq").write_bytes(inputs.query)
    (case / "config.json").write_text(json.dumps(
        {"semantics": inputs.semantics,
         "resource_rule": inputs.resource_rule}))
    return case


class Session:
    """Runs and checks samples; counts every attempt and failure."""

    def __init__(self, started: float) -> None:
        self.started = started
        self.env = worker_env()
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}

    def time_left(self) -> float:
        return HARD_STOP_S - (time.monotonic() - self.started)

    def fail(self, what: str) -> None:
        self.failed += 1
        print("FAILED: %s" % what, file=sys.stderr)

    def sample(self, case: Path, inputs: workloads.Inputs, traced: bool):
        """One worker run; its record, or None when it failed."""
        self.attempted += 1
        result_path = case / "result.json"
        cmd = [sys.executable, str(WORKER), str(case), str(result_path)]
        if traced:
            cmd.append("--trace")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE,
                                  timeout=max(10.0, self.time_left() + 30))
        except subprocess.TimeoutExpired:
            self.fail("worker on %s timed out" % case.name)
            return None
        stderr = proc.stderr.decode("utf-8", "replace").strip()
        if proc.returncode == tracing.HOOK_EXIT:
            raise BenchError(stderr)
        if proc.returncode != 0:
            self.fail("worker on %s exited %d: %s"
                      % (case.name, proc.returncode, stderr[-2000:]))
            return None
        with open(result_path) as fh:
            record = json.load(fh)
        result_path.unlink()
        chase = (case / "chase.nq").read_bytes()
        record["chase_sha256"] = hashlib.sha256(chase).hexdigest()
        problems = self.check(case, inputs, record, chase)
        if problems:
            self.fail("%s: %s" % (case.name, "; ".join(problems)))
            return None
        before, between, after = record["calibration_s"]
        record["scale"] = {
            "step.chase": CALIBRATION_S * 2 / (before + between),
            "step.query": CALIBRATION_S * 2 / (between + after)}
        record["raw"] = {"setup_s": record["imported_at"] - spawned,
                         "chase_s": record["chase_s"],
                         "query_s": record["query_s"]}
        record["setup_s"] = record["raw"]["setup_s"] * CALIBRATION_S / before
        record["chase_s"] *= record["scale"]["step.chase"]
        record["query_s"] *= record["scale"]["step.query"]
        record["pipeline_s"] = record["chase_s"] + record["query_s"]
        record["peak_rss_mb"] = record["peak_rss_kb"] / 1024.0
        return record

    def check(self, case: Path, inputs: workloads.Inputs, record: dict,
              chase: bytes) -> list:
        problems = []
        if not record["complete"]:
            problems.append("chase ended with status %s" % record["status"])
        if (record["quads_in"], record["quads_out"]) \
                != (inputs.quads_in, inputs.quads_out):
            problems.append("quads %d -> %d, expected %d -> %d"
                            % (record["quads_in"], record["quads_out"],
                               inputs.quads_in, inputs.quads_out))
        problems += workloads.check_answer(inputs, record["answer"])
        digest = record["chase_sha256"]
        known = self.digests.get(case)
        if known is None:
            chase_problems = workloads.check_chase(inputs, chase)
            if not chase_problems:
                self.digests[case] = digest
            problems += chase_problems
        elif digest != known:
            problems.append("chase SHA-256 %s differs from this seed's "
                            "first run (%s)" % (digest[:16], known[:16]))
        return problems


def self_test(inputs: workloads.Inputs, chase: bytes) -> None:
    """The checker must reject damaged chase files and answers."""
    for what, bad in workloads.corruptions(chase):
        if not workloads.check_chase(inputs, bad):
            raise BenchError("checker accepted a chase file with a %s"
                             % what)
    if isinstance(inputs.answer, bool):
        bad_answer = not inputs.answer
    else:
        rows = sorted(list(row) for row in inputs.answer)
        bad_answer = rows[1:] + [["_:sk_pet_0_0000000000000000"]]
    if not workloads.check_answer(inputs, bad_answer):
        raise BenchError("checker accepted a wrong answer")


def cli_parity(session: Session, case: Path, inputs: workloads.Inputs,
               reference: dict, reference_chase: bytes) -> None:
    """The real CLI must write the same chase and give the same answer
    as the worker's in-process steps."""
    session.attempted += 1
    chase_path = case / "cli-chase.nq"
    flags = ["--local-semantics", inputs.semantics]
    if not inputs.resource_rule:
        flags.append("--no-rdfs-resource-rule")
    cli = [sys.executable, "-m", "quadchase"]
    done = subprocess.run(
        cli + ["chase", str(case / "data.nq"), str(case / "rules.qrules"),
               "-o", str(chase_path)] + flags,
        env=session.env, capture_output=True, timeout=120)
    problems = []
    if done.returncode != 0:
        problems.append("CLI chase exited %d" % done.returncode)
    elif chase_path.read_bytes() != reference_chase:
        problems.append("CLI chase bytes differ from the worker's")
    done = subprocess.run(
        cli + ["query", str(chase_path), str(case / "query.ccq"),
               "--format", "json"],
        env=session.env, capture_output=True, timeout=120)
    if done.returncode != 0:
        problems.append("CLI query exited %d" % done.returncode)
    else:
        out = json.loads(done.stdout)
        answer = out["boolean"] if "boolean" in out else out["tuples"]
        if answer != reference["answer"]:
            problems.append("CLI answer differs from the worker's")
    if problems:
        session.fail("CLI parity: %s" % "; ".join(problems))


def slope(xs: list, ys: list) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1)) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    den = sum((a - mx) ** 2 for a in lx)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / den


def layer_figures(record: dict) -> dict:
    figures = tracing.summarize(record["trace"], record["scale"])
    answer = record["answer"]
    figures.update({
        "syntax.chase_bytes": record["chase_bytes"],
        "chase.iterations": record["iterations"],
        "chase.generating_iterations": record["generating_iterations"],
        "chase.new_quads": record["quads_out"] - record["quads_in"],
        "query.answers": (int(answer) if isinstance(answer, bool)
                          else len(answer)),
    })
    return figures


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def report(name: str, values: list, unit: str, raw=None) -> dict:
    median = statistics.median(values)
    low, high = quartiles(values)
    extra = "" if raw is None else "; raw median %.6g" % statistics.median(raw)
    print("  %-32s %14.6g %-6s (median of %d; quartiles %.6g .. %.6g%s)"
          % (name, median, unit, len(values), low, high, extra))
    return {"value": median, "unit": unit}


def run_workload(workload: workloads.Workload, seed: int, seconds: float,
                 trace: bool, workdir: Path, started: float) -> dict:
    session = Session(started)
    full_inputs = workload.inputs(seed)
    quarter_inputs = workload.inputs(seed, 0.25)
    full = write_case(workdir / ("%s-full" % workload.name), full_inputs)
    quarter = write_case(workdir / ("%s-quarter" % workload.name),
                         quarter_inputs)

    # Untimed checks on the smallest size; this also compiles the
    # program's bytecode before the first timed import.  A failed
    # reference run is already counted and leaves nothing to compare.
    reference = session.sample(quarter, quarter_inputs, False)
    if reference is not None:
        reference_chase = (quarter / "chase.nq").read_bytes()
        cli_parity(session, quarter, quarter_inputs, reference,
                   reference_chase)
        self_test(quarter_inputs, reference_chase)

    plain, traced = [], []
    deadline = time.monotonic() + seconds
    while session.time_left() > 0:
        record = session.sample(full, full_inputs, False)
        if record is not None:
            plain.append(record)
        if trace:
            record = session.sample(full, full_inputs, True)
            if record is not None:
                traced.append(record)
        # failed samples count towards the minimum, so that a broken
        # program ends the run at the deadline
        tried = len(plain) + session.failed
        if time.monotonic() >= deadline and tried >= MIN_SAMPLES \
                and (not trace or len(traced) + session.failed
                     >= MIN_SAMPLES):
            break
    if not plain or (trace and not traced):
        raise BenchError("no sample of %s succeeded" % workload.name)

    print("%s (seed %d): %d samples, %d traced, %d of %d attempts failed"
          % (workload.name, seed, len(plain), len(traced), session.failed,
             session.attempted))
    print(json.dumps({
        "record": workload.name, "seed": seed, "params": workload.params,
        "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "quads_in": plain[0]["quads_in"],
        "quads_out": plain[0]["quads_out"],
        "iterations": plain[0]["iterations"],
        "chase_sha256": plain[0]["chase_sha256"],
        "calibration_s": statistics.median(
            c for r in plain for c in r["calibration_s"]),
        "fail_rate": session.failed / session.attempted,
    }, sort_keys=True))

    metrics = {}
    if not trace:
        for name, unit in END_TO_END:
            raw = ([r["raw"][name] for r in plain]
                   if name in plain[0]["raw"] else None)
            metrics[name] = report(name, [r[name] for r in plain], unit, raw)
    else:
        figures = [layer_figures(r) for r in traced]
        for name in figures[0]:
            metrics[name] = report(name, [f[name] for f in figures],
                                   layer_unit(name))
        overhead = (statistics.median(r["pipeline_s"] for r in traced)
                    - statistics.median(r["pipeline_s"] for r in plain))
        metrics["trace.overhead_s"] = report("trace.overhead_s",
                                             [overhead], "s")
        half_inputs = workload.inputs(seed, 0.5)
        half = write_case(workdir / ("%s-half" % workload.name), half_inputs)
        sizes = [session.sample(quarter, quarter_inputs, True),
                 session.sample(half, half_inputs, True), traced[0]]
        if any(r is None for r in sizes):
            raise BenchError("a growth-report run failed")
        added = [r["quads_out"] - r["quads_in"] for r in sizes]
        counts = [layer_figures(r) for r in sizes]
        for name in GROWTH:
            ys = [c[name] for c in counts]
            print("  growth %-25s %s at %s quads added"
                  % (name, ys, added))
            metrics["growth.%s_slope" % name.split(".")[1]] = report(
                "growth.%s_slope" % name.split(".")[1],
                [slope(added, ys)], "slope")
    return {"correct": session.failed == 0, "attempted": session.attempted,
            "failed": session.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="default: the workload's own seed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quadchase" / "__init__.py").is_file():
        print("error: no quadchase sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = (sorted(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    results = {}
    try:
        for name in names:
            workload = workloads.WORKLOADS[name]
            seed = workload.default_seed if args.seed is None else args.seed
            results[name] = run_workload(workload, seed, args.seconds,
                                         bool(args.trace), workdir,
                                         time.monotonic())
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (name, metric): value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
