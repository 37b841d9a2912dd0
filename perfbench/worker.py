"""One benchmark sample in a fresh interpreter.

It runs the user's pipeline once, the way the CLI does it: the
``quadchase chase`` step (read and parse data and rules, ``run_chase``
with its dependency analysis, ``serialize_nquads``, write the file), then
the ``quadchase query`` step (read and parse the chase file,
``parse_query``, ``answers`` or ``entails_boolean``).

    python worker.py CASE_DIR RESULT_JSON [--trace]

CASE_DIR holds ``data.nq``, ``rules.qrules``, ``query.ccq`` and
``config.json``; the chase is written to ``CASE_DIR/chase.nq``.  The
result file gets the step times, the moment ``import quadchase``
returned (``time.monotonic``, so the parent can subtract its spawn time),
the peak resident set, the calibration kernel times and, with
``--trace``, the spans.  Exit code 3 means a
tracing hook is gone.
"""

import time

import quadchase

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from quadchase import (  # noqa: E402
    ChaseConfig,
    ChaseResult,
    QuadSystem,
    answers,
    entails_boolean,
    get_semantics,
    parse_nquads,
    parse_query,
    parse_rules,
    run_chase,
    serialize_nquads,
)
from quadchase.chase import COMPLETE  # noqa: E402

import tracing  # noqa: E402


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def calibrate():
    """Seconds taken by a fixed piece of pure-Python work that does not
    touch quadchase: string formatting, tuple hashing, dict and set
    building, sorting and ``__eq__`` calls, the operations the pipeline
    spends its time on.  The collector is off while it runs, so the
    program's live heap does not change the figure."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _calibration_kernel()
    finally:
        if was_enabled:
            gc.enable()


class _Key:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __eq__(self, other):
        return (self.a, self.b) == (other.a, other.b)

    def __hash__(self):
        return hash((self.a, self.b))


def _calibration_kernel():
    # Small rounds, so the kernel adds next to nothing to the peak RSS.
    started = time.perf_counter()
    work = 0
    for round_ in range(12):
        names = ["<http://calibration.example/%d/%d>"
                 % (round_, i * 7919 % 1499) for i in range(2000)]
        keys = [_Key(names[i], names[(i * 31) % len(names)])
                for i in range(len(names))]
        table = {}
        for key in keys:
            table.setdefault(key, []).append(key.a)
        ordered = sorted(frozenset((k.a, k.b) for k in keys))
        work += len(table) + len(ordered)
        work += sum(1 for x, y in zip(keys, keys[1:]) if x == y)
    if not work:
        raise AssertionError("calibration did no work")
    return time.perf_counter() - started


def peak_rss_kb():
    """This process image's peak resident set (``VmHWM``).  ``ru_maxrss``
    would also count the spawning process, whose resident set an exec'd
    child inherits as its starting maximum."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def chase_step(case, config, span):
    with span("step.chase"):
        semantics = get_semantics(config["semantics"],
                                  resource_rule=config["resource_rule"])
        with span("syntax.parse_data"):
            quads = parse_nquads(_read(os.path.join(case, "data.nq")))
        with span("syntax.parse_rules"):
            doc = parse_rules(_read(os.path.join(case, "rules.qrules")))
        system = QuadSystem(quads, doc.rules)
        with span("chase.run"):
            result = run_chase(system, ChaseConfig(semantics=semantics))
        with span("syntax.serialize"):
            out = serialize_nquads(result.quads)
        with open(os.path.join(case, "chase.nq"), "wb") as fh:
            fh.write(out)
    return result, {
        "status": result.status,
        "complete": result.status == COMPLETE,
        "quads_in": len(system.quads),
        "quads_out": len(result.quads),
        "iterations": len(result.iteration_log),
        "generating_iterations": result.generating_iterations,
        "chase_bytes": len(out),
    }


def query_step(case, span):
    with span("step.query"):
        with span("syntax.parse_chase"):
            quads = parse_nquads(_read(os.path.join(case, "chase.nq")))
        result = ChaseResult(quads, COMPLETE, (), 0, [])
        query = parse_query(_read(os.path.join(case, "query.ccq")))
        with span("query.answer"):
            if query.is_boolean:
                return entails_boolean(result, query)
            rows = answers(result, query).sorted_tuples()
            return [[c.canonical for c in row] for row in rows]


def main(argv):
    case, result_path = argv[0], argv[1]
    traced = "--trace" in argv[2:]
    with open(os.path.join(case, "config.json")) as fh:
        config = json.load(fh)
    tracer = None
    span = lambda name: contextlib.nullcontext()  # noqa: E731
    if traced:
        tracer = tracing.Tracer(os.path.basename(result_path))
        tracing.install(tracer)
        span = tracer.span

    calibration = [calibrate()]
    t0 = time.perf_counter()
    chased, record = chase_step(case, config, span)
    t1 = time.perf_counter()
    # the CLI never frees the chase; keep that cost out of the step
    del chased
    calibration.append(calibrate())
    if tracer is not None:
        tracer.in_query = True
    t2 = time.perf_counter()
    answer = query_step(case, span)
    t3 = time.perf_counter()
    calibration.append(calibrate())

    record.update({
        "imported_at": IMPORTED_AT,
        "calibration_s": calibration,
        "chase_s": t1 - t0,
        "query_s": t3 - t2,
        "peak_rss_kb": peak_rss_kb(),
        "answer": answer,
    })
    if tracer is not None:
        tracing.check_fired(tracer)
        record["trace"] = tracer.dump()
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except tracing.HookError as exc:
        print("tracing hook error: %s" % exc, file=sys.stderr)
        sys.exit(tracing.HOOK_EXIT)
