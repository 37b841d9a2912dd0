"""The quadchase command line.

Subcommands: validate, deps, check, chase, query, encode,
explain-semantics.  Exit codes are stable:

    0  success / boolean query true / context acyclic
    1  boolean query false / not context acyclic
    2  usage, parse, or refused-input error
    3  chase budget exhausted (partial output written)
    4  quad-system inconsistent
    5  internal error

Human diagnostics go to stderr, machine output to stdout or files.
Chase and query are separate steps talking through the N-Quads chase
file, so materializations stay cacheable and inspectable; pass the
chase's --stats manifest to query via --chase-stats so partial results
are flagged.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
import warnings
from typing import Optional

from . import __version__
from .chase import (
    BUDGET_EXHAUSTED,
    COMPLETE,
    ChaseConfig,
    ChaseResult,
    INCONSISTENT,
    run_chase,
    saturation_report,
)
from .contextgraph import (
    build_dependency_graph,
    compute_levels,
    is_context_acyclic,
    to_dot,
    to_json_dict,
)
from .engine import QuadSystem
from .query import answers, entails_boolean
from .semantics import SEMANTICS_NAMES, get_semantics
from .syntax import (
    ParseError,
    parse_nquads,
    parse_query,
    parse_rules,
    serialize_query,
    serialize_rules,
    write_nquads,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INCONSISTENT = 4
EXIT_INTERNAL = 5

_STATUS_EXIT = {COMPLETE: EXIT_OK, BUDGET_EXHAUSTED: EXIT_BUDGET,
                INCONSISTENT: EXIT_INCONSISTENT}


def _parse_file(parse, path: str, fh=None, **options):
    """``parse`` applied to the binary file ``fh``, by default ``path``
    opened: a quad file streams from it and any other is read whole.  A
    parse error names the file before its location."""
    if fh is None:
        with open(path, "rb") as fh:
            return _parse_file(parse, path, fh, **options)
    try:
        return parse(fh if parse is parse_nquads else fh.read(), **options)
    except ParseError as exc:
        raise ParseError("%s: %s" % (path, exc)) from exc


class _Digest:
    """A binary file that takes the SHA-256 of the bytes written to it
    or read from it."""

    def __init__(self, fh) -> None:
        import hashlib  # only manifests need it

        self.sha256 = hashlib.sha256()
        self._fh = fh

    def write(self, data: bytes) -> int:
        self.sha256.update(data)
        return self._fh.write(data)

    def read(self, size: int = -1) -> bytes:
        data = self._fh.read(size)
        self.sha256.update(data)
        return data

    def readline(self) -> bytes:
        data = self._fh.readline()
        self.sha256.update(data)
        return data


def _load_system(data_path: str, rules_path: str,
                 strict: bool = False) -> QuadSystem:
    quads = _parse_file(parse_nquads, data_path, strict=strict)
    doc = _parse_file(parse_rules, rules_path)
    return QuadSystem(quads, doc.rules)


def _semantics_from_args(args: argparse.Namespace):
    name = args.local_semantics or os.environ.get(
        "QUADCHASE_SEMANTICS", "simple")
    return get_semantics(name, resource_rule=args.rdfs_resource_rule), name


def cmd_validate(args: argparse.Namespace) -> int:
    for path in args.files:
        if path.endswith((".nq", ".nquads")):
            qg = _parse_file(parse_nquads, path, strict=args.strict)
            print("%s: ok (%d quads)" % (path, len(qg)))
        elif path.endswith(".qrules"):
            doc = _parse_file(parse_rules, path)
            print("%s: ok (%d rules, %d constraints)"
                  % (path, len(doc.bridge_rules()), len(doc.constraints())))
        elif path.endswith(".ccq"):
            q = _parse_file(parse_query, path)
            print("%s: ok (%s, %d atoms)"
                  % (path, "boolean" if q.is_boolean
                     else "%d free vars" % len(q.free_vars), len(q.atoms)))
        else:
            raise ParseError("don't know how to validate %r "
                             "(expected .nq, .qrules or .ccq)" % path)
    return EXIT_OK


def cmd_deps(args: argparse.Namespace) -> int:
    system = _load_system(args.data, args.rules)
    graph = build_dependency_graph(system)
    if args.dot:
        sys.stdout.write(to_dot(graph))
    else:
        json.dump(to_json_dict(graph), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    system = _load_system(args.data, args.rules)
    graph = build_dependency_graph(system)
    verdict = is_context_acyclic(graph)
    tgcs = ", ".join(sorted(c.lexical for c in graph.tgc)) or "none"
    print("triple-generating contexts: {%s}" % tgcs)
    if verdict.acyclic:
        levels = compute_levels(graph)
        print("context acyclic: yes (max level %d)" % levels.max_level)
        return EXIT_OK
    print("context acyclic: no")
    print("witness cycle: %s" % verdict.witness_text())
    return EXIT_FALSE


def cmd_chase(args: argparse.Namespace) -> int:
    semantics, sem_name = _semantics_from_args(args)
    system = _load_system(args.data, args.rules, strict=args.strict)
    cfg = ChaseConfig(
        semantics=semantics,
        max_iterations=args.max_iterations,
        max_quads=args.max_quads,
        force_unrestricted=args.force_unrestricted,
    )
    started = time.monotonic()
    result = run_chase(system, cfg)
    elapsed = time.monotonic() - started
    with open(args.output, "wb") as fh:
        digest = _Digest(fh) if args.stats else None
        write_nquads(result.quads, digest or fh)
    if result.status == BUDGET_EXHAUSTED:
        print("budget exhausted after %d iterations; partial chase "
              "written to %s" % (len(result.iteration_log), args.output),
              file=sys.stderr)
    elif result.status == INCONSISTENT:
        for v in result.violations:
            binding = ", ".join("?%s=%s" % (var.name, c.canonical)
                                for var, c in v.binding)
            print("constraint %s violated under {%s}"
                  % (v.rule_id, binding), file=sys.stderr)
        print("quad-system is inconsistent; partial chase written to %s"
              % args.output, file=sys.stderr)
    if args.stats:
        _write_chase_manifest(args, result, sem_name, elapsed,
                              digest.sha256.hexdigest())
    return _STATUS_EXIT[result.status]


def _write_chase_manifest(args: argparse.Namespace, result: ChaseResult,
                          sem_name: str, elapsed: float,
                          output_sha256: str) -> None:
    saturation: Optional[dict] = None
    if result.levels is not None and result.complete:
        report = saturation_report(result)
        saturation = {c.lexical: i for c, i in report.saturation.items()}
        if not report.schedule_ok:  # pragma: no cover - engine bug guard
            print("saturation schedule violated: %s" % report.problems,
                  file=sys.stderr)
    _write_manifest(args.stats, {
        "inputs": {"data": args.data, "rules": args.rules},
        "output": args.output,
        "output_sha256": output_sha256,
        "semantics": sem_name,
        "rdfs_resource_rule": args.rdfs_resource_rule,
        "max_iterations": args.max_iterations,
        "max_quads": args.max_quads,
        "force_unrestricted": args.force_unrestricted,
        "elapsed_seconds": round(elapsed, 6),
        "status": result.status,
        "quads": len(result.quads),
        "context_acyclic": result.levels is not None,
        "generating_iterations": result.generating_iterations,
        "iterations": [
            {"index": rec.index, "kind": rec.kind,
             "new_quads": rec.new_quads, "cumulative": rec.cumulative,
             "per_context": {c.lexical: n
                             for c, n in rec.per_context.items()}}
            for rec in result.iteration_log],
        "saturation": saturation,
        "violations": [
            {"rule": v.rule_id,
             "binding": {"?" + var.name: c.canonical
                         for var, c in v.binding}}
            for v in result.violations],
    })


def _write_manifest(path: str, manifest: dict) -> None:
    """Write a ``--stats`` manifest, with the tool's name and version, as
    indented JSON with sorted keys."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"tool": "quadchase", "version": __version__, **manifest},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")


def _chase_status(path: str, chase_path: str, actual: str) -> str:
    """The status the chase manifest ``path`` records, complete when it
    has none, once its ``output_sha256`` (when it has one) is checked
    against ``actual``, the SHA-256 of the chase file ``chase_path``."""
    statuses = tuple(_STATUS_EXIT)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError as exc:
        raise ParseError("%s: %s" % (path, exc)) from exc
    if not isinstance(manifest, dict):
        raise ParseError("%s: a chase manifest is a JSON object" % path)
    status = manifest.get("status", COMPLETE)
    if status not in statuses:
        raise ParseError("%s: unknown chase status %r (choose from %s)"
                         % (path, status, ", ".join(statuses)))
    recorded = manifest.get("output_sha256")
    if recorded is not None and actual != recorded:
        raise ParseError(
            "%s does not match the chase manifest %s: its SHA-256 is "
            "%s, the manifest records %s"
            % (chase_path, path, actual, recorded))
    return status


def cmd_query(args: argparse.Namespace) -> int:
    with open(args.dchase, "rb") as fh:
        digest = _Digest(fh) if args.chase_stats else None
        quads = _parse_file(parse_nquads, args.dchase, digest or fh)
    status = COMPLETE
    if digest is not None:
        status = _chase_status(args.chase_stats, args.dchase,
                               digest.sha256.hexdigest())
    result = ChaseResult(quads, status, (), 0, [])
    q = _parse_file(parse_query, args.query)
    started = time.monotonic()
    if q.is_boolean:
        verdict = entails_boolean(result, q)
        answer_count = None
        if args.format == "json":
            json.dump({"boolean": verdict,
                       "complete": status == COMPLETE},
                      sys.stdout, sort_keys=True)
            sys.stdout.write("\n")
        else:
            print("true" if verdict else "false")
        code = EXIT_OK if verdict else EXIT_FALSE
    else:
        result_set = answers(result, q)
        answer_count = len(result_set.tuples)
        if args.format == "json":
            json.dump({
                "vars": ["?" + v.name for v in result_set.variables],
                "tuples": [[c.canonical for c in row]
                           for row in result_set.sorted_tuples()],
                "complete": result_set.complete,
            }, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        else:
            print("\t".join("?" + v.name for v in result_set.variables))
            for row in result_set.sorted_tuples():
                print("\t".join(c.canonical for c in row))
        code = EXIT_OK
    if args.stats:
        _write_manifest(args.stats, {
            "inputs": {"dchase": args.dchase, "query": args.query},
            "chase_status": status,
            "elapsed_seconds": round(time.monotonic() - started, 6),
            "boolean": q.is_boolean,
            "answers": answer_count,
        })
    return code


def cmd_encode(args: argparse.Namespace) -> int:
    # only this command uses the encoders; the others skip compiling them
    from .reductions import (encode_cfg_pair, encode_dtm, encode_horn,
                             parse_cfg, parse_dtm, parse_horn)

    if args.kind == "cfg":
        grammars = [_parse_file(parse_cfg, path) for path in args.inputs]
        try:
            system, query = encode_cfg_pair(*grammars)
        except ValueError as exc:  # the grammars' alphabets overlap
            raise ValueError("%s and %s: %s" % (*args.inputs, exc)) from exc
    elif args.kind == "horn":
        system, query = encode_horn(_parse_file(parse_horn, args.inputs[0]))
    else:
        machine = _parse_file(parse_dtm, args.inputs[0])
        if args.input_word is None:
            raise ParseError("encode dtm needs --input")
        system, query = encode_dtm(machine, args.input_word, n=args.n)
    os.makedirs(args.output, exist_ok=True)
    with open(os.path.join(args.output, "system.nq"), "wb") as fh:
        write_nquads(system.quads, fh)
    with open(os.path.join(args.output, "rules.qrules"), "w",
              encoding="utf-8") as fh:
        fh.write(serialize_rules(system.rules))
    with open(os.path.join(args.output, "query.ccq"), "w",
              encoding="utf-8") as fh:
        fh.write(serialize_query(query))
    print("wrote system.nq, rules.qrules, query.ccq to %s" % args.output)
    return EXIT_OK


def cmd_explain_semantics(args: argparse.Namespace) -> int:
    names = [args.name] if args.name else list(SEMANTICS_NAMES)
    for name in names:
        sem = get_semantics(name, resource_rule=args.rdfs_resource_rule)
        print("%s (%d rules)" % (sem.name, len(sem.rules)))
        for rule in sem.rules:
            def show(t):
                return "?" + t.name if hasattr(t, "name") else t.canonical
            body = ", ".join("(%s, %s, %s)" % tuple(show(x) for x in pat)
                             for pat in rule.body)
            head = "(%s, %s, %s)" % tuple(show(x) for x in rule.head)
            print("  %-28s %s -> %s" % (rule.name + ":", body, head))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadchase",
        description="Reasoner and query engine for contextualized RDF "
                    "quad-systems with forall-existential bridge rules.")
    parser.add_argument("--version", action="version",
                        version="quadchase " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse inputs and report errors")
    p.add_argument("files", nargs="+")
    p.add_argument("--strict", action="store_true",
                   help="reject generalized triples in quad files")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("deps", help="emit the context dependency graph")
    p.add_argument("data")
    p.add_argument("rules")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--dot", action="store_true")
    group.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_deps)

    p = sub.add_parser("check", help="decide context acyclicity")
    p.add_argument("data")
    p.add_argument("rules")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("chase", help="materialize the chase")
    p.add_argument("data")
    p.add_argument("rules")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--stats", help="write a run manifest (JSON)")
    p.add_argument("--local-semantics", choices=SEMANTICS_NAMES,
                   default=None,
                   help="default: $QUADCHASE_SEMANTICS or simple")
    p.add_argument("--rdfs-resource-rule",
                   action=argparse.BooleanOptionalAction, default=True,
                   help="include the resource-typing rule in rdfs-core")
    p.add_argument("--max-iterations", type=int)
    p.add_argument("--max-quads", type=int)
    p.add_argument("--force-unrestricted", action="store_true",
                   help="chase a non-context-acyclic system without budget")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_chase)

    p = sub.add_parser("query", help="answer a query over a chase file")
    p.add_argument("dchase")
    p.add_argument("query")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.add_argument("--chase-stats",
                   help="chase manifest; flags partial chases")
    p.add_argument("--stats", help="write a query manifest (JSON)")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("encode",
                       help="materialize a reduction as a quad-system")
    p.add_argument("kind", choices=("cfg", "horn", "dtm"))
    p.add_argument("inputs", nargs="+")
    p.add_argument("-o", "--output", required=True,
                   help="output directory")
    p.add_argument("--input", dest="input_word",
                   help="dtm: the input word")
    p.add_argument("--n", type=int, default=None,
                   help="dtm: counter depth (default: input length)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("explain-semantics",
                       help="list the local inference rules")
    p.add_argument("name", nargs="?", choices=SEMANTICS_NAMES)
    p.add_argument("--rdfs-resource-rule",
                   action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(func=cmd_explain_semantics)
    return parser


def _show_warning(message: Warning, *_: object) -> None:
    print("warning: %s" % message, file=sys.stderr)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # The command owns its process and leaves no cyclic garbage, so the
    # cyclic collector would only walk every quad and constant it holds.
    # A warning (a partial or inconsistent chase) is one line of stderr,
    # not Python's format, which names and echoes a line of this module.
    collecting, show = gc.isenabled(), warnings.showwarning
    gc.disable()
    warnings.showwarning = _show_warning
    try:
        if args.command == "encode":
            want = 2 if args.kind == "cfg" else 1
            if len(args.inputs) != want:
                print("encode %s takes %d input file(s)"
                      % (args.kind, want), file=sys.stderr)
                return EXIT_USAGE
            for option, value in (("--input", args.input_word),
                                  ("--n", args.n)):
                if args.kind != "dtm" and value is not None:
                    print("encode %s does not take %s (only dtm does)"
                          % (args.kind, option), file=sys.stderr)
                    return EXIT_USAGE
        return args.func(args)
    except (ValueError, OSError) as exc:  # parse errors and refusals too
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a skolem label collision, or a bug
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        warnings.showwarning = show
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
