import gc
import hashlib
import json
import warnings

import pytest

from quadchase import cli, syntax
from quadchase.cli import main
from quadchase.syntax import (
    parse_nquads,
    parse_query,
    parse_rules,
    serialize_nquads,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fx(fixtures_dir, name):
    return str(fixtures_dir / name)


_PARTIAL_WARNING = ("warning: chase is partial (budget exhausted): positive "
                    "answers are sound, absence is inconclusive\n")


def test_validate_good_inputs(capsys, fixtures_dir):
    code, out, _ = run(capsys, "validate", fx(fixtures_dir, "example1.nq"),
                       fx(fixtures_dir, "example1.qrules"),
                       fx(fixtures_dir, "beat.ccq"))
    assert code == 0
    assert "1 quads" in out and "3 rules" in out and "1 free vars" in out


def test_validate_bad_input(capsys, tmp_path):
    bad = tmp_path / "bad.nq"
    bad.write_bytes(b"<a> <b> <c> .")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "graph label" in err


def test_bad_unicode_escape_names_its_position(capsys, tmp_path):
    bad = tmp_path / "bad.nq"
    bad.write_bytes(b'<s> <p> "a\\u00zz" <g> .\n')
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert err.startswith("error: %s: line 1, col 11: bad \\u escape '00zz'"
                          % bad)
    assert "invalid literal" not in err


def test_bad_utf8_is_located(capsys, tmp_path):
    bad = tmp_path / "bad.nq"
    bad.write_bytes(b'<s> <p> <o> <g> .\n<s> <p> "\xc3\xa9\xff" <g> .\n')
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert err.startswith("error: %s: line 2, col 11: input is not valid "
                          "UTF-8: invalid start byte (byte 0xff)" % bad)


@pytest.mark.parametrize("command", ["chase", "deps", "check"])
def test_bad_rules_file_is_named_in_the_error(capsys, fixtures_dir, tmp_path,
                                              command):
    rules = tmp_path / "broken.qrules"
    rules.write_text("r1: c1(?x, <p>, ?y) -> c2(?x, <p>\n")
    extra = ["-o", str(tmp_path / "out.nq")] if command == "chase" else []
    code, _, err = run(capsys, command, fx(fixtures_dir, "fig3.nq"),
                       str(rules), *extra)
    assert code == 2
    assert err.startswith("error: %s: line 2, col 1: expected ','" % rules)


def test_bad_query_file_is_named_in_the_error(capsys, fixtures_dir,
                                              tmp_path):
    out_nq = tmp_path / "out.nq"
    code, _, _ = run(capsys, "chase", fx(fixtures_dir, "fig3.nq"),
                     fx(fixtures_dir, "fig3.qrules"), "-o", str(out_nq))
    assert code == 0
    query = tmp_path / "broken.ccq"
    query.write_text("ask { c1(?x, <p>, ?y) ")
    code, _, err = run(capsys, "query", str(out_nq), str(query))
    assert code == 2
    assert err.startswith("error: %s: line 1, col 1: expected '}'" % query)
    code, _, err = run(capsys, "validate", str(query))
    assert code == 2
    assert err.startswith("error: %s: line 1, col 1: expected '}'" % query)


def test_bad_chase_file_is_named_in_the_error(capsys, fixtures_dir,
                                              tmp_path):
    chase = tmp_path / "broken.nq"
    chase.write_bytes(b"<s> <p> <o> <g> .\n<s> <p> <o> .\n")
    code, _, err = run(capsys, "query", str(chase),
                       fx(fixtures_dir, "beat.ccq"))
    assert code == 2
    assert err.startswith("error: %s: line 2, col 13: line missing graph "
                          "label" % chase)


def test_validate_unknown_extension(capsys, tmp_path):
    other = tmp_path / "file.txt"
    other.write_text("hi")
    code, _, err = run(capsys, "validate", str(other))
    assert code == 2


def test_check_cyclic_example1(capsys, fixtures_dir):
    code, out, _ = run(capsys, "check", fx(fixtures_dir, "example1.nq"),
                       fx(fixtures_dir, "example1.qrules"))
    assert code == 1
    assert "triple-generating contexts: {c2}" in out
    assert "(c1, c2, c1)" in out


def test_check_acyclic_fig3(capsys, fixtures_dir):
    code, out, _ = run(capsys, "check", fx(fixtures_dir, "fig3.nq"),
                       fx(fixtures_dir, "fig3.qrules"))
    assert code == 0
    assert "context acyclic: yes (max level 2)" in out


def test_deps_json_and_dot(capsys, fixtures_dir):
    code, out, _ = run(capsys, "deps", fx(fixtures_dir, "fig3.nq"),
                       fx(fixtures_dir, "fig3.qrules"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["context_acyclic"] is True
    assert doc["levels"] == {"c1": 1, "c2": 0, "c3": 2, "c4": 0}
    code, out, _ = run(capsys, "deps", fx(fixtures_dir, "example1.nq"),
                       fx(fixtures_dir, "example1.qrules"), "--dot")
    assert code == 0
    assert out.startswith("digraph")
    assert '"c2" [label="c2 *"' in out


def test_chase_refuses_cyclic_without_budget(capsys, fixtures_dir,
                                             tmp_path):
    code, _, err = run(capsys, "chase", fx(fixtures_dir, "example1.nq"),
                       fx(fixtures_dir, "example1.qrules"),
                       "-o", str(tmp_path / "out.nq"))
    assert code == 2
    assert "not context acyclic" in err


def test_chase_force_and_query_pipeline(capsys, fixtures_dir, tmp_path):
    out_nq = tmp_path / "out.nq"
    code, _, _ = run(capsys, "chase", fx(fixtures_dir, "example1.nq"),
                     fx(fixtures_dir, "example1.qrules"),
                     "-o", str(out_nq), "--force-unrestricted")
    assert code == 0
    assert len(parse_nquads(out_nq.read_bytes())) == 4
    code, out, _ = run(capsys, "query", str(out_nq),
                       fx(fixtures_dir, "example1.ccq"))
    assert code == 0 and out.strip() == "true"


def test_chase_budget_exhausted_exit_code(capsys, fixtures_dir, tmp_path):
    out_nq = tmp_path / "out.nq"
    stats = tmp_path / "stats.json"
    code, _, err = run(capsys, "chase", fx(fixtures_dir, "example1.nq"),
                       fx(fixtures_dir, "example1.qrules"),
                       "-o", str(out_nq), "--local-semantics", "rdfs-core",
                       "--max-iterations", "10", "--stats", str(stats))
    assert code == 3
    assert "budget exhausted" in err
    doc = json.loads(stats.read_text())
    assert doc["status"] == "budget-exhausted"
    assert doc["context_acyclic"] is False
    assert len(doc["iterations"]) == 10
    assert doc["saturation"] is None
    for entry in doc["iterations"]:
        assert sum(entry["per_context"].values()) == entry["new_quads"]


def test_chase_stats_with_saturation(capsys, fixtures_dir, tmp_path):
    out_nq = tmp_path / "out.nq"
    stats = tmp_path / "stats.json"
    code, _, _ = run(capsys, "chase", fx(fixtures_dir, "fig3.nq"),
                     fx(fixtures_dir, "fig3.qrules"),
                     "-o", str(out_nq), "--stats", str(stats))
    assert code == 0
    doc = json.loads(stats.read_text())
    assert doc["status"] == "complete"
    assert doc["generating_iterations"] <= 3
    assert set(doc["saturation"]) >= {"c1", "c2", "c3", "c4"}
    for entry in doc["iterations"]:
        assert set(entry["per_context"]) <= set(doc["saturation"])
        assert sum(entry["per_context"].values()) == entry["new_quads"]
    # a context saturates in the last iteration that added to it
    last = {c: e["index"] for e in doc["iterations"]
            for c, n in e["per_context"].items() if n}
    assert last == {c: i for c, i in doc["saturation"].items() if i}


@pytest.mark.parametrize("flag", ["--max-iterations", "--max-quads"])
def test_chase_refuses_a_negative_budget(capsys, fixtures_dir, tmp_path,
                                         flag):
    out_nq = tmp_path / "out.nq"
    stats = tmp_path / "stats.json"
    args = ("chase", fx(fixtures_dir, "fig3.nq"),
            fx(fixtures_dir, "fig3.qrules"), "-o", str(out_nq),
            "--stats", str(stats))
    code, _, err = run(capsys, *args, flag, "-3")
    assert code == 2
    assert err.startswith("error: %s must not be negative"
                          % flag[2:].replace("-", "_"))
    assert not out_nq.exists() and not stats.exists()
    # a zero budget is still a budget: it cuts the run
    code, _, _ = run(capsys, *args, flag, "0")
    assert code == 3 and out_nq.exists()


def test_chase_inconsistent_exit_code(capsys, tmp_path):
    data = tmp_path / "d.nq"
    data.write_bytes(b"<s> <p> <o> <c1> .\n")
    rules = tmp_path / "r.qrules"
    rules.write_text("chk: c1(?x,<p>,?y) -> .\n")
    code, _, err = run(capsys, "chase", str(data), str(rules),
                       "-o", str(tmp_path / "out.nq"))
    assert code == 4
    assert "inconsistent" in err
    assert "constraint chk violated" in err


def test_query_select_formats(capsys, fixtures_dir):
    code, out, _ = run(capsys, "query", fx(fixtures_dir, "beat.nq"),
                       fx(fixtures_dir, "beat.ccq"))
    assert code == 0
    assert out.splitlines() == ["?x", "<uruguay>"]
    code, out, _ = run(capsys, "query", fx(fixtures_dir, "beat.nq"),
                       fx(fixtures_dir, "beat.ccq"), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"vars": ["?x"], "tuples": [["<uruguay>"]],
                   "complete": True}


@pytest.mark.parametrize("query, exit_code, boolean, answers", [
    ("beat.ccq", 0, False, 1),
    ("ask { worldcup(?x, <beat>, <uruguay>) }\n", 1, True, None),
], ids=["select", "ask"])
def test_query_stats_manifest(capsys, fixtures_dir, tmp_path, query,
                              exit_code, boolean, answers):
    if query.endswith(".ccq"):
        query_path = fx(fixtures_dir, query)
    else:
        query_path = tmp_path / "q.ccq"
        query_path.write_text(query)
    chase_stats = tmp_path / "chase.json"
    chase_stats.write_text(json.dumps({"status": "budget-exhausted"}))
    stats = tmp_path / "query.json"
    code, _, err = run(capsys, "query", fx(fixtures_dir, "beat.nq"),
                       str(query_path), "--chase-stats", str(chase_stats),
                       "--stats", str(stats))
    assert err == _PARTIAL_WARNING
    assert code == exit_code
    doc = json.loads(stats.read_text())
    assert set(doc) == {"tool", "version", "inputs", "chase_status",
                        "elapsed_seconds", "boolean", "answers"}
    assert doc["inputs"] == {"dchase": fx(fixtures_dir, "beat.nq"),
                             "query": str(query_path)}
    assert doc["chase_status"] == "budget-exhausted"
    assert (doc["boolean"], doc["answers"]) == (boolean, answers)


def test_query_boolean_false_exit(capsys, fixtures_dir, tmp_path):
    q = tmp_path / "q.ccq"
    q.write_text("ask { worldcup(<italy>, <beat>, <uruguay>) }\n")
    code, out, _ = run(capsys, "query", fx(fixtures_dir, "beat.nq"),
                       str(q))
    assert code == 1 and out.strip() == "false"


def test_query_partial_chase_flag(capsys, fixtures_dir, tmp_path):
    manifest = tmp_path / "stats.json"
    manifest.write_text(json.dumps({"status": "budget-exhausted"}))
    code, out, err = run(capsys, "query", fx(fixtures_dir, "beat.nq"),
                         fx(fixtures_dir, "beat.ccq"), "--format", "json",
                         "--chase-stats", str(manifest))
    assert code == 0 and err == _PARTIAL_WARNING
    assert json.loads(out)["complete"] is False


def test_a_partial_chase_warning_is_one_line_of_stderr(capsys, fixtures_dir,
                                                       tmp_path):
    """The query of a chase cut by its budget warns on one line, and the
    caller's warning handling is back when ``main`` returns."""
    out_nq, stats = str(tmp_path / "out.nq"), str(tmp_path / "chase.json")
    code, _, _ = run(capsys, "chase", fx(fixtures_dir, "example1.nq"),
                     fx(fixtures_dir, "example1.qrules"), "-o", out_nq,
                     "--stats", stats, "--local-semantics", "rdfs-core",
                     "--max-quads", "40")
    assert code == 3
    shown = warnings.showwarning
    code, out, err = run(capsys, "query", out_nq,
                         fx(fixtures_dir, "example1.ccq"), "--format", "json",
                         "--chase-stats", stats)
    assert (code, err) == (0, _PARTIAL_WARNING)
    assert json.loads(out)["complete"] is False
    assert warnings.showwarning is shown


@pytest.mark.parametrize("text, reason", [
    ("[1, 2]", "a chase manifest is a JSON object"),
    ('{"status": "done"}', "unknown chase status 'done'"),
    ("{", "Expecting property name"),
])
def test_query_refuses_a_bad_chase_manifest(capsys, fixtures_dir, tmp_path,
                                            text, reason):
    manifest = tmp_path / "stats.json"
    manifest.write_text(text)
    code, out, err = run(capsys, "query", fx(fixtures_dir, "beat.nq"),
                         fx(fixtures_dir, "beat.ccq"),
                         "--chase-stats", str(manifest))
    assert code == 2 and out == ""
    assert err.startswith("error: %s: " % manifest) and reason in err


def test_query_reads_a_manifest_without_status_as_complete(
        capsys, fixtures_dir, tmp_path):
    manifest = tmp_path / "stats.json"
    manifest.write_text("{}")
    code, out, _ = run(capsys, "query", fx(fixtures_dir, "beat.nq"),
                       fx(fixtures_dir, "beat.ccq"), "--format", "json",
                       "--chase-stats", str(manifest))
    assert code == 0 and json.loads(out)["complete"] is True


def _chase_with_manifest(capsys, fixtures_dir, tmp_path):
    out_nq = tmp_path / "out.nq"
    stats = tmp_path / "stats.json"
    code, _, _ = run(capsys, "chase", fx(fixtures_dir, "fig3.nq"),
                     fx(fixtures_dir, "fig3.qrules"),
                     "-o", str(out_nq), "--stats", str(stats))
    assert code == 0
    return out_nq, stats


def _query_json(capsys, tmp_path, out_nq, stats):
    query = tmp_path / "q.ccq"
    query.write_text("ask { c4(<s>, <p>, <o>) }\n")
    return run(capsys, "query", str(out_nq), str(query), "--format", "json",
               "--chase-stats", str(stats))


def test_chase_manifest_records_the_chase_file_digest(capsys, fixtures_dir,
                                                      tmp_path):
    out_nq, stats = _chase_with_manifest(capsys, fixtures_dir, tmp_path)
    doc = json.loads(stats.read_text())
    assert doc["output_sha256"] \
        == hashlib.sha256(out_nq.read_bytes()).hexdigest()
    code, out, err = _query_json(capsys, tmp_path, out_nq, stats)
    assert code == 0 and err == ""
    assert json.loads(out) == {"boolean": True, "complete": True}


def test_query_hashes_the_chase_file_in_the_pieces_it_parses(
        capsys, fixtures_dir, tmp_path, monkeypatch):
    """Read 7 bytes and then to the end of the line at a time, the chase
    file still matches its manifest, and a changed one still does not."""
    out_nq, stats = _chase_with_manifest(capsys, fixtures_dir, tmp_path)
    monkeypatch.setattr(syntax, "_CHUNK_BYTES", 7)
    code, out, err = _query_json(capsys, tmp_path, out_nq, stats)
    assert code == 0 and err == ""
    out_nq.write_bytes(out_nq.read_bytes().replace(b"<s>", b"<t>", 1))
    code, out, err = _query_json(capsys, tmp_path, out_nq, stats)
    assert code == 2 and "does not match the chase manifest" in err


def test_query_refuses_a_chase_file_its_manifest_does_not_describe(
        capsys, fixtures_dir, tmp_path):
    out_nq, stats = _chase_with_manifest(capsys, fixtures_dir, tmp_path)
    recorded = json.loads(stats.read_text())["output_sha256"]
    out_nq.write_bytes(out_nq.read_bytes() + b"<s> <p> <o> <c1> .\n")
    code, out, err = _query_json(capsys, tmp_path, out_nq, stats)
    assert code == 2 and out == ""
    assert err.startswith("error: %s does not match the chase manifest %s"
                          % (out_nq, stats))
    assert recorded in err
    assert hashlib.sha256(out_nq.read_bytes()).hexdigest() in err


def test_query_accepts_a_manifest_without_a_digest(capsys, fixtures_dir,
                                                   tmp_path):
    out_nq, stats = _chase_with_manifest(capsys, fixtures_dir, tmp_path)
    doc = json.loads(stats.read_text())
    del doc["output_sha256"]
    stats.write_text(json.dumps(doc))
    out_nq.write_bytes(out_nq.read_bytes() + b"<s> <p> <o> <c1> .\n")
    code, out, err = _query_json(capsys, tmp_path, out_nq, stats)
    assert code == 0 and err == ""
    assert json.loads(out) == {"boolean": True, "complete": True}


def test_encode_horn_pipeline(capsys, tmp_path):
    phi = tmp_path / "phi.horn"
    phi.write_text("t -> P\nP -> f\n")
    outdir = tmp_path / "enc"
    code, _, _ = run(capsys, "encode", "horn", str(phi), "-o", str(outdir))
    assert code == 0
    system = outdir / "system.nq"
    rules = outdir / "rules.qrules"
    query = outdir / "query.ccq"
    assert system.exists() and rules.exists() and query.exists()
    from quadchase.reductions import encode_horn, parse_horn
    encoded, _ = encode_horn(parse_horn(phi.read_text()))
    assert system.read_bytes() == serialize_nquads(encoded.quads)
    parse_rules(rules.read_bytes())
    parse_query(query.read_bytes())
    chased = tmp_path / "chase.nq"
    code, _, _ = run(capsys, "chase", str(system), str(rules),
                     "-o", str(chased))
    assert code == 0
    code, out, _ = run(capsys, "query", str(chased), str(query))
    assert code == 0 and out.strip() == "true"


def test_encode_cfg_and_dtm(capsys, tmp_path):
    g1 = tmp_path / "g1.cfg"
    g1.write_text("S1 -> t1\n")
    g2 = tmp_path / "g2.cfg"
    g2.write_text("S2 -> t1\n")
    outdir = tmp_path / "cfg"
    code, _, _ = run(capsys, "encode", "cfg", str(g1), str(g2),
                     "-o", str(outdir))
    assert code == 0
    assert (outdir / "rules.qrules").exists()

    machine = tmp_path / "m.dtm"
    machine.write_text("states: q0 qA\nalphabet: a _\nblank: _\n"
                       "start: q0\naccept: qA\ndelta: q0 a -> qA a R\n")
    outdir = tmp_path / "dtm"
    code, _, _ = run(capsys, "encode", "dtm", str(machine), "--input", "a",
                     "--n", "1", "-o", str(outdir))
    assert code == 0
    chased = tmp_path / "dchase.nq"
    code, _, _ = run(capsys, "chase", str(outdir / "system.nq"),
                     str(outdir / "rules.qrules"), "-o", str(chased))
    assert code == 0
    code, out, _ = run(capsys, "query", str(chased),
                       str(outdir / "query.ccq"))
    assert code == 0 and out.strip() == "true"


_MACHINE = ("states: q0 qA\nalphabet: a _\nblank: _\nstart: q0\n"
            "accept: qA\n")


@pytest.mark.parametrize("kind, data, message", [
    ("cfg", b"S2 -> t1\nno arrow\n", "line 2, col 1: expected 'V -> ...'"),
    ("horn", b"t -> P\nP Q\n", "line 2, col 1: expected 'P1 P2 -> P3'"),
    ("dtm", _MACHINE.encode() + b"delta q0 a\n",
     "line 6, col 1: expected 'keyword: ...'"),
    ("dtm", _MACHINE.encode() + b"delta: q9 a -> qA a R\n",
     "undeclared state in transition ('q9','a')"),
    ("cfg", b"\xff -> t1\n", "line 1, col 1: input is not valid UTF-8: "
     "invalid start byte (byte 0xff)"),
    ("horn", b"t -> P\xff\n", "line 1, col 7: input is not valid UTF-8: "
     "invalid start byte (byte 0xff)"),
    ("dtm", b"\xff", "line 1, col 1: input is not valid UTF-8: "
     "invalid start byte (byte 0xff)"),
])
def test_encode_names_the_file_it_refuses(capsys, tmp_path, kind, data,
                                          message):
    """``encode`` reads its files as the other commands do: a parse
    error, or a byte that is not UTF-8, names the file before its
    location."""
    good = tmp_path / "g1.cfg"
    good.write_text("S1 -> t1\n")
    bad = tmp_path / ("bad." + kind)
    bad.write_bytes(data)
    inputs = {"cfg": [str(good), str(bad)], "horn": [str(bad)],
              "dtm": [str(bad), "--input", "a"]}[kind]
    code, out, err = run(capsys, "encode", kind, *inputs,
                         "-o", str(tmp_path / "enc"))
    assert code == 2 and out == ""
    assert err == "error: %s: %s\n" % (bad, message)
    assert not (tmp_path / "enc").exists()


def test_encode_wrong_arity(capsys, tmp_path):
    g1 = tmp_path / "g1.cfg"
    g1.write_text("S1 -> t1\n")
    code, _, err = run(capsys, "encode", "cfg", str(g1), "-o",
                       str(tmp_path / "x"))
    assert code == 2


@pytest.mark.parametrize("kind", ["cfg", "horn"])
@pytest.mark.parametrize("option", [["--input", "ab"], ["--n", "3"]])
def test_encode_refuses_the_dtm_options_for_other_kinds(capsys, tmp_path,
                                                       kind, option):
    """Only ``encode dtm`` reads ``--input`` and ``--n``; another kind
    refuses them by name, before it reads a file."""
    inputs = {"cfg": ["g1.cfg", "g2.cfg"], "horn": ["phi.horn"]}[kind]
    code, out, err = run(capsys, "encode", kind, *inputs, *option,
                         "-o", str(tmp_path / "enc"))
    assert code == 2 and out == ""
    assert err == "encode %s does not take %s (only dtm does)\n" \
        % (kind, option[0])
    assert not (tmp_path / "enc").exists()


@pytest.mark.parametrize("second, message", [
    ("S -> b\n", "grammar variable alphabets overlap: ['S']"),
    ("T -> S\n", "variables and terminals overlap: ['S']"),
])
def test_encode_cfg_names_both_grammars_when_they_overlap(
        capsys, tmp_path, second, message):
    g1 = tmp_path / "g1.cfg"
    g1.write_text("S -> a\n")
    g2 = tmp_path / "g2.cfg"
    g2.write_text(second)
    code, out, err = run(capsys, "encode", "cfg", str(g1), str(g2),
                         "-o", str(tmp_path / "enc"))
    assert code == 2 and out == ""
    assert err == "error: %s and %s: %s\n" % (g1, g2, message)
    assert not (tmp_path / "enc").exists()


def test_explain_semantics(capsys):
    code, out, _ = run(capsys, "explain-semantics")
    assert code == 0
    assert "simple (0 rules)" in out
    assert "rdfs-core (7 rules)" in out
    assert "resource-typing" in out
    code, out, _ = run(capsys, "explain-semantics", "rdfs-core",
                       "--no-rdfs-resource-rule")
    assert code == 0
    assert "rdfs-core (6 rules)" in out


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "chase", "nope.nq", "nope.qrules",
                       "-o", "out.nq")
    assert code == 2


def test_unknown_env_var_semantics_is_refused(capsys, fixtures_dir, tmp_path,
                                              monkeypatch):
    monkeypatch.setenv("QUADCHASE_SEMANTICS", "bogus")
    out_nq = tmp_path / "out.nq"
    code, _, err = run(capsys, "chase", fx(fixtures_dir, "fig3.nq"),
                       fx(fixtures_dir, "fig3.qrules"), "-o", str(out_nq))
    assert code == 2 and not out_nq.exists()
    assert err == ("error: unknown local semantics 'bogus' "
                   "(choose from simple, rdfs-core)\n")


def test_env_var_semantics(capsys, fixtures_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("QUADCHASE_SEMANTICS", "rdfs-core")
    out_nq = tmp_path / "out.nq"
    code, _, _ = run(capsys, "chase", fx(fixtures_dir, "example1.nq"),
                     fx(fixtures_dir, "example1.qrules"),
                     "-o", str(out_nq), "--max-iterations", "5")
    assert code == 3  # rdfs-core picked up from the environment: diverges


# ``main`` runs its command with the cyclic collector off and gives the
# caller back the collector's state, whatever the command's outcome.

def _failing_command(args):
    raise RuntimeError("a bug")


@pytest.mark.parametrize("argv, command, exit_code", [
    (["explain-semantics"], None, 0),
    (["chase", "nope.nq", "nope.qrules", "-o", "out.nq"], None, 2),
    (["explain-semantics"], _failing_command, 5),
], ids=["success", "usage-error", "internal-error"])
@pytest.mark.parametrize("collecting", [True, False])
def test_the_command_runs_without_the_collector_and_restores_it(
        capsys, monkeypatch, argv, command, exit_code, collecting):
    during = []

    def recording(wrapped):
        def recorded(args):
            during.append(gc.isenabled())
            return wrapped(args)
        return recorded

    for name in ("cmd_explain_semantics", "cmd_chase"):
        monkeypatch.setattr(cli, name,
                            recording(command or getattr(cli, name)))
    (gc.enable if collecting else gc.disable)()
    try:
        assert run(capsys, *argv)[0] == exit_code
        assert gc.isenabled() is collecting
    finally:
        gc.enable()
    assert during == [False]


def _cyclic_garbage(*calls):
    """How many objects ``gc.collect`` frees after ``calls`` run with the
    collector off."""
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
        return gc.collect()
    finally:
        gc.enable()


def test_a_chase_and_query_leave_no_cyclic_garbage_but_their_parsers(
        capsys, fixtures_dir, tmp_path):
    """An argument parser holds reference cycles; the chase and query
    themselves leave no cyclic garbage."""
    chase = ["chase", fx(fixtures_dir, "example1.nq"),
             fx(fixtures_dir, "example1.qrules"),
             "-o", str(tmp_path / "out.nq"), "--force-unrestricted"]
    query = ["query", str(tmp_path / "out.nq"),
             fx(fixtures_dir, "example1.ccq")]
    parsers = _cyclic_garbage(lambda: cli.build_parser().parse_args(chase),
                              lambda: cli.build_parser().parse_args(query))
    assert _cyclic_garbage(lambda: main(chase), lambda: main(query)) \
        == parsers
    assert capsys.readouterr().out == "true\n"
