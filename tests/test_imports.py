"""What importing quadchase costs a fresh interpreter, and what the
package exports.

Each ``python -m quadchase`` run and each benchmark sample starts a new
interpreter, so every module the import pulls in is paid on every run.
These tests compare ``sys.modules`` after ``import quadchase`` and after
``import quadchase.cli`` with a bare interpreter's.
"""

import importlib
import os
import subprocess
import sys

import pytest

import quadchase

# The child process runs the sources this process imported.
_SRC = os.path.dirname(os.path.dirname(quadchase.__file__))

# dataclasses and the introspection modules it imports
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def modules_after(statement):
    code = statement + "\nimport sys\nprint('\\n'.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize("module", ["quadchase", "quadchase.cli"])
def test_import_loads_no_introspection_modules(module):
    added = modules_after("import " + module) - modules_after("pass")
    assert module in added
    assert not added & HEAVY


@pytest.mark.parametrize("module", ["quadchase", "quadchase.cli"])
def test_import_loads_no_hashlib(module):
    # only a chase manifest needs a digest, and the CLI imports hashlib
    # when it writes or checks one
    assert "hashlib" not in modules_after("import " + module)


def test_cli_import_leaves_the_encoders_unloaded():
    assert "quadchase.reductions" not in modules_after("import quadchase.cli")


# Library names that no caller in the package, its CLI or its benchmark
# used; the tests now use the set expressions or the oracles instead.
REMOVED = ["terms.apply_substitution", "terms.Substitution",
           "terms.QuadGraph.union", "terms.QuadGraph.graph_of",
           "terms.QuadPattern.is_ground", "engine.symbol_size",
           "engine.BridgeRule.body_only_variables",
           "engine.QuadSystem.bridge_rules", "semantics.lclosure_graph",
           "semantics._GRAPH", "contextgraph.predicted_generating_iterations",
           "syntax.QueryDocument.quantified_vars"]


def test_every_exported_name_resolves():
    assert [name for name in quadchase.__all__
            if not hasattr(quadchase, name)] == []


@pytest.mark.parametrize("path", REMOVED)
def test_removed_names_are_gone(path):
    module, *attrs = path.split(".")
    owner = importlib.import_module("quadchase." + module)
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    assert not hasattr(owner, attrs[-1])
    assert attrs[-1] not in quadchase.__all__

