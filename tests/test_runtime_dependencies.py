"""numpy is the package's only runtime dependency, and the solver's only one."""

import ast
import os
import subprocess
import sys

import shallowdw
from shallowdw import cli, oracle, wells

# imports shallowdw.cli, runs one verify, and prints the top-level name of
# every module loaded since it started; site hooks may have loaded others
# before it, and those are not the package's
SCRIPT = """
import sys
before = set(sys.modules)
import shallowdw.cli
code = shallowdw.cli.main(["verify", "--epsilon", "-1.5", "--out", sys.argv[1]])
print(code)
print("\\n".join(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_verify_loads_only_numpy_shallowdw_and_the_standard_library(tmp_path):
    src = os.path.dirname(os.path.dirname(shallowdw.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "verify.json")],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    code, *loaded = result.stdout.splitlines()
    assert code == "0"
    assert "numpy" in loaded and "shallowdw" in loaded
    foreign = [name for name in loaded if name not in ("numpy", "shallowdw")
               and name not in sys.stdlib_module_names]
    assert foreign == []


def test_solver_imports_only_numpy_the_standard_library_and_grids():
    # the solver must not see the closed forms it checks; an import test in a
    # fresh interpreter would see nothing, because shallowdw/__init__.py
    # imports every module first, so read the source that is installed
    with open(oracle.__file__, encoding="utf-8") as source:
        tree = ast.parse(source.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            dots = "." * node.level
            imported += ([dots + node.module] if node.module
                         else [dots + alias.name for alias in node.names])
    foreign = [name for name in imported if name != ".grids"
               and name.partition(".")[0] not in ("numpy", *sys.stdlib_module_names)]
    assert foreign == []
    # the verdicts live in wells alone, with no second path through oracle
    for name in ("BoundStateCountMismatch", "VERIFY_TOLERANCES", "BIMODALITY_SKIP_BAND",
                 "BoundLevels", "bound_levels", "Check", "VerifyReport", "verify"):
        assert hasattr(wells, name) and not hasattr(oracle, name), name
    # and they own their constants: wells reads no ALL_CAPS name of oracle,
    # so a solver setting such as EDGE_EXCLUDE cannot move a verdict
    with open(wells.__file__, encoding="utf-8") as source:
        tree = ast.parse(source.read())
    read = [node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "oracle" and node.attr.isupper()]
    assert read == []


def test_cli_reads_only_row_chunks_of_floatfmt():
    # the row format has one owner: cli writes CSV and JSON syntax around
    # floatfmt's rows and reads neither the cell width nor the formatter
    with open(cli.__file__, encoding="utf-8") as source:
        tree = ast.parse(source.read())
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "floatfmt"}
    assert read == {"row_chunks"}
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module == "floatfmt" for alias in node.names]
    assert imported == []
