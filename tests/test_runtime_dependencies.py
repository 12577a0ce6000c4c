"""numpy is the package's only runtime dependency, and the solver's only one;
a process loads only the package modules that its command runs."""

import ast
import json
import sys

import pytest

from shallowdw import cli, oracle, wells

from conftest import run_fresh

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
    stdout, _ = run_fresh("-c", SCRIPT, str(tmp_path / "verify.json"))
    code, *loaded = stdout.splitlines()
    assert code == "0"
    assert "numpy" in loaded and "shallowdw" in loaded
    foreign = [name for name in loaded if name not in ("numpy", "shallowdw")
               and name not in sys.stdlib_module_names]
    assert foreign == []


def test_solver_imports_only_numpy_the_standard_library_and_grids():
    # the solver must not see the closed forms it checks: read the source
    # that is installed, for imports that a run might not reach
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


def test_solver_loads_no_other_package_module_but_grids():
    # and at run time: importing the package imports none of its modules
    loaded, _ = run_fresh("-c", "import shallowdw.oracle, sys; "
                          "print(*sorted(name for name in sys.modules if 'shallowdw.' in name))")
    assert loaded.split() == ["shallowdw.grids", "shallowdw.oracle"]


# each command's package modules, beyond the cli, grids and transform that
# every command runs; a sweep solves, and loads oracle, only for e0_error or
# e1_error, so the one below asks for e0_error
COMMAND_MODULES = {
    "potential": ["floatfmt"],
    "states": ["floatfmt"],
    "verify": ["oracle", "wells"],
    "classify": ["wells"],
    "evolve": ["dynamics", "floatfmt", "wells"],
    "sweep": ["floatfmt", "oracle", "wells"],
}
STAGES = """
import json, sys
def loaded():
    return sorted(name.partition(".")[2] for name in sys.modules
                  if name.startswith("shallowdw."))
stages = []
import shallowdw
stages.append(loaded())
import shallowdw.cli
stages.append(loaded())
stages.append((shallowdw.cli.main(sys.argv[1:]), loaded()))
print(json.dumps(stages))
"""


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_each_command_loads_only_its_modules(command, tmp_path):
    args = (["--eps-start", "-2.5", "--eps-end", "-1.5", "--steps", "2",
             "--quantities", "gap,maxima_count,e0_error"] if command == "sweep"
            else ["--epsilon", "-1.5"])
    stdout, _ = run_fresh("-c", STAGES, command, *args, "--out", str(tmp_path / "out"))
    stages = json.loads(stdout)
    every = ["cli", "grids", "transform"]
    assert stages == [[], every, [0, sorted(every + COMMAND_MODULES[command])]]


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
