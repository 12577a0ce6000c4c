"""``tools/mutants.py``, the mutation run's mutator: it lists the sites of
``src/shallowdw``, and each mutant differs from its module in one node."""

import ast
import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutants)


def nodes(source):
    """Each node of the source's tree, by its type and its fields that are not nodes."""
    return [(type(node).__name__, [value for _, value in ast.iter_fields(node)
                                   if not isinstance(value, (ast.AST, list))])
            for node in ast.walk(ast.parse(source))]


def test_each_operator_changes_one_node_of_a_copy(tmp_path):
    shutil.copytree(ROOT / mutants.PACKAGE, tmp_path / mutants.PACKAGE)
    sites = mutants.sites(tmp_path)
    modules = {path.name for path in (ROOT / mutants.PACKAGE).glob("*.py")}
    assert {Path(site.path).name for site in sites} == modules
    for operator in ("compare", "binop", "unary", "int", "float"):
        site = next(site for site in sites if site.operator == operator)
        path = tmp_path / site.path
        clean = path.read_text(encoding="utf-8")
        path.write_text(mutants.mutant(tmp_path, site), encoding="utf-8")
        before, after = nodes(clean), nodes(path.read_text(encoding="utf-8"))
        assert len(before) == len(after)
        assert sum(a != b for a, b in zip(before, after)) == 1, site
        path.write_text(clean, encoding="utf-8")
