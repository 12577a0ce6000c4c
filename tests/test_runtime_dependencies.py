"""numpy is the package's only runtime dependency."""

import os
import subprocess
import sys

import shallowdw

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
