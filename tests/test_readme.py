"""README's library example runs, and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)


def stated_outputs(block):
    """The comment on each print line, or the comment line just below it."""
    lines = block.splitlines()
    out = []
    for i, line in enumerate(lines):
        if line.startswith("print("):
            out.append(line.partition("#")[2].strip() or lines[i + 1].lstrip("# "))
    return out


def test_library_example_prints_what_its_comments_state():
    (block,) = python_blocks()
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, str(README), "exec"), {})
    stated = stated_outputs(block)
    lines = printed.getvalue().splitlines()
    assert len(lines) == len(stated) == 4
    for line, comment in zip(lines, stated):
        bound = re.fullmatch(r"both below (\S+)", comment)
        if bound:
            values = [float(value) for value in line.split()]
            assert len(values) == 2 and max(values) < float(bound.group(1)), line
        else:
            assert line == comment
