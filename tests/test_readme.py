"""README's library example runs, and prints what its comments say; its CLI
section names the subcommands and exit codes that ``cli`` has, and its
failing ``verify`` prints the lines it shows."""

import argparse
import contextlib
import io
import re
from pathlib import Path

from shallowdw import GridTooCoarse, GridTooNarrow, cli, oracle, wells

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


def cli_section():
    text = README.read_text(encoding="utf-8")
    return text[text.index("\n## CLI\n"):text.index("\n## Library example\n")]


def test_cli_block_names_every_subcommand():
    block = re.search(r"^```sh\n(.*?)^```", cli_section(), re.MULTILINE | re.DOTALL).group(1)
    named = re.findall(r"^shallowdw (\w+)", block, re.MULTILINE)
    (commands,) = [action.choices for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert sorted(named) == sorted(commands)


def test_exit_codes_are_those_of_the_cli():
    # "Exit codes: 0 ok / ..., 1 ..., 4 eigensolver failure." with the
    # parentheticals dropped: each code and the first clause of its meaning
    text = " ".join(cli_section().split())
    while re.search(r"\([^()]*\)", text):
        text = re.sub(r"\([^()]*\)", "", text)
    sentence = text[text.index("Exit codes: "):].split(".")[0]
    stated = {int(code): meaning.strip()
              for code, meaning in re.findall(r"(?:: |, )(\d) ([^,]+)", sentence)}
    assert stated == {cli.EXIT_OK: "ok / verification passed",
                      cli.EXIT_VERIFY_FAIL: "verification failed",
                      cli.EXIT_BAD_ARGS: "bad arguments",
                      cli.EXIT_GRID: "grid too narrow or too small to hold both bound states",
                      cli.EXIT_SOLVER: "eigensolver failure"}
    assert dict(cli.EXIT_CODES) == {
        GridTooNarrow: cli.EXIT_GRID, GridTooCoarse: cli.EXIT_GRID,
        wells.BoundStateCountMismatch: cli.EXIT_GRID,
        oracle.ConvergenceFailure: cli.EXIT_SOLVER,
        ValueError: cli.EXIT_BAD_ARGS, OSError: cli.EXIT_BAD_ARGS,
        MemoryError: cli.EXIT_BAD_ARGS}


def test_failing_verify_example_prints_what_it_shows(capsys):
    # the "$ shallowdw verify ..." block: its command, then its stderr lines
    block = re.search(r"^```\n\$ shallowdw (.*?) > report\.json\n(.*?)^```", cli_section(),
                      re.MULTILINE | re.DOTALL)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(block.group(1).split())
    assert code == cli.EXIT_VERIFY_FAIL
    assert capsys.readouterr().err == block.group(2)
