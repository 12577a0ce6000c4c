"""Mutation run over ``src/shallowdw``: one mutant per site, each judged by a command.

    python tools/mutants.py python -m pytest -x -q -p no:cacheprovider

Five operators each make one mutant per site they can change:

    compare   flip a comparison: < and >=, > and <=, == and !=, is and is not, in and not in
    binop     swap + and -
    unary     drop a unary minus
    int       move an int constant by one (n -> n + 1)
    float     scale a float constant by (1 + 1e-6), except 0.0, which it leaves

The sites are listed in ``ast.walk`` order, module by module, so a site's
index names the same mutant on every run of the same source; it is printed
after the line and column, which the two operators of ``a - b - c`` share.
A mutant is the module re-written by ``ast.unparse`` with that one node
changed.

Each mutant runs in a scratch copy of the repository, with the copy's
``src`` first on ``PYTHONPATH``, no bytecode written, a timeout and a cap on
the address space, since a mutant may loop or over-allocate.  The command
runs first on the clean copy; a mutant is killed when its exit code differs
from the clean one, and timed out when it runs past three times the clean
run plus 30 s.  Two copies run at once.  One line per mutant goes to
stdout, then per module the counts of mutants, killed, survived and timed
out.  Standard library only.
"""

from __future__ import annotations

import ast
import concurrent.futures
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "shallowdw"
FLIPPED = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
           ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
           ast.In: ast.NotIn, ast.NotIn: ast.In}
SWAPPED = {ast.Add: ast.Sub, ast.Sub: ast.Add}
ADDRESS_SPACE = 4 << 30  # bytes; a clean tier-1 run peaks near 1.5 GiB of it
WORKERS = 2
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                 "*.egg-info", "build")


class Site(NamedTuple):
    """One mutant: the module (relative to the repository), the site's index
    in it, the node's place, the operator and what it changes."""
    path: str
    index: int
    line: int
    col: int
    operator: str
    before: str
    after: str

    def __str__(self) -> str:
        return (f"{self.path}:{self.line}:{self.col} #{self.index} "
                f"{self.operator} {self.before} -> {self.after}")


def _changes(tree: ast.AST) -> Iterator[Tuple[ast.AST, str, str, str, Callable[[], None]]]:
    """(node, operator, before, after, apply) for each site of ``tree``, in walk order."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                new = FLIPPED[type(op)]

                def apply(node=node, i=i, new=new):
                    node.ops[i] = new()
                yield node, "compare", type(op).__name__, new.__name__, apply
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAPPED:
            new = SWAPPED[type(node.op)]

            def apply(node=node, new=new):
                node.op = new()
            yield node, "binop", type(node.op).__name__, new.__name__, apply
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            yield node, "unary", "-", "+", lambda node=node: setattr(node, "op", ast.UAdd())
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            new = node.value + 1 if type(node.value) is int else node.value * (1.0 + 1e-6)
            if new == node.value:  # 0.0 scales to itself: no mutant
                continue
            yield (node, type(node.value).__name__, repr(node.value), repr(new),
                   lambda node=node, new=new: setattr(node, "value", new))


def _modules(root: Path) -> List[Path]:
    return sorted((root / PACKAGE).glob("*.py"))


def sites(root: Path = ROOT) -> List[Site]:
    """Every site of every module under ``root``'s ``src/shallowdw``."""
    found = []
    for path in _modules(root):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        rel = str(path.relative_to(root))
        found += [Site(rel, i, node.lineno, node.col_offset, operator, before, after)
                  for i, (node, operator, before, after, _) in enumerate(_changes(tree))]
    return found


def mutant(root: Path, site: Site) -> str:
    """The source of ``site``'s module under ``root`` with that one site changed."""
    tree = ast.parse((root / site.path).read_text(encoding="utf-8"))
    node, operator, before, after, apply = list(_changes(tree))[site.index]
    if (node.lineno, node.col_offset, operator, before, after) != site[2:]:
        raise LookupError(f"{site} is not in {site.path}")
    apply()
    return ast.unparse(tree) + "\n"


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run(command: Sequence[str], cwd: Path, timeout: float) -> Tuple[Optional[int], float]:
    """(exit code, seconds) of ``command`` in ``cwd``; the code is None on a timeout."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (str(cwd / "src"),
                                                       os.environ.get("PYTHONPATH"))))}
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, preexec_fn=_limit_address_space,
                            start_new_session=True)
    try:
        code = proc.wait(timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the command's own children too
        proc.wait()
        code = None
    return code, time.perf_counter() - start


def copy(scratch: Path, name: str) -> Path:
    """A copy of the repository, without bytecode, under ``scratch``."""
    target = scratch / name
    shutil.copytree(ROOT, target, ignore=IGNORED)
    return target


def run_mutant(command: Sequence[str], work: Path, site: Site,
               timeout: float) -> Tuple[Optional[int], float]:
    """``command``'s exit code and time on ``site``'s mutant, written into the
    copy ``work`` and taken out again after the run."""
    original = (work / site.path).read_text(encoding="utf-8")
    (work / site.path).write_text(mutant(work, site), encoding="utf-8")
    try:
        return run(command, work, timeout)
    finally:
        (work / site.path).write_text(original, encoding="utf-8")


def main(command: Sequence[str]) -> int:
    if not command:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copies = [copy(Path(scratch), f"copy{i}") for i in range(WORKERS)]
        clean, seconds = run(command, copies[0], timeout=3600.0)
        if clean is None:
            print("the clean run timed out", file=sys.stderr)
            return 1
        print(f"clean: exit {clean} in {seconds:.1f} s", flush=True)
        timeout = 3.0 * seconds + 30.0
        todo = sites()
        free = list(copies)
        results = {}

        def job(site: Site) -> Tuple[Optional[int], float]:
            work = free.pop()
            try:
                return run_mutant(command, work, site, timeout)
            finally:
                free.append(work)

        with concurrent.futures.ThreadPoolExecutor(WORKERS) as pool:
            for site, (code, took) in zip(todo, pool.map(job, todo)):
                verdict = ("timeout" if code is None else
                           "survived" if code == clean else "killed")
                results[site] = verdict
                print(f"{verdict:8} exit {code} {took:6.1f} s  {site}", flush=True)
    print(f"\n{'module':16} {'mutants':>8} {'killed':>8} {'survived':>8} {'timeout':>8}")
    for path in sorted({site.path for site in results}):
        verdicts = [v for site, v in results.items() if site.path == path]
        print(f"{Path(path).name:16} {len(verdicts):8} {verdicts.count('killed'):8} "
              f"{verdicts.count('survived'):8} {verdicts.count('timeout'):8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
