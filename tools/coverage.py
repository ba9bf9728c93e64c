"""Line coverage of src/heisgrad under the tier-1 tests, standard library only.

Runs pytest in this process under a sys.settrace tracer that records the
lines executed in src/heisgrad, then prints, file by file, the statements
that no test ran, and a summary line.  A statement counts as run when any
line of its head ran: the whole statement for a simple one, the lines
before its body for a compound one, decorators included.  Docstrings and
global and nonlocal declarations are not counted as statements.

    python3 tools/coverage.py                         # the tier-1 suite
    python3 tools/coverage.py tests/test_gradings.py  # chosen tests

Tracing makes the suite several times slower, so this is not part of
tier-1.  Code that a test runs in a subprocess is not traced.  The exit
code is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "heisgrad")


def statement_heads(source: str) -> dict[int, int]:
    """The first and last line of the head of each statement, docstrings and
    declarations left out."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)):
            docstrings.add(body[0])
    heads = {}
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or node in docstrings
                or isinstance(node, (ast.Global, ast.Nonlocal))):  # declarations run no code
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        heads[first] = max(first, last)
    return heads


def traced_lines(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines run in each file of the package."""
    import pytest

    hits: dict[str, set[int]] = defaultdict(set)
    owned: dict[str, str | None] = {}  # co_filename -> its file under the package, or None

    def local(frame, event, arg):
        if event == "line":
            hits[owned[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in owned:
            path = os.path.abspath(name)
            owned[name] = path if os.path.dirname(path) == PACKAGE else None
        return local if owned[name] else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    code, hits = traced_lines(argv)
    total = missed = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            heads = statement_heads(fh.read())
        ran = hits.get(path, set())
        unrun = sorted(first for first, last in heads.items()
                       if not any(n in ran for n in range(first, last + 1)))
        total += len(heads)
        missed += len(unrun)
        if unrun:
            print(f"{os.path.relpath(path, ROOT)}: {len(unrun)} of {len(heads)} statements not run: "
                  + ", ".join(map(str, unrun)))
    print(f"{total - missed} of {total} statements run ({100 * (total - missed) / total:.1f} %)")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
