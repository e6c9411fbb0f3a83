"""List the statements of src/picard3/*.py that no test and no demo runs.

    python tests/tools/unreached_lines.py

Runs the Tier-1 suite in-process (pytest.main on tests/) and then the six
demos (demos/*.py), under sys.settrace and threading.settrace, and records
every line that runs in src/picard3.  A statement is reached when its first
line ran.  Not listed: def and class lines, imports, docstrings, statements
that compile to no code, `raise AssertionError(...)` (the invariant checks),
the bodies of `except AssertionError` handlers and the
`if __name__ == "__main__":` guard.  Prints each unreached statement as
path:line and exits 1 when there is one or when pytest fails, else 0.
Needs pytest and nothing outside the standard library.
"""

import ast
import io
import runpy
import sys
import threading
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "picard3"


def _is_name(node, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def _skipped(stmt: ast.stmt) -> bool:
    """def/class lines, imports, docstrings and raise AssertionError(...)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                         ast.Import, ast.ImportFrom)):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
            and isinstance(stmt.value.value, str):
        return True
    if isinstance(stmt, ast.Raise):
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return _is_name(exc, "AssertionError")
    return False


def _is_main_guard(node) -> bool:
    test = node.test
    return (isinstance(test, ast.Compare) and _is_name(test.left, "__name__")
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value == "__main__")


def statement_lines(tree):
    """The first lines of the statements under tree that the audit checks."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, ast.ExceptHandler) and _is_name(child.type, "AssertionError"):
            continue
        if isinstance(child, ast.If) and _is_main_guard(child):
            continue
        if isinstance(child, ast.stmt) and not _skipped(child):
            yield child.lineno
        yield from statement_lines(child)


def code_lines(code) -> set:
    """Every line that some instruction of code, or of a code object nested
    in it, carries: the lines that can report a line event."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def audited_lines(path: Path) -> list:
    source = path.read_text()
    runnable = code_lines(compile(source, str(path), "exec"))
    return sorted(set(statement_lines(ast.parse(source))) & runnable)


def run_traced(reached: set) -> int:
    """pytest's exit code for Tier-1; then the demos, all under the tracer."""
    ours = {}  # co_filename -> the Path under SRC, or None

    def local(frame, event, arg):
        if event == "line":
            reached.add((ours[frame.f_code.co_filename], frame.f_lineno))
        return local

    def start(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            path = Path(name).resolve()
            ours[name] = path if path.parent == SRC else None
        return local if ours[name] is not None else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(start)
    sys.settrace(start)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
        for demo in sorted((ROOT / "demos").glob("*.py")):
            with redirect_stdout(io.StringIO()):
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code


def main() -> int:
    reached = set()
    code = run_traced(reached)
    unreached = [(path, line) for path in sorted(SRC.glob("*.py"))
                 for line in audited_lines(path) if (path, line) not in reached]
    for path, line in unreached:
        print(f"{path.relative_to(ROOT)}:{line}")
    print(f"{len(unreached)} unreached statements; pytest exit code {code}",
          file=sys.stderr)
    return 1 if unreached or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
