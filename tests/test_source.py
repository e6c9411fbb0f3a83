"""Checks on the library source itself."""

import ast
from pathlib import Path

import picard3

SRC = Path(picard3.__file__).parent


def unused_imports(source: str) -> list:
    """The names a module imports but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def function_imports(source: str) -> list:
    """The lines of the import statements inside a function body."""
    return sorted({inner.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for inner in ast.walk(node)
                   if isinstance(inner, (ast.Import, ast.ImportFrom))})


def test_unused_imports_are_found():
    src = "from math import gcd, lcm\nimport os.path\nprint(lcm(2, 3))\n"
    assert unused_imports(src) == [(1, "gcd"), (2, "os")]


def test_library_modules_read_every_name_they_import():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: u for name, u in unused.items() if u} == {}


def test_function_imports_are_found():
    src = ("import os\n"
           "def f():\n"
           "    import sys\n"
           "    def g():\n"
           "        from math import gcd\n"
           "    return sys, g\n"
           "class C:\n"
           "    from re import compile\n"
           "    async def m(self):\n"
           "        import json\n")
    assert function_imports(src) == [3, 5, 10]


def test_library_modules_import_at_module_level():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {p.name: function_imports(p.read_text()) for p in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}
