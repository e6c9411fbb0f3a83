"""Checks on the library source itself."""

import ast
import subprocess
import sys
from pathlib import Path

import picard3
from picard3.clifford import PARAMS_CACHE_SIZE

SRC = Path(picard3.__file__).parent
TESTS = Path(__file__).resolve().parent
DEMOS = TESTS.parent / "demos"


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


def unused_locals(source: str) -> list:
    """The names a function assigns but never reads, as (line, name).  A read
    in a nested function counts; ``_`` and names declared global or nonlocal
    are exempt."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = [node for node in ast.walk(fn) if isinstance(node, ast.Name)]
        exempt = {"_"} | {node.id for node in names
                          if not isinstance(node.ctx, ast.Store)}
        exempt |= {name for node in ast.walk(fn)
                   if isinstance(node, (ast.Global, ast.Nonlocal))
                   for name in node.names}
        found |= {(node.lineno, node.id) for node in names
                  if isinstance(node.ctx, ast.Store) and node.id not in exempt}
    return sorted(found)


def function_imports(source: str) -> list:
    """The lines of the import statements inside a function body."""
    return sorted({inner.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for inner in ast.walk(node)
                   if isinstance(inner, (ast.Import, ast.ImportFrom))})


def debug_only_checks(source: str) -> list:
    """The lines of the assert statements and __debug__ reads, which
    python -O strips or folds away."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert)
                  or isinstance(node, ast.Name) and node.id == "__debug__")


def private_imports(source: str) -> list:
    """The private names a module imports from a sibling module, as
    (line, name) for each ``from .x import _name``."""
    return sorted((node.lineno, alias.name) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.level > 0
                  and node.module is not None
                  for alias in node.names if alias.name.startswith("_"))


def test_unused_imports_are_found():
    src = "from math import gcd, lcm\nimport os.path\nprint(lcm(2, 3))\n"
    assert unused_imports(src) == [(1, "gcd"), (2, "os")]


def test_library_modules_read_every_name_they_import():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    modules += sorted(TESTS.glob("*.py")) + sorted(DEMOS.glob("*.py"))
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: u for name, u in unused.items() if u} == {}


def test_unused_locals_are_found():
    src = ("def f(xs):\n"
           "    total, dead = 0, 1\n"
           "    for i, x in enumerate(xs):\n"
           "        total += x\n"
           "    for _ in xs:\n"
           "        pass\n"
           "    def g():\n"
           "        nonlocal total\n"
           "        total = 2\n"
           "        seen = 3\n"
           "    global count\n"
           "    count = len(xs)\n"
           "    return total, g\n")
    assert unused_locals(src) == [(2, "dead"), (3, "i"), (10, "seen")]


def test_library_functions_read_every_local_they_assign():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    modules += sorted(TESTS.glob("*.py")) + sorted(DEMOS.glob("*.py"))
    found = {p.name: unused_locals(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


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


def test_debug_only_checks_are_found():
    src = ("def f(x):\n"
           "    assert x > 0, 'positive'\n"
           "    if __debug__:\n"
           "        print(x)\n"
           "    if x < 0:\n"
           "        raise AssertionError('kept under -O')\n")
    assert debug_only_checks(src) == [2, 3]


def test_library_checks_survive_python_O():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {p.name: debug_only_checks(p.read_text()) for p in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_private_imports_are_found():
    src = ("from __future__ import annotations\n"
           "from math import _private\n"
           "from .modular import _prime_power, delta_n\n"
           "from . import linalg\n"
           "from .linalg import mat as _mat\n"
           "def f():\n"
           "    from ..report import _group_presentation\n")
    assert private_imports(src) == [(3, "_prime_power"), (7, "_group_presentation")]


def test_library_modules_import_no_private_names_from_each_other():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {p.name: private_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


LRU_CACHE = ("lru_cache", "functools.lru_cache")


def _bounded(node) -> bool:
    return (isinstance(node, ast.Constant) and type(node.value) is int and node.value >= 0
            or isinstance(node, ast.Name) and node.id == "PARAMS_CACHE_SIZE")


def unbounded_caches(source: str) -> list:
    """The lines of the caches without an explicit bound: each import or
    read of functools.cache, each bare lru_cache decorator, and each
    lru_cache call whose maxsize is not a non-negative int literal or
    PARAMS_CACHE_SIZE (maxsize=None among them)."""
    tree = ast.parse(source)
    called = {node.func for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [node.lineno for alias in node.names if alias.name == "cache"]
        elif isinstance(node, ast.Attribute) and ast.unparse(node) == "functools.cache":
            found.append(node.lineno)
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in LRU_CACHE:
            size = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]
            if not (size and _bounded(size[0])):
                found.append(node.lineno)
        elif (isinstance(node, (ast.Name, ast.Attribute)) and node not in called
              and ast.unparse(node) in LRU_CACHE):
            found.append(node.lineno)
    return sorted(found)


def test_unbounded_caches_are_found():
    src = ("import functools\n"
           "from functools import cache, lru_cache\n"
           "@lru_cache(maxsize=32)\n"
           "def f(x): return x\n"
           "@lru_cache(maxsize=PARAMS_CACHE_SIZE)\n"
           "def g(x): return x\n"
           "@functools.lru_cache(maxsize=None)\n"
           "def h(x): return x\n"
           "@lru_cache\n"
           "def i(x): return x\n"
           "@functools.cache\n"
           "def j(x): return x\n"
           "k = lru_cache(8)(len), functools.lru_cache(typed=True)(len)\n"
           "m = lru_cache(SIZE)(len), lru_cache(None)(len), lru_cache(-1)(len)\n")
    assert unbounded_caches(src) == [2, 7, 9, 11, 13, 14, 14, 14]


def test_library_caches_are_bounded():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {p.name: unbounded_caches(p.read_text()) for p in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert type(PARAMS_CACHE_SIZE) is int and PARAMS_CACHE_SIZE > 0


def lines_naming(source: str, name: str) -> list:
    """The lines that name ``name``: as a variable, an attribute, an imported
    name or a definition."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if name in (getattr(node, "id", None), getattr(node, "attr", None),
                               getattr(node, "name", None))})


def test_lines_naming_are_found():
    src = ("import functools\n"
           "from functools import cached_property as cp\n"
           "class A:\n"
           "    @functools.cached_property\n"
           "    def x(self): return 1\n"
           "    y = cached_property(len)\n"
           "    # cached_property in a comment\n"
           "    z = 'cached_property'\n")
    assert lines_naming(src, "cached_property") == [2, 4, 6]


def test_library_caches_nothing_on_instances():
    # a value is exactly its fields (__slots__); caches are per argument
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {p.name: lines_naming(p.read_text(), "cached_property") for p in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


DATACLASS_DUNDERS = {"__eq__", "__hash__", "__setattr__", "__delattr__", "__reduce__"}


def hand_written_dunders(source: str) -> list:
    """The methods that @dataclass(frozen=True) writes, defined by hand in a
    class body (by def or by assignment), as (line, "Class.name")."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                names = []
            found += [(node.lineno, f"{cls.name}.{name}")
                      for name in names if name in DATACLASS_DUNDERS]
    return sorted(found)


def test_hand_written_dunders_are_found():
    src = ("class A:\n"
           "    def __eq__(self, other):\n"
           "        return True\n"
           "    __hash__ = None\n"
           "    def __repr__(self):\n"
           "        return 'A'\n"
           "def __reduce__():\n"
           "    pass\n"
           "class B:\n"
           "    def __setattr__(self, name, value):\n"
           "        raise AttributeError(name)\n"
           "    __delattr__ = __setattr__\n"
           "    class C:\n"
           "        def __reduce__(self):\n"
           "            return C, ()\n")
    assert hand_written_dunders(src) == [
        (2, "A.__eq__"), (4, "A.__hash__"), (10, "B.__setattr__"),
        (12, "B.__delattr__"), (14, "C.__reduce__")]


def test_library_writes_equality_and_freezing_once():
    # one owner: the value types inherit these from _value.Value
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {p.name: sorted(name for _, name in hand_written_dunders(p.read_text()))
             for p in modules}
    assert {name: names for name, names in found.items() if names} == {
        "_value.py": sorted(f"Value.{name}" for name in DATACLASS_DUNDERS)}


# Importing any of these costs a fresh process milliseconds: dataclasses
# pulls in inspect, ast, dis and tokenize.
CLASS_MACHINERY = {"dataclasses", "typing", "inspect"}


def imported_modules(source: str) -> set:
    """The top-level names of the absolute imports in a module."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_imported_modules_are_found():
    src = ("import os.path, json as j\n"
           "from typing import NamedTuple\n"
           "from . import linalg\n"
           "from .dataclasses import x\n"
           "def f():\n"
           "    import inspect\n")
    assert imported_modules(src) == {"os", "json", "typing", "inspect"}


def test_library_imports_no_class_machinery():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {p.name: imported_modules(p.read_text()) & CLASS_MACHINERY for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def test_cli_import_loads_no_class_machinery():
    # -S keeps site-packages out: a .pth file there may import typing itself
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import picard3.cli; "
            "print(*sorted(set(sys.argv[2:]) & set(sys.modules)))")
    res = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent),
                          *sorted(CLASS_MACHINERY | {"ast"})],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == []


DYNAMIC_CODE = {"exec", "eval", "compile"}


def dynamic_code_calls(source: str) -> list:
    """The lines of the calls of exec, eval or compile by name."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in DYNAMIC_CODE)


def test_dynamic_code_calls_are_found():
    src = ("exec('x = 1')\n"
           "def f(s):\n"
           "    def g():\n"
           "        return eval(s)\n"
           "    return g, compile(s, '<s>', 'exec')\n"
           "class C:\n"
           "    def m(self):\n"
           "        return self.compile(), execute()\n")
    assert dynamic_code_calls(src) == [1, 4, 5]


def test_library_runs_no_generated_code():
    # the Clifford kernels ship as a module written by tests/kernelgen.py
    modules = sorted(SRC.glob("*.py"))
    assert "_kernels.py" in {p.name for p in modules}
    found = {p.name: dynamic_code_calls(p.read_text()) for p in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


def inexact_numbers(source: str) -> list:
    """The lines of the float and complex literals and of the calls of
    float or complex by name."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and type(node.value) in (float, complex)
                  or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("float", "complex"))


def test_inexact_numbers_are_found():
    src = ("x = 0.5\n"
           "y = 1e3 + 2j\n"
           "z = float('inf')\n"
           "def f(s):\n"
           "    return complex(s), s.float(), 10, '0.5', Fraction(1, 2)\n")
    assert inexact_numbers(src) == [1, 2, 2, 3, 5]


def test_library_has_no_floating_point():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {p.name: inexact_numbers(p.read_text()) for p in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


def owned_nodes(source: str) -> list:
    """(node, owner) for each node of a module below its class and function
    definitions, with the dotted name of the class and function around it
    (None at module level), in source order."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
            else:
                found.append((child, owner))
                visit(child, owner)

    visit(ast.parse(source), None)
    return found


def family_tuple_calls(source: str) -> list:
    """(line, owner) for each call GramParams(0, _, 0, 0, _, 0), the Gram
    tuple of U(k) + <2l>, with the dotted name of the class and function
    around it (None at module level)."""
    return sorted(((node.lineno, owner) for node, owner in owned_nodes(source)
                   if isinstance(node, ast.Call) and len(node.args) == 6
                   and getattr(node.func, "id", getattr(node.func, "attr", None))
                   == "GramParams"
                   and all(isinstance(node.args[i], ast.Constant)
                           and node.args[i].value == 0 for i in (0, 2, 3, 5))),
                  key=lambda call: call[0])


def test_family_tuple_calls_are_found():
    src = ("P = GramParams(0, -1, 0, 0, 1, 0)\n"
           "class GramParams:\n"
           "    def family(k, l):\n"
           "        return GramParams(0, l, 0, 0, k, 0)\n"
           "def f(k, l):\n"
           "    return clifford.GramParams(0, l, 0, 0, k, 0), GramParams(1, l, 0, 0, k, 0)\n"
           "def g(k):\n"
           "    def h(l):\n"
           "        return GramParams(0, l, 0, 0, k, 0, 1), GramParams(0, l, 0, 0, k, 0)\n")
    assert family_tuple_calls(src) == [(1, None), (4, "GramParams.family"),
                                       (6, "f"), (9, "g.h")]


def test_library_builds_the_family_tuple_only_in_gram_params_family():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {p.name: [owner for _, owner in family_tuple_calls(p.read_text())]
             for p in modules}
    assert {name: owners for name, owners in found.items() if owners} \
        == {"clifford.py": ["GramParams.family"]}


def output_sites(source: str) -> dict:
    """The owners (as in owned_nodes) of each call of print and json.dumps,
    each read of SCHEMA and each "--format" string in a module."""
    found = {"print": [], "json.dumps": [], "SCHEMA": [], "--format": []}
    for node, owner in owned_nodes(source):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("print", "json.dumps"):
            found[ast.unparse(node.func)].append(owner)
        elif isinstance(node, ast.Name) and node.id == "SCHEMA":
            found["SCHEMA"].append(owner)
        elif isinstance(node, ast.Constant) and node.value == "--format":
            found["--format"].append(owner)
    return found


def test_output_sites_are_found():
    src = ("import json\n"
           "from .report import SCHEMA\n"
           "print(json.dumps({'schema': SCHEMA}))\n"
           "class P:\n"
           "    def error(self, m):\n"
           "        print(m, file=sys.stderr)\n"
           "def build(p):\n"
           "    p.add_argument('--format')\n"
           "    def show(doc):\n"
           "        return p.print(dumps(doc)), '--format x'\n"
           "    return show\n")
    assert output_sites(src) == {"print": [None, "P.error"], "json.dumps": [None],
                                 "SCHEMA": [None], "--format": ["build"]}


def test_only_cli_main_prints_and_serializes():
    sites = output_sites((SRC / "cli.py").read_text())
    assert set(sites["print"]) == {"_Parser.error", "main"}
    assert sites["json.dumps"] == sites["SCHEMA"] == ["main"]
    assert sites["--format"] == ["build_parser"]


def unreferenced_functions(modules: dict, exported: set) -> list:
    """The module-level functions of ``modules`` (module name -> source) that
    no module reads by name or as an attribute outside their own body, and
    that are not in ``exported``, as sorted "module.function" strings.  Reads
    are matched by name alone, so a read of a method or local of the same
    name counts too."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    defined = {(name, node) for name, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    reads = [(node.id if isinstance(node, ast.Name) else node.attr, top)
             for tree in trees.values() for top in tree.body
             for node in ast.walk(top)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
             or isinstance(node, ast.Attribute)]
    return sorted(f"{name}.{fn.name}" for name, fn in defined
                  if f"{name}.{fn.name}" not in exported
                  and not any(read == fn.name and top is not fn for read, top in reads))


def package_exports(source: str) -> set:
    """The "module.name" of each name that ``from .module import name``
    brings into a package's __init__."""
    return {f"{node.module}.{alias.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def test_unreferenced_functions_are_found():
    modules = {"a": ("def used(): return 1\n"
                     "def dead(): return dead()\n"
                     "def shown(): pass\n"
                     "X = used()\n"),
               "b": ("from . import a\n"
                     "def f(): return a.helper\n"
                     "def helper(): pass\n"
                     "def g(n):\n"
                     "    def inner(): return n\n"
                     "    return inner\n")}
    exported = package_exports("from .a import shown\nfrom .b import f\nfrom math import g\n")
    assert exported == {"a.shown", "b.f"}
    assert unreferenced_functions(modules, exported) == ["a.dead", "b.g"]


def test_library_has_no_new_unreferenced_functions():
    # mat_sub serves demo 03, which forms h - I with it
    modules = {p.stem: p.read_text() for p in SRC.glob("*.py") if p.name != "__init__.py"}
    assert modules
    exported = package_exports((SRC / "__init__.py").read_text())
    assert unreferenced_functions(modules, exported) == ["linalg.mat_sub"]


def hand_written_inits(source: str) -> list:
    """The classes that define ``__init__`` in their own body, by name."""
    return sorted(cls.name for cls in ast.walk(ast.parse(source))
                  if isinstance(cls, ast.ClassDef)
                  and any(isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                          and node.name == "__init__" for node in cls.body))


def test_hand_written_inits_are_found():
    src = ("class A:\n"
           "    def __init__(self):\n"
           "        pass\n"
           "class B(A):\n"
           "    def setup(self):\n"
           "        def __init__():\n"
           "            pass\n"
           "    class C:\n"
           "        def __init__(self, x):\n"
           "            self.x = x\n"
           "def __init__():\n"
           "    pass\n")
    assert hand_written_inits(src) == ["A", "C"]


def test_records_take_the_value_constructor():
    # a record's fields are its arguments, set by Value.__init__; a class
    # writes its own only to validate (then it calls super().__init__), to
    # set fields directly on a hot path, or because it is no value
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {p.name: hand_written_inits(p.read_text()) for p in modules}
    assert {name: classes for name, classes in found.items() if classes} == {
        "_value.py": ["Value"], "cli.py": ["_Refusal"], "clifford.py": ["CliffordElement"],
        "lattice.py": ["Isometry3", "Lattice"],
        "modular.py": ["ModularElement", "SubgroupSpec"], "verify.py": ["SuiteResult"]}


def field_writers(source: str) -> list:
    """The owners (as in owned_nodes) of the calls of object.__setattr__."""
    return sorted({owner for node, owner in owned_nodes(source)
                   if isinstance(node, ast.Call)
                   and ast.unparse(node.func) == "object.__setattr__"}, key=str)


def test_field_writers_are_found():
    src = ("object.__setattr__(x, 'a', 1)\n"
           "class V:\n"
           "    def __init__(self, a):\n"
           "        object.__setattr__(self, 'a', a)\n"
           "        object.__setattr__(self, 'b', a)\n"
           "    def copy(self):\n"
           "        return setattr(self, 'a', 1), self.__setattr__('a', 2)\n"
           "def make(a):\n"
           "    def inner(x):\n"
           "        object.__setattr__(x, 'a', a)\n"
           "    return inner\n")
    assert field_writers(src) == [None, "V.__init__", "make.inner"]


def test_fields_are_written_by_value_init_and_the_hot_constructors():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {p.name: field_writers(p.read_text()) for p in modules}
    assert {name: owners for name, owners in found.items() if owners} == {
        "_value.py": ["Value.__init__"], "lattice.py": ["Isometry3.__init__"],
        "clifford.py": ["CliffordElement.__init__", "_element"]}
