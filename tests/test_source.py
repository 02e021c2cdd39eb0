"""Static checks on the source of momix itself: no unused imports (in the
tests too), no module-level private name that nothing else uses, no public function or
class that only its definition and its re-export name, and one product
walk, which `strategies.py` owns."""

import ast
import glob
import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src", "momix")
MODULES = sorted(name for name in os.listdir(SRC)
                 if name.endswith(".py") and name != "__init__.py")


def unused_imports(source: str):
    """Names bound by an import statement and never read anywhere else."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom typing import List, Optional\nx: List = []\n") \
        == ["Optional", "os"]


TESTS = sorted(os.path.join("tests", name) for name in os.listdir(os.path.join(ROOT, "tests"))
               if name.endswith(".py"))


@pytest.mark.parametrize("module", MODULES + TESTS)
def test_no_unused_imports(module):
    """Every module of `src/momix` (named by its file name) and every file
    under `tests/` (named by its path)."""
    path = os.path.join(ROOT, module) if module in TESTS else os.path.join(SRC, module)
    with open(path, "r", encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def top_level_names(sources):
    """The names bound by top-level statements of the given modules,
    {file name: source}, as (file name, name, bound by a def or class)
    triples, and the set of names that some other top-level statement reads
    (as a name, an attribute or an imported name)."""
    defined, used = [], set()
    for name, source in sources.items():
        for stmt in ast.parse(source).body:
            is_def = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if is_def:
                bound = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                bound = {node.id for t in targets for node in ast.walk(t)
                         if isinstance(node, ast.Name)}
            else:
                bound = set()
            defined += [(name, b, is_def) for b in sorted(bound)]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read = node.id
                elif isinstance(node, ast.Attribute):
                    read = node.attr
                elif isinstance(node, ast.alias):
                    read = node.name
                else:
                    continue
                if read not in bound:
                    used.add(read)
    return defined, used


def unreferenced_private_names(sources):
    """Module-level private names (`_x`, not dunders) of the given modules,
    {file name: source}, that no other top-level statement of any of them
    reads, as "file:name"."""
    defined, used = top_level_names(sources)
    return [f"{name}:{b}" for name, b, _ in defined
            if b.startswith("_") and not b.startswith("__") and b not in used]


def test_scan_finds_an_unreferenced_private_name():
    sources = {"a.py": "def _loop():\n    return _loop()\n\n"
                       "def _helper():\n    pass\n\n_TABLE = {}\nx = _helper()\n",
               "b.py": "from .a import _TABLE\n_UNUSED: int = 1\n"}
    assert unreferenced_private_names(sources) == ["a.py:_loop", "b.py:_UNUSED"]


def test_every_private_name_is_referenced():
    sources = {}
    for module in MODULES + ["__init__.py"]:
        with open(os.path.join(SRC, module), "r", encoding="utf-8") as fh:
            sources[module] = fh.read()
    assert unreferenced_private_names(sources) == []


def unread_public_names(sources, readers):
    """Public top-level functions and classes of the modules in `sources`,
    {file name: source}, that no other top-level statement of those modules
    reads and no word of the texts `readers` names; as "file:name".  Leave
    `__init__.py` out of `sources`: its re-exports are not reads."""
    defined, used = top_level_names(sources)
    for text in readers:
        used.update(re.findall(r"\w+", text))
    return [f"{name}:{b}" for name, b, is_def in defined
            if is_def and not b.startswith("_") and b not in used]


def test_scan_finds_an_unread_public_name():
    sources = {"a.py": "def shown():\n    return shown()\n\n"
                       "def helper():\n    pass\n\nclass Told:\n    pass\n\nLIMIT = 3\n",
               "b.py": "from .a import helper\n\ndef hidden():\n    return helper()\n"}
    assert unread_public_names(sources, ["See `Told` in the README."]) \
        == ["a.py:shown", "b.py:hidden"]


def test_every_public_name_is_read():
    """A public function or class is read by another module, a demo, the
    README or a test; the re-export of `__init__.py` does not count."""
    sources, readers = {}, []
    for module in MODULES:
        with open(os.path.join(SRC, module), "r", encoding="utf-8") as fh:
            sources[module] = fh.read()
    for path in (glob.glob(os.path.join(ROOT, "tests", "*.py"))
                 + glob.glob(os.path.join(ROOT, "demos", "*.py")) + [os.path.join(ROOT, "README.md")]):
        with open(path, "r", encoding="utf-8") as fh:
            readers.append(fh.read())
    assert unread_public_names(sources, readers) == []


def skeleton_steps(source: str):
    """Lines that step a memory skeleton or read its update map: every
    `.step` attribute, and every `.update` attribute that is not called (a
    dict's `.update(...)` method is)."""
    tree = ast.parse(source)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and (node.attr == "step" or (node.attr == "update" and id(node) not in called))})


def test_scan_finds_skeleton_steps():
    source = ("nxt = strategy.skeleton.step(mem, z, a)\n"
              "table = {}\n"
              "table.update(other)\n"
              "mem = sk.update[(mem, z, a)]\n"
              "mem = skeleton.update.get((mem, z, a), mem)\n")
    assert skeleton_steps(source) == [1, 4, 5]


@pytest.mark.parametrize("module", [name for name in MODULES if name != "strategies.py"])
def test_only_strategies_steps_a_skeleton(module):
    """The product of a model with a skeleton is stepped in `strategies.py`
    only: evaluation, the choice points, the behaviour walk, the Monte-Carlo
    walker and the bounded-reach walk read it from
    `strategies.transition_table`."""
    with open(os.path.join(SRC, module), "r", encoding="utf-8") as fh:
        assert skeleton_steps(fh.read()) == []
