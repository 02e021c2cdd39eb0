"""Static checks on the source of momix itself: no unused imports, no
module-level private name that nothing else uses, and one product walk,
which `strategies.py` owns."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "momix")
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


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module), "r", encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def unreferenced_private_names(sources):
    """Module-level private names (`_x`, not dunders) of the given modules,
    {file name: source}, that no other top-level statement of any of them
    reads, as "file:name"."""
    defined, used = [], set()
    for name, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                bound = {node.id for t in targets for node in ast.walk(t)
                         if isinstance(node, ast.Name)}
            else:
                bound = set()
            defined += [(name, b) for b in sorted(bound)
                        if b.startswith("_") and not b.startswith("__")]
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
    return [f"{name}:{b}" for name, b in defined if b not in used]


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
    only: evaluation, the choice points, the behaviour walk and the
    Monte-Carlo walker read it from `strategies.transition_table`."""
    with open(os.path.join(SRC, module), "r", encoding="utf-8") as fh:
        assert skeleton_steps(fh.read()) == []
