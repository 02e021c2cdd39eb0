"""Static checks on the source of momix itself: no unused imports, and one
product walk, which `strategies.py` owns."""

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
