"""Static checks on the source of momix itself: no unused imports (in the
tests too), no module-level private name that nothing else uses, no public function or
class that only its definition and its re-export name, no public dataclass field
that nothing outside its module reads, one product walk, which
`strategies.py` owns, one closed form for a one-node block, one method that
solves a pool block, one builder of
memory skeletons, one caller of `factor` and `solve_linear`, payoff kinds without
methods, no function-local import of a sibling module, one breadth-first
search, `model.closure`, three builders of linear programs, none of them
with a free variable, supporting normals for `supporting_map` alone, no
`rank` anywhere, and one builder of the mixed radix that numbers act
tables, which no other module names; and the scanner of the line tracer
in `tools/`."""

import ast
import glob
import importlib.util
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


def test_every_conftest_helper_is_read():
    """A reference implementation or helper of `tests/conftest.py` is read by
    a test module, or by conftest itself."""
    readers = []
    for path in glob.glob(os.path.join(ROOT, "tests", "test_*.py")):
        with open(path, "r", encoding="utf-8") as fh:
            readers.append(fh.read())
    with open(os.path.join(ROOT, "tests", "conftest.py"), "r", encoding="utf-8") as fh:
        assert unread_public_names({"conftest.py": fh.read()}, readers) == []


def unread_fields(sources, readers):
    """Public fields of the public dataclasses in `sources`, {file name:
    source}, that no other module of them reads as an attribute and no word
    of the texts `readers` names; as "file:Class.field"."""
    reads = {name: {node.attr for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
             for name, source in sources.items()}
    words = {word for text in readers for word in re.findall(r"\w+", text)}
    unread = []
    for name, source in sources.items():
        seen = words.union(*(r for other, r in reads.items() if other != name))
        for stmt in ast.parse(source).body:
            if (isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_")
                    and any("dataclass" in ast.unparse(d) for d in stmt.decorator_list)):
                unread += [f"{name}:{stmt.name}.{node.target.id}" for node in stmt.body
                           if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                           and not node.target.id.startswith("_") and node.target.id not in seen]
    return unread


def test_scan_finds_an_unread_field():
    sources = {"a.py": "from dataclasses import dataclass\n\n"
                       "@dataclass(frozen=True)\nclass Result:\n"
                       "    holds: bool\n    count: int\n    note: str = ''\n    _cache: dict = None\n\n"
                       "    def show(self):\n        return self.count\n\n"
                       "class Plain:\n    size: int\n",
               "b.py": "def check(result):\n    return result.holds\n"}
    assert unread_fields(sources, ["See `note` in the README."]) == ["a.py:Result.count"]


def test_every_public_field_is_read():
    """A field of a public dataclass is read by another module, a demo, the
    README or a test; its own module's reads do not count."""
    sources, readers = {}, []
    for module in MODULES:
        with open(os.path.join(SRC, module), "r", encoding="utf-8") as fh:
            sources[module] = fh.read()
    for path in (glob.glob(os.path.join(ROOT, "tests", "*.py"))
                 + glob.glob(os.path.join(ROOT, "demos", "*.py")) + [os.path.join(ROOT, "README.md")]):
        with open(path, "r", encoding="utf-8") as fh:
            readers.append(fh.read())
    assert unread_fields(sources, readers) == []


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


def one_node_pivots(source: str):
    """Names of the functions that compute a one-node pivot 1 - lambda * p:
    a subtraction from the constant 1 of an expression with a product in
    it."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                and isinstance(node.left, ast.Constant) and node.left.value == 1
                and any(isinstance(inner, ast.BinOp) and isinstance(inner.op, ast.Mult)
                        for inner in ast.walk(node.right))
                for node in ast.walk(func)):
            found.append(func.name)
    return found


def test_scan_finds_a_second_pivot():
    source = ("def one(loop, discount):\n"
              "    return 1 - (loop if discount == 1 else discount * loop)\n"
              "def fork(rows, node, discount):\n"
              "    pivot = 1 - discount * rows[node][node]\n"
              "def other(h, eta, k):\n"
              "    return 1 - h, 1 - (1 - eta ** k) ** 2\n")
    assert one_node_pivots(source) == ["one", "fork"]


def test_one_function_computes_the_one_node_pivot():
    """The closed form of a one-node block, x = (c + lambda sum P x) /
    (1 - lambda p_ii), lives in `evaluate._one_node` alone: the evaluator's
    one-unknown systems and the singleton SCCs of `_solve_systems` share
    it."""
    found = []
    for module in MODULES:
        with open(os.path.join(SRC, module), "r", encoding="utf-8") as fh:
            found += [f"{module}:{name}" for name in one_node_pivots(fh.read())]
    assert found == ["evaluate.py:_one_node"]


def functions_calling(source: str, callee: str):
    """Names of the functions, nested ones included, whose bodies call
    `callee` by name or as an attribute (`module.callee(...)`)."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(node, ast.Call)
                and callee in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
                for node in ast.walk(func)):
            found.append(func.name)
    return found


def test_scan_finds_skeleton_constructions():
    source = ("def machine(model, init, step):\n"
              "    return MemorySkeleton((init,), init, {})\n"
              "def counter(model, horizon):\n"
              "    def inner():\n"
              "        return MemorySkeleton(memory, 0, update)\n"
              "    return inner()\n"
              "def reader(skeleton):\n"
              "    return isinstance(skeleton, MemorySkeleton)\n")
    assert functions_calling(source, "MemorySkeleton") == ["machine", "counter", "inner"]


def test_scan_finds_linear_solves():
    source = ("def _solve_systems(rows):\n"
              "    return solve_linear(rows, [])\n"
              "def block(rows):\n"
              "    def inner():\n"
              "        return linalg.solve_linear(rows, [])\n"
              "    return inner()\n"
              "def dense(solve_linear):\n"
              "    return solve_linear\n"
              "def refactor(rows, scales):\n"
              "    return [linalg.factor(rows, scales), factor(rows, scales)]\n"
              "def factored(factor):\n"
              "    return factor\n")
    assert functions_calling(source, "solve_linear") == ["_solve_systems", "block", "inner"]
    assert functions_calling(source, "factor") == ["refactor"]


def test_one_function_solves_linear_systems():
    """Every transient system goes through `evaluate._solve_systems`, which
    eliminates the matrix of each SCC of more than one node by `factor` and
    solves it by `solve_linear`; nothing else in `src/momix` calls either."""
    for callee in ("factor", "solve_linear"):
        found = []
        for module in MODULES:
            with open(os.path.join(SRC, module), "r", encoding="utf-8") as fh:
                found += [f"{module}:{name}" for name in functions_calling(fh.read(), callee)]
        assert found == ["evaluate.py:_solve_systems"], callee


def block_solvers(source: str):
    """The functions that call `_one_node`, and the methods of `_Evaluator`
    other than `_memo`, or the block arithmetic, that `_Evaluator.__call__`
    calls, nested functions included."""
    evaluator = next(stmt for stmt in ast.parse(source).body
                     if isinstance(stmt, ast.ClassDef) and stmt.name == "_Evaluator")
    methods = {f.name: f for f in evaluator.body if isinstance(f, ast.FunctionDef)}
    called = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
              for node in ast.walk(methods["__call__"]) if isinstance(node, ast.Call)}
    return (sorted(functions_calling(source, "_one_node")),
            sorted((called - {"_memo"}) & (set(methods) | {"_one_node", "_affine", "_solve_systems"})))


def test_scan_finds_a_second_block_solver():
    """The shape of a fork: a one-node method beside `_solve_block`, and a
    closure inside it."""
    source = ("class _Evaluator:\n"
              "    def __call__(self, comp):\n"
              "        def walk():\n"
              "            return self._memo()\n"
              "        if len(comp) == 1:\n"
              "            return self._solve_one(comp)\n"
              "        return self._solve_block(comp)\n"
              "    def _solve_one(self, comp):\n"
              "        return _one_node(comp, None, 1)\n"
              "    def _solve_block(self, comp):\n"
              "        def system(slot):\n"
              "            return _one_node(slot, None, 1)\n"
              "        return _one_node(comp, None, 1), system\n"
              "def _solve_systems(systems):\n"
              "    return [_one_node(s, None, 1) for s in systems]\n")
    assert block_solvers(source) == (["_solve_block", "_solve_one", "_solve_systems", "system"],
                                     ["_solve_block", "_solve_one"])


def test_one_method_solves_a_block():
    """Every block of every size is solved by `_Evaluator._solve_block`: it
    and `_solve_systems` alone call `_one_node`, with no closure in
    between, and `__call__` reaches block arithmetic only through it."""
    with open(os.path.join(SRC, "evaluate.py"), "r", encoding="utf-8") as fh:
        assert block_solvers(fh.read()) == (["_solve_block", "_solve_systems"], ["_solve_block"])


def dataclass_methods(source: str):
    """The methods of the dataclasses at the top level of `source`, as
    "Class.method"."""
    return [f"{stmt.name}.{node.name}" for stmt in ast.parse(source).body
            if isinstance(stmt, ast.ClassDef)
            and any("dataclass" in ast.unparse(d) for d in stmt.decorator_list)
            for node in stmt.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_scan_finds_dataclass_methods():
    source = ("@dataclass(frozen=True)\nclass Reach:\n    target: frozenset\n\n"
              "    def validate(self, model):\n        pass\n\n"
              "@dataclasses.dataclass\nclass Plain:\n    weights: dict\n\n"
              "class Loader:\n    def load(self):\n        pass\n")
    assert dataclass_methods(source) == ["Reach.validate"]


def test_payoff_kinds_are_plain_data():
    """The loader checks each payoff field as it reads it, so no payoff
    kind carries a method of its own."""
    with open(os.path.join(SRC, "payoffs.py"), "r", encoding="utf-8") as fh:
        assert dataclass_methods(fh.read()) == []


def test_one_builder_makes_skeletons():
    """A memory skeleton is built from a step rule by `strategies.machine`
    and read from a file by `strategies.strategy_from_dict`; nothing else
    assembles one."""
    found = []
    for module in MODULES:
        with open(os.path.join(SRC, module), "r", encoding="utf-8") as fh:
            found += [f"{module}:{name}" for name in functions_calling(fh.read(), "MemorySkeleton")]
    assert found == ["strategies.py:machine", "strategies.py:strategy_from_dict"]


def local_sibling_imports(source: str):
    """Lines of `from .x import y` statements inside a function body."""
    return sorted({node.lineno for func in ast.walk(ast.parse(source))
                   if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(func)
                   if isinstance(node, ast.ImportFrom) and node.level > 0})


def test_scan_finds_a_local_sibling_import():
    source = ("from .model import Pomdp\n"
              "def classify(model):\n"
              "    from .beliefs import universal_as_reach\n"
              "    import numpy as np\n"
              "    return universal_as_reach\n"
              "class Walker:\n"
              "    def walk(self):\n"
              "        from . import evaluate\n")
    assert local_sibling_imports(source) == [3, 8]


@pytest.mark.parametrize("module", MODULES)
def test_no_local_sibling_imports(module):
    """Sibling modules are imported at the top: no module of `src/momix`
    imports another inside a function, as no import cycle needs it.
    numpy stays a function-local import of `montecarlo`."""
    with open(os.path.join(SRC, module), "r", encoding="utf-8") as fh:
        assert local_sibling_imports(fh.read()) == []


def growing_loops(source: str):
    """Names of the functions, nested ones included, with a `for` loop over
    a list that the loop's own body appends to or extends (by `.append`,
    `.extend` or `+=`): a breadth-first search written out by hand."""
    def grows(loop, node):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("append", "extend"):
            grown = node.func.value
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            grown = node.target
        else:
            return False
        return ast.dump(grown, annotate_fields=False).replace("Store()", "Load()") \
            == ast.dump(loop.iter, annotate_fields=False)

    return [func.name for func in ast.walk(ast.parse(source))
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(loop, ast.For) and any(grows(loop, node) for node in ast.walk(loop))
                    for loop in ast.walk(func))]


def test_scan_finds_growing_loops():
    source = ("def machine(init):\n"
              "    memory = [init]\n"
              "    for mem in memory:\n"
              "        memory.append(mem + 1)\n"
              "class Walker:\n"
              "    def __init__(self):\n"
              "        for node in self.order:\n"
              "            if node:\n"
              "                self.order.extend([node])\n"
              "def layers(order):\n"
              "    for node in order:\n"
              "        order += [node]\n"
              "def copy(rows, out, todo):\n"
              "    for row in rows:\n"
              "        out.append(row)\n"
              "    while todo:\n"
              "        todo.append(todo.pop())\n")
    assert growing_loops(source) == ["machine", "layers", "__init__"]


def test_one_breadth_first_search():
    """Skeletons, transition tables, belief supports, walker graphs and
    unrolled models are numbered by `model.closure`, which calls back once
    per node: no function reads a list in a `for` loop while the loop's body
    grows it.  (`closure` grows its node list from its `number` callback.)"""
    found = []
    for module in MODULES:
        with open(os.path.join(SRC, module), "r", encoding="utf-8") as fh:
            found += [f"{module}:{name}" for name in growing_loops(fh.read())]
    assert found == []


def free_variables(source: str):
    """Lines of `var(...)` calls that declare a free variable (`lo=None`)."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", getattr(node.func, "id", None)) == "var"
                  and any(kw.arg == "lo" and isinstance(kw.value, ast.Constant)
                          and kw.value.value is None for kw in node.keywords))


def test_scan_finds_lp_builders_and_free_variables():
    source = ("def relint(q, points):\n"
              "    lp = LinearProgram()\n"
              "    m = lp.var('m', lo=None)\n"
              "    return lp.var('a', lo=0), var('x', lo=None, hi=1)\n"
              "def push(q):\n"
              "    def piece():\n"
              "        return LinearProgram()\n"
              "    return piece, lp.var('w', lo=-1, hi=1)\n")
    assert functions_calling(source, "LinearProgram") == ["relint", "push", "piece"]
    assert free_variables(source) == [3, 4]


def test_three_builders_pose_every_lp():
    """Mixture rows come from `geometry._combination_lp` (membership,
    Caratheodory, extreme points, the relative interior and the diagonal
    push) and the approximation bands from `synthesis._band_mixture`; the
    only other LP is the supporting normal's.  No LP has a free variable."""
    found = []
    free = []
    for module in MODULES:
        with open(os.path.join(SRC, module), "r", encoding="utf-8") as fh:
            source = fh.read()
        found += [f"{module}:{name}" for name in functions_calling(source, "LinearProgram")]
        free += [f"{module}:{line}" for line in free_variables(source)]
    assert found == ["geometry.py:_combination_lp", "geometry.py:_lexmin_supporting_normal",
                     "geometry.py:piece_lexmin", "synthesis.py:_band_mixture"]
    assert free == []


def test_scan_finds_normal_calls():
    source = ("def supporting_map(q, points):\n"
              "    return _lexmin_supporting_normal(q, points, [])\n"
              "def dominating(q, points):\n"
              "    def face():\n"
              "        return _lexmin_supporting_normal(q, points, [])\n"
              "    return caratheodory(q, points)\n")
    assert functions_calling(source, "_lexmin_supporting_normal") \
        == ["supporting_map", "dominating", "face"]


def test_only_supporting_map_poses_normal_lps():
    """The dominating decomposition takes its face from the basic solution
    of one Caratheodory LP; supporting normals serve `supporting_map` alone."""
    found = []
    for module in MODULES:
        with open(os.path.join(SRC, module), "r", encoding="utf-8") as fh:
            found += [f"{module}:{name}"
                      for name in functions_calling(fh.read(), "_lexmin_supporting_normal")]
    assert found == ["geometry.py:supporting_map"]


def defines_or_imports(source: str, name: str):
    """Lines that assign `name` at module level, define a function or class
    of that name at any depth, or import it under its own name or another."""
    tree = ast.parse(source)
    lines = {stmt.lineno for stmt in tree.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))
             and any(isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                     and node.id == name for node in ast.walk(stmt))}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and node.name == name:
            lines.add(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                name in (alias.name.split(".")[-1], alias.asname) for alias in node.names):
            lines.add(node.lineno)
    return sorted(lines)


def test_scan_finds_rank_definitions_and_imports():
    source = ("from .linalg import dot, rank\n"
              "from numpy.linalg import matrix_rank as rank\n"
              "from numpy.linalg import matrix_rank\n"
              "rank = len\n"
              "class Table:\n"
              "    def rank(self):\n"
              "        return 0\n"
              "def order(rows):\n"
              "    rank = len(rows)\n"
              "    return rank, action_rank\n")
    assert defines_or_imports(source, "rank") == [1, 2, 4, 6]


def test_no_module_defines_or_imports_rank():
    """Geometry decides everything by LPs and linear algebra only solves
    square systems: no module of `src/momix` defines or imports `rank`."""
    found = []
    for module in MODULES + ["__init__.py"]:
        with open(os.path.join(SRC, module), "r", encoding="utf-8") as fh:
            found += [f"{module}:{line}" for line in defines_or_imports(fh.read(), "rank")]
    assert found == []


def running_products(source: str):
    """Names of the functions, nested ones included, that build a mixed
    radix: an assignment `x[...] = x[...] * ...` to an item of a sequence
    from another item of it."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(node, ast.Assign) and isinstance(node.value, ast.BinOp)
                and isinstance(node.value.op, ast.Mult)
                and any(isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name)
                        and any(isinstance(side, ast.Subscript)
                                and isinstance(side.value, ast.Name)
                                and side.value.id == target.value.id
                                for side in (node.value.left, node.value.right))
                        for target in node.targets)
                for node in ast.walk(func)):
            found.append(func.name)
    return found


def test_scan_finds_running_products():
    source = ("def numbering(points):\n"
              "    place = [1] * len(points)\n"
              "    for i in range(len(points) - 1, 0, -1):\n"
              "        place[i - 1] = place[i] * len(points[i])\n"
              "def other(radix):\n"
              "    def inner(above):\n"
              "        above[0] = len(radix) * above[1]\n"
              "    return inner\n"
              "def reader(place, points, p):\n"
              "    moduli[p] = place[p] * len(points[p])\n"
              "    return place[p] * 2\n")
    assert running_products(source) == ["numbering", "other", "inner"]


def test_one_function_numbers_act_tables():
    """The mixed radix of act-table indices, each choice point's place
    value, is built by `strategies._numbering` alone: `pure_behaviours`
    reads it there for the behaviour walk and for the moduli it returns."""
    found = []
    for module in MODULES:
        with open(os.path.join(SRC, module), "r", encoding="utf-8") as fh:
            found += [f"{module}:{name}" for name in running_products(fh.read())]
    assert found == ["strategies.py:_numbering"]


def names(source: str, name: str):
    """Lines that name `name`: define, bind or import it, read it, or read
    it as an attribute."""
    lines = set(defines_or_imports(source, name))
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name):
            lines.add(node.lineno)
    return sorted(lines)


def test_scan_finds_every_naming():
    source = ("from .strategies import _numbering as number\n"
              "import momix.strategies\n"
              "def moduli(table):\n"
              "    return momix.strategies._numbering(table)\n"
              "def _numbering():\n"
              "    return number, _numbering\n"
              "label = '_numbering'\n")
    assert names(source, "_numbering") == [1, 4, 5, 6]


def test_only_strategies_knows_the_numbering():
    """Each pool is numbered once: `pure_behaviours` calls `_numbering` and
    returns each node's modulus with the members, so no module but
    `strategies.py` names `_numbering`."""
    found = []
    for module in MODULES + ["__init__.py"]:
        with open(os.path.join(SRC, module), "r", encoding="utf-8") as fh:
            if names(fh.read(), "_numbering"):
                found.append(module)
    assert found == ["strategies.py"]


def test_scan_finds_an_unrun_line():
    """The scanner of `tools/linetrace.py`: of a method whose docstring and
    class body never show in the trace, it reports the one statement that
    did not run, and no function as never entered."""
    spec = importlib.util.spec_from_file_location(
        "linetrace", os.path.join(ROOT, "tools", "linetrace.py"))
    linetrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(linetrace)
    source = ("class Box:\n"
              "    size = 3\n"
              "\n"
              "    def grow(self, by):\n"
              "        \"\"\"Add `by`, refusing\n"
              "        a negative one.\"\"\"\n"
              "        if by < 0:\n"
              "            raise ValueError(by)\n"
              "        self.size += by\n")
    assert linetrace.unrun(source, {7, 9}) == ([], [("grow", 8)], 3)
