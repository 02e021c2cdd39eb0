"""List the lines of `src/momix` that the tier-1 tests and the demos never run.

Runs the tier-1 tests and the seven demos in this process under
`sys.settrace`, recording the lines of `src/momix` that run, then prints each
statement inside a function body that never ran, and each function that was
never entered as one entry.  Docstrings, class bodies and module-level lines
are left out: they run on import.  Code that a test runs in a subprocess is
not traced, so its lines are listed too.

    python3 tools/linetrace.py [extra pytest arguments]

Exits with pytest's exit status.
"""

import ast
import contextlib
import glob
import io
import os
import runpy
import sys
from typing import Dict, Iterator, List, Set, Tuple

import pytest

ROOT = os.path.realpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
SRC = os.path.join(ROOT, "src", "momix")


def _span(node: ast.AST) -> range:
    """The lines on which a statement of a function body can report its run:
    the header of a compound statement, the whole of any other."""
    if isinstance(node, (ast.If, ast.While)):
        return range(node.lineno, node.test.end_lineno + 1)
    if isinstance(node, ast.For):
        return range(node.lineno, node.iter.end_lineno + 1)
    if isinstance(node, ast.With):
        return range(node.lineno, node.items[-1].context_expr.end_lineno + 1)
    if isinstance(node, ast.ExceptHandler):
        return range(node.lineno, (node.type or node).lineno + 1)
    return range(node.lineno, node.end_lineno + 1)


def _statements(body: List[ast.stmt]) -> Iterator[ast.AST]:
    """The statements of a function body, nested blocks and except clauses
    included, but not the bodies of nested functions and classes, nor `try`
    itself, which runs as its first statement does, nor `global` and
    `nonlocal`, which compile to nothing."""
    for node in body:
        if not isinstance(node, (ast.Try, ast.Global, ast.Nonlocal)):
            yield node
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(node, field, []))
        for handler in getattr(node, "handlers", []):
            yield handler
            yield from _statements(handler.body)


def functions(source: str) -> Iterator[Tuple[str, int, List[ast.AST]]]:
    """(name, line of the `def`, statements of its body but a docstring) for
    every function of `source`, methods and nested functions included."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef):
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            yield node.name, node.lineno, list(_statements(body))


def unrun(source: str, ran: Set[int]):
    """Given the lines of `source` in `ran`: the functions never entered, as
    (name, line of the `def`, number of statements); the other statements
    of function bodies that never ran, as (function name, line); and the
    number of statements in function bodies."""
    never: List[Tuple[str, int, int]] = []
    lines: List[Tuple[str, int]] = []
    total = 0
    for name, line, body in functions(source):
        missed = [node.lineno for node in body if not ran.intersection(_span(node))]
        total += len(body)
        if body and len(missed) == len(body):
            never.append((name, line, len(body)))
        else:
            lines.extend((name, lineno) for lineno in missed)
    return never, lines, total


def trace(run) -> Dict[str, Set[int]]:
    """The lines of each file under `src/momix` that ran during `run()`."""
    ran: Dict[str, Set[int]] = {}
    local = {}

    def on_call(frame, event, arg):
        path = frame.f_code.co_filename
        if path not in local:
            if not os.path.realpath(path).startswith(SRC + os.sep):
                local[path] = None
            else:
                hit = ran.setdefault(os.path.realpath(path), set())

                def on_line(frame, event, arg):
                    if event == "line":
                        hit.add(frame.f_lineno)
                    return on_line

                local[path] = on_line
        return local[path]

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
    return ran


def main(argv: List[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    status = []

    def run():
        status.append(pytest.main(["-q", "-p", "no:cacheprovider", "tests", *argv]))
        for demo in sorted(glob.glob(os.path.join("demos", "*.py"))):
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(demo, run_name="__main__")

    ran = trace(run)
    statements = missed = functions_missed = 0
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        never, lines, total = unrun(text, ran.get(path, set()))
        source = text.splitlines()
        shown = [(line, f"{name} never entered ({size} statements)") for name, line, size in never]
        shown += [(line, f"{source[line - 1].strip()}  [{name}]") for name, line in lines]
        for line, entry in sorted(shown):
            print(f"{os.path.relpath(path, ROOT)}:{line}: {entry}")
        statements += total
        missed += len(lines) + sum(size for _name, _line, size in never)
        functions_missed += len(never)
    print(f"{missed} of {statements} statements in function bodies never ran; "
          f"{functions_missed} functions never entered")
    return int(status[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
