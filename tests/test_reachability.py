"""Every module under ``src/repro`` is reachable from a program root.

The roots are what a user can run: the CLI, the benchmarks and the
examples.  Imports are followed transitively with ``ast`` alone.  A
package ``__init__`` is never traversed -- importing one name from a
package must not keep every sibling alive -- so ``from pkg import
name`` (and ``pkg.name`` after ``from repro import pkg``) resolves
through the ``__init__``'s own ``from sub import name`` line to the
submodule that defines it.  Only ``from ... import`` forms are
followed; the tree uses no other.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
ROOTS = [
    SRC / "repro" / "cli.py",
    *sorted((REPO / "benchmarks").rglob("*.py")),
    *sorted((REPO / "examples").glob("*.py")),
]


def _locate(module):
    """``(file, is_package)`` of a dotted name under ``src/``, else None."""
    base = SRC.joinpath(*module.split("."))
    if (base / "__init__.py").is_file():
        return base / "__init__.py", True
    if base.with_suffix(".py").is_file():
        return base.with_suffix(".py"), False
    return None


def _from_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                yield node.module, alias.name, alias.asname or alias.name


def _resolve(module, name):
    """The module or package ``from module import name`` lands in."""
    located = _locate(module)
    if located is None:
        return None
    init, is_package = located
    if not is_package:
        return module
    if _locate(f"{module}.{name}"):
        return f"{module}.{name}"
    for source, original, bound in _from_imports(ast.parse(init.read_text())):
        if bound == name:
            return _resolve(source, original)
    return None


def _edges(path):
    tree = ast.parse(path.read_text())
    packages = {}
    for module, name, bound in _from_imports(tree):
        target = _resolve(module, name)
        if target is None:
            continue
        if _locate(target)[1]:
            packages[bound] = target
        else:
            yield target
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in packages
        ):
            target = _resolve(packages[node.value.id], node.attr)
            if target and not _locate(target)[1]:
                yield target


def test_every_module_is_reachable_from_a_program_root():
    reached, queue = {"repro.cli"}, list(ROOTS)
    while queue:
        for target in _edges(queue.pop()):
            if target not in reached:
                reached.add(target)
                queue.append(_locate(target)[0])
    modules = {
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in (SRC / "repro").rglob("*.py")
        if path.name != "__init__.py"
    }
    assert sorted(modules - reached) == []
