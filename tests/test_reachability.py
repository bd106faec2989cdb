"""Every module and every definition under ``src/repro`` is driven by a
program.

The roots are what a user can run: the CLI, the benchmarks and the
examples.  Imports are followed transitively with ``ast`` alone.  A
package ``__init__`` is never traversed -- importing one name from a
package must not keep every sibling alive -- so ``from pkg import
name`` (and ``pkg.name`` after ``from repro import pkg``) resolves
through the ``__init__``'s own ``from sub import name`` line to the
submodule that defines it.  Only ``from ... import`` forms are
followed; the tree uses no other.

Definitions get the same rule one level down: a top-level function or
class, or a method, of a non-``__init__`` module must be *named* by a
program source (the non-``__init__`` modules under ``src/repro``, the
benchmarks and the examples).  A definition only tests call is either
deleted or listed in ``HOOKS`` (the standard library calls it) or
``ORACLES`` (a test checks program output against it).  Methods are
matched by bare name, so any same-named method a program calls keeps
a method alive: ``StudyStatistics.to_metrics`` once hid that way, with
only tests calling it, behind the program's calls of
``RefreshStats.to_metrics`` and ``SchedulerReport.to_metrics``.
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
MODULES = sorted(
    path for path in (SRC / "repro").rglob("*.py")
    if path.name != "__init__.py"
)

# Definitions no program names, by the protocol that calls them.
HOOKS = {
    "repro.obs.http._TelemetryHandler.do_GET":
        "http.server.BaseHTTPRequestHandler dispatches each GET to it",
    "repro.obs.http._TelemetryHandler.log_message":
        "http.server.BaseHTTPRequestHandler logs each request through it",
}
# Definitions no program names, by the test that checks program
# output against them.
ORACLES = {
    "repro.bgp.dumps.read_dump":
        "tests/test_cli.py::TestEndToEnd::test_export",
    "repro.obs.metrics.registry_from_snapshot":
        "tests/test_cli_checks.py::test_telemetry_endpoints_match_artifacts",
    "repro.bgp.session.SessionSimulator.routing_state":
        "tests/test_bgp_session.py::TestEquivalenceWithStaticEngine::"
        "test_matches_engine_with_rpki_enforcement",
}


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
    modules = {_dotted(path) for path in MODULES}
    assert sorted(modules - reached) == []


def _dotted(path):
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


def _definitions(tree):
    """``(qualname, name)`` of every top-level def/class and method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, kinds[:2]):
                        yield f"{node.name}.{item.name}", item.name


def _names(tree):
    """Every name a source spells: bare names, attributes, imported
    names, and identifier strings (``getattr``, patch targets) outside
    ``__all__``."""
    exported = {
        id(constant)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "__all__"
                for target in node.targets)
        for constant in ast.walk(node.value)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in exported
        ):
            yield node.value


def _test_source(node_id):
    """The source of the test function a pytest node id names."""
    path, *names = node_id.split("::")
    source = (REPO / path).read_text()
    node, scope = None, ast.parse(source).body
    for name in names:
        (node,) = [
            child for child in scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef))
            and child.name == name
        ]
        scope = node.body
    assert isinstance(node, ast.FunctionDef), node_id
    assert node.name.startswith("test"), node_id
    return ast.get_source_segment(source, node)


def test_every_definition_is_named_by_a_program():
    named, defined = set(), {}
    for path in {*MODULES, *ROOTS}:  # every program source
        tree = ast.parse(path.read_text())
        named.update(_names(tree))
        if path in MODULES:
            for qualname, name in _definitions(tree):
                if not (name.startswith("__") and name.endswith("__")):
                    defined[f"{_dotted(path)}.{qualname}"] = name
    unnamed = {key for key, name in defined.items() if name not in named}
    listed = HOOKS.keys() | ORACLES.keys()
    assert sorted(unnamed - listed) == [], "delete, or list in HOOKS/ORACLES"
    assert sorted(listed - unnamed) == [], "stale HOOKS/ORACLES rows"
    for key, node_id in ORACLES.items():
        assert defined[key] in _test_source(node_id), (key, node_id)
