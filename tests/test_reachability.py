"""Every module under ``src/repro`` serves something a reader can run.

The rule: a module is reached from the command line (``repro.cli``,
``repro.__main__``) — through an ``eN`` experiment, a CLI command, the
service or the verifier.  Code only tests, docs or a lazy-export table
reach is deleted, or moved under ``tests/`` when tests use it.

The walk reads source, never imports it.  From the two roots it
follows every ``import``/``from … import`` (function-level ones too,
relative ones resolved), the packages each import passes through, the
names a package re-exports through its ``_lazy_exports`` table (a
table entry counts only when something imports that name) and string
literals that spell a ``repro.…`` module.
"""

import ast
import pathlib
import re

import repro

SRC = pathlib.Path(repro.__file__).parent
ROOTS = ("repro.cli", "repro.__main__")

ALLOWED = {
    "repro.validity.containment": (
        "the literal Definition-3 oracle tests/solvability/test_cc.py "
        "checks repro.solvability.cc against, and two of its functions "
        "are wrapped under `validity` by benchmarks/e2e/layers.py; it "
        "can move under tests/ once the layer table drops those wraps "
        "(ROADMAP item 1)"
    ),
}

_MODULE_LITERAL = re.compile(r"(repro(?:\.\w+)+)(?::\w+)?")


def _modules():
    """Dotted name -> source path of every module under ``src/repro``."""
    modules = {}
    for path in SRC.rglob("*.py"):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _is_package(name, modules):
    return modules[name].name == "__init__.py"


def _lazy_table(tree, package):
    """Re-exported name -> defining module, from ``_lazy_exports``."""
    table = {}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "_lazy_exports"
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Dict)
        ):
            for key, names in zip(node.args[1].keys, node.args[1].values):
                for name in ast.literal_eval(names):
                    table[name] = package + ast.literal_eval(key)
    return table


def _resolve(node, module, modules):
    """The absolute module a ``from … import`` node names."""
    if not node.level:
        return node.module
    package = module if _is_package(module, modules) else (
        module.rpartition(".")[0]
    )
    for _ in range(node.level - 1):
        package = package.rpartition(".")[0]
    return f"{package}.{node.module}" if node.module else package


def reached(modules):
    """Every module the walk from :data:`ROOTS` reaches."""
    trees = {
        name: ast.parse(path.read_text(encoding="utf-8"))
        for name, path in modules.items()
    }
    tables = {
        name: _lazy_table(trees[name], name)
        for name in modules
        if _is_package(name, modules)
    }
    seen = set()
    pending = list(ROOTS)

    def reach(name):
        # importing a.b.c runs a, a.b and a.b.c
        parts = name.split(".")
        for end in range(1, len(parts) + 1):
            prefix = ".".join(parts[:end])
            if prefix in modules and prefix not in seen:
                seen.add(prefix)
                pending.append(prefix)

    while pending:
        module = pending.pop()
        reach(module)
        for node in ast.walk(trees[module]):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    reach(alias.name)
            elif isinstance(node, ast.ImportFrom):
                source = _resolve(node, module, modules)
                reach(source)
                for alias in node.names:
                    submodule = f"{source}.{alias.name}"
                    if submodule in modules:
                        reach(submodule)
                    elif alias.name in tables.get(source, {}):
                        reach(tables[source][alias.name])
            elif isinstance(node, ast.Constant) and isinstance(
                node.value, str
            ):
                match = _MODULE_LITERAL.fullmatch(node.value)
                if match:
                    reach(match.group(1))
    return seen


def test_every_module_is_reached_from_the_command_line():
    modules = _modules()
    unreached = sorted(set(modules) - reached(modules) - set(ALLOWED))
    assert not unreached, (
        f"modules nothing runs from repro.cli/repro.__main__: {unreached}"
    )


def test_every_allowlisted_module_exists_and_is_unreached():
    """An allowlist entry whose module moved or became reachable is
    stale: the guard would silently excuse its successor."""
    modules = _modules()
    assert set(ALLOWED) <= set(modules)
    assert not set(ALLOWED) & reached(modules)


def test_an_orphan_module_is_caught(tmp_path):
    """The walk flags a module only a lazy-export table names."""
    modules = _modules()
    orphan = tmp_path / "orphan.py"
    orphan.write_text("def unused():\n    return 1\n", encoding="utf-8")
    source = modules["repro.protocols"].read_text(encoding="utf-8")
    anchor = "__name__,\n    {"
    assert anchor in source
    package = tmp_path / "__init__.py"
    package.write_text(
        source.replace(anchor, anchor + '\n        ".orphan": ("unused",),'),
        encoding="utf-8",
    )
    modules["repro.protocols"] = package
    modules["repro.protocols.orphan"] = orphan
    assert "repro.protocols.orphan" not in reached(modules)
    assert "repro.protocols.subquadratic" in reached(modules)
