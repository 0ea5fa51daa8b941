"""Every module and top-level name under ``src/repro`` serves something
a reader can run.

The rule: a module, function or class is reached from the command line
(``repro.cli``, ``repro.__main__``) — through an ``eN`` experiment, a
CLI command, the service or the verifier.  Code only tests, docs or a
lazy-export table reach is deleted, or moved under ``tests/`` when
tests use it.

Both walks read source, never import it.  The module walk follows
every ``import``/``from … import`` (function-level ones too, relative
ones resolved), the packages each import passes through, the names a
package re-exports through its ``_lazy_exports`` table (a table entry
counts only when something imports that name) and string literals that
spell a ``repro.…`` module.  The name walk starts from the module-level
code of every reached module and follows what reached bodies name, down
to the methods of reached classes: see :func:`reached_names`.
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


# -- top-level names --------------------------------------------------------

# A kept name no command reaches, with the user that keeps it.  What an
# entry's body names is kept too (its private helpers need no entry).
ALLOWED_NAMES = {
    **{
        ("repro.sim.adversary", name): (
            "adversary fixture of the sim, protocol and reduction tests "
            "(tests/sim/test_adversary.py and others)"
        )
        for name in (
            "AdaptiveOmissionAdversary",
            "ByzantineAdversary",
            "ChattiestTargetAdversary",
            "CrashAdversary",
            "ScheduledOmissionAdversary",
            "SilenceAdversary",
        )
    },
    ("repro.sim.adversary", "compose_omissions"): (
        "fixture of tests/sim/test_adversary.py"
    ),
    ("repro.sim.kernel", "KernelOracle"): (
        "the object-engine reference tests/sim/test_kernel_equivalence.py "
        "checks the mask kernel against"
    ),
    ("repro.validity.property", "problem_from_table"): (
        "builds the hand-written problems of tests/validity, "
        "tests/solvability/test_cc.py and tests/reductions"
    ),
    ("repro.validity.property", "tabulate"): (
        "fixture of tests/validity/test_property.py and "
        "tests/solvability/test_cc.py"
    ),
    ("repro.solvability.cc", "satisfies_cc"): (
        "reference predicate of tests/solvability/test_cc.py and "
        "tests/reductions/test_any_from_ic.py"
    ),
    ("repro.analysis.fitting", "is_superquadratic"): (
        "the E-series growth check of tests/test_experiments.py"
    ),
    ("repro.lowerbound.partition", "paper_partition"): (
        "the paper's (A, B, C) split, a reference of "
        "tests/lowerbound/test_partition.py and tests/test_scale.py"
    ),
    ("repro.obs.ledger", "order_signature"): (
        "the replay-order reference of tests/obs, tests/worldlog and "
        "tests/service"
    ),
    ("repro.worldlog.record", "log_order_signature"): (
        "the record-order reference of tests/worldlog/test_store.py"
    ),
    ("repro.validity.standard", "external_validity_problem"): (
        "§4.3's external validity, a paper claim checked in "
        "tests/validity/test_standard.py and test_triviality.py"
    ),
    ("repro.protocols.strong_consensus",
     "unauthenticated_strong_consensus_spec"): (
        "the unauthenticated side of Theorem 5, checked in "
        "tests/protocols/test_strong_consensus.py"
    ),
    ("repro.analysis.complexity", "exhaustive_isolation_scan"): (
        "the worst-case scan ROADMAP item 2's property A bounds "
        "(tests/lowerbound/test_quadratic_incorrect.py)"
    ),
    ("repro.solvability.strong_consensus", "counterexample_certificate"): (
        "§5.3's triple, the seed of ROADMAP item 8's CC certificate "
        "(tests/solvability/test_strong_boundary.py)"
    ),
    ("repro.solvability.strong_consensus", "paper_counterexample"): (
        "§5.3's configurations, ROADMAP item 8 "
        "(tests/solvability/test_strong_boundary.py)"
    ),
    ("repro.solvability.cc", "verify_gamma"): (
        "the Γ checker ROADMAP item 8 certifies with "
        "(tests/solvability/test_cc.py)"
    ),
    ("repro.analysis.tables", "render_execution"): (
        "prints the witness in examples/lower_bound_walkthrough.py"
    ),
    ("repro.analysis.spacetime", "render_spacetime"): (
        "draws the merged execution in examples/lower_bound_walkthrough.py"
    ),
    ("repro.protocols.dolev_strong", "scheme_for_spec"): (
        "signs the equivocating sender's chains in examples/quickstart.py"
    ),
    ("repro.sim.execution", "ExecutionSummary"): (
        "summarizes runs in examples/quickstart.py and "
        "examples/lower_bound_walkthrough.py"
    ),
    # methods
    ("repro.protocols.external_validity", "ClientPool.forge"): (
        "forges the Byzantine client's request in "
        "examples/blockchain_agreement.py"
    ),
    ("repro.service.client", "ServiceClient.ping"): (
        "the liveness probe of benchmarks/e2e/run.py's service workload "
        "and tests/service"
    ),
    ("repro.service.server", "JobServer.request_shutdown"): (
        "stops the in-process servers of tests/service and tests/test_cli.py"
    ),
    ("repro.validity.input_config", "InputConfig.from_mapping"): (
        "builds input configurations in tests/validity and tests/solvability"
    ),
    ("repro.validity.input_config", "InputConfig.contains"): (
        "Definition 3's containment, read by the repro.validity.containment "
        "oracle (see ALLOWED)"
    ),
    ("repro.validity.property", "AgreementProblem.check_decision"): (
        "the decision check of tests/validity/test_property.py"
    ),
    ("repro.validity.property", "AgreementProblem.is_trivial"): (
        "the triviality claim checked in tests/validity/test_triviality.py "
        "and test_standard.py"
    ),
    ("repro.sim.execution", "Execution.messages_in_round"): (
        "per-round message reference of tests/sim/test_execution.py, "
        "tests/protocols/test_chain_memo.py and test_eig.py"
    ),
    ("repro.sim.execution", "Execution.prefix"): (
        "execution prefixes of tests/sim/test_execution.py"
    ),
    ("repro.sim.state", "Behavior.prefix"): (
        "behavior prefixes of tests/sim/test_state.py"
    ),
    **{
        ("repro.sim.state", f"StateSnapshot.{name}"): (
            "the state-transition fixture of tests/sim/test_state.py"
        )
        for name in ("advanced", "decided")
    },
    ("repro.crypto.chains", "SignedChain.signers"): (
        "chain-construction reference of tests/crypto/test_chains.py"
    ),
    ("repro.certify.format", "Certificate.verdict"): (
        "the claim's verdict as tests/certify read it"
    ),
}

_FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)
_DISPATCH = ("getattr", "hasattr")
_DEFINITION = (*_FUNCTION, ast.ClassDef)


def _docstring(body):
    """The docstring node heading ``body``, or None."""
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        return body[0].value
    return None


class _Module:
    """One parsed module: its top-level definitions and what its
    imports bind (anywhere in it, function-level ones too)."""

    def __init__(self, name, modules):
        self.name = name
        self.tree = ast.parse(modules[name].read_text(encoding="utf-8"))
        self.definitions = {
            node.name: node
            for node in self.tree.body
            if isinstance(node, _DEFINITION)
        }
        # "Class.method" -> the method, for every method a top-level
        # class defines
        self.methods = {
            f"{cls.name}.{node.name}": node
            for cls in self.definitions.values()
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, _FUNCTION)
        }
        # local name -> a module's dotted name, or a (module, name) pair
        self.bindings = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.partition(".")[0]
                    self.bindings[local] = (
                        alias.name if alias.asname else local
                    )
            elif isinstance(node, ast.ImportFrom):
                source = _resolve(node, name, modules)
                for alias in node.names:
                    submodule = f"{source}.{alias.name}"
                    self.bindings[alias.asname or alias.name] = (
                        submodule if submodule in modules
                        else (source, alias.name)
                    )

    def module_code(self):
        """The statements importing the module runs, minus its
        docstring and export declarations: ``__all__`` and the
        ``_lazy_exports`` table (only the call counts)."""
        code = []
        for node in self.tree.body:
            if isinstance(node, _DEFINITION) or (
                isinstance(node, ast.Expr)
                and node.value is _docstring(self.tree.body)
            ) or (
                isinstance(node, ast.Assign)
                and [getattr(target, "id", None) for target in node.targets]
                == ["__all__"]
            ):
                continue
            value = getattr(node, "value", None)
            if (
                isinstance(value, ast.Call)
                and getattr(value.func, "id", None) == "_lazy_exports"
            ):
                code.append(value.func)
            else:
                code.append(node)
        return code


def definitions(modules):
    """Every ``(module, name)`` top-level function and class, and every
    ``(module, "Class.method")`` method of a top-level class."""
    found = set()
    for module in modules:
        parsed = _Module(module, modules)
        found.update((module, name) for name in parsed.definitions)
        found.update((module, name) for name in parsed.methods)
    return found


def _class_code(node):
    """What defining a class runs: its bases, decorators and class-level
    statements, and its methods' decorators and defaults — not their
    bodies."""
    code = [*node.bases, *node.keywords, *node.decorator_list]
    docstring = _docstring(node.body)
    for statement in node.body:
        if isinstance(statement, _FUNCTION):
            code += statement.decorator_list
            code += statement.args.defaults
            code += [d for d in statement.args.kw_defaults if d is not None]
        elif not (
            isinstance(statement, ast.Expr) and statement.value is docstring
        ):
            code.append(statement)
    return code


def reached_names(modules, roots=()):
    """Every ``(module, name)`` definition the walk reaches.

    Importing a module :func:`reached` returns runs its module-level
    code, so that code is walked first, with the module-level dunders
    (``__getattr__``) Python calls for it; ``roots`` adds definitions
    to start from.  A reached function's whole node is walked in turn
    (decorators, defaults, annotations, body); a reached class's
    definition-time code (:func:`_class_code`) and its dunder methods,
    which Python calls for it.

    A bare name resolves through the module's own definitions, its
    imports and each package's ``_lazy_exports`` table; ``a.b`` resolves
    when ``a`` names a module.  A string literal reaches the
    definitions it spells, bare (``getattr`` dispatch) or as
    ``repro.module:name``.  A method of a reached class is reached when
    a reached body names it as an attribute (``x.method``, whatever
    ``x`` is), or asks ``getattr``/``hasattr`` for it by a string or an
    f-string behind a fixed prefix (``getattr(self, f"_op_{op}")``).
    Docstrings are not code.
    """
    parsed = {name: _Module(name, modules) for name in modules}
    tables = {
        name: _lazy_table(parsed[name].tree, name)
        for name in modules
        if _is_package(name, modules)
    }
    spelled = {}
    for module in parsed.values():
        for name in module.definitions:
            spelled.setdefault(name, set()).add((module.name, name))
    # what reached bodies name that a method could answer to
    attributes = set()
    prefixes = set()

    def resolve(module, name, hops=0):
        """The definition ``name`` denotes in ``module``, or None."""
        scope = parsed.get(module)
        if scope is None or hops > len(parsed):
            return None
        if name in scope.definitions:
            return (module, name)
        binding = scope.bindings.get(name)
        if isinstance(binding, tuple):
            return resolve(*binding, hops + 1)
        if name in tables.get(module, {}):
            return resolve(tables[module][name], name, hops + 1)
        return None

    def module_of(module, node):
        """The module an expression denotes in ``module``, or None."""
        if isinstance(node, ast.Name):
            binding = parsed[module].bindings.get(node.id)
            return binding if isinstance(binding, str) else None
        if isinstance(node, ast.Attribute):
            base = module_of(module, node.value)
            if base and f"{base}.{node.attr}" in modules:
                return f"{base}.{node.attr}"
        return None

    def named(module, nodes):
        docstrings = {
            id(_docstring(inner.body))
            for node in nodes
            for inner in ast.walk(node)
            if isinstance(inner, _DEFINITION)
        }
        for node in nodes:
            for inner in ast.walk(node):
                if isinstance(inner, ast.Name):
                    yield resolve(module, inner.id)
                elif isinstance(inner, ast.Attribute):
                    attributes.add(inner.attr)
                    base = module_of(module, inner.value)
                    if base:
                        yield resolve(base, inner.attr)
                elif (
                    isinstance(inner, ast.Constant)
                    and isinstance(inner.value, str)
                    and id(inner) not in docstrings
                ):
                    source, _, name = inner.value.rpartition(":")
                    if source in parsed:
                        yield resolve(source, name)
                    else:
                        yield from spelled.get(inner.value, ())
                elif (
                    isinstance(inner, ast.Call)
                    and getattr(inner.func, "id", None) in _DISPATCH
                    and len(inner.args) > 1
                ):
                    spelling = inner.args[1]
                    if isinstance(spelling, ast.Constant):
                        attributes.add(spelling.value)
                    elif isinstance(spelling, ast.JoinedStr) and isinstance(
                        spelling.values[0], ast.Constant
                    ):
                        prefixes.add(spelling.values[0].value)

    seen = set()
    pending = []

    def reach(module, nodes):
        for found in named(module, nodes):
            if found and found not in seen:
                seen.add(found)
                pending.append(found)

    def walk(module, name):
        scope = parsed[module]
        if name in scope.methods:
            reach(module, [scope.methods[name]])
            return
        node = scope.definitions[name]
        if not isinstance(node, ast.ClassDef):
            reach(module, [node])
            return
        reach(module, _class_code(node))
        for method in scope.methods:
            cls, _, attribute = method.partition(".")
            if cls == name and attribute.startswith("__"):
                seen.add((module, method))
                pending.append((module, method))

    def answers(method):
        attribute = method.partition(".")[2]
        return attribute in attributes or any(
            attribute.startswith(prefix) for prefix in prefixes
        )

    for module in reached(modules):
        reach(module, parsed[module].module_code())
        seen.update(
            (module, name)
            for name in parsed[module].definitions
            if name.startswith("__")
        )
    for root in roots:
        seen.add(root)
        pending.append(root)
    while pending:
        while pending:
            walk(*pending.pop())
        for module, name in list(seen):
            for method in parsed[module].methods:
                if (
                    method.partition(".")[0] == name
                    and (module, method) not in seen
                    and answers(method)
                ):
                    seen.add((module, method))
                    pending.append((module, method))
    return seen


def test_every_name_is_reached_from_the_command_line():
    modules = _modules()
    unreached = sorted(
        (module, name)
        for module, name in definitions(modules)
        - reached_names(modules, roots=ALLOWED_NAMES)
        if module not in ALLOWED
    )
    assert not unreached, (
        "functions and classes nothing runs from repro.cli/repro.__main__: "
        + ", ".join(f"{module}:{name}" for module, name in unreached)
    )


def test_every_allowlisted_name_exists_and_is_unreached():
    """An entry whose definition is gone, or that a command now
    reaches, is stale."""
    modules = _modules()
    assert set(ALLOWED_NAMES) <= definitions(modules)
    assert not set(ALLOWED_NAMES) & reached_names(modules)


def test_an_orphan_function_is_caught(tmp_path):
    """Only code reaches a name: a docstring mention and an ``__all__``
    entry do not, a call or a ``getattr`` string does."""
    modules = _modules()
    source = modules["repro.types"].read_text(encoding="utf-8")
    patched = tmp_path / "types.py"
    patched.write_text(
        source
        + "\n\ndef orphan():\n    return 1\n"
        + "\n\ndef spelled():\n    return 2\n"
        + "\n\ndef called():\n    return 3\n"
        + '\n\ndef caller():\n'
        + '    """See :func:`orphan`."""\n'
        + '    return called(), getattr(None, "spelled", None)\n'
        + '\n\n__all__ = ["orphan"]\n',
        encoding="utf-8",
    )
    modules["repro.types"] = patched
    reached = reached_names(modules, roots={("repro.types", "caller")})
    assert ("repro.types", "orphan") not in reached
    assert ("repro.types", "called") in reached
    assert ("repro.types", "spelled") in reached


def test_an_orphan_method_is_caught(tmp_path):
    """A method of a reached class is reached only through an attribute
    or a ``getattr`` spelling; its class's dunders always are."""
    modules = _modules()
    source = modules["repro.types"].read_text(encoding="utf-8")
    patched = tmp_path / "types.py"
    patched.write_text(
        source
        + "\n\nclass Box:\n"
        + "    def __init__(self):\n        self.unused_field = 1\n"
        + "    def used(self):\n        return 1\n"
        + "    def orphan(self):\n        return 2\n"
        + "    def _op_ping(self):\n        return 3\n"
        + "    def _op_stop(self):\n        return 4\n"
        + "    def spelled(self):\n        return 5\n"
        + '\n\ndef caller(op):\n'
        + '    """Calls :meth:`Box.orphan`."""\n'
        + '    box = Box()\n'
        + '    return box.used(), getattr(box, f"_op_{op}")(), '
        + 'hasattr(box, "spelled"), "orphan"\n',
        encoding="utf-8",
    )
    modules["repro.types"] = patched
    reached = reached_names(modules, roots={("repro.types", "caller")})
    box = {name for module, name in reached if name.startswith("Box.")}
    assert box == {
        "Box.__init__", "Box.used", "Box._op_ping", "Box._op_stop",
        "Box.spelled",
    }


def test_every_benchmark_layer_entry_is_defined():
    """``benchmarks/e2e/layers.py`` wraps these by ``(module, qualname)``
    and raises on a missing one, so a deletion here breaks every traced
    benchmark run."""
    layers = SRC.parent.parent / "benchmarks" / "e2e" / "layers.py"
    tree = ast.parse(layers.read_text(encoding="utf-8"))
    wrapped = set()
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and node.target.id in (
            "STATIC_LAYERS", "COUNTERS",
        ):
            for key, value in zip(node.value.keys, node.value.values):
                if isinstance(key, ast.Tuple):
                    wrapped.add(ast.literal_eval(key))
                else:
                    wrapped.update(ast.literal_eval(value))
    assert ("repro.worldlog.replay", "log_stats") in wrapped
    assert wrapped <= definitions(_modules())
