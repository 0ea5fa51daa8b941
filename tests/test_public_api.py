"""Sanity checks on the public API surface.

Every name exported through a package ``__all__`` must resolve; the
top-level package must expose version and error types.  Catches stale
exports before users do.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.crypto",
    "repro.omission",
    "repro.lowerbound",
    "repro.validity",
    "repro.solvability",
    "repro.reductions",
    "repro.protocols",
    "repro.analysis",
    "repro.certify",
    "repro.obs",
    "repro.parallel",
]

LAZY_PACKAGES = PACKAGES[1:]
"""Every package whose ``__init__`` re-exports through PEP 562."""

SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])

# Children keep the caller's bytecode setting, so a run with
# PYTHONDONTWRITEBYTECODE writes no __pycache__ into src/.
BYTECODE_ENV = {
    key: value
    for key, value in os.environ.items()
    if key == "PYTHONDONTWRITEBYTECODE"
}


def fresh_python(script):
    """Run ``script`` in a new interpreter; its last stdout line as JSON."""
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin", **BYTECODE_ENV},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


class TestExports:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_names_resolve(self, package_name):
        package = importlib.import_module(package_name)
        assert hasattr(package, "__all__")
        for name in package.__all__:
            assert hasattr(package, name), (
                f"{package_name}.__all__ exports unresolvable {name!r}"
            )

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_is_sorted_unique(self, package_name):
        package = importlib.import_module(package_name)
        names = list(package.__all__)
        assert len(names) == len(set(names)), (
            f"{package_name}.__all__ has duplicates"
        )

    def test_version_exposed(self):
        import repro

        assert repro.__version__


class TestDocstrings:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_packages_documented(self, package_name):
        package = importlib.import_module(package_name)
        assert package.__doc__ and package.__doc__.strip()

    def test_every_public_symbol_documented(self):
        """Spot-check: exported classes/functions carry docstrings."""
        import repro.sim as sim

        import typing

        undocumented = [
            name
            for name in sim.__all__
            if callable(getattr(sim, name))
            and not getattr(sim, name).__doc__
            # typing aliases cannot carry runtime docstrings
            and not isinstance(
                getattr(sim, name), type(typing.Callable[[int], int])
            )
        ]
        assert undocumented == []


class TestLazyExports:
    """Importing a package imports none of its submodules; every export
    still resolves on first use."""

    def test_every_export_resolves_and_is_listed(self):
        script = (
            "import importlib, json\n"
            f"packages = {LAZY_PACKAGES!r}\n"
            "missing = []\n"
            "for name in packages:\n"
            "    package = importlib.import_module(name)\n"
            "    listed = dir(package)\n"
            "    for export in package.__all__:\n"
            "        if export not in listed:\n"
            "            missing.append(f'{name}.{export} not in dir()')\n"
            "        getattr(package, export)\n"
            "print(json.dumps(missing))\n"
        )
        assert fresh_python(script) == []

    @pytest.mark.parametrize("package_name", LAZY_PACKAGES)
    def test_package_import_loads_no_submodule(self, package_name):
        script = (
            "import json, sys\n"
            f"import {package_name}\n"
            "print(json.dumps(sorted(\n"
            "    name for name in sys.modules\n"
            f"    if name.startswith({package_name + '.'!r})\n"
            ")))\n"
        )
        expected = (
            # ``merge`` names both a function and its module, so it (and
            # the isolation module it builds on) is imported eagerly.
            ["repro.omission.isolation", "repro.omission.merge"]
            if package_name == "repro.omission"
            else []
        )
        assert fresh_python(script) == expected

    def test_unknown_name_is_an_attribute_error(self):
        import repro.protocols

        with pytest.raises(AttributeError, match="no_such_spec"):
            repro.protocols.no_such_spec

    def test_merge_stays_the_function(self):
        from repro.omission import merge
        from repro.omission.merge import merge as defined

        assert merge is defined and callable(merge)

    def test_readme_quickstart_imports(self):
        from repro.lowerbound import attack_weak_consensus, verify_witness
        from repro.protocols import leader_echo_spec

        outcome = attack_weak_consensus(leader_echo_spec(n=16, t=8))
        assert outcome.witness is not None
        verify_witness(outcome.witness, leader_echo_spec(16, 8).factory)

    def test_serial_run_loads_no_process_pool(self):
        script = (
            "import io, json, sys\n"
            "from contextlib import redirect_stdout\n"
            "import repro.cli\n"
            "from repro.parallel import MeasureJob, SweepScheduler\n"
            "report = SweepScheduler(jobs=1).run(\n"
            "    [MeasureJob('silent', 8, 4)]\n"
            ")\n"
            "assert report.cells[0].result is not None\n"
            "with redirect_stdout(io.StringIO()):\n"
            "    assert repro.cli.main(['all']) == 0\n"
            "print(json.dumps([\n"
            "    name for name in ('multiprocessing',\n"
            "                      'concurrent.futures.process')\n"
            "    if name in sys.modules\n"
            "]))\n"
        )
        assert fresh_python(script) == []
