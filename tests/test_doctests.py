"""Tier-1 doctest runner for the documented-example modules.

Every module under ``src/repro`` whose source carries a ``>>>`` example
is discovered and executed here, so a new worked example is run without
being listed anywhere and no example can rot.
"""

import doctest
import importlib
import pathlib

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent


def _documented_modules():
    names = []
    for path in sorted(SRC.rglob("*.py")):
        if ">>>" not in path.read_text(encoding="utf-8"):
            continue
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


DOCUMENTED_MODULES = _documented_modules()


def test_documented_modules_are_found():
    assert "repro.cli" in DOCUMENTED_MODULES
    assert "repro.worldlog.record" in DOCUMENTED_MODULES


@pytest.mark.parametrize("name", DOCUMENTED_MODULES)
def test_module_doctests_pass(name):
    module = importlib.import_module(name)
    results = doctest.testmod(module, verbose=False)
    # Zero attempted would mean the examples silently vanished.
    assert results.attempted > 0, f"{name} lost its doctests"
    assert results.failed == 0
