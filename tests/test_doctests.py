"""Tier-1 doctest runner for the documented-example modules.

The modules whose docstrings carry worked examples (the certificate
layer, the canonical codec, the bound arithmetic) are executed here so
the examples can never rot.  CI additionally runs ``pytest
--doctest-modules`` over the same modules; this in-suite runner keeps
the guarantee inside the plain tier-1 invocation too.
"""

import doctest

import pytest

import repro.artifact
import repro.certify.format
import repro.certify.verifier
import repro.lowerbound.bound
import repro.obs.ledger
import repro.obs.export
import repro.obs.metrics
import repro.obs.telemetry
import repro.service.protocol
import repro.service.queue
import repro.service.quota
import repro.sim.serialization
import repro.worldlog.record

DOCUMENTED_MODULES = [
    repro.artifact,
    repro.certify.format,
    repro.certify.verifier,
    repro.lowerbound.bound,
    repro.obs.ledger,
    repro.obs.export,
    repro.obs.metrics,
    repro.obs.telemetry,
    repro.service.protocol,
    repro.service.queue,
    repro.service.quota,
    repro.sim.serialization,
    repro.worldlog.record,
]


@pytest.mark.parametrize(
    "module", DOCUMENTED_MODULES, ids=lambda module: module.__name__
)
def test_module_doctests_pass(module):
    results = doctest.testmod(module, verbose=False)
    # Zero attempted would mean the examples silently vanished.
    assert results.attempted > 0, f"{module.__name__} lost its doctests"
    assert results.failed == 0
