"""Golden replay: derived views vs committed expected artifacts.

``golden/run.worldlog`` is a committed world log; ``golden/expected/``
holds the artifacts the *legacy writers* persisted for that same run
(see ``golden/generate.py``).  Deriving the three views from the log must
reproduce every expected file byte for byte — the regression gate CI
replays in its ``worldlog-replay`` job.
"""

import os

from repro.worldlog import derive_views, read_worldlog

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_LOG = os.path.join(HERE, "golden", "run.worldlog")
EXPECTED = os.path.join(HERE, "golden", "expected")


def _tree(root):
    files = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, root)] = handle.read()
    return files


class TestGoldenReplay:
    def test_all_three_views_byte_identical(self, tmp_path):
        out_dir = str(tmp_path / "derived")
        written = derive_views(read_worldlog(GOLDEN_LOG), out_dir)
        assert sorted(written) == ["certificates", "checkpoints", "ledger"]
        derived = _tree(out_dir)
        expected = _tree(EXPECTED)
        assert sorted(derived) == sorted(expected)
        for name in expected:
            assert derived[name] == expected[name], (
                f"derived view {name} diverged from the golden bytes"
            )
