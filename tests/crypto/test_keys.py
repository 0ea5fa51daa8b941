"""Tests for repro.crypto.keys."""

import pytest

from repro.crypto.keys import KeyRegistry
from repro.errors import SignatureError


class TestKeyRegistry:
    def test_keys_are_deterministic(self):
        a = KeyRegistry(4, seed=b"s")
        b = KeyRegistry(4, seed=b"s")
        assert a.secret_key(2).material == b.secret_key(2).material

    def test_keys_differ_per_process(self):
        registry = KeyRegistry(4)
        assert (
            registry.secret_key(0).material
            != registry.secret_key(1).material
        )

    def test_keys_differ_per_seed(self):
        assert (
            KeyRegistry(4, seed=b"a").secret_key(0).material
            != KeyRegistry(4, seed=b"b").secret_key(0).material
        )

    def test_string_seed_accepted(self):
        assert (
            KeyRegistry(2, seed="x").secret_key(0).material
            == KeyRegistry(2, seed=b"x").secret_key(0).material
        )

    def test_unknown_process_rejected(self):
        with pytest.raises(SignatureError, match="no key"):
            KeyRegistry(3).secret_key(3)

    def test_repr_hides_material(self):
        key = KeyRegistry(2).secret_key(0)
        assert key.material.hex() not in repr(key)

    def test_rejects_empty_system(self):
        with pytest.raises(ValueError):
            KeyRegistry(0)
