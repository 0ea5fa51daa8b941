"""Tests for repro.types."""

import pytest

from repro.types import validate_process_id, validate_system_size


class TestValidateSystemSize:
    def test_accepts_minimal_system(self):
        validate_system_size(1, 0)

    def test_accepts_typical_system(self):
        validate_system_size(7, 2)

    def test_rejects_zero_processes(self):
        with pytest.raises(ValueError, match="at least one process"):
            validate_system_size(0, 0)

    def test_rejects_negative_t(self):
        with pytest.raises(ValueError, match="0 <= t < n"):
            validate_system_size(3, -1)

    def test_rejects_t_equal_n(self):
        with pytest.raises(ValueError, match="0 <= t < n"):
            validate_system_size(3, 3)

    def test_rejects_t_above_n(self):
        with pytest.raises(ValueError):
            validate_system_size(3, 5)


class TestValidateProcessId:
    def test_accepts_bounds(self):
        validate_process_id(0, 4)
        validate_process_id(3, 4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            validate_process_id(-1, 4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            validate_process_id(4, 4)
