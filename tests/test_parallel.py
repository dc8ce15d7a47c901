"""The executor abstraction: ordering, determinism, validation."""

import os

import pytest

from repro.parallel import EXECUTORS, parallel_map, resolve_jobs


def _square(x):
    """Module-level so the process executor can pickle it."""
    return x * x


class TestResolveJobs:
    def test_explicit(self):
        assert resolve_jobs(3) == 3

    def test_auto_uses_cpu_count(self):
        assert resolve_jobs(None) == max(1, os.cpu_count() or 1)
        assert resolve_jobs(0) == max(1, os.cpu_count() or 1)

    def test_negative_clamped(self):
        assert resolve_jobs(-2) == 1


class TestParallelMap:
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("jobs", [1, 2, 8])
    def test_preserves_input_order(self, executor, jobs):
        items = list(range(17))
        assert parallel_map(_square, items, jobs=jobs,
                            executor=executor) == [x * x for x in items]

    def test_empty(self):
        assert parallel_map(_square, [], jobs=4) == []

    def test_single_item_runs_inline(self):
        assert parallel_map(_square, [7], jobs=4, executor="process") == [49]

    def test_generator_input(self):
        assert parallel_map(_square, (x for x in range(5)), jobs=2) == \
            [0, 1, 4, 9, 16]

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            parallel_map(_square, [1, 2], jobs=2, executor="gpu")

    def test_closures_allowed_inline(self):
        offset = 10
        assert parallel_map(lambda x: x + offset, [1, 2, 3], jobs=2,
                            executor="serial") == [11, 12, 13]

    def test_executors_are_serial_and_process(self):
        """No in-process thread pool: pure-Python work only scales past
        the GIL in separate interpreters."""
        assert EXECUTORS == ("serial", "process")
