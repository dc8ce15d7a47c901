"""Pinned ``RecoveredAccess`` streams for the three golden programs.

``tests/golden/replay_digests.json`` holds, per program, replay mode and
thread, the :func:`tests.helpers.access_digest` of the reconstructed
stream (every field, taint included), plus the final stream of the
offline pipeline after its regeneration rounds.  Replay changes that
claim bit-identity (performance work, deleting an executor) must leave
every digest unchanged, on the production micro-op executor (``jit``)
and on the reference interpreter of :mod:`tests.reference_replay`
(``interp``).  Regenerate deliberately with::

    PYTHONPATH=src python -m tests.test_replay_golden
"""

import contextlib
import json
from pathlib import Path

import pytest

from repro.analysis import OfflinePipeline
from repro.replay import ReplayEngine
from repro.tracing import trace_run
from repro.workloads import RACE_BUGS, WorkloadScale

from tests.helpers import access_digest
from tests.reference_replay import interpreted

GOLDEN = Path(__file__).parent / "golden" / "replay_digests.json"
PROGRAMS = ("pfscan", "mysql-644", "apache-21287")
MODES = ("full", "forward", "basicblock")
SCALE = WorkloadScale(iterations=10, threads=4)


def _traced(name):
    program = RACE_BUGS[name].build(SCALE)
    return program, trace_run(program, period=100, seed=3)


def _per_thread_digests(per_thread):
    return {str(tid): access_digest(accesses)
            for tid, accesses in sorted(per_thread.items())}


def replay_digests(name):
    """Digests of every mode's replay and of the pipeline's final
    extended trace, for one golden program."""
    program, bundle = _traced(name)
    digests = {
        mode: _per_thread_digests(
            ReplayEngine(program, mode=mode)
            .replay_bundle(bundle).per_thread)
        for mode in MODES
    }
    result = OfflinePipeline(program).analyze(bundle)
    digests["pipeline"] = _per_thread_digests(result.replay.per_thread)
    return digests


@pytest.mark.parametrize("executor", [contextlib.nullcontext, interpreted],
                         ids=["jit", "interp"])
@pytest.mark.parametrize("name", PROGRAMS)
def test_recovered_access_streams_match_pinned(name, executor):
    pinned = json.loads(GOLDEN.read_text())[name]
    with executor():
        assert replay_digests(name) == pinned


@pytest.mark.parametrize("name", PROGRAMS)
def test_golden_programs_fixed_point_converges(name):
    program, bundle = _traced(name)
    stats = OfflinePipeline(program).analyze(bundle).replay.stats
    assert stats.capped_windows == 0
    assert stats.iterations <= 2 * stats.windows


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: replay_digests(name) for name in PROGRAMS},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
