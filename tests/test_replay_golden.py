"""Pinned ``RecoveredAccess`` streams for the three golden programs.

``tests/golden/replay_digests.json`` holds, per program, replay mode and
thread, the :func:`tests.helpers.access_digest` of the reconstructed
stream (every field, taint included), plus the final stream of the
offline pipeline after its regeneration rounds.  Replay changes that
claim bit-identity (performance work, deleting an executor) must leave
every digest unchanged, on both executors.  Regenerate deliberately
with::

    PYTHONPATH=src python -m tests.test_replay_golden
"""

import json
from pathlib import Path

import pytest

from repro.analysis import OfflinePipeline
from repro.replay import ReplayEngine
from repro.tracing import trace_run
from repro.workloads import RACE_BUGS, WorkloadScale

from tests.helpers import access_digest

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


def replay_digests(name, jit=True):
    """Digests of every mode's replay and of the pipeline's final
    extended trace, for one golden program."""
    program, bundle = _traced(name)
    digests = {
        mode: _per_thread_digests(
            ReplayEngine(program, mode=mode, jit=jit)
            .replay_bundle(bundle).per_thread)
        for mode in MODES
    }
    result = OfflinePipeline(program, jit=jit).analyze(bundle)
    digests["pipeline"] = _per_thread_digests(result.replay.per_thread)
    return digests


@pytest.mark.parametrize("jit", [True, False], ids=["jit", "interp"])
@pytest.mark.parametrize("name", PROGRAMS)
def test_recovered_access_streams_match_pinned(name, jit):
    pinned = json.loads(GOLDEN.read_text())[name]
    assert replay_digests(name, jit=jit) == pinned


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
