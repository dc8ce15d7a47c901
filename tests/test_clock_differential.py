"""Clock reconciliation must be an invisible flag on healthy traces.

Differential evidence for the uncertainty-aware merge keys
(:func:`repro.detector.events.uncertain_merge_tsc`):

* on clean traces, ``reconcile_clock=True`` snaps to the identity
  model and returns verdicts bit-identical to the unreconciled run, and
  every round of the batched pass matches the scalar reference
  (:func:`tests.helpers.scalar_detection`);
* on clock-damaged traces the batched pass still agrees with the
  scalar reference round by round, bit-for-bit: the corrected keys
  reach both merges the same way, so reconciliation changes what is
  detected, never how the stream is fed.
"""

import pytest

from repro.analysis import OfflinePipeline
from repro.faults import FaultPlan, clock_plans
from repro.tracing import trace_run
from repro.workloads import RACE_BUGS, WorkloadScale
from tests.helpers import assert_batched_matches_scalar

SCALE = WorkloadScale(iterations=8, threads=4)
CORPUS = ("pfscan", "mysql-791", "apache-25520")


def _bundle(name, seed, plan=None):
    program = RACE_BUGS[name].build(SCALE)
    bundle = trace_run(program, period=100, seed=seed)
    if plan is not None:
        bundle, _ = plan.apply(bundle)
    return program, bundle


def _assert_identical(left, right):
    fl = left.findings["fasttrack"]
    fr = right.findings["fasttrack"]
    assert fl.races == fr.races
    assert fl.sorted_addresses() == fr.sorted_addresses()
    assert fl.accesses_processed == fr.accesses_processed
    assert fl.sync_processed == fr.sync_processed
    assert left.racy_addresses == right.racy_addresses
    assert [r.pair for r in left.races] == [r.pair for r in right.races]
    assert left.regeneration_rounds == right.regeneration_rounds


@pytest.mark.parametrize("name", CORPUS)
@pytest.mark.parametrize("seed", [0, 3])
def test_reconcile_flag_invisible_on_clean_traces(name, seed):
    """reconcile_clock=True on an undamaged trace: identity model,
    verdicts bit-identical to the flag being off, and to the scalar
    reference."""
    program, bundle = _bundle(name, seed)
    plain = OfflinePipeline(program).analyze(bundle)
    reconciled = assert_batched_matches_scalar(program, bundle,
                                               reconcile_clock=True)
    assert reconciled.clock is not None
    assert not reconciled.clock.active
    _assert_identical(plain, reconciled)


@pytest.mark.parametrize("name", CORPUS)
@pytest.mark.parametrize("plan_name",
                         ["clock-skew", "clock-regress", "clock-combined"])
def test_executors_agree_under_clock_damage(name, plan_name):
    """The batched reconciled pass agrees with the scalar reference
    bit-for-bit on clock-damaged traces: uncertainty-clamped keys are
    feed-blind."""
    plan = clock_plans(0.4, seed=7)[plan_name]
    program, bundle = _bundle(name, 7, plan)
    assert_batched_matches_scalar(program, bundle, reconcile_clock=True)


def test_reconciled_never_exceeds_clean_findings():
    """Reconciliation under damage may lose detection but must not
    fabricate: reconciled racy addresses are a subset of the clean
    run's on every clock plan shape."""
    program, clean = _bundle("apache-25520", 3)
    truth = OfflinePipeline(program).analyze(clean).racy_addresses
    for plan in clock_plans(0.5, seed=3).values():
        damaged, _ = plan.apply(clean)
        result = OfflinePipeline(program,
                                 reconcile_clock=True).analyze(damaged)
        assert result.racy_addresses <= truth
