"""Detector-level event types and race reports.

The detector is trace-format agnostic: the analysis pipeline lowers merged
traces (sampled + reconstructed accesses, sync records) into these events
in a happens-before-consistent order and feeds them to a detector.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple


class AccessKind(enum.Enum):
    READ = "read"
    WRITE = "write"


#: Integer access-kind codes of the columnar batch layout
#: (:mod:`repro.detector.batch`).  ``ACCESS_KINDS[code]`` recovers the
#: enum; writes deliberately code to 1 so the batch hot loops can branch
#: on the raw truthiness of the kinds column.
ACCESS_READ = 0
ACCESS_WRITE = 1
ACCESS_KINDS = (AccessKind.READ, AccessKind.WRITE)


# ----------------------------------------------------------------------
# Total event order
# ----------------------------------------------------------------------
#
# Every consumer of the merged event stream — the pipeline's k-way
# merge, sweeps, tests — sorts by the same total key so backends cannot
# drift on event ordering:
#
# * accesses rank before sync records at equal TSC (the seed pipeline's
#   behaviour);
# * sync records carry a zero ``tid`` slot so that ``seq`` — the
#   machine's exact global emission order — stays authoritative for
#   same-TSC sync pairs (a blocked lock completing inside another
#   thread's unlock must keep its release-before-acquire order;
#   breaking ties by tid would invert the HB edge);
# * accesses tie-break on ``(tid, step_index)``, giving same-TSC
#   accesses from different threads a deterministic cross-thread order.

#: Kind ranks of the total event order (accesses first at equal TSC).
EVENT_KIND_ACCESS = 0
EVENT_KIND_SYNC = 1

#: The total event sort key: (tsc, kind_rank, tid, seq).
EventKey = Tuple[float, int, int, int]


def access_sort_key(tsc: float, tid: int, step_index: int) -> EventKey:
    """Sort key of one access event (seq slot = path step index)."""
    return (tsc, EVENT_KIND_ACCESS, tid, step_index)


def sync_sort_key(record) -> EventKey:
    """Sort key of one sync event (anything with ``tsc`` and ``seq``).

    The tid slot is zeroed so ``seq`` (the machine's global emission
    order) is authoritative for same-TSC sync records — ordering them by
    tid could invert a release/acquire pair and fabricate a race.
    """
    return (float(record.tsc), EVENT_KIND_SYNC, 0, record.seq)


def uncertain_merge_tsc(tsc: float, half_width: float,
                        prev_sync_tsc: Optional[float],
                        next_sync_tsc: Optional[float]) -> float:
    """Merge-key timestamp of an access under clock uncertainty
    (:mod:`repro.clock`).

    A corrected timestamp is only trusted to ``± half_width`` ticks, so
    the access merges at the *late* edge of its uncertainty interval,
    clamped into the window its thread's *own* surrounding sync records
    define (``prev_sync_tsc``/``next_sync_tsc``, by program order):
    program order across the thread's own sync operations is
    authoritative and must not be crossed in either direction.  The
    access-before-sync kind rank makes the usable key window
    ``(prev_sync_tsc, next_sync_tsc]`` — at the upper clamp the access
    still sorts before its own next sync, and the lower clamp must land
    strictly past the previous one (clock repair keeps a thread's sync
    timestamps strictly increasing, so the window is never empty).

    Together with the repaired sync stream merging in global ``seq``
    order this pins every sync-derived happens-before chain: any true
    edge ``access -> own release -> (seq order) -> foreign acquire ->
    access`` survives into the merged order, so skew can cost detection
    probability but never manufacture a false ordering.  Cross-thread
    pairs whose uncertainty intervals overlap carry no timing claim and
    are ordered only by those sync-derived edges.  Only the merge *key*
    shifts; the access's reported ``tsc`` (and its allocation-generation
    lookup) stays at the corrected estimate.
    """
    value = tsc + half_width
    if next_sync_tsc is not None and value > next_sync_tsc:
        value = next_sync_tsc
    if prev_sync_tsc is not None and value <= prev_sync_tsc:
        bumped = prev_sync_tsc + 1
        value = bumped if next_sync_tsc is None \
            else min(bumped, next_sync_tsc)
    return value


@dataclass(frozen=True)
class Access:
    """One memory access presented to the detector.

    ``var`` is the detector-level variable identity — the address after
    allocation-generation disambiguation (§4.3), so a recycled heap
    address maps to a fresh variable.
    """

    tid: int
    var: Tuple[int, int]  # (address, allocation generation)
    kind: AccessKind
    ip: int
    tsc: float
    provenance: str
    #: Emulated addresses the reconstructed address depended on (see
    #: ``repro.replay.program_map.Taint``); None when untainted.
    taint: Optional[FrozenSet[int]] = None

    @property
    def address(self) -> int:
        return self.var[0]

    @property
    def is_write(self) -> bool:
        return self.kind == AccessKind.WRITE


@dataclass(frozen=True)
class SyncOp:
    """One synchronization operation presented to the detector."""

    tid: int
    kind: str  # lock|unlock|sem_post|sem_wait|cond_signal|cond_wake|fork|join
    target: int  # lock/sem address, or peer tid for fork/join
    tsc: float


@dataclass(frozen=True)
class WitnessStep:
    """One scheduled event of a predictive-race witness."""

    tid: int
    op: str  # read|write|lock|unlock|sem_post|sem_wait|...|fork|join
    detail: int  # ip for accesses, lock/sem address or peer tid for sync

    def describe(self) -> str:
        if self.op in ("read", "write"):
            return f"T{self.tid}:{self.op[0]}@ip={self.detail}"
        return f"T{self.tid}:{self.op}@{self.detail:#x}"


@dataclass(frozen=True)
class WitnessSchedule:
    """A feasible reordering that places the two racy accesses adjacent.

    Produced by the predictive backend's witness search: a schedule of
    the dependency-closed event prefix that respects per-thread program
    order, lock mutual exclusion, fork/join and semaphore counting, and
    ends with the candidate pair back-to-back.  ``steps`` keeps the tail
    of the schedule (the interesting part — the reordering around the
    pair); ``total_steps`` counts the whole feasible schedule.
    """

    steps: Tuple[WitnessStep, ...]
    total_steps: int
    nodes_explored: int

    @property
    def truncated(self) -> bool:
        return self.total_steps > len(self.steps)

    def describe(self) -> str:
        head = "… " if self.truncated else ""
        body = " ".join(step.describe() for step in self.steps)
        return f"{self.total_steps} steps: {head}{body}"


@dataclass(frozen=True)
class RaceReport:
    """A detected data race between two accesses to one variable."""

    var: Tuple[int, int]
    first_tid: int
    first_kind: AccessKind
    first_ip: Optional[int]
    second: Access
    #: Reordering witness (predictive backend only): a feasible schedule
    #: demonstrating the pair can execute back-to-back.
    witness: Optional[WitnessSchedule] = None

    @property
    def address(self) -> int:
        return self.var[0]

    @property
    def pair(self) -> Tuple[int, int]:
        """The (sorted) racing instruction pair, for deduplication."""
        a = self.first_ip if self.first_ip is not None else -1
        return tuple(sorted((a, self.second.ip)))  # type: ignore[return-value]

    def describe(self) -> str:
        return (
            f"race on {self.address:#x}: "
            f"T{self.first_tid} {self.first_kind.value} @ip={self.first_ip} "
            f"vs T{self.second.tid} {self.second.kind.value} "
            f"@ip={self.second.ip} ({self.second.provenance})"
        )
