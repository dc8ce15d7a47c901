"""The common detector-backend protocol.

Every race detector in :mod:`repro.detector` — FastTrack, the reference
vector-clock detector, the Eraser lockset comparator, the O(1)-samples
sampling detector and the predictive witness detector — conforms to one
streaming protocol so the analysis pipeline can feed N backends
side-by-side from a single merged event-stream pass:

* :meth:`DetectorBackend.sync` — consume one synchronization operation;
* :meth:`DetectorBackend.access` — consume one memory access;
* :meth:`DetectorBackend.finish` — finalize and return immutable
  :class:`DetectionFindings`.

The base class also owns the findings accessors *once*, so every
backend exposes the same deterministic surface (the seed grew them
ad hoc on FastTrack only, with ``distinct_races`` in stream order but
no sorted counterpart — reports and tests could not be order-stable
across executors for any other detector):

* :meth:`distinct_races` — first occurrence per (variable, instruction
  pair), in event-stream order.  Deterministic because the merged
  stream is totally ordered (see :mod:`repro.detector.events`), and the
  order the default report renders (stream order is the order a triager
  sees the program fail in).
* :meth:`sorted_races` / :meth:`sorted_addresses` / :meth:`sorted_pairs`
  — the same findings under a total sort key, independent of stream
  arrival order, for cross-executor/cross-backend comparisons.

Ordering contract under clock uncertainty
-----------------------------------------

Backends never judge timing themselves: the event stream's *order* is
the only ordering claim they consume.  When the pipeline reconciles
clocks (:mod:`repro.clock`), each access merges at the late edge of its
uncertainty interval clamped into its thread's own sync window
(:func:`~repro.detector.events.uncertain_merge_tsc`), so cross-thread
access pairs with overlapping uncertainty arrive unordered-by-time and
are ordered only by the sync-derived happens-before edges the sync
stream encodes.  A backend therefore cannot be tricked into a false
race by a lying TSC — at worst a widened interval hides a true one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, FrozenSet, List, Mapping, Tuple

from .events import Access, RaceReport, SyncOp
from .vectorclock import VectorClock


def _race_sort_key(report: RaceReport):
    """Total order on race reports, independent of stream order."""
    return (
        report.var,
        report.pair,
        report.first_tid,
        report.second.tid,
        report.first_kind.value,
        report.second.kind.value,
    )


@dataclass(frozen=True)
class DetectionFindings:
    """Immutable findings of one backend over one event-stream pass.

    ``races`` is the distinct-race list in stream order (what reports
    render); the sorted accessors give the order-independent view.
    ``details`` carries backend-specific accounting — sample budgets for
    the O(1)-samples backend, witness-search statistics for the
    predictive backend — rendered in per-backend report sections.
    """

    backend: str
    races: Tuple[RaceReport, ...]
    racy_addresses: FrozenSet[int]
    racy_pairs: FrozenSet[Tuple[int, int]]
    accesses_processed: int
    sync_processed: int
    details: Mapping[str, object] = field(default_factory=dict)

    def sorted_races(self) -> Tuple[RaceReport, ...]:
        return tuple(sorted(self.races, key=_race_sort_key))

    def sorted_addresses(self) -> Tuple[int, ...]:
        return tuple(sorted(self.racy_addresses))

    def sorted_pairs(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(sorted(self.racy_pairs))

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary (used by reports and the shoot-out)."""
        return {
            "backend": self.backend,
            "distinct_races": len(self.races),
            "racy_addresses": [hex(a) for a in self.sorted_addresses()],
            "racy_pairs": [list(p) for p in self.sorted_pairs()],
            "accesses_processed": self.accesses_processed,
            "sync_processed": self.sync_processed,
            "details": dict(self.details),
        }


class DetectorBackend:
    """Base class of every race-detector backend.

    Feed events via :meth:`sync` and :meth:`access` in a happens-before
    consistent order (every release/fork precedes the acquire/join it
    synchronizes with; per-thread program order preserved), then call
    :meth:`finish` once.  Reports accumulate in :attr:`races`; the
    accessors below are shared by all backends and deterministic.
    """

    #: Registry name of the backend (subclasses override).
    name: ClassVar[str] = "abstract"

    def __init__(self) -> None:
        self.races: List[RaceReport] = []
        self.accesses_processed = 0
        self.sync_processed = 0

    # -- streaming protocol --------------------------------------------

    def sync(self, op: SyncOp) -> None:
        raise NotImplementedError

    def access(self, access: Access) -> None:
        raise NotImplementedError

    def feed_batch(self, batch, start: int = 0,
                   stop: int | None = None, base: int = 0) -> None:
        """Consume one pre-sorted access run of a columnar
        :class:`~repro.detector.batch.EventBatch` —
        events ``[start, stop)``, all from ``batch.tid`` with no
        intervening sync operation.

        The default materializes each event and delegates to
        :meth:`access`, so every backend accepts batches with verdicts
        bit-identical to the scalar stream; backends with a columnar
        fast path (FastTrack) override this.  *base* is ignored: it is
        kept only because the benchmark's traced run
        (``e2ebench/spans.py``) forwards it positionally, and can go
        once that caller stops passing it.
        """
        if stop is None:
            stop = len(batch)
        access = self.access
        access_at = batch.access_at
        for i in range(start, stop):
            access(access_at(i))

    def finish(self) -> DetectionFindings:
        """Finalize the pass and return immutable findings.

        Idempotent for the streaming backends; the predictive backend
        does its witness search here.
        """
        return DetectionFindings(
            backend=self.name,
            races=tuple(self.distinct_races()),
            racy_addresses=self.racy_addresses(),
            racy_pairs=self.racy_pairs(),
            accesses_processed=self.accesses_processed,
            sync_processed=self.sync_processed,
            details=self._details(),
        )

    def _details(self) -> Dict[str, object]:
        """Backend-specific accounting for reports (override freely)."""
        return {}

    # -- shared findings accessors -------------------------------------

    def distinct_races(self) -> List[RaceReport]:
        """Races deduplicated by (variable address, instruction pair),
        first occurrence kept, in event-stream order."""
        seen = set()
        result = []
        for report in self.races:
            key = (report.address, report.pair)
            if key not in seen:
                seen.add(key)
                result.append(report)
        return result

    def sorted_races(self) -> List[RaceReport]:
        """The distinct races under a total, stream-order-independent
        sort key — identical across executors and backends that agree."""
        return sorted(self.distinct_races(), key=_race_sort_key)

    def racy_addresses(self) -> FrozenSet[int]:
        return frozenset(r.address for r in self.races)

    def racy_pairs(self) -> FrozenSet[Tuple[int, int]]:
        return frozenset(r.pair for r in self.races)

    def sorted_addresses(self) -> Tuple[int, ...]:
        return tuple(sorted(self.racy_addresses()))

    def sorted_pairs(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(sorted(self.racy_pairs()))


class HBDetectorBackend(DetectorBackend):
    """Shared machinery of the happens-before backends: per-thread and
    per-lock vector clocks, and the sync-operation semantics (§4.3).

    FastTrack, the reference detector and the O(1)-samples detector all
    build the same HB relation from the sync stream and differ only in
    the per-variable access metadata they keep — so the relation lives
    here exactly once.
    """

    def __init__(self) -> None:
        super().__init__()
        self._threads: Dict[int, VectorClock] = {}
        self._locks: Dict[int, VectorClock] = {}
        #: Accumulated reader-release clocks per rwlock: a writer's
        #: acquire must be ordered after *every* earlier reader.
        self._rw_readers: Dict[int, VectorClock] = {}
        #: (tid, rwlock address) -> "rd"/"wr" held mode, so the unlock
        #: event (mode-less on the wire) releases with the right
        #: semantics.
        self._rw_held: Dict[Tuple[int, int], str] = {}

    def _clock(self, tid: int) -> VectorClock:
        clock = self._threads.get(tid)
        if clock is None:
            clock = VectorClock({tid: 1})
            self._threads[tid] = clock
        return clock

    def _lock_vc(self, address: int) -> VectorClock:
        vc = self._locks.get(address)
        if vc is None:
            vc = VectorClock()
            self._locks[address] = vc
        return vc

    def sync(self, op: SyncOp) -> None:
        self.sync_processed += 1
        kind = op.kind
        if kind in ("lock", "sem_wait", "cond_wake"):
            self._clock(op.tid).join(self._lock_vc(op.target))
        elif kind == "unlock":
            clock = self._clock(op.tid)
            self._locks[op.target] = clock.copy()
            clock.increment(op.tid)
        elif kind in ("sem_post", "cond_signal"):
            # Semaphores accumulate: every later wait is ordered after
            # every earlier post (conservative for counting semantics).
            clock = self._clock(op.tid)
            self._lock_vc(op.target).join(clock)
            clock.increment(op.tid)
        elif kind == "rwlock_rd":
            # Readers are ordered after the last write release only.
            self._clock(op.tid).join(self._lock_vc(op.target))
            self._rw_held[(op.tid, op.target)] = "rd"
        elif kind == "rwlock_wr":
            # A writer is ordered after the last write release *and*
            # after every reader release since.
            clock = self._clock(op.tid)
            clock.join(self._lock_vc(op.target))
            readers = self._rw_readers.get(op.target)
            if readers is not None:
                clock.join(readers)
            self._rw_held[(op.tid, op.target)] = "wr"
        elif kind == "rwlock_unlock":
            clock = self._clock(op.tid)
            # Sampled streams can miss the acquire; defaulting the mode
            # to "wr" creates (conservative) extra HB edges rather than
            # false races.
            mode = self._rw_held.pop((op.tid, op.target), "wr")
            if mode == "wr":
                self._locks[op.target] = clock.copy()
            else:
                readers = self._rw_readers.get(op.target)
                if readers is None:
                    readers = VectorClock()
                    self._rw_readers[op.target] = readers
                readers.join(clock)
            clock.increment(op.tid)
        elif kind == "barrier_arrive":
            # Arrivals accumulate into the barrier clock (like posts).
            clock = self._clock(op.tid)
            self._lock_vc(op.target).join(clock)
            clock.increment(op.tid)
        elif kind == "barrier_wait":
            # Releases join the accumulated arrivals: all-to-all order.
            self._clock(op.tid).join(self._lock_vc(op.target))
        elif kind == "fork":
            parent = self._clock(op.tid)
            child = self._clock(op.target)
            child.join(parent)
            parent.increment(op.tid)
        elif kind == "join":
            child = self._clock(op.target)
            self._clock(op.tid).join(child)
            child.increment(op.target)
        else:
            raise ValueError(f"unknown sync kind: {kind!r}")
