"""Execution traces: message, byte and flop accounting.

The paper's Tables I and II are statements about *counts* — number of
messages, volume of data exchanged, number of flops on the critical path.
The simulator therefore keeps, for every rank, counters broken down by link
class and kernel, and the benchmark harness compares the measured counts to
the analytic formulas of :mod:`repro.model.costs`.

**Single-writer recording.**  Under the virtual-time cooperative scheduler
exactly one rank runs at a time, on one thread, so
:meth:`Trace.record_message` / :meth:`Trace.record_flops` are never called
concurrently and take no lock.  Counters are flat lists indexed by
:attr:`LinkClass.index` and by rank, allocated once in the constructor.

Because events are appended in a single global order that is a pure function
of the simulated program, two identical runs produce identical ``events``
streams (and therefore byte-identical summaries), which the determinism
tests assert.

**Streaming statistics.**  Independently of event recording, the trace feeds
a :class:`~repro.obs.stats.StreamingTraceStats` observer from the same
single-writer hot path (``streaming=True``, the default): log-bucketed
latency/size/flop histograms, windowed busy/wait timelines and contention
hot spots, in bounded memory.  Per event the trace only appends a tuple to
the observer's pending buffer; the observer folds the buffer into its
accumulators when the hot spots or the snapshot are read or the buffer is
full.  The trace's counters are the only message/byte/flop totals; the
observer keeps what they cannot give.  :meth:`Trace.summary` hands the
observer to the :class:`TraceSummary`, which builds
:attr:`~TraceSummary.hot_spots` and :attr:`~TraceSummary.stats` only when
they are first read.  The observer never feeds back into pricing or
scheduling — pinned trace hashes are untouched — and it can be switched off
(``streaming=False`` or ``REPRO_STREAMING_STATS=0``) for overhead
measurements.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.gridsim.network import LinkClass
from repro.obs.stats import HotSpot, StreamingTraceStats, TraceStats

__all__ = ["MessageRecord", "Trace", "TraceSummary"]


def _streaming_default() -> bool:
    """Session-wide default for streaming stats (env kill switch for benches)."""
    return os.environ.get("REPRO_STREAMING_STATS", "1") not in ("0", "false", "off")


@dataclass(frozen=True)
class MessageRecord:
    """One logical message between two ranks (kept only when recording is on)."""

    source: int
    dest: int
    nbytes: int
    link: LinkClass
    tag: str
    send_time: float
    recv_time: float


@dataclass
class TraceSummary:
    """Aggregated view of a :class:`Trace`, used by reports and benchmarks."""

    n_messages: dict[str, int] = field(default_factory=dict)
    bytes_by_link: dict[str, int] = field(default_factory=dict)
    messages_per_rank_max: int = 0
    inter_cluster_messages_per_rank_max: int = 0
    total_flops: float = 0.0
    flops_per_rank_max: float = 0.0
    flops_by_kernel: dict[str, float] = field(default_factory=dict)
    #: Number of flop-charging events recorded (used by the engine
    #: benchmarks' events/s metric; not a paper quantity).
    flop_events: int = 0
    #: Seconds each rank spent computing (sum of the virtual time charged by
    #: its flop events).  Used by the per-rank utilisation breakdown of the
    #: DAG analysis layer and the sweep CSVs.
    busy_s_per_rank: tuple[float, ...] = ()
    #: Seconds each rank's clock advanced waiting for point-to-point
    #: messages (``max(0, arrival - clock)`` summed over its receives).
    #: Zero wait means the message had already arrived when the rank asked
    #: for it — communication fully hidden behind computation.
    comm_wait_s_per_rank: tuple[float, ...] = ()
    #: ``(rank, virtual death time)`` of every injected rank failure, in
    #: death order.  Empty for runs without a failure schedule, so summaries
    #: of failure-free runs compare equal to pre-fault-tolerance ones.
    rank_failures: tuple[tuple[int, float], ...] = ()
    #: The streaming observer :attr:`hot_spots` and :attr:`stats` are built
    #: from on first read (then dropped); None when streaming is off.
    _observer: StreamingTraceStats | None = field(default=None, compare=False, repr=False)
    #: Top-K hot spots, built on first read; a summary rebuilt from the
    #: persistent cache is constructed with them.
    _hot_spots: tuple[HotSpot, ...] | None = field(default=None, compare=False, repr=False)
    _stats: TraceStats | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def hot_spots(self) -> tuple[HotSpot, ...]:
        """Top-K contention sites by accumulated p2p wait time.

        Streaming observability: empty when streaming stats are off.  Not
        part of equality, so summaries round-tripped through the persistent
        cache — which serialises the spots but not the full snapshot — and
        summaries from streaming-off runs still compare equal.
        """
        if self._hot_spots is None:
            observer = self._observer
            self._hot_spots = observer.top_hotspots() if observer is not None else ()
        return self._hot_spots

    @property
    def stats(self) -> TraceStats | None:
        """Full streaming snapshot (histograms, timelines, link traffic).

        Built from the observer on first read and cached, so a run whose
        snapshot nobody reads never folds its events.  None when streaming
        is off or the summary was rebuilt from the persistent cache.
        Observer output only: not part of equality or repr, like
        :attr:`hot_spots`.  While unread, the summary pickles with its
        observer (for ``jobs > 1`` sweeps) and builds the same snapshot on
        the other side.
        """
        if self._observer is not None:
            self._stats = self._observer.snapshot(self)  # reads hot_spots too
            self._observer = None
        return self._stats

    def idle_s_per_rank(self, makespan: float) -> tuple[float, ...]:
        """Per-rank idle seconds: makespan minus compute minus p2p waits.

        "Idle" covers everything the busy/comm columns do not: time parked in
        collectives, load imbalance at the end of the run, and (for the DAG
        runtime) time with an empty ready queue.
        """
        return tuple(
            max(0.0, makespan - busy - wait)
            for busy, wait in zip(self.busy_s_per_rank, self.comm_wait_s_per_rank)
        )

    @property
    def total_messages(self) -> int:
        """Total number of point-to-point messages over all links."""
        return sum(self.n_messages.values())

    @property
    def total_events(self) -> int:
        """Messages plus flop charges: the engine's per-event workload."""
        return self.total_messages + self.flop_events

    @property
    def inter_cluster_messages(self) -> int:
        """Total number of messages crossing cluster boundaries."""
        return self.n_messages.get(LinkClass.INTER_CLUSTER.value, 0)

    @property
    def inter_cluster_bytes(self) -> int:
        """Total bytes crossing cluster boundaries."""
        return self.bytes_by_link.get(LinkClass.INTER_CLUSTER.value, 0)


class Trace:
    """Single-writer accumulator of communication and computation events.

    Parameters
    ----------
    n_ranks:
        World size of the simulation the trace belongs to.
    record_messages:
        When True, every message is kept as a :class:`MessageRecord` (useful
        for debugging and for the fine-grained tree tests); when False only
        the counters are maintained, which is what the large benchmarks use.
    streaming:
        When True (the default, overridable per-process with
        ``REPRO_STREAMING_STATS=0``), an always-on
        :class:`~repro.obs.stats.StreamingTraceStats` observer is fed inline
        from the recording hot path: histograms, windowed timelines and hot
        spots in fixed memory, independent of ``record_messages``.
    """

    def __init__(
        self,
        n_ranks: int,
        *,
        record_messages: bool = False,
        streaming: bool | None = None,
    ) -> None:
        self.n_ranks = n_ranks
        self.record_messages = record_messages
        self._streaming = _streaming_default() if streaming is None else streaming
        self.reset()

    def reset(self) -> None:
        """Clear all counters and start a fresh observer."""
        n_ranks = self.n_ranks
        self.stats: StreamingTraceStats | None = (
            StreamingTraceStats(n_ranks) if self._streaming else None
        )
        self.messages: list[MessageRecord] = []
        #: Ordered event stream: ``("message", MessageRecord)`` and
        #: ``("flops", rank, flops, kernel)`` tuples in execution order (kept
        #: only when recording is on; message events share the records of
        #: :attr:`messages` rather than duplicating them).
        self.events: list[tuple] = []
        # Flat per-link slots indexed by ``LinkClass.index``: the hot path is
        # a C-level list increment, never an enum-hashing dict lookup.
        # summary() exports only links that carried at least one message.
        self._msg_count: list[int] = [0] * len(LinkClass)
        self._bytes: list[int] = [0] * len(LinkClass)
        self._msgs_per_rank = [0] * n_ranks
        self._inter_msgs_per_rank = [0] * n_ranks
        self._flops_per_rank = [0.0] * n_ranks
        self._flops_by_kernel: dict[str, float] = {}
        self._flop_events = 0
        self._busy_s_per_rank = [0.0] * n_ranks
        self._comm_wait_s_per_rank = [0.0] * n_ranks
        #: Injected rank deaths, in death order (always kept — failures are
        #: rare and the recovery accounting needs them even when message
        #: recording is off).
        self.rank_failures: list[tuple[int, float]] = []

    # ----------------------------------------------------------- recording
    def record_message(
        self,
        source: int,
        dest: int,
        nbytes: int,
        link: LinkClass,
        *,
        tag: str = "",
        send_time: float = 0.0,
        recv_time: float = 0.0,
        wait_s: float = 0.0,
    ) -> None:
        """Account for one message from ``source`` to ``dest``.

        Self-messages (``link is LinkClass.SELF``) are free and not counted:
        MPI implementations short-circuit them and so does the paper's model.
        ``wait_s`` is the receiver-clock advance the message caused (0 when it
        had already arrived — fully-hidden communication).
        """
        if link is LinkClass.SELF:
            return
        idx = link.index
        nbytes = int(nbytes)
        self._msg_count[idx] += 1
        self._bytes[idx] += nbytes
        self._msgs_per_rank[source] += 1
        self._msgs_per_rank[dest] += 1
        if wait_s > 0.0:
            self._comm_wait_s_per_rank[dest] += wait_s
        if link is LinkClass.INTER_CLUSTER:
            self._inter_msgs_per_rank[source] += 1
            self._inter_msgs_per_rank[dest] += 1
        st = self.stats
        if st is not None:
            pending = st.pending
            pending.append((source, dest, nbytes, idx, tag, send_time, recv_time, wait_s))
            if len(pending) >= st.max_pending:
                st.fold()
        if self.record_messages:
            record = MessageRecord(
                source, dest, nbytes, link, tag, send_time, recv_time
            )
            self.messages.append(record)
            self.events.append(("message", record))

    def record_flops(
        self,
        rank: int,
        flops: float,
        kernel: str = "unknown",
        seconds: float = 0.0,
        end_time: float | None = None,
    ) -> None:
        """Account for ``flops`` floating-point operations executed by ``rank``.

        ``seconds`` is the virtual time those flops took on the rank's clock
        (the busy-time component of the per-rank utilisation breakdown).
        ``end_time`` is the rank's clock when the charge completed; it only
        places the charge on the streaming busy timeline (None leaves the
        timeline untouched) and is deliberately absent from the pinned event
        tuple format.
        """
        if flops <= 0:
            return
        flops = float(flops)
        self._flops_per_rank[rank] += flops
        self._busy_s_per_rank[rank] += seconds
        kernels = self._flops_by_kernel
        kernels[kernel] = kernels.get(kernel, 0.0) + flops
        self._flop_events += 1
        st = self.stats
        if st is not None:
            pending = st.pending
            pending.append((rank, flops, kernel, seconds, end_time))
            if len(pending) >= st.max_pending:
                st.fold()
        if self.record_messages:
            self.events.append(("flops", rank, flops, kernel))

    def record_rank_failure(self, rank: int, time: float) -> None:
        """Record the injected death of ``rank`` at virtual ``time``."""
        self.rank_failures.append((rank, time))
        if self.record_messages:
            self.events.append(("rank_failure", rank, time))

    def finalize(self, makespan: float) -> None:
        """Pin the streaming horizon to the run's makespan.

        Called by the executor once every rank has finished, so the
        timeline snapshot width is a pure function of the makespan —
        identical across recording modes regardless of how often the
        scheduler ticked.
        """
        if self.stats is not None:
            self.stats.finalize(makespan)

    # ------------------------------------------------------------- queries
    def message_count(self, link: LinkClass | None = None) -> int:
        """Number of messages, optionally restricted to one link class."""
        if link is None:
            return sum(self._msg_count)
        return self._msg_count[link.index]

    def bytes_sent(self, link: LinkClass | None = None) -> int:
        """Bytes moved, optionally restricted to one link class."""
        if link is None:
            return sum(self._bytes)
        return self._bytes[link.index]

    def flops(self, rank: int | None = None) -> float:
        """Flops executed by one rank, or by all ranks when ``rank`` is None."""
        if rank is None:
            return float(sum(self._flops_per_rank))
        return self._flops_per_rank[rank]

    def summary(self) -> TraceSummary:
        """Aggregate the finished trace.

        Taken once, when the run is over: the summary keeps the streaming
        observer and builds its hot spots and snapshot from it on first
        read, so events recorded after that read are not in them.
        """
        # Export only links that carried messages.
        links = [k for k in LinkClass if self._msg_count[k.index]]
        return TraceSummary(
            n_messages={k.value: self._msg_count[k.index] for k in links},
            bytes_by_link={k.value: self._bytes[k.index] for k in links},
            messages_per_rank_max=max(self._msgs_per_rank, default=0),
            inter_cluster_messages_per_rank_max=max(self._inter_msgs_per_rank, default=0),
            total_flops=float(sum(self._flops_per_rank)),
            flops_per_rank_max=float(max(self._flops_per_rank, default=0.0)),
            flops_by_kernel=dict(self._flops_by_kernel),
            flop_events=self._flop_events,
            busy_s_per_rank=tuple(self._busy_s_per_rank),
            comm_wait_s_per_rank=tuple(self._comm_wait_s_per_rank),
            rank_failures=tuple(self.rank_failures),
            _observer=self.stats,
        )
