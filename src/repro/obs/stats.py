"""Streaming trace statistics: fixed-memory observability for simulations.

The trace layer's counters (:class:`~repro.gridsim.trace.TraceSummary`) answer
the paper's Table I/II questions — totals of messages, bytes and flops — but
nothing distributional: no latency percentiles, no per-window utilisation, no
notion of *where* the waiting happened.  Historically those questions required
``record_messages=True`` and a post-hoc pass over millions of event tuples,
which is exactly what large sweeps cannot afford.

This module provides the always-on alternative: :class:`StreamingTraceStats`
is fed by the single-writer hot path of
:meth:`~repro.gridsim.trace.Trace.record_message` /
:meth:`~repro.gridsim.trace.Trace.record_flops` and maintains

* **log-bucketed histograms** (factor-of-two buckets) of message latency and
  size per link class and of flop-charge magnitude per kernel — O(log range)
  memory, exact integer bucket counts, p50/p95/p99 read off the CDF;
* **windowed timelines** of per-rank busy seconds, comm-wait seconds and
  received bytes in a fixed number of virtual-time windows whose width doubles
  as the horizon grows (see :mod:`repro.obs.timeline`);
* **contention hot spots**: accumulated wait seconds per
  ``(link class, source, dest)`` site, the top-K of which surface in
  ``TraceSummary.hot_spots``;
* **per-(link, traffic-class) totals** separating collective phases
  (barrier/bcast/reduce/...) from point-to-point traffic.

**Pay when read.**  Per event the hot path appends one tuple to the
observer's bounded pending buffer.  :meth:`StreamingTraceStats.fold` replays
the buffer into the accumulators when the hot spots or the snapshot are
first read (``TraceSummary.hot_spots`` / ``TraceSummary.stats``) or when the
buffer holds about as much as the timelines would; the timeline arrays are
allocated at the first fold.  A run whose statistics nobody reads pays for
the appends and, if it has many events per rank, for folds as it goes;
memory stays O(ranks x windows + histogram buckets), with no event list.

Everything is a pure *observer*: the statistics never feed back into
scheduling or pricing, so pinned trace hashes are unaffected.

Determinism: under the cooperative scheduler the record calls arrive in a
single global order that is a pure function of the simulated program, and
folds replay that order exactly, so two identical runs (with or without
event recording, whenever their folds happen) produce bit-identical
snapshots.  The bucket transforms (``int.bit_length``, ``math.frexp``) and
the integer bucket counts are exact; the windowed timelines fold by exact
index halving (see :mod:`repro.obs.timeline`), so the same guarantee extends
to them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from math import frexp
from typing import TYPE_CHECKING

from repro.gridsim.network import LinkClass
from repro.obs.timeline import WindowedTimeline

if TYPE_CHECKING:
    from repro.gridsim.trace import TraceSummary

__all__ = [
    "COLLECTIVE_TAGS",
    "HistogramSummary",
    "HotSpot",
    "LogHistogram",
    "StreamingTraceStats",
    "TraceStats",
    "stats_from_events",
]

#: Tags the communicator's collective edge recorders use; anything else is a
#: point-to-point tag (stringified user tags).
COLLECTIVE_TAGS = frozenset(
    {"barrier", "bcast", "reduce", "allgather", "gather", "scatter"}
)


class LogHistogram:
    """Power-of-two-bucketed histogram with exact integer counts.

    Bucket ``i`` holds values in ``[2**(i-1), 2**i)``; the index is
    ``math.frexp(x)[1]`` for floats and ``x.bit_length()`` for non-negative
    integers (the two agree on common magnitudes).  Buckets live in a plain
    dict keyed by exponent, so any magnitude — including sub-second latencies
    with negative exponents — is representable without clamping.  The
    observation count is the sum of the bucket counts, not a counter of its
    own.  This class serves cold paths such as the service metrics;
    :meth:`StreamingTraceStats.fold` keeps bare bucket dicts.
    """

    __slots__ = ("counts", "total")

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.total = 0.0

    @property
    def n(self) -> int:
        return sum(self.counts.values())

    def add(self, value: float) -> None:
        """Record one observation (non-positive values land in bucket 0)."""
        if isinstance(value, int):
            i = value.bit_length() if value > 0 else 0
        else:
            i = frexp(value)[1] if value > 0.0 else 0
        counts = self.counts
        counts[i] = counts.get(i, 0) + 1
        self.total += value

    def freeze(self) -> HistogramSummary:
        """Immutable snapshot with deterministic (sorted) bucket order."""
        return HistogramSummary.of(self.counts, self.total)


@dataclass(frozen=True)
class HistogramSummary:
    """Frozen view of a :class:`LogHistogram`.

    ``buckets`` is a sorted tuple of ``(exponent, count)`` pairs; bucket
    ``e`` covers ``[2**(e-1), 2**e)``.  Quantiles return the *upper edge* of
    the bucket containing the requested rank, so they are conservative to at
    most a factor of two — the resolution the paper-scale sweeps need.
    """

    buckets: tuple[tuple[int, int], ...] = ()
    n: int = 0
    total: float = 0.0

    @classmethod
    def of(cls, counts: dict[int, int], total: float) -> HistogramSummary:
        """Freeze bucket ``counts`` (exponent -> count) with their ``total``."""
        return cls(buckets=tuple(sorted(counts.items())), n=sum(counts.values()), total=total)

    def quantile(self, q: float) -> float:
        """Upper bucket edge at cumulative fraction ``q`` (0 for empty)."""
        if self.n <= 0:
            return 0.0
        target = q * self.n
        seen = 0
        for exponent, count in self.buckets:
            seen += count
            if seen >= target:
                return 2.0 ** exponent
        return 2.0 ** self.buckets[-1][0]

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    @property
    def max_edge(self) -> float:
        """Upper edge of the highest occupied bucket."""
        return 2.0 ** self.buckets[-1][0] if self.buckets else 0.0

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "total": self.total,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max_edge,
            "buckets": [list(b) for b in self.buckets],
        }


@dataclass(frozen=True)
class HotSpot:
    """One contention site: wait time accumulated at a receiving rank pair.

    ``source``/``dest`` are world ranks; the sentinel pair ``(-1, -1)`` is the
    overflow site that absorbs accounting once the per-run site table reaches
    its cap (so memory stays bounded on adversarial traffic patterns).
    ``messages`` and ``nbytes`` count only the messages that actually caused
    waiting — fully-hidden traffic never registers here.
    """

    link: str
    source: int
    dest: int
    wait_s: float
    messages: int
    nbytes: int

    def as_dict(self) -> dict:
        return {
            "link": self.link,
            "source": self.source,
            "dest": self.dest,
            "wait_s": self.wait_s,
            "messages": self.messages,
            "nbytes": self.nbytes,
        }


@dataclass(frozen=True, eq=True)
class TraceStats:
    """Immutable snapshot of a run's streaming statistics.

    Built on first read of ``TraceSummary.stats`` of a live simulation
    (``None`` for summaries rebuilt from the persistent cache — the windows
    are not serialised, only the top-K hot spots are).  Excluded from
    ``TraceSummary`` equality so cached round-trips still compare equal.
    """

    n_ranks: int = 0
    #: Largest virtual time observed (pinned to the makespan at finalize).
    horizon_s: float = 0.0
    #: Width of one timeline window in the normalised snapshot.
    window_s: float = 0.0
    latency_by_link: dict[str, HistogramSummary] = field(default_factory=dict)
    size_by_link: dict[str, HistogramSummary] = field(default_factory=dict)
    flops_by_kernel: dict[str, HistogramSummary] = field(default_factory=dict)
    #: rank -> per-window busy seconds (only ranks with any activity).
    busy_timeline: dict[int, tuple[float, ...]] = field(default_factory=dict)
    #: rank -> per-window p2p wait seconds.
    wait_timeline: dict[int, tuple[float, ...]] = field(default_factory=dict)
    #: rank -> per-window received bytes (exact integers).
    recv_bytes_timeline: dict[int, tuple[int, ...]] = field(default_factory=dict)
    #: link -> traffic class ("p2p" or a collective tag) ->
    #: {"messages", "nbytes", "wait_s"} totals.
    link_traffic: dict[str, dict[str, dict]] = field(default_factory=dict)
    hot_spots: tuple[HotSpot, ...] = ()

    def as_dict(self) -> dict:
        return {
            "n_ranks": self.n_ranks,
            "horizon_s": self.horizon_s,
            "window_s": self.window_s,
            "latency_by_link": {
                k: v.as_dict() for k, v in self.latency_by_link.items()
            },
            "size_by_link": {k: v.as_dict() for k, v in self.size_by_link.items()},
            "flops_by_kernel": {
                k: v.as_dict() for k, v in self.flops_by_kernel.items()
            },
            "busy_timeline": {str(r): list(v) for r, v in self.busy_timeline.items()},
            "wait_timeline": {str(r): list(v) for r, v in self.wait_timeline.items()},
            "recv_bytes_timeline": {
                str(r): list(v) for r, v in self.recv_bytes_timeline.items()
            },
            "link_traffic": self.link_traffic,
            "hot_spots": [h.as_dict() for h in self.hot_spots],
        }


class StreamingTraceStats:
    """Bounded-memory streaming statistics of one trace, built when read.

    :meth:`~repro.gridsim.trace.Trace.record_message` and
    :meth:`~repro.gridsim.trace.Trace.record_flops` append each event as a
    tuple to :attr:`pending`, and :meth:`fold` replays the pending events,
    in arrival order, into the histograms, traffic totals, contention sites
    and windowed timelines.  Folding happens when the hot spots or the
    snapshot are read or when :attr:`max_pending` events have piled up, so
    memory stays bounded and a shorter run whose statistics nobody reads
    never folds at all.  Replay in arrival order makes the result
    independent of when the folds happen.

    Nothing the trace already counts is counted again: histograms hold only
    bucket counts (a histogram's ``n`` is their sum); the size and flop
    histogram totals, and the message and byte columns of point-to-point
    traffic, are the trace's per-link and per-kernel totals, which
    :meth:`snapshot` reads from the summary.  :meth:`on_tick` only advances
    the time horizon (a max), so the dispatch pattern cannot perturb the
    snapshot; the executor's :meth:`finalize` pins the horizon regardless.
    """

    #: :attr:`max_pending` is this many events per rank (less memory than
    #: the rank's timeline row), and at least :attr:`MIN_PENDING`.  A
    #: virtual TSQR run records about three events per rank.
    PENDING_PER_RANK = 4
    MIN_PENDING = 1024

    def __init__(
        self,
        n_ranks: int,
        *,
        n_windows: int = 64,
        base_window_s: float = 1e-6,
        top_k: int = 8,
        max_sites: int = 65536,
    ) -> None:
        self.n_ranks = n_ranks
        self.n_windows = n_windows
        self.base_window_s = base_window_s
        self.top_k = top_k
        self.max_sites = max_sites
        self.horizon = 0.0
        #: Next virtual time at which the scheduler should call
        #: :meth:`on_tick`; geometric stride keeps the tick count
        #: logarithmic in the makespan.
        self.next_tick = 0.0
        #: Unfolded events: ``(rank, flops, kernel, seconds, end_time)`` and
        #: ``(source, dest, nbytes, link index, tag, send_time, recv_time,
        #: wait_s)`` tuples in arrival order.
        self.pending: list[tuple] = []
        #: Pending events that trigger a fold (an instance attribute: the hot
        #: path reads it per event).
        self.max_pending = max(self.MIN_PENDING, self.PENDING_PER_RANK * n_ranks)
        # Folded accumulators.  Bucket counts (exponent -> count) per link
        # index and per kernel; the timeline is allocated at the first fold.
        self.size_counts: list[dict[int, int]] = [{} for _ in LinkClass]
        self.latency_counts: list[dict[int, int]] = [{} for _ in LinkClass]
        self.latency_total = [0.0] * len(LinkClass)
        self.flop_counts: dict[str, dict[int, int]] = {}
        self.timeline: WindowedTimeline | None = None
        #: (link index, collective tag) -> [messages, nbytes, wait_s].
        self.collectives: dict[tuple[int, str], list] = {}
        #: Point-to-point wait seconds per link index.
        self.p2p_wait = [0.0] * len(LinkClass)
        #: (link index, source, dest) -> [wait_s, messages, nbytes]; only
        #: messages with wait_s > 0 are accounted, capped at ``max_sites``
        #: entries with an overflow site ``(link, -1, -1)`` per link.
        self.sites: dict[tuple[int, int, int], list] = {}

    def fold(self) -> None:
        """Replay the pending events into the accumulators, in arrival order."""
        if self.timeline is None:
            self.timeline = WindowedTimeline(
                self.n_ranks, n_windows=self.n_windows, base_s=self.base_window_s
            )
        tl = self.timeline
        busy, wait, received = tl.busy, tl.wait, tl.nbytes
        sites = self.sites
        horizon = self.horizon
        for event in self.pending:
            if len(event) == 5:
                rank, flops, kernel, seconds, end_time = event
                counts = self.flop_counts.get(kernel)
                if counts is None:
                    counts = self.flop_counts[kernel] = {}
                i = frexp(flops)[1]
                counts[i] = counts.get(i, 0) + 1
                if end_time is not None and seconds > 0.0:
                    busy[tl.slot(rank, end_time)] += seconds
                    if end_time > horizon:
                        horizon = end_time
                continue
            source, dest, nbytes, idx, tag, send_time, recv_time, wait_s = event
            counts = self.size_counts[idx]
            i = nbytes.bit_length()
            counts[i] = counts.get(i, 0) + 1
            if recv_time > send_time:
                latency = recv_time - send_time
                counts = self.latency_counts[idx]
                i = frexp(latency)[1]
                counts[i] = counts.get(i, 0) + 1
                self.latency_total[idx] += latency
            ent = None
            if tag in COLLECTIVE_TAGS:
                ent = self.collectives.get((idx, tag))
                if ent is None:
                    ent = self.collectives[idx, tag] = [0, 0, 0.0]
                ent[0] += 1
                ent[1] += nbytes
            if recv_time > 0.0 or wait_s > 0.0:
                # Bytes and wait share the window at ``recv_time``.
                # Collective tree edges carry no absolute times (recv_time
                # 0.0) and stay off the bytes timeline, as an event replay
                # would have them.
                j = tl.slot(dest, recv_time)
                if recv_time > 0.0:
                    received[j] += nbytes
                    if recv_time > horizon:
                        horizon = recv_time
                if wait_s > 0.0:
                    wait[j] += wait_s
                    if ent is None:
                        self.p2p_wait[idx] += wait_s
                    else:
                        ent[2] += wait_s
                    key = (idx, source, dest)
                    site = sites.get(key)
                    if site is None:
                        if len(sites) >= self.max_sites:
                            key = (idx, -1, -1)
                            site = sites.get(key)
                        if site is None:
                            site = sites[key] = [0.0, 0, 0]
                    site[0] += wait_s
                    site[1] += 1
                    site[2] += nbytes
        self.horizon = horizon
        self.pending.clear()

    def on_tick(self, now: float) -> float:
        """Advance the horizon from the scheduler; returns the next tick time.

        Max-only and therefore insensitive to how often it is called — any
        divergence in tick patterns washes out because :meth:`finalize`
        pins the horizon to the makespan.
        """
        if now > self.horizon:
            self.horizon = now
        nxt = now * 1.25 + 1e-4
        self.next_tick = nxt
        return nxt

    # ---------------------------------------------------------- aggregation
    def finalize(self, makespan: float) -> None:
        """Pin the horizon to the run's makespan (called by the executor)."""
        if makespan > self.horizon:
            self.horizon = makespan

    def top_hotspots(self) -> tuple[HotSpot, ...]:
        """Top-K contention sites by accumulated wait, deterministic order.

        One ``heapq.nsmallest`` pass over the site table (after a
        :meth:`fold`): the same K sites, in the same order, as a full sort
        on the same key.
        """
        self.fold()
        link_names = [k.value for k in LinkClass]
        ranked = heapq.nsmallest(
            self.top_k,
            self.sites.items(),
            key=lambda kv: (-kv[1][0], kv[0][0], kv[0][1], kv[0][2]),
        )
        return tuple(
            HotSpot(link_names[link_idx], source, dest, *vals)
            for (link_idx, source, dest), vals in ranked
        )

    def snapshot(self, totals: TraceSummary) -> TraceStats:
        """Fold, then freeze every accumulator into a :class:`TraceStats`.

        ``totals`` is the summary of the trace that fed this observer: its
        per-link message and byte counts, per-kernel flops and top-K hot
        spots complete what the observer does not count itself.  A float
        sum of integer byte counts is exact below 2**53 bytes, so
        ``float(bytes)`` equals a running float total of the sizes.
        """
        self.fold()
        link_names = [k.value for k in LinkClass]
        # Point-to-point traffic is whatever the collectives leave of the
        # trace's per-link totals.
        rows = dict(self.collectives)
        for link_idx, link in enumerate(link_names):
            collective = [ent for (i, _), ent in self.collectives.items() if i == link_idx]
            messages = totals.n_messages.get(link, 0) - sum(e[0] for e in collective)
            if messages:
                nbytes = totals.bytes_by_link[link] - sum(e[1] for e in collective)
                rows[link_idx, "p2p"] = (messages, nbytes, self.p2p_wait[link_idx])
        traffic: dict[str, dict[str, dict]] = {}
        for (link_idx, tag), (messages, nbytes, wait_s) in sorted(rows.items()):
            traffic.setdefault(link_names[link_idx], {})[tag] = {
                "messages": messages,
                "nbytes": nbytes,
                "wait_s": wait_s,
            }
        busy, wait, recv_bytes = self.timeline.snapshot(self.horizon)
        return TraceStats(
            n_ranks=self.n_ranks,
            horizon_s=self.horizon,
            window_s=self.timeline.snapshot_width(self.horizon),
            latency_by_link={
                link: HistogramSummary.of(counts, total)
                for link, counts, total in zip(
                    link_names, self.latency_counts, self.latency_total
                )
                if counts
            },
            size_by_link={
                link: HistogramSummary.of(counts, float(totals.bytes_by_link[link]))
                for link, counts in zip(link_names, self.size_counts)
                if counts
            },
            flops_by_kernel={
                kernel: HistogramSummary.of(counts, totals.flops_by_kernel[kernel])
                for kernel, counts in sorted(self.flop_counts.items())
            },
            busy_timeline=busy,
            wait_timeline=wait,
            recv_bytes_timeline=recv_bytes,
            link_traffic=traffic,
            hot_spots=totals.hot_spots,
        )


def stats_from_events(events, *, n_ranks: int, makespan: float) -> TraceStats:
    """Recompute streaming statistics from a ``record_messages=True`` stream.

    Replays the event tuples through a fresh
    :class:`~repro.gridsim.trace.Trace` — the *same* recording and observer
    code path as a live run — so every statistic derivable from the retained
    events (latency and size histograms, per-kernel flop histograms, the
    received-bytes timeline and the per-link traffic counts) matches the
    online snapshot bit for bit (the equivalence test asserts this).

    Event tuples do not carry per-receive wait times or flop end times (the
    pinned event format predates this layer), so the wait-derived statistics
    — hot spots, the wait and busy timelines, the ``wait_s`` traffic column —
    come back empty here; the equivalence suite covers those by comparing
    recording against non-recording runs and by golden snapshot digests.
    """
    from repro.gridsim.trace import Trace  # the trace module imports this one

    trace = Trace(n_ranks, streaming=True)
    for event in events:
        kind = event[0]
        if kind == "message":
            rec = event[1]
            trace.record_message(
                rec.source,
                rec.dest,
                rec.nbytes,
                rec.link,
                tag=rec.tag,
                send_time=rec.send_time,
                recv_time=rec.recv_time,
            )
        elif kind == "flops":
            trace.record_flops(event[1], event[2], event[3])
    trace.finalize(makespan)
    return trace.summary().stats
