"""Streaming observability: fixed-memory statistics for simulations at scale.

This package is the always-on alternative to ``record_messages=True``: the
trace layer feeds :class:`~repro.obs.stats.StreamingTraceStats` from its
single-writer hot path, so latency/size percentiles, per-rank busy/wait
timelines and contention hot spots are available for *every* run — including
4096+-rank sweeps where retaining event lists is unaffordable — in memory
bounded by O(ranks x windows + histogram buckets) plus a bounded buffer of
unfolded events, independent of event count.  The statistics are built when
first read; a run whose statistics nobody reads pays one append per event.

Sub-modules:

* :mod:`repro.obs.stats` — log-bucketed histograms, hot-spot accounting,
  the :class:`~repro.obs.stats.TraceStats` snapshot, and the event-replay
  recomputation used by the equivalence tests.
* :mod:`repro.obs.timeline` — width-doubling windowed timelines in flat
  per-series arrays.
* :mod:`repro.obs.export` — Chrome-trace/Perfetto JSON and CSV emitters.
* :mod:`repro.obs.metrics` — wall-clock service-tier metrics.
"""

from repro.obs.export import (
    write_hotspots_csv,
    write_perfetto_trace,
    write_timeline_csv,
)
from repro.obs.metrics import ServiceMetrics
from repro.obs.stats import (
    COLLECTIVE_TAGS,
    HistogramSummary,
    HotSpot,
    LogHistogram,
    StreamingTraceStats,
    TraceStats,
    stats_from_events,
)
from repro.obs.timeline import WindowedTimeline

__all__ = [
    "COLLECTIVE_TAGS",
    "HistogramSummary",
    "HotSpot",
    "LogHistogram",
    "ServiceMetrics",
    "StreamingTraceStats",
    "TraceStats",
    "WindowedTimeline",
    "stats_from_events",
    "write_hotspots_csv",
    "write_perfetto_trace",
    "write_timeline_csv",
]
