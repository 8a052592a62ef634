"""Property-based tests (hypothesis) of the streaming observer's hot spots.

``StreamingTraceStats.top_hotspots`` picks the top-K contention sites with
one ``heapq.nsmallest`` pass.  It must return exactly what the full sort on
the same key returns — ``(-wait_s, link index, source, dest)``, first K —
including when waits tie and when the site table overflows into the
``(link, -1, -1)`` sentinel sites.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gridsim.network import LinkClass
from repro.gridsim.trace import Trace
from repro.obs.stats import HotSpot, StreamingTraceStats

#: Links a message can take (self-messages are never recorded).
LINKS = [k for k in LinkClass if k is not LinkClass.SELF]

#: ``(link, source, dest, wait_s, nbytes)`` of one waiting message.
#: Few ranks and a handful of wait values make repeated sites and tied
#: totals common.
waits = st.lists(
    st.tuples(
        st.sampled_from(LINKS),
        st.integers(0, 5),
        st.integers(0, 5),
        st.sampled_from([0.125, 0.25, 0.5, 1.0, 3.0]),
        st.integers(1, 4096),
    ),
    max_size=80,
)


def _full_sort_top_k(stats: StreamingTraceStats) -> tuple[HotSpot, ...]:
    """The previous implementation: sort every site, keep the first K."""
    ranked = sorted(
        stats.sites.items(),
        key=lambda kv: (-kv[1][0], kv[0][0], kv[0][1], kv[0][2]),
    )
    return tuple(
        HotSpot(list(LinkClass)[link].value, source, dest, *vals)
        for (link, source, dest), vals in ranked[: stats.top_k]
    )


def _observer(top_k: int, max_sites: int, messages) -> StreamingTraceStats:
    """The folded observer of a trace that recorded ``messages``."""
    trace = Trace(8, streaming=True)
    trace.stats.top_k, trace.stats.max_sites = top_k, max_sites
    for link, source, dest, wait_s, nbytes in messages:
        trace.record_message(source, dest, nbytes, link, recv_time=1.0, wait_s=wait_s)
    trace.stats.fold()
    return trace.stats


@settings(max_examples=200, deadline=None)
@given(waits, st.integers(1, 12), st.integers(1, 40))
def test_heap_top_k_equals_full_sort(events, top_k, max_sites):
    stats = _observer(top_k, max_sites, events)
    assert stats.top_hotspots() == _full_sort_top_k(stats)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 8), st.integers(1, 6))
def test_ties_and_overflow_sentinels(top_k, max_sites):
    # One message per site, all with the same wait: real sites tie on
    # wait_s, and the sites past ``max_sites`` land in the (-1, -1)
    # sentinels, which tie with them when a single message overflowed.
    stats = _observer(
        top_k, max_sites,
        [(link, source, source + 1, 0.5, 8) for link in LINKS for source in range(3)],
    )
    assert any(source == -1 for _link, source, _dest in stats.sites)
    assert stats.top_hotspots() == _full_sort_top_k(stats)
