"""Unit tests of the streaming accumulator (synthetic event feeds).

Events go through :class:`Trace`, whose record methods feed the observer and
hold the totals its snapshot reads.
"""

from __future__ import annotations

import pytest

from repro.gridsim.network import LinkClass
from repro.gridsim.trace import Trace
from repro.obs.stats import COLLECTIVE_TAGS

INTRA_NODE = LinkClass.INTRA_NODE
INTER = LinkClass.INTER_CLUSTER


def _trace(n_ranks, **observer):
    """A streaming trace whose observer takes ``observer`` settings."""
    trace = Trace(n_ranks, streaming=True)
    for name, value in observer.items():
        setattr(trace.stats, name, value)
    return trace


def _msg(trace, *, source=0, dest=1, nbytes=100, link=INTER, tag="42",
         send=1.0, recv=2.0, wait=0.0):
    trace.record_message(source, dest, nbytes, link, tag=tag,
                         send_time=send, recv_time=recv, wait_s=wait)


class TestTrafficClasses:
    def test_collective_tags_are_split_from_p2p(self):
        trace = _trace(4)
        _msg(trace, tag="reduce")
        _msg(trace, tag="reduce")
        _msg(trace, tag="7")  # a stringified user tag: p2p
        traffic = trace.summary().stats.link_traffic
        inter = traffic[LinkClass.INTER_CLUSTER.value]
        assert inter["reduce"]["messages"] == 2
        assert inter["p2p"]["messages"] == 1

    def test_p2p_columns_are_the_link_totals_less_collectives(self):
        trace = _trace(4)
        _msg(trace, tag="bcast", nbytes=100)
        _msg(trace, tag="9", nbytes=7)
        _msg(trace, tag="bcast", nbytes=100)
        _msg(trace, tag="9", nbytes=5, link=INTRA_NODE)
        traffic = trace.summary().stats.link_traffic
        inter = traffic[INTER.value]
        assert inter["bcast"] == {"messages": 2, "nbytes": 200, "wait_s": 0.0}
        assert inter["p2p"] == {"messages": 1, "nbytes": 7, "wait_s": 0.0}
        assert traffic[INTRA_NODE.value] == {
            "p2p": {"messages": 1, "nbytes": 5, "wait_s": 0.0}
        }

    def test_known_collective_tags(self):
        assert COLLECTIVE_TAGS == {
            "barrier", "bcast", "reduce", "allgather", "gather", "scatter"
        }

    def test_wait_accumulates_into_the_traffic_column(self):
        trace = _trace(4)
        _msg(trace, wait=0.5)
        _msg(trace, wait=0.25)
        _msg(trace, wait=0.0)
        traffic = trace.summary().stats.link_traffic
        assert traffic[LinkClass.INTER_CLUSTER.value]["p2p"]["wait_s"] == 0.75


class TestHotSpots:
    def test_only_waiting_messages_register(self):
        trace = _trace(4)
        _msg(trace, wait=0.0)
        assert trace.stats.top_hotspots() == ()
        _msg(trace, wait=0.1)
        (spot,) = trace.stats.top_hotspots()
        assert (spot.source, spot.dest, spot.messages) == (0, 1, 1)

    def test_ranking_is_by_wait_then_site_key(self):
        trace = _trace(8)
        _msg(trace, source=3, dest=4, wait=0.1)
        _msg(trace, source=1, dest=2, wait=0.3)
        _msg(trace, source=5, dest=6, wait=0.3, link=INTRA_NODE)
        spots = trace.stats.top_hotspots()
        assert [(s.source, s.dest) for s in spots] == [(5, 6), (1, 2), (3, 4)]
        # Equal waits tie-break on (link index, source, dest): INTRA_NODE
        # precedes INTER_CLUSTER in the LinkClass order.
        assert INTRA_NODE.index < INTER.index

    def test_top_k_caps_the_report(self):
        trace = _trace(64, top_k=3)
        for d in range(10):
            _msg(trace, source=0, dest=d, wait=0.01 * (d + 1))
        spots = trace.stats.top_hotspots()
        assert len(spots) == 3
        assert [s.dest for s in spots] == [9, 8, 7]

    def test_site_table_overflows_into_a_sentinel(self):
        trace = _trace(64, max_sites=2, top_k=10)
        _msg(trace, source=0, dest=1, wait=0.1)
        _msg(trace, source=0, dest=2, wait=0.2)
        _msg(trace, source=0, dest=3, wait=0.4)  # table full: overflow slot
        _msg(trace, source=0, dest=4, wait=0.8)  # joins the same slot
        spots = trace.stats.top_hotspots()
        overflow = [s for s in spots if s.source == -1 and s.dest == -1]
        assert len(overflow) == 1
        assert overflow[0].wait_s == 0.4 + 0.8
        assert overflow[0].messages == 2
        # Total accounted wait is conserved despite the cap.
        assert sum(s.wait_s for s in spots) == pytest.approx(1.5)


class TestHorizon:
    def test_on_tick_is_max_only_and_geometric(self):
        stats = _trace(4).stats
        nxt = stats.on_tick(1.0)
        assert nxt == stats.next_tick == 1.0 * 1.25 + 1e-4
        stats.on_tick(0.5)  # going backwards must not lower the horizon
        assert stats.horizon == 1.0

    def test_finalize_pins_the_horizon_to_the_makespan(self):
        trace = _trace(4)
        stats = trace.stats
        _msg(trace, recv=0.25)
        stats.finalize(3.0)
        assert stats.horizon == 3.0
        stats.finalize(1.0)  # never lowers
        assert stats.horizon == 3.0

    def test_collective_edges_do_not_move_the_horizon(self):
        trace = _trace(4)
        # Tree edges record recv_time 0.0 and carry no absolute times.
        _msg(trace, tag="reduce", send=0.0, recv=0.0)
        assert trace.stats.horizon == 0.0
        assert trace.summary().stats.recv_bytes_timeline == {}
