"""Streaming statistics vs event-list recomputation (the PR's acceptance test).

The streaming layer maintains its snapshot online, with no event list.  These
tests pin the equivalence contract from three directions:

* every statistic that *can* be recomputed from a ``record_messages=True``
  event stream — latency/size histograms per link, per-kernel flop
  histograms, the received-bytes timeline, the per-link traffic totals —
  matches the online snapshot **bit for bit**;
* the statistics that events cannot reproduce (wait-derived: hot spots, the
  busy/wait timelines — the frozen event format carries neither per-receive
  wait nor flop end times) are instead pinned by recording-vs-non-recording
  equality and by golden digests of the full snapshot;
* turning streaming off yields ``stats=None`` / empty hot spots while the
  rest of the summary stays equal, and pinned traces stay bit-identical
  either way (the observer never participates in scheduling).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.dag.runtime import DAGCAQRConfig, run_dag_caqr
from repro.gridsim.executor import SPMDExecutor
from repro.obs.stats import stats_from_events
from repro.programs.caqr import CAQRConfig, caqr_program
from repro.scalapack.driver import ScaLAPACKConfig, scalapack_qr_program
from repro.tsqr.parallel import TSQRConfig, qcg_tsqr_program, run_parallel_tsqr
from tests.gridsim.test_engine_equivalence import GOLDEN_HASHES, _stats_hash

CONFIG = TSQRConfig(m=262_144, n=32, n_domains=4, tree_kind="grid-hierarchical")

#: The three SPMD factorizations of the paper, each a small virtual run.
PROGRAMS = {
    "tsqr": (qcg_tsqr_program, CONFIG),
    "caqr": (caqr_program, CAQRConfig(m=65_536, n=64, tile_size=64)),
    "scalapack": (scalapack_qr_program, ScaLAPACKConfig(m=65_536, n=64)),
}

#: Snapshot fields an event replay can reconstruct exactly.
REPLAYABLE = (
    "n_ranks",
    "horizon_s",
    "window_s",
    "latency_by_link",
    "size_by_link",
    "flops_by_kernel",
    "recv_bytes_timeline",
)


def _tsqr_run(platform, *, record=False, streaming=None):
    executor = SPMDExecutor(platform, record_messages=record, streaming_stats=streaming)
    return executor.run(qcg_tsqr_program, CONFIG)


def _spmd_run(platform, name, *, record=False):
    program, config = PROGRAMS[name]
    return SPMDExecutor(platform, record_messages=record).run(program, config)


class TestReplayEquivalence:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_online_matches_event_recomputation(self, platform8, name):
        sim = _spmd_run(platform8, name, record=True)
        online = sim.trace.stats
        assert online is not None
        replayed = stats_from_events(
            sim.events, n_ranks=platform8.n_processes, makespan=sim.makespan
        )
        for name in REPLAYABLE:
            assert getattr(online, name) == getattr(replayed, name), name

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_traffic_counts_match_event_recomputation(self, platform8, name):
        sim = _spmd_run(platform8, name, record=True)
        online = sim.trace.stats.link_traffic
        replayed = stats_from_events(
            sim.events, n_ranks=platform8.n_processes, makespan=sim.makespan
        ).link_traffic
        # The wait_s column is wait-derived (0 under replay); messages and
        # bytes must agree exactly.
        assert set(online) == set(replayed)
        for link, classes in online.items():
            assert set(classes) == set(replayed[link])
            for cls, totals in classes.items():
                assert totals["messages"] == replayed[link][cls]["messages"]
                assert totals["nbytes"] == replayed[link][cls]["nbytes"]


class TestObserverInvariance:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_recording_does_not_change_the_snapshot(self, platform8, name):
        recorded = _spmd_run(platform8, name, record=True)
        bare = _spmd_run(platform8, name, record=False)
        assert bare.trace.stats == recorded.trace.stats
        assert bare.trace.hot_spots == recorded.trace.hot_spots
        assert bare.events == []  # non-recording runs retain no event list

    def test_snapshot_matches_golden(self, platform8):
        sim = _tsqr_run(platform8)
        assert _stats_hash(sim.trace) == GOLDEN_HASHES["stats-spmd-tsqr"]

    def test_streaming_off_leaves_the_summary_equal(self, platform8):
        on = _tsqr_run(platform8, streaming=True)
        off = _tsqr_run(platform8, streaming=False)
        assert off.trace.stats is None
        assert off.trace.hot_spots == ()
        assert on.trace.stats is not None
        # stats/hot_spots are compare=False: the summaries still compare
        # equal, and the simulation itself is bit-identical.
        assert on.trace == off.trace
        assert on.makespan == off.makespan
        assert on.clocks == off.clocks

    def test_env_knob_disables_streaming(self, platform8, monkeypatch):
        monkeypatch.setenv("REPRO_STREAMING_STATS", "0")
        sim = _tsqr_run(platform8)
        assert sim.trace.stats is None
        monkeypatch.setenv("REPRO_STREAMING_STATS", "1")
        sim = _tsqr_run(platform8)
        assert sim.trace.stats is not None


class TestDagRuntime:
    CONFIG = DAGCAQRConfig(m=1024, n=256, tile_size=64)  # matrix None: virtual

    @pytest.mark.parametrize("placement", ["block", "block-cyclic", "owner-computes"])
    def test_dag_online_matches_event_recomputation(self, platform8, placement):
        config = dataclasses.replace(self.CONFIG, placement=placement)
        run = run_dag_caqr(platform8, config, record_messages=True)
        sim = run.simulation
        online = run.trace.stats
        assert online is not None
        replayed = stats_from_events(
            sim.events, n_ranks=platform8.n_processes, makespan=sim.makespan
        )
        for name in REPLAYABLE:
            assert getattr(online, name) == getattr(replayed, name), name

    def test_dag_snapshot_matches_golden(self, platform8):
        run = run_dag_caqr(platform8, self.CONFIG)
        assert _stats_hash(run.trace) == GOLDEN_HASHES["stats-dag-caqr"]


class TestSnapshotContents:
    def test_snapshot_is_populated(self, platform8):
        sim = _tsqr_run(platform8)
        stats = sim.trace.stats
        assert stats.n_ranks == platform8.n_processes
        assert stats.horizon_s == sim.makespan
        assert stats.window_s > 0.0
        assert stats.horizon_s < len(next(iter(stats.recv_bytes_timeline.values()))) * stats.window_s * 2
        assert stats.latency_by_link  # some link saw latency
        assert stats.flops_by_kernel
        total_bytes = sum(
            sum(series) for series in stats.recv_bytes_timeline.values()
        )
        assert total_bytes == sum(
            cls["nbytes"]
            for classes in stats.link_traffic.values()
            for cls in classes.values()
        ) - sum(
            # Collective tree edges (recv_time 0) are counted in traffic but
            # excluded from the timeline.
            cls["nbytes"]
            for classes in stats.link_traffic.values()
            for name, cls in classes.items()
            if name != "p2p"
        )

    def test_hotspots_are_ranked_and_consistent(self, platform8):
        sim = _tsqr_run(platform8)
        spots = sim.trace.hot_spots
        assert spots  # the hierarchical reduction must contend somewhere
        waits = [s.wait_s for s in spots]
        assert waits == sorted(waits, reverse=True)
        for s in spots:
            assert s.wait_s > 0.0
            assert s.messages > 0
            assert s.link in ("intra-node", "intra-cluster", "inter-cluster")

    def test_run_parallel_tsqr_streaming_knob(self, platform8):
        run = run_parallel_tsqr(platform8, CONFIG, streaming_stats=False)
        assert run.trace.stats is None
        run = run_parallel_tsqr(platform8, CONFIG)
        assert run.trace.stats is not None
