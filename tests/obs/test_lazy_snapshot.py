"""The streaming snapshot is built only when read, and reads as if built eagerly.

Per event the trace only appends to the observer's pending buffer; folding
into the histograms and timelines happens when ``TraceSummary.stats`` is
first read or the buffer is full.  These tests pin that:

* the lazily built ``stats`` of SPMD TSQR, CAQR, ScaLAPACK and DAG-CAQR runs
  equal the snapshot of a run that folds after every event (the eager
  per-event accounting), and the golden digests hold either way;
* a run whose snapshot is not read never folds nor allocates its timelines;
* a summary pickles (for ``jobs > 1`` sweeps) with ``stats`` unread and
  read, and compares and digests exactly as the original.
"""

from __future__ import annotations

import pickle

import pytest

from repro.dag.runtime import DAGCAQRConfig, run_dag_caqr
from repro.gridsim.executor import SPMDExecutor
from repro.obs.stats import StreamingTraceStats
from repro.programs.caqr import CAQRConfig, caqr_program
from repro.scalapack.driver import ScaLAPACKConfig, scalapack_qr_program
from repro.tsqr.parallel import TSQRConfig, qcg_tsqr_program
from tests.gridsim.test_engine_equivalence import GOLDEN_HASHES, _stats_hash, _summary_hash

RUNS = {
    "tsqr": lambda p: SPMDExecutor(p).run(
        qcg_tsqr_program,
        TSQRConfig(m=262_144, n=32, n_domains=4, tree_kind="grid-hierarchical"),
    ).trace,
    "caqr": lambda p: SPMDExecutor(p).run(
        caqr_program, CAQRConfig(m=65_536, n=64, tile_size=64)
    ).trace,
    "scalapack": lambda p: SPMDExecutor(p).run(
        scalapack_qr_program, ScaLAPACKConfig(m=65_536, n=64)
    ).trace,
    "dag-caqr": lambda p: run_dag_caqr(p, DAGCAQRConfig(m=1024, n=256, tile_size=64)).trace,
}

#: Runs with a golden ``_stats_hash`` in ``GOLDEN_HASHES``.
GOLDEN = {"tsqr": "stats-spmd-tsqr", "dag-caqr": "stats-dag-caqr"}


def _fold_every(monkeypatch, events: int) -> None:
    """Make every observer fold as soon as ``events`` events are pending."""
    monkeypatch.setattr(StreamingTraceStats, "PENDING_PER_RANK", 0)
    monkeypatch.setattr(StreamingTraceStats, "MIN_PENDING", events)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_lazy_stats_equal_eager_per_event_folds(platform8, monkeypatch, name):
    lazy = RUNS[name](platform8)
    _fold_every(monkeypatch, 1)  # the per-event accounting of a live fold
    eager = RUNS[name](platform8)
    assert eager._observer.pending == []
    assert lazy.stats == eager.stats
    assert lazy.hot_spots == eager.hot_spots
    if name in GOLDEN:
        assert _stats_hash(eager) == _stats_hash(lazy) == GOLDEN_HASHES[GOLDEN[name]]


def test_folds_in_uneven_chunks_change_nothing(platform8, monkeypatch):
    # Also what happens to a run with many events per rank: its buffer fills
    # and folds many times before the snapshot is read.
    _fold_every(monkeypatch, 7)
    summary = RUNS["tsqr"](platform8)
    assert _stats_hash(summary) == GOLDEN_HASHES["stats-spmd-tsqr"]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_unread_snapshot_is_never_built(platform8, monkeypatch, name):
    monkeypatch.setattr(StreamingTraceStats, "MIN_PENDING", 1 << 20)
    summary = RUNS[name](platform8)
    observer = summary._observer
    assert observer.timeline is None  # no fold, no timeline arrays
    assert len(observer.pending) == summary.total_events
    assert summary.stats is not None
    assert summary._observer is None  # dropped once the snapshot is built
    assert observer.pending == []


@pytest.mark.parametrize("name", ["tsqr", "dag-caqr"])
def test_summary_pickles_with_stats_unread(platform8, name):
    summary = RUNS[name](platform8)
    copy = pickle.loads(pickle.dumps(summary))
    assert copy._observer is not None
    assert copy == summary
    assert _summary_hash(copy) == _summary_hash(summary)
    assert copy.hot_spots == summary.hot_spots
    assert copy.stats == summary.stats
    assert _stats_hash(copy) == GOLDEN_HASHES[GOLDEN[name]]


@pytest.mark.parametrize("name", ["tsqr", "dag-caqr"])
def test_summary_pickles_with_stats_read(platform8, name):
    summary = RUNS[name](platform8)
    stats = summary.stats
    copy = pickle.loads(pickle.dumps(summary))
    assert copy._observer is None
    assert copy == summary
    assert _summary_hash(copy) == _summary_hash(summary)
    assert copy.stats == stats
    assert _stats_hash(copy) == GOLDEN_HASHES[GOLDEN[name]]


def test_buffer_is_bounded_by_ranks():
    assert StreamingTraceStats(8).max_pending == StreamingTraceStats.MIN_PENDING
    per_rank = StreamingTraceStats.PENDING_PER_RANK
    assert StreamingTraceStats(1 << 16).max_pending == per_rank * (1 << 16)
