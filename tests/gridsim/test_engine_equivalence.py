"""Golden-value and determinism suite for the simulation engine.

Every simulation is a pure function of its program and platform: the same
ordered event stream, final clocks, makespan, trace summary and per-rank
results on every run.  These tests pin that contract with hard-coded
golden values:

* SPMD TSQR (with and without ``want_q``) and SPMD CAQR runs, DAG Cholesky
  and LU, the probe / ``yield_turn`` interleaving and the full deadlock
  wait graph (golden digests captured while a second, thread-per-rank
  backend still existed and agreed with this engine on every value);
* the registry refactor contract: the generic graph builder emits tiled-QR
  graphs *identical* (task ids, edges, handles, wire sizes — hard-coded
  golden fingerprints captured from the hand-written builder it replaced)
  and the runtime's event streams and summaries stay bit-identical (golden
  trace hashes, all placements x priorities);
* repeated runs in one process share no state;
* there is one engine: ranks run on the caller's thread, no run starts a
  thread, and no entry point takes an ``engine=`` option;
* ``jobs=1`` vs ``jobs=N`` figure sweeps, and event streams produced in a
  worker process vs the parent process.

The failure-schedule, recovery and streaming-snapshot pins live in
:data:`GOLDEN_HASHES` too and are checked by ``test_failures.py``,
``tests/dag/test_recovery.py`` and ``tests/obs/test_streaming_equivalence.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import inspect
import json
import multiprocessing
import threading

import pytest

from repro.exceptions import DeadlockError
from repro.dag.runtime import DAGCAQRConfig, run_dag_caqr
from repro.gridsim.executor import SimulationResult, SPMDExecutor, run_spmd
from repro.programs.caqr import CAQRConfig, run_parallel_caqr
from repro.tsqr.parallel import TSQRConfig, run_parallel_tsqr

CONFIG = TSQRConfig(m=262_144, n=32, n_domains=4, tree_kind="grid-hierarchical")
CAQR_CONFIG = CAQRConfig(m=65_536, n=64, tile_size=64)


def _event_hash(sim: SimulationResult) -> str:
    """Canonical digest of a run's ordered event stream and final clocks."""
    payload = repr((sim.events, sim.clocks, sim.makespan)).encode()
    return hashlib.sha256(payload).hexdigest()


def _digest(obj) -> str:
    """sha256 of ``obj`` as canonical JSON (sorted keys, round-trip floats)."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _summary_hash(summary) -> str:
    """Digest of the :class:`TraceSummary` fields that take part in equality."""
    return _digest(
        {f.name: getattr(summary, f.name) for f in dataclasses.fields(summary) if f.compare}
    )


def _run_hash(sim: SimulationResult) -> str:
    """Digest of a run: event stream, clocks, makespan and trace summary."""
    return _digest([_event_hash(sim), _summary_hash(sim.trace)])


def _stats_hash(summary) -> str:
    """Digest of the streaming snapshot and the top-K hot spots."""
    return _digest([summary.stats.as_dict(), [h.as_dict() for h in summary.hot_spots]])


def _run(platform) -> SimulationResult:
    from repro.tsqr.parallel import qcg_tsqr_program

    return SPMDExecutor(platform, record_messages=True).run(qcg_tsqr_program, CONFIG)


class TestRepeatedRunsShareNoState:
    def test_three_consecutive_runs_identical(self, platform8):
        runs = [_run(platform8) for _ in range(3)]
        hashes = {_event_hash(sim) for sim in runs}
        assert len(hashes) == 1
        assert runs[0].events == runs[1].events == runs[2].events
        assert runs[0].trace == runs[1].trace == runs[2].trace

    def test_interleaved_configs_do_not_leak(self, platform8):
        """A different simulation between two identical ones changes nothing."""
        before = _run(platform8)
        other = run_parallel_tsqr(
            platform8,
            TSQRConfig(m=131_072, n=16, n_domains=8, tree_kind="binary"),
            record_messages=True,
        ).simulation
        after = _run(platform8)
        assert other.events != before.events  # actually a different schedule
        assert _event_hash(before) == _event_hash(after)


def _graph_fingerprint(graph) -> str:
    """Canonical digest of a graph's full structure: handles, tasks, edges."""
    parts = [
        ("kind", graph.kind),
        ("n_groups", graph.n_groups),
        (
            "handles",
            tuple(zip(graph.handle_keys, graph.handle_shapes, graph.handle_nbytes)),
        ),
    ]
    for t in graph.tasks:
        parts.append(
            (
                t.id, t.kernel, t.kernel_class, t.k, t.i, t.i2, t.j,
                t.flops, t.width, t.host_row,
                t.reads, t.read_producers, t.writes, t.write_nbytes,
                tuple(graph.preds[t.id]),
            )
        )
    return hashlib.sha256(repr(parts).encode()).hexdigest()


#: Golden fingerprints of the hand-written tiled-QR builder the generic
#: registry-driven builder replaced, captured immediately before the swap.
#: A drift in any task id, edge, handle key/shape or wire size fails here.
GRAPH_FINGERPRINTS = [
    ((('m', 96), ('n', 96), ('n_groups', 3), ('panel_tree', 'binary'), ('tile_size', 16)),
     '58f3e35dabad0f7d2dbff107651898cd826e8160e1eb9788cda1d4cbc37c016a'),
    ((('m', 64), ('n', 32), ('n_groups', 2), ('panel_tree', 'flat'), ('tile_size', 16)),
     '17d65341a6e654d0415e54e0554a6a275517915b6f4102909f4cbbcdd4dc4ff0'),
    ((('m', 200), ('n', 56), ('n_groups', 4), ('panel_tree', 'binary'), ('tile_size', 8)),
     '765f0264ef964cad6f5ba2b959ec1d9021e0fc0e1691202eece55af850dc85d3'),
    ((('group_clusters', (0, 0, 1, 1)), ('m', 200), ('n', 56), ('n_groups', 4), ('panel_tree', 'grid-hierarchical'), ('tile_size', 8)),
     'a557345fc969e8483466c6d40ef2384578069c64c731fe7b5919449aaae05478'),
    ((('m', 4096), ('n', 96), ('n_groups', 8), ('panel_tree', 'binary'), ('tile_size', 32)),
     '48204dc3cbeb73a94551f24a775e5802246f16c68b9537cf0dfb989dcb8b5d29'),
    ((('m', 33), ('n', 17), ('n_groups', 1), ('panel_tree', 'flat'), ('tile_size', 5)),
     '437381051527d3eb61ca7a57f32e86b96bd541bf6d4f4f48f35b7556e36d594d'),
]

#: Golden event-stream hashes of ``DAGCAQRConfig(m=32768, n=96, tile_size=32)``
#: on the 8-rank test platform, captured from the pre-refactor runtime: the
#: registry swap must not move a single event, under any placement x priority.
TRACE_HASHES = [
    (('block', 'critical-path'), 'cd79c27802ee292c61039992de2a0f50cacee65de9ab0ecf4a2548762c12c91b'),
    (('block', 'panel'), '420ef39d8ba26bf713677d611d02ae14423ffdd84e5af924d5d6830e50914488'),
    (('block', 'fifo'), 'c092e74003caae95860faa68513b311f53d00cbe45a73227b10054758a9fc6f0'),
    (('block-cyclic', 'critical-path'), 'e3dace64f29b9b15082008332656fde0b885b240df7d9c5acfad35c8ce6fc2a2'),
    (('block-cyclic', 'panel'), '96f4e2b34820ddfdf94bde3e7b646e1ddd6363f71a6a0adcf623da765fdf2e03'),
    (('block-cyclic', 'fifo'), 'aba463589fd3b68b311453af745985f2e6e5aed957987a5dcc07bbcf260ae684'),
    (('owner-computes', 'critical-path'), '8b0a57873b175eef7e93b0a3a158d8cdc51d18d55773a1d7610d08ca4bd8db81'),
    (('owner-computes', 'panel'), '7e36fda2d4b2f08707105963acd02fc3e7dbf45e7068fbe7caea5747d9a8388c'),
    (('owner-computes', 'fifo'), 'ce1ae3eb6132db06328810a5dabb650530a5a6bd2ec63ee8f5e36d2073328c2d'),
]

#: Golden ``_summary_hash`` of the same nine runs' trace summaries.
SUMMARY_HASHES = {
    ('block', 'critical-path'): 'cf17adba25480d721b01d4ac3b2a66d63cdd4da5060d23baa17c639b7684c060',
    ('block', 'panel'): 'f9714340568f997d846c17b820c0f24d5c50b21c6b60869451ada369143a3aad',
    ('block', 'fifo'): 'b72e02d19bf6b46575c7bcc116ad6b8da8232b73b38854d4e7534701abb38c64',
    ('block-cyclic', 'critical-path'): 'a4ec4af79406fa00c326b816d310a9734e372774cf33f61c47506321969367c3',
    ('block-cyclic', 'panel'): '8980c406c4813bb3b844e22363269090cc5b020e347a2311404e2107f4e0b9f1',
    ('block-cyclic', 'fifo'): '94e2bdb23ccc5e14fc0952e93e9e7082438fbd2099c367f794f5a7ddb3851063',
    ('owner-computes', 'critical-path'): '0b3c31572ec816c1fff47b35277fa0fb9c31c1088c9b6b5a755271723a1add4b',
    ('owner-computes', 'panel'): 'd498aa879dcc1acb524d255f4dbdc82dc86c45f7e9b1324c29ba0d9817a6806f',
    ('owner-computes', 'fifo'): 'f1c60b474600c107e5a6935ef1f125750e782b932969b00f7384c1d79c9b7f35',
}

#: Golden digests of the scenarios the coroutine and threads backends were
#: cross-checked on, captured while both backends existed and agreed on
#: every value.  ``spmd-*``/``dag-cholesky``/``dag-lu`` are ``_run_hash``
#: values on the 8-rank platform; ``failures-*``, ``dag-recovery`` and
#: ``probe-yield`` are built by the tests that check them (here and in
#: ``test_failures.py`` / ``tests/dag/test_recovery.py``); ``stats-*`` are
#: ``_stats_hash`` values checked by ``tests/obs/test_streaming_equivalence.py``.
GOLDEN_HASHES = {
    "spmd-tsqr": 'fc7e3c7eb0a496851043cbe7a1a9ec8f88fe9ad5e5602831c6b6dcd338d298f1',
    "spmd-tsqr-want-q": '28718e1fef8ddb601c8fac26f1e94bcccb3e9f6efd69d17e12ac80927ed0e362',
    "spmd-caqr": 'd28809745538ff6cb2b57f299548c0ff958d43be7c8ea5238fa0fb18edd8d393',
    "dag-cholesky": 'b98fc24ac5d60450941ad97a5db69770ca715a66f510f2cc7dafe9b4bd10dffb',
    "dag-lu": '0e0f96b2e39f2eae980225ccfa0df2a51ad477c44959ec0c887d794a5edcc3fe',
    "probe-yield": '4e491c1a0cad2a9a02267e6abd3e45f2e3b7d622250bd40940b9bb22e0e62e85',
    "failures-ring": '51b56ed9ff33434817f889e84004d82b21f12f42e36cf00b2d42658c77c20c64',
    "failures-compute-only": '6406abef988d92469a709faa663af9b1b9e2213bd03be3003e9d6f204f884075',
    "dag-recovery": 'ae2db22c94fc9585b9b73a2c6e9cedc77c1f230387131bd90efe806ba40a0985',
    "stats-spmd-tsqr": '8644869c60a333eea4849903e15406b7ccb8ac379e8ec11c8c86f93740c4f985',
    "stats-dag-caqr": '4316465947b6e188b4834afd5432261622f3e9e216df1cfdb0194a5fff6afdf2',
}

#: ``(rank, domain)`` of every per-rank result of the ``spmd-tsqr`` run.
TSQR_RANK_DOMAINS = [(0, 0), (1, 0), (2, 1), (3, 1), (4, 2), (5, 2), (6, 3), (7, 3)]

#: The full deadlock report of :func:`_deadlock_program` on 4 ranks.
DEADLOCK_WAIT_GRAPH = (
    "deadlock detected: all 4 live rank(s) are blocked and no pending event "
    "can unblock them\n"
    "  rank 0: waiting on recv(source=1, tag='cycle') on communicator 'world'\n"
    "  rank 1: waiting on recv(source=0, tag='cycle') on communicator 'world'\n"
    "  rank 2: waiting on collective 'barrier' on communicator 'world' "
    "(2/4 ranks arrived)\n"
    "  rank 3: waiting on collective 'barrier' on communicator 'world' "
    "(2/4 ranks arrived)"
)


class TestRegistryRefactorEquivalence:
    """The generic builder's QR output is the legacy builder's, bit for bit."""

    @pytest.mark.parametrize("params,expected", GRAPH_FINGERPRINTS)
    def test_qr_graph_fingerprints_unchanged(self, params, expected):
        from repro.dag.graph import tiled_qr_graph

        kwargs = dict(params)
        kwargs["group_clusters"] = kwargs.pop("group_clusters", None)
        assert _graph_fingerprint(tiled_qr_graph(**kwargs)) == expected

    @pytest.mark.parametrize("policies,expected", TRACE_HASHES)
    def test_qr_trace_hashes_unchanged(self, platform8, policies, expected):
        placement, priority = policies
        config = DAGCAQRConfig(
            m=32_768, n=96, tile_size=32, placement=placement, priority=priority
        )
        result = run_dag_caqr(platform8, config, record_messages=True)
        assert _event_hash(result.simulation) == expected
        assert _summary_hash(result.trace) == SUMMARY_HASHES[policies]


def _deadlock_program(ctx):
    """Ranks 0 and 1 wait on each other; ranks 2 and 3 strand in a barrier."""
    if ctx.comm.rank < 2:
        other = 1 - ctx.comm.rank
        return (yield from ctx.comm.recv(source=other, tag="cycle"))
    yield from ctx.comm.barrier()


def _probe_yield_program(ctx):
    """Rank 0 samples ``(clock, probe)`` between yields while rank 1 computes."""
    comm = ctx.comm
    if comm.rank == 1:
        ctx.compute(1e9, kernel="gemm")
        comm.send("late", dest=0, tag="m")
        return None
    if comm.rank != 0:
        return None
    samples = []
    for _ in range(12):
        ctx.compute(2e8, kernel="gemm")
        yield from ctx.yield_turn()
        samples.append((ctx.clock(), comm.probe(source=1, tag="m")))
    got = yield from comm.recv(source=1, tag="m")
    return (got, tuple(samples))


class TestGoldenValues:
    """SPMD, DAG, probe/yield and deadlock scenarios pinned to golden values."""

    def test_spmd_tsqr(self, platform8):
        sim = _run(platform8)
        assert _run_hash(sim) == GOLDEN_HASHES["spmd-tsqr"]

    def test_spmd_tsqr_want_q(self, platform8):
        config = dataclasses.replace(CONFIG, want_q=True)
        sim = run_parallel_tsqr(platform8, config, record_messages=True).simulation
        assert _run_hash(sim) == GOLDEN_HASHES["spmd-tsqr-want-q"]

    def test_spmd_caqr(self, platform8):
        sim = run_parallel_caqr(platform8, CAQR_CONFIG, record_messages=True).simulation
        assert _run_hash(sim) == GOLDEN_HASHES["spmd-caqr"]

    @pytest.mark.parametrize("algorithm,m,n", [("cholesky", 768, 768), ("lu", 1024, 768)])
    def test_dag_cholesky_and_lu(self, platform8, algorithm, m, n):
        from repro.dag.runtime import DAGFactorizationConfig, run_dag_factorization

        config = DAGFactorizationConfig(
            m=m, n=n, tile_size=128, placement="block-cyclic", algorithm=algorithm
        )
        sim = run_dag_factorization(platform8, config, record_messages=True).simulation
        assert _run_hash(sim) == GOLDEN_HASHES[f"dag-{algorithm}"]

    def test_deadlock_wait_graph(self, platform4_single_site):
        with pytest.raises(DeadlockError) as excinfo:
            run_spmd(platform4_single_site, _deadlock_program)
        assert str(excinfo.value) == DEADLOCK_WAIT_GRAPH

    def test_probe_and_yield_turn_samples(self, platform4_single_site):
        sim = run_spmd(platform4_single_site, _probe_yield_program)
        digest = hashlib.sha256(repr((sim.results, sim.clocks)).encode()).hexdigest()
        assert digest == GOLDEN_HASHES["probe-yield"]


def _rank_thread_program(ctx):
    """Each rank reports the thread it runs on, before and after a collective."""
    before = threading.get_ident()
    yield from ctx.comm.barrier()
    return (before, threading.get_ident())


def _entry_points():
    from repro.dag.runtime import run_dag_factorization, run_dag_tsqr
    from repro.gridsim.platform import SimulationState
    from repro.programs.spmd import run_program
    from repro.scalapack.driver import run_scalapack_qr

    return {
        "SPMDExecutor": SPMDExecutor,
        "run_spmd": run_spmd,
        "SimulationState": SimulationState,
        "run_program": run_program,
        "run_parallel_tsqr": run_parallel_tsqr,
        "run_parallel_caqr": run_parallel_caqr,
        "run_scalapack_qr": run_scalapack_qr,
        "run_dag_factorization": run_dag_factorization,
        "run_dag_caqr": run_dag_caqr,
        "run_dag_tsqr": run_dag_tsqr,
    }


def _run_scalapack(platform):
    from repro.scalapack.driver import ScaLAPACKConfig, run_scalapack_qr

    return run_scalapack_qr(platform, ScaLAPACKConfig(m=65_536, n=64))


#: One representative run per runtime layer that drives the engine.
RUNNERS = {
    "spmd-tsqr": lambda platform: run_parallel_tsqr(platform, CONFIG),
    "spmd-caqr": lambda platform: run_parallel_caqr(platform, CAQR_CONFIG),
    "scalapack": _run_scalapack,
    "dag-caqr": lambda platform: run_dag_caqr(
        platform, DAGCAQRConfig(m=1024, n=256, tile_size=64)
    ),
}


class TestSingleEngine:
    """One engine: every rank is a generator driven on the caller's thread."""

    def test_results_in_rank_order(self, platform8):
        sim = _run(platform8)
        assert [(r.rank, r.domain) for r in sim.results] == TSQR_RANK_DOMAINS

    def test_ranks_run_on_the_calling_thread(self, platform4_single_site):
        sim = run_spmd(platform4_single_site, _rank_thread_program)
        caller = threading.get_ident()
        assert sim.results == [(caller, caller)] * 4

    @pytest.mark.parametrize("runner", sorted(RUNNERS))
    def test_runs_start_no_threads(self, platform8, monkeypatch, runner):
        before = threading.active_count()

        def refuse(thread):
            raise AssertionError(f"the engine started a thread: {thread!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        result = RUNNERS[runner](platform8)
        assert result.makespan_s > 0.0
        assert threading.active_count() == before

    @pytest.mark.parametrize("name", sorted(_entry_points()))
    def test_entry_points_take_no_engine_option(self, name):
        params = inspect.signature(_entry_points()[name]).parameters
        assert "engine" not in params
        assert "reuse_threads" not in params

    def test_threads_backend_is_gone(self):
        import repro.gridsim.executor as executor_mod

        assert importlib.util.find_spec("repro.gridsim.scheduler") is None
        assert not hasattr(executor_mod, "ENGINES")


def _make_platform8():
    """Deterministic 8-rank platform, importable from pool worker processes."""
    from repro.gridsim import (
        ClusterSpec,
        GridSpec,
        KernelRateModel,
        LinkSpec,
        NetworkModel,
        NodeSpec,
        Platform,
        ProcessorSpec,
        block_placement,
    )

    node = NodeSpec(processor=ProcessorSpec("test-cpu", 8.0, 3.67), processes_per_node=2)
    grid = GridSpec(
        name="test-grid",
        clusters=tuple(ClusterSpec(name=f"site{i}", n_nodes=2, node=node) for i in range(2)),
    )
    network = NetworkModel(
        intra_node=LinkSpec.from_us_mbits(17.0, 5000.0),
        intra_cluster=LinkSpec.from_ms_mbits(0.06, 890.0),
        inter_cluster_default=LinkSpec.from_ms_mbits(8.0, 90.0),
    )
    placement = block_placement(grid, nodes_per_cluster=2, processes_per_node=2)
    return Platform(
        grid=grid,
        network=network,
        placement=placement,
        kernel_model=KernelRateModel(),
        name="test-platform",
    )


def _child_event_hash(_arg: int) -> str:
    """Run the reference simulation in a worker process and hash its events."""
    return _event_hash(
        run_parallel_tsqr(_make_platform8(), CONFIG, record_messages=True).simulation
    )


class TestJobsEquivalence:
    def test_sweep_rows_identical_jobs_1_vs_n(self):
        from repro.experiments.figures import figure6
        from repro.experiments.runner import ExperimentRunner

        m_values = [1_048_576, 4_194_304]
        serial = figure6(
            ExperimentRunner(), 64, m_values=m_values, domain_counts=(1, 64)
        )
        parallel = figure6(
            ExperimentRunner(jobs=2), 64, m_values=m_values, domain_counts=(1, 64)
        )
        assert serial.as_rows() == parallel.as_rows()

    def test_worker_process_events_match_parent(self, platform8):
        """The same program hashes identically in-process and in a pool worker."""
        parent_hash = _event_hash(
            run_parallel_tsqr(platform8, CONFIG, record_messages=True).simulation
        )
        methods = multiprocessing.get_all_start_methods()
        if "fork" not in methods:  # pragma: no cover - non-POSIX fallback
            pytest.skip("fork start method unavailable")
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(2) as pool:
            child_hashes = pool.map(_child_event_hash, range(2))
        assert child_hashes == [parent_hash, parent_hash]
