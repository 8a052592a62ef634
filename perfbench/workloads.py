"""The benchmark's workloads, driven through the simulator's public calls.

Each workload repeats one unit of work (:meth:`rep`): a timed set-up, then the
timed simulation calls.  ``run.py`` makes one warm-up repetition, repeats the
unit for the requested seconds and turns the samples into metrics.  Each timed
sample carries the host-speed reference taken beside it.  The seed only orders queries and runs; the
program sees nothing but the generated specs and configurations.

* ``fig8_service``: the reduced Fig. 8 sweep (TSQR at 64 domains/cluster and
  ScaLAPACK, N=64, three M values, 1/2/4 sites) asked by one closed-loop
  client of an in-process ``SimulationService`` over a fresh on-disk
  ``ResultCache``: one cold pass, then warm passes that each restart the
  service, runner and cache on the same directory, so every answer comes
  from disk.  ScaLAPACK's ~130k events per 4-site point load the per-message
  path; the warm passes are the only place the service and cache dominate.
* ``tsqr_scale``: virtual QCG-TSQR at 8192 and 32768 ranks on a synthetic
  4-site grid.  About three events per rank, so per-rank costs (platform
  set-up, coroutine creation, the streaming timeline snapshot) dominate.
* ``dag_tiled``: DAG-CAQR (M=262144, N=128, tile 64) and DAG-Cholesky
  (N=3072, tile 64) at 512 ranks.  Graph build dominates set-up; the DAG
  runtime's probe/yield loop dominates the run.
"""

from __future__ import annotations

import asyncio
import cProfile
import gc
import os
import pstats
import shutil
import statistics
import tempfile
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

from repro.dag import DAGCAQRConfig, DAGFactorizationConfig, run_dag_caqr, run_dag_factorization
from repro.dag.graph import cached_graph, clear_graph_cache
from repro.experiments import ExperimentRunner, PointSpec, reduced_m_values
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
from repro.service.cache import ResultCache
from repro.service.server import SimulationService
from repro.tsqr.parallel import TSQRConfig, run_parallel_tsqr

from harness import Checker, Tracer, host_reference, op_stats

STREAMING_ENV = "REPRO_STREAMING_STATS"


@contextmanager
def streaming_env(on: bool):
    """Switch streaming stats for calls that have no ``streaming_stats=``."""
    old = os.environ.get(STREAMING_ENV)
    os.environ[STREAMING_ENV] = "1" if on else "0"
    try:
        yield
    finally:
        if old is None:
            del os.environ[STREAMING_ENV]
        else:
            os.environ[STREAMING_ENV] = old


def synthetic_platform(n_ranks: int) -> Platform:
    """A 4-site grid of ``n_ranks / 8`` nodes per site, 2 processes per node."""
    clusters, ppn = 4, 2
    nodes = n_ranks // (clusters * ppn)
    node = NodeSpec(processor=ProcessorSpec("bench-cpu", 8.0, 3.67), processes_per_node=ppn)
    grid = GridSpec(
        name=f"bench-grid-{n_ranks}",
        clusters=tuple(
            ClusterSpec(name=f"site{i}", n_nodes=nodes, node=node) for i in range(clusters)
        ),
    )
    network = NetworkModel(
        intra_node=LinkSpec.from_us_mbits(17.0, 5000.0),
        intra_cluster=LinkSpec.from_ms_mbits(0.06, 890.0),
        inter_cluster_default=LinkSpec.from_ms_mbits(8.0, 90.0),
    )
    placement = block_placement(grid, nodes_per_cluster=nodes, processes_per_node=ppn)
    return Platform(
        grid=grid,
        network=network,
        placement=placement,
        kernel_model=KernelRateModel(),
        name=f"bench-{n_ranks}",
    )


class Workload:
    """Samples shared by every workload; subclasses fill them in :meth:`rep`."""

    name = ""

    def __init__(self, rng, tracer: Tracer, checker: Checker, work_dir: Path) -> None:
        self.rng = rng
        self.tracer = tracer
        self.checker = checker
        self.work_dir = work_dir
        self.setup_s: list[float] = []
        self.platform_build_s: list[float] = []
        self.graph_build_s: list[float] = []
        #: Wall time (s) of each operation, per operation key, from the
        #: untraced repetitions.  The workload's wall time is the sum of the
        #: per-operation medians, so a slow spell of the host that hits one
        #: operation of one repetition does not move it.
        self.op_walls: dict[str, list[float]] = defaultdict(list)
        #: Beside each timed sample, the mean of the host-speed references
        #: taken just before and just after it (``harness.host_reference``);
        #: ``run.py`` scales each sample by its own reference.
        self.op_refs: dict[str, list[float]] = defaultdict(list)
        self.setup_refs: list[float] = []
        #: Exact counts of one repetition (identical in every repetition).
        self.counts = dict.fromkeys(
            ("events", "messages", "inter_cluster_messages", "ranks", "tasks", "edges"), 0
        )

    def _timed(self, key: str, span: str, call):
        """Run one operation from a collected heap.

        Returns ``(result, seconds)``; the result is the exception the call
        raised, if it raised one.  Callers check the result and drop it
        before the next operation, so no operation runs beside another's
        leftovers and the seeded order does not change what is timed.  The
        host-speed reference on each side of the operation is the median of
        three, so one disturbed reference does not move the sample.
        """
        gc.collect()
        before = statistics.median(host_reference() for _ in range(3))
        self.tracer.new_op()
        start = time.perf_counter()
        with self.tracer.span(span):
            try:
                result = call()
            except Exception as exc:  # counted as a failed operation
                result = exc
        elapsed = time.perf_counter() - start
        if not self.tracer.enabled:
            self.op_walls[key].append(elapsed)
            after = statistics.median(host_reference() for _ in range(3))
            self.op_refs[key].append((before + after) / 2)
        return result, elapsed

    def _count(self, trace, ranks: int) -> None:
        self.counts["events"] += trace.total_events
        self.counts["messages"] += trace.total_messages
        self.counts["inter_cluster_messages"] += trace.inter_cluster_messages
        self.counts["ranks"] += ranks

    def _reset_counts(self) -> None:
        for key in self.counts:
            self.counts[key] = 0

    def rep(self) -> float:
        """One repetition; returns the wall time (s) of its simulation calls."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """One repetition whose timings are dropped (its checks still count).

        It lets lazy imports and first-call work finish before timing.
        """
        self.rep()
        self.reset_samples()

    def reset_samples(self) -> None:
        self.setup_s.clear()
        self.platform_build_s.clear()
        self.graph_build_s.clear()
        self.op_walls.clear()
        self.op_refs.clear()
        self.setup_refs.clear()

    def sim_pass(self, streaming: bool) -> float:
        """The simulation calls of one repetition, streaming stats on or off."""
        raise NotImplementedError

    def profiled_rep(self) -> pstats.Stats:
        """One repetition under ``cProfile`` (per-thread CPU time)."""
        prof = cProfile.Profile(time.thread_time)
        prof.enable()
        try:
            self.rep()
        finally:
            prof.disable()
        return pstats.Stats(prof)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# fig8_service
# ---------------------------------------------------------------------------

class Fig8Service(Workload):
    name = "fig8_service"
    N = 64
    SITES = (1, 2, 4)
    M_VALUES = tuple(reduced_m_values(64, 3))
    #: Warm passes per repetition: 6 x 18 = 108 warm queries, so the p90 has
    #: ten samples beyond it even in a single repetition.
    WARM_PASSES = 6
    #: Platform set-up is ~1 ms.  Each set-up sample is the mean of a batch
    #: of back-to-back set-ups, and one sample is taken before each cold
    #: query, so the samples spread over the whole run like the queries do.
    SETUP_BATCH = 10

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.specs = self.sweep()
        self.warm_ms: list[float] = []
        self.warm_hits = 0
        self.warm_queries = 0
        self.get_ms: list[float] = []
        self.entry_bytes: list[float] = []
        self.cold_points: dict = {}
        # The service runs each cold batch on the loop's default executor;
        # one worker thread, so the load is the client plus that thread.
        self.executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="service")
        self.loop = asyncio.new_event_loop()
        self.loop.set_default_executor(self.executor)

    @classmethod
    def sweep(cls) -> list[PointSpec]:
        """The 18 points: TSQR at 64 domains/cluster and ScaLAPACK."""
        return [
            PointSpec(algorithm="tsqr", m=m, n=cls.N, n_sites=s, domains_per_cluster=64)
            for m in cls.M_VALUES for s in cls.SITES
        ] + [
            PointSpec(algorithm="scalapack", m=m, n=cls.N, n_sites=s)
            for m in cls.M_VALUES for s in cls.SITES
        ]

    @staticmethod
    def key(spec: PointSpec) -> str:
        return f"fig8_service/{spec.algorithm}/m={spec.m}/sites={spec.n_sites}"

    def rep(self) -> float:
        directory = Path(tempfile.mkdtemp(prefix="fig8-cache-", dir=self.work_dir))
        try:
            return self.loop.run_until_complete(self._rep(directory))
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def _setup(self, directory: Path) -> ExperimentRunner:
        """One set-up sample: runner, cache and the 1/2/4-site platforms."""
        before = host_reference()
        start = time.perf_counter()
        for _ in range(self.SETUP_BATCH):
            runner = ExperimentRunner(store=ResultCache(directory))
            with self.tracer.span("grid5000_platform"):
                for sites in self.SITES:
                    runner.platform(sites)
        elapsed = (time.perf_counter() - start) / self.SETUP_BATCH
        self.setup_s.append(elapsed)
        self.setup_refs.append((before + host_reference()) / 2)
        self.platform_build_s.append(elapsed)
        return runner

    async def _rep(self, directory: Path) -> float:
        tracer, checker = self.tracer, self.checker
        self._reset_counts()
        runner = self._setup(directory)
        tracer.wrap(runner, "run_point", "ExperimentRunner.run_point")
        tracer.wrap(runner.store, "put_spec", "ResultCache.put_spec")
        service = SimulationService(runner)

        cold = []
        wall = 0.0
        for spec in self.rng.sample(self.specs, len(self.specs)):
            self._setup(directory)  # a set-up sample; the service keeps its runner
            gc.collect()
            before = host_reference()
            tracer.new_op()
            start = time.perf_counter()
            with tracer.span("SimulationService.submit"):
                try:
                    cold.append((spec, await service.submit(spec)))
                except Exception as exc:  # counted, and the pass goes on
                    cold.append((spec, exc))
            elapsed = time.perf_counter() - start
            wall += elapsed
            if not tracer.enabled:
                self.op_walls[self.key(spec)].append(elapsed)
                self.op_refs[self.key(spec)].append((before + host_reference()) / 2)

        self.cold_points = {}
        for spec, reply in cold:
            if isinstance(reply, Exception):
                checker.record(False, f"{self.key(spec)}: cold query raised {reply!r}")
                continue
            point = reply.point
            self.cold_points[spec] = point
            checker.check(self.key(spec), op_stats(point.trace, point.time_s))
            self._count(point.trace, runner.platform(spec.n_sites).n_processes)

        for _ in range(self.WARM_PASSES):
            service = SimulationService(ExperimentRunner(store=ResultCache(directory)))
            warm = []
            for spec in self.rng.sample(self.specs, len(self.specs)):
                tracer.new_op()
                start = time.perf_counter()
                with tracer.span("SimulationService.submit"):
                    try:
                        reply = await service.submit(spec)
                    except Exception as exc:
                        reply = exc
                self.warm_ms.append((time.perf_counter() - start) * 1e3)
                warm.append((spec, reply))
            for spec, reply in warm:
                self._check_warm(spec, reply)

        if tracer.enabled:
            cache = ResultCache(directory)
            for spec in self.specs:
                cache.clear_memory()
                start = time.perf_counter()
                with tracer.span("ResultCache.get_spec"):
                    point = cache.get_spec(spec, runner.settings)
                self.get_ms.append((time.perf_counter() - start) * 1e3)
                checker.record(
                    point is not None and point == self.cold_points.get(spec),
                    f"{self.key(spec)}: get_spec did not return the stored point",
                )
            sizes = [p.stat().st_size for p in directory.rglob("*.json")]
            self.entry_bytes.append(sum(sizes) / max(1, len(sizes)))
        return wall

    def reset_samples(self) -> None:
        super().reset_samples()
        self.warm_ms.clear()
        self.get_ms.clear()
        self.entry_bytes.clear()
        self.warm_hits = self.warm_queries = 0

    def _check_warm(self, spec: PointSpec, reply) -> None:
        self.warm_queries += 1
        if isinstance(reply, Exception):
            self.checker.record(False, f"{self.key(spec)}: warm query raised {reply!r}")
            return
        hit = reply.source in ("memory", "disk")
        self.warm_hits += hit
        cold = self.cold_points.get(spec)
        self.checker.record(
            hit and cold is not None and reply.point == cold and reply.point.trace == cold.trace,
            f"{self.key(spec)}: warm reply ({reply.source}) differs from the cold reply",
        )

    def sim_pass(self, streaming: bool) -> float:
        runner = ExperimentRunner()
        start = time.perf_counter()
        with streaming_env(streaming):
            for spec in self.specs:
                runner.run_point(spec)
        return time.perf_counter() - start

    def profiled_rep(self) -> pstats.Stats:
        # Cold simulations run on the executor thread: profile it as well.
        worker = cProfile.Profile(time.thread_time)
        self.executor.submit(worker.enable).result()
        try:
            stats = super().profiled_rep()
        finally:
            self.executor.submit(worker.disable).result()
        stats.add(pstats.Stats(worker))
        return stats

    def close(self) -> None:
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()


# ---------------------------------------------------------------------------
# tsqr_scale
# ---------------------------------------------------------------------------

class TSQRScale(Workload):
    name = "tsqr_scale"
    RANKS = (8192, 32768)
    ROWS_PER_RANK = 4096
    N = 64

    #: Building both platforms takes ~0.06 s; repeat it for a steady median.
    SETUP_REPEATS = 3

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.platforms: dict[int, Platform] = {}

    def _setup(self) -> None:
        for _ in range(self.SETUP_REPEATS):
            before = host_reference()
            start = time.perf_counter()
            for n_ranks in self.RANKS:
                self.tracer.new_op()
                with self.tracer.span("Platform"):
                    self.platforms[n_ranks] = synthetic_platform(n_ranks)
            elapsed = time.perf_counter() - start
            self.setup_s.append(elapsed)
            self.setup_refs.append((before + host_reference()) / 2)
            self.platform_build_s.append(elapsed)

    @staticmethod
    def key(n_ranks: int) -> str:
        return f"tsqr_scale/tsqr/ranks={n_ranks}"

    def _config(self, n_ranks: int) -> TSQRConfig:
        return TSQRConfig(m=n_ranks * self.ROWS_PER_RANK, n=self.N)

    def rep(self) -> float:
        self._reset_counts()
        self.platforms.clear()
        self._setup()
        wall = 0.0
        for n_ranks in self.rng.sample(self.RANKS, len(self.RANKS)):
            key = self.key(n_ranks)
            platform, config = self.platforms[n_ranks], self._config(n_ranks)
            result, elapsed = self._timed(
                key, "run_parallel_tsqr", lambda: run_parallel_tsqr(platform, config)
            )
            wall += elapsed
            self._check(key, n_ranks, result)
            del result
        return wall

    def _check(self, key: str, n_ranks: int, result) -> None:
        if isinstance(result, Exception):
            self.checker.record(False, f"{key}: raised {result!r}")
            return
        self.checker.check(key, op_stats(result.trace, result.makespan_s))
        self._count(result.trace, n_ranks)

    def sim_pass(self, streaming: bool) -> float:
        start = time.perf_counter()
        for n_ranks in self.RANKS:
            run_parallel_tsqr(
                self.platforms[n_ranks], self._config(n_ranks), streaming_stats=streaming
            )
        return time.perf_counter() - start


# ---------------------------------------------------------------------------
# dag_tiled
# ---------------------------------------------------------------------------

class DAGTiled(Workload):
    name = "dag_tiled"
    RANKS = 512
    CAQR = DAGCAQRConfig(m=262_144, n=128, tile_size=64)
    CHOLESKY = DAGFactorizationConfig(m=3072, n=3072, tile_size=64, algorithm="cholesky")
    #: Set-up (platform plus both graphs, ~0.6 s) is repeated from scratch
    #: this many times at the start of a run; the last build is the one run.
    SETUP_REPEATS = 5

    @staticmethod
    def key(which: str) -> str:
        return f"dag_tiled/{which}/ranks={DAGTiled.RANKS}"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.platform: Platform | None = None
        self.graphs: dict = {}

    def _setup(self) -> None:
        """Platform plus both task graphs, built from scratch.

        The runs then reuse these graph objects: the runtime memoises its
        placement and communication plans by graph identity, so a fresh
        graph per repetition would grow memory with the repetition count.
        The plans are built by the first run of each graph, in the warm-up
        repetition, whose timings are dropped.
        """
        clear_graph_cache()
        gc.collect()
        before = host_reference()
        start = time.perf_counter()
        self.tracer.new_op()
        with self.tracer.span("Platform"):
            self.platform = synthetic_platform(self.RANKS)
        built = time.perf_counter()
        p = self.platform.n_processes
        clusters = tuple(self.platform.placement.cluster_of(r) for r in range(p))
        c = self.CAQR
        with self.tracer.span("cached_graph"):
            self.graphs["caqr"] = cached_graph(
                "qr", c.m, c.n, c.tile_size, p, c.panel_tree, clusters
            )
        c = self.CHOLESKY
        with self.tracer.span("cached_graph"):
            self.graphs["cholesky"] = cached_graph(c.algorithm, c.m, c.n, c.tile_size)
        end = time.perf_counter()
        self.setup_s.append(end - start)
        self.setup_refs.append((before + host_reference()) / 2)
        self.platform_build_s.append(built - start)
        self.graph_build_s.append(end - built)

    def _run(self, which: str):
        if which == "caqr":
            return run_dag_caqr(self.platform, self.CAQR)
        return run_dag_factorization(self.platform, self.CHOLESKY)

    def warm_up(self) -> None:
        for _ in range(self.SETUP_REPEATS):
            self._setup()
        self.rep()
        self.op_walls.clear()
        self.op_refs.clear()

    def rep(self) -> float:
        self._reset_counts()
        wall = 0.0
        for which in self.rng.sample(("caqr", "cholesky"), 2):
            key = self.key(which)
            result, elapsed = self._timed(
                key,
                "run_dag_caqr" if which == "caqr" else "run_dag_factorization",
                lambda: self._run(which),
            )
            wall += elapsed
            self._check(key, which, result)
            del result
        return wall

    def _check(self, key: str, which: str, result) -> None:
        if isinstance(result, Exception):
            self.checker.record(False, f"{key}: raised {result!r}")
            return
        graph = self.graphs[which]
        if result.graph is not graph:  # set-up work leaked into the run
            self.checker.record(False, f"{key}: the run did not use the set-up graph")
            return
        self.checker.check(
            key,
            op_stats(
                result.trace,
                result.makespan_s,
                critical_path_s=result.critical_path_s,
                graph=graph,
            ),
        )
        self._count(result.trace, self.RANKS)
        self.counts["tasks"] += graph.n_tasks
        self.counts["edges"] += graph.n_edges

    def sim_pass(self, streaming: bool) -> float:
        start = time.perf_counter()
        with streaming_env(streaming):
            for which in ("caqr", "cholesky"):
                self._run(which)
        return time.perf_counter() - start


WORKLOADS = {cls.name: cls for cls in (Fig8Service, TSQRScale, DAGTiled)}
