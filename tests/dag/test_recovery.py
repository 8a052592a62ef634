"""DAG re-execution recovery: bit-identical results despite rank deaths.

The contract: given a deterministic failure schedule, the fault-tolerant
DAG runtime re-places the dead ranks' unfinished work (plus the transitive
closure of lost tile versions) onto survivors, and a real-mode run returns
the factor **bit-identical** to the failure-free run — while the same
schedule against the SPMD runtime deterministically raises, which is the
capability gap the recovery layer demonstrates.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro.dag.runtime as runtime_mod
from repro.dag import (
    DAGCAQRConfig,
    DAGFactorizationConfig,
    build_recovery_plan,
    cached_graph,
    lost_version_closure,
    run_dag_factorization,
)
from repro.exceptions import ConfigurationError, RankFailedError
from repro.gridsim.failures import FailureSchedule, RankFailure
from repro.programs.caqr import CAQRConfig, run_parallel_caqr
from repro.util.random_matrices import random_matrix
from tests.gridsim.test_engine_equivalence import (
    GOLDEN_HASHES,
    _digest,
    _run_hash,
    _summary_hash,
)


def spd_matrix(n: int, *, seed: int = 0) -> np.ndarray:
    a = random_matrix(n, n, seed=seed)
    return a @ a.T + n * np.eye(n)


def qr_config(seed: int = 3) -> DAGCAQRConfig:
    a = random_matrix(256, 96, seed=seed)
    return DAGCAQRConfig(m=256, n=96, tile_size=32, matrix=a)


# ---------------------------------------------------------------------------
# The closure itself (unit level, synthetic survivor state)
# ---------------------------------------------------------------------------

class TestLostVersionClosure:
    def graph(self):
        return cached_graph("cholesky", 128, 128, 64)  # 4 tasks: POTRF/TRSM/SYRK/POTRF

    def test_nothing_lost_means_nothing_to_do(self):
        g = self.graph()
        H = g.n_handles
        done = set(range(len(g.tasks)))
        final = {(g.last_writer(h) + 1) * H + h for h in range(H)}
        assert lost_version_closure(g, done, final, final) == set()

    def test_lost_result_version_readds_its_writer(self):
        g = self.graph()
        H = g.n_handles
        done = set(range(len(g.tasks)))
        last = len(g.tasks) - 1
        wanted = {(last + 1) * H + h for h in g.tasks[last].writes}
        # Nothing survives: the writer must re-run, and so (transitively)
        # must the producers of every version it reads.
        closure = lost_version_closure(g, done, set(), wanted)
        assert last in closure
        for h, p in zip(g.tasks[last].reads, g.tasks[last].read_producers):
            if p >= 0:
                assert p in closure

    def test_surviving_inputs_stop_the_chase(self):
        g = self.graph()
        H = g.n_handles
        done = set(range(len(g.tasks)))
        last = len(g.tasks) - 1
        wanted = {(last + 1) * H + h for h in g.tasks[last].writes}
        # Every version the writer reads survives: only the writer re-runs.
        available = {
            (p + 1) * H + h
            for h, p in zip(g.tasks[last].reads, g.tasks[last].read_producers)
        }
        assert lost_version_closure(g, done, available, wanted) == {last}

    def test_never_executed_tasks_are_always_in(self):
        g = self.graph()
        closure = lost_version_closure(g, set(), set(), set())
        assert closure == set(range(len(g.tasks)))


# ---------------------------------------------------------------------------
# End-to-end: bit-identical factors, every algorithm
# ---------------------------------------------------------------------------

class TestBitIdenticalRecovery:
    @pytest.mark.parametrize(
        "schedule",
        [
            FailureSchedule([RankFailure(1, at_time=0.0)]),
            FailureSchedule([RankFailure(2, after_events=40)]),
            FailureSchedule([RankFailure(0, at_time=0.001), RankFailure(3, after_events=25)]),
        ],
        ids=["rank1-at-start", "rank2-after-40", "rank0-and-rank3"],
    )
    def test_qr_r_is_bit_identical_across_schedules(self, platform4_single_site, schedule):
        cfg = qr_config()
        base = run_dag_factorization(platform4_single_site, cfg)
        res = run_dag_factorization(platform4_single_site, cfg, failures=schedule)
        assert np.array_equal(res.r, base.r)
        assert res.recovery is not None
        assert res.recovery.dead_ranks == schedule.ranks
        assert res.recovery.tasks_executed > 0
        assert res.recovery.makespan_s == res.makespan_s
        assert res.recovery.makespan_overhead_s > 0.0

    @pytest.mark.parametrize(
        "algorithm,matrix",
        [
            ("cholesky", spd_matrix(128, seed=5)),
            ("lu", spd_matrix(128, seed=6)),  # SPD is diagonally dominant enough
        ],
    )
    def test_cholesky_and_lu_recover_bit_identically(
        self, platform4_single_site, algorithm, matrix
    ):
        cfg = DAGFactorizationConfig(
            m=128, n=128, tile_size=32, matrix=matrix, algorithm=algorithm
        )
        base = run_dag_factorization(platform4_single_site, cfg)
        res = run_dag_factorization(
            platform4_single_site,
            cfg,
            failures=FailureSchedule([RankFailure(3, after_events=6)]),
        )
        assert np.array_equal(res.r, base.r)
        assert res.recovery is not None and res.recovery.rounds >= 1

    def test_multiple_failures_make_multiple_rounds(self, platform4_single_site):
        cfg = qr_config()
        base = run_dag_factorization(platform4_single_site, cfg)
        res = run_dag_factorization(
            platform4_single_site,
            cfg,
            failures=FailureSchedule(
                [RankFailure(0, at_time=0.001), RankFailure(3, after_events=25)]
            ),
        )
        assert np.array_equal(res.r, base.r)
        assert res.recovery.rounds == 2
        assert res.recovery.dead_ranks == (0, 3)

    def test_virtual_mode_recovers_the_whole_graph(self, platform8):
        cfg = DAGFactorizationConfig(m=1024, n=1024, tile_size=128, algorithm="cholesky")
        res = run_dag_factorization(
            platform8, cfg, failures=FailureSchedule([RankFailure(5, at_time=0.0004)])
        )
        assert res.r is None
        assert res.recovery is not None
        assert res.recovery.tasks_executed > 0

    def test_inert_schedule_reports_no_recovery(self, platform4_single_site):
        cfg = qr_config()
        res = run_dag_factorization(
            platform4_single_site,
            cfg,
            failures=FailureSchedule([RankFailure(1, at_time=1e9)]),
        )
        base = run_dag_factorization(platform4_single_site, cfg)
        assert np.array_equal(res.r, base.r)
        assert res.recovery is None

    def test_killing_every_rank_is_rejected(self, platform4_single_site):
        cfg = qr_config()
        schedule = FailureSchedule.from_pairs([(r, 0.0) for r in range(4)])
        with pytest.raises(ConfigurationError, match="survive"):
            run_dag_factorization(platform4_single_site, cfg, failures=schedule)


# ---------------------------------------------------------------------------
# Determinism and the exactly-once accounting
# ---------------------------------------------------------------------------

class TestDeterminismAndAccounting:
    def test_repeated_runs_are_bit_deterministic_and_pinned(self, platform4_single_site):
        cfg = qr_config()
        schedule = FailureSchedule([RankFailure(2, after_events=40)])
        first, second = (
            run_dag_factorization(
                platform4_single_site, cfg, failures=schedule, record_messages=True
            )
            for _ in range(2)
        )
        assert np.array_equal(second.r, first.r)
        assert second.makespan_s == first.makespan_s
        assert second.trace == first.trace
        assert second.recovery == first.recovery
        assert second.simulation.events == first.simulation.events
        digest = _digest(
            [
                hashlib.sha256(first.r.tobytes()).hexdigest(),
                repr(first.recovery),
                first.makespan_s,
                _summary_hash(first.trace),
                _run_hash(first.simulation),
            ]
        )
        assert digest == GOLDEN_HASHES["dag-recovery"]

    def test_rank_failure_events_are_traced(self, platform4_single_site):
        cfg = qr_config()
        res = run_dag_factorization(
            platform4_single_site,
            cfg,
            failures=FailureSchedule([RankFailure(1, after_events=10)]),
        )
        [(rank, time)] = res.trace.rank_failures
        assert rank == 1
        assert res.recovery.death_times == (time,)

    @pytest.mark.parametrize("after_events", [10, 40, 80])
    def test_report_matches_independent_closure(
        self, platform4_single_site, monkeypatch, after_events
    ):
        """The accounting equals the closure recomputed from first principles.

        The planner's inputs (survivor done sets and store keys) are
        snapshotted at plan-build time; the test recomputes the
        lost-version closure independently and checks both counters.
        """
        captured: list[dict] = []
        real_build = build_recovery_plan

        def spy(graph, survivors, registry, wanted, original_rank_of):
            captured.append(
                {
                    "graph": graph,
                    "survivors": tuple(survivors),
                    "done": {r: set(registry[r]["done"]) for r in survivors},
                    "stored": {r: set(registry[r]["store"]) for r in survivors},
                    "wanted": tuple(wanted),
                }
            )
            return real_build(graph, survivors, registry, wanted, original_rank_of)

        monkeypatch.setattr(runtime_mod, "build_recovery_plan", spy)
        cfg = qr_config()
        res = run_dag_factorization(
            platform4_single_site,
            cfg,
            failures=FailureSchedule([RankFailure(1, after_events=after_events)]),
        )
        assert len(captured) == res.recovery.rounds == 1
        snap = captured[0]
        done = set().union(*snap["done"].values())
        available = set().union(*snap["stored"].values())
        wanted = {vkey for _h, vkey in snap["wanted"]}
        closure = lost_version_closure(snap["graph"], done, available, wanted)
        assert res.recovery.tasks_executed == len(closure)
        assert res.recovery.tasks_reexecuted == len(closure & done)


# ---------------------------------------------------------------------------
# The capability gap: SPMD cannot recover, the DAG runtime can
# ---------------------------------------------------------------------------

class TestSPMDCapabilityGap:
    @pytest.mark.parametrize("victim", range(4))
    def test_same_schedule_kills_spmd_but_not_dag(self, platform4_single_site, victim):
        schedule = FailureSchedule([RankFailure(victim, at_time=0.0)])
        a = random_matrix(256, 96, seed=3)
        with pytest.raises(RankFailedError, match="revoked"):
            run_parallel_caqr(
                platform4_single_site,
                CAQRConfig(m=256, n=96, tile_size=32, matrix=a),
                failures=schedule,
            )
        res = run_dag_factorization(
            platform4_single_site,
            DAGCAQRConfig(m=256, n=96, tile_size=32, matrix=a),
            failures=schedule,
        )
        base = run_dag_factorization(
            platform4_single_site, DAGCAQRConfig(m=256, n=96, tile_size=32, matrix=a)
        )
        assert np.array_equal(res.r, base.r)
