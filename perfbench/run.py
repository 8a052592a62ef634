"""Repository benchmark: host time of the grid simulator, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload fig8_service --seed 1 --seconds 25 --trace 0

Workloads are ``fig8_service``, ``tsqr_scale`` and ``dag_tiled`` (see
``workloads.py`` for what each loads and why).  One process drives the load
with at most two threads: the client, plus the service's single executor
thread on ``fig8_service``.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time,
the wall time of the simulation calls, peak memory, and the share of
operations that succeeded.  Set-up and wall time are scaled to a reference
host speed: a fixed pure-Python loop (``harness.host_reference``) is timed
just before and just after every operation and set-up sample, and each
sample is reported as it would read on a host where that loop takes
``harness.REFERENCE_S``.  The
unscaled times are printed beside them.  A warm-up repetition comes first and
its timings are dropped.  ``--trace 1`` is the separate traced run that gives
the per-layer metrics: spans around every call into the program (written to
``.perfbench_work/`` at the end), repetitions alternating traced and
untraced to price the tracing itself, one ``cProfile`` repetition for
self-time shares and call counts, and streaming-stats on/off pairs.

Every operation's simulated statistics are checked against ``pinned.json``
(``--write-pins`` re-captures them after a deliberate semantic change).
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform as host_platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
# NumPy's thread pools would add threads beyond the client and the service's
# executor; the virtual payloads do no BLAS work worth parallelising.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(ROOT / "src"))

from harness import (  # noqa: E402
    REFERENCE_S,
    Checker,
    Tracer,
    load_pins,
    percentile90,
    profile_summary,
    quartiles,
)

#: Repetitions every run makes, however short ``--seconds`` is; the traced
#: run makes this many traced ones and as many untraced.
MIN_REPS = 3
MIN_TRACED_REPS = 2
#: Streaming-stats on/off pairs of the traced run.
OBS_PAIRS = 2


def to_reference_host(samples, refs) -> list[float]:
    """Timed samples as they would read on the reference host.

    ``refs`` holds, beside each sample, the mean of the
    :func:`harness.host_reference` times taken just before and after it.
    The shared host's speed drifts by tens of percent within seconds and
    over minutes; this scaling takes that drift out of the end-to-end times.
    """
    return [s * REFERENCE_S / r for s, r in zip(samples, refs, strict=True)]


def wall_time(wl, scaled: bool = False) -> tuple[float, float, float, int]:
    """Sum over the operations of their median (and q1, q3) wall times."""
    per_op = [
        quartiles(to_reference_host(walls, wl.op_refs[key]) if scaled else walls)
        for key, walls in wl.op_walls.items()
    ]
    return (
        sum(q[0] for q in per_op),
        sum(q[1] for q in per_op),
        sum(q[2] for q in per_op),
        min(q[3] for q in per_op),
    )


def op_refs(wl) -> list[float]:
    return [ref for refs in wl.op_refs.values() for ref in refs]


def host_lines(wl) -> list[str]:
    """The host-speed reference and the unscaled end-to-end times."""
    setup, wall = quartiles(wl.setup_s), wall_time(wl)
    refs = op_refs(wl)
    return [
        f"host reference {statistics.median(refs) * 1e3:.3f} ms beside operations "
        f"(n={len(refs)}), {statistics.median(wl.setup_refs) * 1e3:.3f} ms beside "
        f"set-ups (n={len(wl.setup_refs)}); end-to-end times are scaled to "
        f"{REFERENCE_S * 1e3:g} ms",
        f"unscaled setup_s {setup[0]:.6g} s, wall_s {wall[0]:.6g} s",
    ]


def end_to_end_metrics(wl, checker) -> dict:
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (quartiles(to_reference_host(wl.setup_s, wl.setup_refs)), "s"),
        "wall_s": (wall_time(wl, scaled=True), "s"),
        "peak_rss_mb": ((rss_mb, rss_mb, rss_mb, 1), "MB"),
        "ok_ops_frac": (
            ((checker.attempted - checker.failed) / max(1, checker.attempted),) * 3
            + (checker.attempted,),
            "fraction",
        ),
    }


def one(value, n=1):
    return (value, value, value, n)


def layer_metrics(wl, walls, traced_walls, checker) -> dict:
    """Per-layer metrics from the traced run's repetitions."""
    def ms(seconds):
        return [s * 1e3 for s in seconds]

    def zero_if_empty(values):
        return quartiles(values) if values else one(0.0, 0)

    tracer = wl.tracer
    wall, _, _, n_wall = wall_time(wl)
    counts = wl.counts
    metrics = {
        "failed_ops_frac": (one(checker.failed / max(1, checker.attempted), checker.attempted),
                            "fraction"),
        "bench.host_reference_ms": (quartiles([r * 1e3 for r in op_refs(wl)]), "ms"),
        "bench.tracing_overhead_s": (
            one(quartiles(traced_walls)[0] - quartiles(walls)[0],
                len(traced_walls) + len(walls)), "s"),
        "experiments.platform_build_s": (quartiles(wl.platform_build_s), "s"),
        "dag.graph_build_s": (zero_if_empty(wl.graph_build_s), "s"),
        "dag.tasks": (one(counts["tasks"]), "count"),
        "dag.edges": (one(counts["edges"]), "count"),
        "dag.us_per_task": (
            one(wall / counts["tasks"] * 1e6 if counts["tasks"] else 0.0, n_wall), "us"),
        "gridsim.events": (one(counts["events"]), "count"),
        "gridsim.messages": (one(counts["messages"]), "count"),
        "gridsim.inter_cluster_messages": (one(counts["inter_cluster_messages"]), "count"),
        "gridsim.us_per_event": (one(wall / max(1, counts["events"]) * 1e6, n_wall), "us"),
        "gridsim.us_per_rank": (one(wall / max(1, counts["ranks"]) * 1e6, n_wall), "us"),
    }
    service = wl.name == "fig8_service"
    submits = tracer.by_op("SimulationService.submit")
    runs = tracer.by_op("ExperimentRunner.run_point")
    queue = [submits[op] - runs[op] for op in runs if op in submits]
    metrics.update({
        "service.cache_put_ms": (zero_if_empty(ms(tracer.durations("ResultCache.put_spec"))),
                                 "ms"),
        "service.cache_get_ms": (zero_if_empty(wl.get_ms if service else []), "ms"),
        "service.entry_bytes": (zero_if_empty(wl.entry_bytes if service else []), "bytes"),
        "service.queue_ms": (zero_if_empty(ms(queue)), "ms"),
        "service.hit_ratio": (
            one(wl.warm_hits / wl.warm_queries if service else 0.0,
                wl.warm_queries if service else 0), "ratio"),
        "service.warm_query_p50_ms": (zero_if_empty(wl.warm_ms if service else []), "ms"),
        "service.warm_query_p90_ms": (
            one(percentile90(wl.warm_ms), len(wl.warm_ms)) if service else one(0.0, 0), "ms"),
    })
    return metrics


def profile_metrics(profile: dict, obs_pairs: list[tuple[float, float]]) -> dict:
    """Per-layer metrics of the ``cProfile`` repetition and the on/off pairs."""
    off = quartiles([p[0] for p in obs_pairs])[0]
    on = quartiles([p[1] for p in obs_pairs])[0]
    metrics = {
        "dag.probe_calls": (one(profile["probe_calls"]), "count"),
        "gridsim.generator_resumes": (one(profile["generator_resumes"]), "count"),
        "obs.overhead_s": (one(on - off, len(obs_pairs)), "s"),
        "obs.overhead_ratio": (one((on - off) / off, len(obs_pairs)), "ratio"),
    }
    for layer, share in profile["shares"].items():
        metrics[f"profile.{layer}_share"] = (one(share), "share")
    return metrics


def provenance(seed: int, n_reps: int) -> dict:
    import numpy

    return {
        "commit": _commit(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": host_platform.platform(),
        "seed": seed,
        "repetitions": n_reps,
    }


def _commit() -> str:
    """HEAD's commit id read from ``.git`` (the benchmark's checkout may have none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def paper_comparison(wl) -> list[str]:
    """Simulated Gflop/s at fig8_service's largest M beside the paper's readings."""
    from repro.experiments import paper_reference

    lines = []
    m = max(wl.M_VALUES)
    for point_spec, point in sorted(
        wl.cold_points.items(), key=lambda kv: (kv[0].algorithm, kv[0].n_sites)
    ):
        if point_spec.m != m:
            continue
        figure = "fig5" if point_spec.algorithm == "tsqr" else "fig4"
        ref = paper_reference(figure, wl.N, point_spec.n_sites)
        rel = (point.gflops - ref) / ref if ref else float("nan")
        lines.append(
            f"paper {figure} N={wl.N} sites={point_spec.n_sites} {point_spec.algorithm}: "
            f"simulated {point.gflops:.2f} Gflop/s, paper ~{ref} Gflop/s, "
            f"relative error {rel:+.1%}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="re-capture pinned.json from this run's results")
    args = parser.parse_args(argv)

    try:
        import repro  # the program under test, from ./src
    except ImportError as exc:
        print(f"cannot import the simulator from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported the simulator from {repro.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # The end-to-end runs use the program's default for streaming stats.
    os.environ.pop("REPRO_STREAMING_STATS", None)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    tracer = Tracer()
    checker = Checker(load_pins())
    wl = WORKLOADS[args.workload](random.Random(args.seed), tracer, checker, WORK_DIR)
    trace = bool(args.trace)
    walls: list[float] = []
    traced_walls: list[float] = []
    try:
        wl.warm_up()
        deadline = time.perf_counter() + args.seconds
        # In the traced run, repetitions alternate untraced/traced, so the
        # difference of their medians is the tracing overhead.
        min_reps = MIN_TRACED_REPS if trace else MIN_REPS
        while (len(walls) < min_reps or (trace and len(traced_walls) < min_reps)
               or time.perf_counter() < deadline):
            tracer.enabled = trace and len(traced_walls) < len(walls)
            gc.collect()
            (traced_walls if tracer.enabled else walls).append(wl.rep())
        tracer.enabled = False
        if not trace:
            metrics = end_to_end_metrics(wl, checker)
        else:
            # Taken before the profiled repetition adds its (slowed) samples.
            metrics = layer_metrics(wl, walls, traced_walls, checker)
            tracer.write(WORK_DIR / f"spans-{wl.name}-seed{args.seed}.json")
            gc.collect()
            profile = profile_summary(wl.profiled_rep(), str(ROOT / "src" / "repro"))
            obs_pairs = []
            for i in range(OBS_PAIRS):
                gc.collect()
                first = bool(i % 2)  # alternate which mode runs first
                a = wl.sim_pass(first)
                b = wl.sim_pass(not first)
                obs_pairs.append((b, a) if first else (a, b))  # (off, on)
            metrics.update(profile_metrics(profile, obs_pairs))
    finally:
        wl.close()

    if args.write_pins:
        checker.write_pins()
    print(f"workload {wl.name}, trace {args.trace}")
    print("provenance " + json.dumps(provenance(args.seed, len(walls) + len(traced_walls))))
    for name, ((median, q1, q3, n), unit) in metrics.items():
        print(f"  {name:34s} {median:.6g} {unit}  [q1 {q1:.6g}, q3 {q3:.6g}, n={n}]")
    for line in host_lines(wl):
        print(line)
    if wl.name == "fig8_service":
        print("Paper references are approximate digitised readings (+/-10-20%); "
              "reported, not gated:")
        for line in paper_comparison(wl):
            print("  " + line)
    for error in checker.errors:
        print("FAILED " + error)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": stats[0], "unit": unit} for name, (stats, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
