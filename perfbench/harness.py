"""Measurement plumbing of the benchmark: spans, summaries, pinned checks and
profile buckets.  Nothing here imports the simulator; ``run.py`` and
``workloads.py`` make the calls into it."""

from __future__ import annotations

import gc
import heapq
import json
import math
import pstats
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

PINS_PATH = Path(__file__).with_name("pinned.json")


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def quartiles(values) -> tuple[float, float, float, int]:
    """``(median, q1, q3, n)`` of a sample, quartiles as ``statistics.quantiles``."""
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0], 1
    q1, median, q3 = statistics.quantiles(vals, n=4)
    return median, q1, q3, len(vals)


def percentile90(values) -> float:
    """90th percentile (``statistics.quantiles`` with ``n=10``)."""
    return statistics.quantiles(sorted(values), n=10)[8]


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

#: Wall times are reported as they would read on a host where one
#: :func:`host_reference` call takes this long.
REFERENCE_S = 0.02


def host_reference() -> float:
    """Seconds one fixed pure-Python event loop takes on this host, now.

    The loop does what the simulator's engine does most (a heap of
    timestamps, generator resumptions, dict counters) but runs no simulator
    code, so a change to the program cannot move it, while a slower host
    (a busy shared core, a lower clock) moves it as it moves the program.
    The collector is off inside it, so the program's heap does not either.
    """
    def proc(i):
        t = 0.0
        for k in range(30):
            t = yield t + ((i * 7 + k) % 13) * 1e-3

    was_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    try:
        gens = {i: proc(i) for i in range(400)}
        heap = [(next(g), i) for i, g in gens.items()]
        heapq.heapify(heap)
        counts: dict = {}
        while heap:
            t, i = heapq.heappop(heap)
            try:
                t = gens[i].send(t)
            except StopIteration:
                continue
            key = (i & 15, "link")
            counts[key] = counts.get(key, 0) + 1
            heapq.heappush(heap, (t, i))
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory spans around the benchmark's calls into the program.

    A span is ``(name, start, end, parent, op)``.  ``parent`` is the index of
    the enclosing span on the same thread; a call that runs on another thread
    (the service's executor) has the first span of its operation as parent.
    The client is closed-loop, so at most one operation is in flight and the
    current ``op`` id is unambiguous on every thread.  A disabled tracer
    records nothing and :meth:`wrap` leaves the object untouched.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self.op = 0
        self._op_root: dict[int, int] = {}
        self._local = threading.local()

    def new_op(self) -> int:
        """Start a new operation; later spans carry its id."""
        self.op += 1
        return self.op

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self._op_root.get(self.op)
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._op_root.setdefault(self.op, index)
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, obj, attr: str, name: str) -> None:
        """Record a span around every call of ``obj.attr`` (instance-level)."""
        if not self.enabled:
            return
        method = getattr(obj, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return method(*args, **kwargs)

        setattr(obj, attr, traced)

    def durations(self, name: str) -> list[float]:
        """Durations (s) of every finished span called ``name``."""
        return [end - start for n, start, end, _, _ in self.spans if n == name and end]

    def by_op(self, name: str) -> dict[int, float]:
        """Total duration (s) of the spans called ``name``, per operation."""
        out: dict[int, float] = {}
        for n, start, end, _, op in self.spans:
            if n == name and end:
                out[op] = out.get(op, 0.0) + end - start
        return out

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([
            {"name": n, "start": s, "end": e, "parent": p, "op": op}
            for n, s, e, p, op in self.spans
        ]))


# ---------------------------------------------------------------------------
# Correctness against pinned simulated statistics
# ---------------------------------------------------------------------------

def op_stats(trace, makespan_s: float, *, critical_path_s=None, graph=None) -> dict:
    """The simulated statistics of one operation that the pins fix."""
    stats = {
        "makespan_s": makespan_s,
        "messages": dict(sorted(trace.n_messages.items())),
        "bytes": dict(sorted(trace.bytes_by_link.items())),
        "flop_events": trace.flop_events,
        "total_flops": trace.total_flops,
    }
    if critical_path_s is not None:
        stats["critical_path_s"] = critical_path_s
    if graph is not None:
        stats["tasks"] = graph.n_tasks
        stats["edges"] = graph.n_edges
    return stats


def _same(pinned, value) -> bool:
    if isinstance(pinned, dict):
        return (
            isinstance(value, dict)
            and pinned.keys() == value.keys()
            and all(_same(pinned[k], value[k]) for k in pinned)
        )
    if isinstance(pinned, float) or isinstance(value, float):
        # The simulator is deterministic; the tolerance only absorbs libm
        # differences in the last bits, never a changed schedule.
        return math.isclose(pinned, value, rel_tol=1e-9, abs_tol=0.0)
    return pinned == value


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


class Checker:
    """Counts attempted and failed operations.

    A failure is an exception, a result whose simulated statistics differ
    from the pinned ones, or a warm reply that is not a cache hit equal to
    the cold reply.
    """

    def __init__(self, pins: dict) -> None:
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.observed: dict[str, dict] = {}

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok

    def check(self, key: str, stats: dict) -> bool:
        """One operation's statistics against its pinned values."""
        self.observed[key] = stats
        pinned = self.pins.get(key)
        return self.record(
            pinned is not None and _same(pinned, stats),
            f"{key}: simulated statistics differ from the pinned values",
        )

    def write_pins(self) -> None:
        """Merge the observed statistics into the pin file (re-pinning)."""
        pins = dict(self.pins)
        pins.update(self.observed)
        PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Profile buckets
# ---------------------------------------------------------------------------

#: Layers of ``src/repro/`` by module path prefix; everything else is "other".
LAYERS = (
    ("engine", ("gridsim/engine.py", "gridsim/scheduler.py", "gridsim/executor.py",
                "gridsim/platform.py")),
    ("comm", ("gridsim/communicator.py", "gridsim/collectives.py", "gridsim/network.py",
              "gridsim/middleware.py", "gridsim/topology.py")),
    ("obs", ("obs/", "gridsim/trace.py")),
    ("programs", ("programs/", "tsqr/", "scalapack/")),
    ("dag", ("dag/",)),
    ("kernels", ("kernels/", "virtual/", "gridsim/kernelmodel.py")),
    ("service", ("service/",)),
    ("experiments", ("experiments/",)),
)
LAYER_NAMES = tuple(name for name, _ in LAYERS) + ("other",)


def profile_summary(stats: pstats.Stats, package_dir: str) -> dict:
    """Self-time shares per layer, plus the call counts the benchmark reports.

    Functions outside the package (builtins, the standard library, NumPy)
    have their self time charged to the layer of their direct callers, in
    proportion to the time each caller edge accounts for, so a ``heappush``
    made by the engine counts as engine time.
    """
    prefix = package_dir.rstrip("/") + "/"

    def layer_of(func) -> str | None:
        filename = func[0]
        if not filename.startswith(prefix):
            return None
        rel = filename[len(prefix):]
        for name, paths in LAYERS:
            if rel.startswith(paths):
                return name
        return "other"

    totals = dict.fromkeys(LAYER_NAMES, 0.0)
    probe_calls = resumes = 0
    for func, (_, ncalls, tottime, _, callers) in stats.stats.items():
        layer = layer_of(func)
        if layer is not None:
            totals[layer] += tottime
            if func[2] == "probe" and func[0].endswith("gridsim/communicator.py"):
                probe_calls = max(probe_calls, ncalls)
            continue
        if func[2] == "<method 'send' of 'generator' objects>":
            resumes += ncalls
        edge_total = sum(edge[2] for edge in callers.values())
        if edge_total <= 0.0:
            totals["other"] += tottime
            continue
        for caller, edge in callers.items():
            totals[layer_of(caller) or "other"] += tottime * edge[2] / edge_total
    grand = sum(totals.values()) or 1.0
    return {
        "shares": {name: totals[name] / grand for name in LAYER_NAMES},
        "probe_calls": probe_calls,
        "generator_resumes": resumes,
    }
