"""Two-level result cache: in-memory LRU over an on-disk content store.

The front level is a bounded LRU of deserialised :class:`ExperimentPoint`
objects — warm queries inside one process answer in microseconds without
touching the filesystem.  The back level is a content-addressed JSON store
under ``results/cache/`` (``<key[:2]>/<key>.json``, git-style fan-out), so
results survive across CLI invocations and are shared by every worker
process on the machine.  Writes go through a temp-file + ``os.replace``
rename, which is atomic on POSIX: a concurrent reader sees either the old
file or the complete new one, never a torn write.

Entries carry the engine-semantics version tag of
:mod:`repro.service.keys`; a stored payload whose tag differs from the
running code's is treated as a miss (and the fresh result overwrites it), so
bumping the tag is the entire cache-invalidation protocol.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import ConfigurationError
from repro.experiments.grid5000 import Grid5000Settings
from repro.experiments.runner import ExperimentPoint, PointSpec
from repro.gridsim.trace import TraceSummary
from repro.obs.stats import HotSpot
from repro.service.keys import ENGINE_SEMANTICS_VERSION, canonical_spec, config_key

__all__ = ["CacheStats", "ResultCache", "default_cache_root"]


def default_cache_root() -> Path:
    """Cache directory: ``$REPRO_CACHE_DIR`` or ``results/cache``."""
    return Path(os.environ.get("REPRO_CACHE_DIR") or Path("results") / "cache")


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`ResultCache` instance."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Stored payloads rejected for carrying a stale engine-semantics tag.
    stale_entries: int = 0
    #: Unparseable on-disk entries quarantined as ``*.corrupt`` files.
    corrupt_entries: int = 0

    @property
    def hits(self) -> int:
        """Total warm answers (either level)."""
        return self.memory_hits + self.disk_hits

    def as_dict(self) -> dict[str, int]:
        """Flat dictionary for JSON reports."""
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "stale_entries": self.stale_entries,
            "corrupt_entries": self.corrupt_entries,
        }


# ---------------------------------------------------------------------------
# (De)serialisation of one evaluation point
# ---------------------------------------------------------------------------

_SPEC_FIELDS = (
    "algorithm", "m", "n", "n_sites", "domains_per_cluster", "tree_kind",
    "want_q", "tile_size", "runtime", "placement", "priority", "failures",
)
_TUPLE_FIELDS = ("busy_s_per_rank", "comm_wait_s_per_rank")


def point_to_payload(point: ExperimentPoint) -> dict:
    """JSON-serialisable form of one :class:`ExperimentPoint`."""
    trace = point.trace
    return {
        "engine_semantics": ENGINE_SEMANTICS_VERSION,
        "spec": {f: getattr(point.spec, f) for f in _SPEC_FIELDS},
        "gflops": point.gflops,
        "time_s": point.time_s,
        "critical_path_s": point.critical_path_s,
        "recovery": point.recovery,
        "trace": {
            "n_messages": trace.n_messages,
            "bytes_by_link": trace.bytes_by_link,
            "messages_per_rank_max": trace.messages_per_rank_max,
            "inter_cluster_messages_per_rank_max": trace.inter_cluster_messages_per_rank_max,
            "total_flops": trace.total_flops,
            "flops_per_rank_max": trace.flops_per_rank_max,
            "flops_by_kernel": trace.flops_by_kernel,
            "flop_events": trace.flop_events,
            "busy_s_per_rank": list(trace.busy_s_per_rank),
            "comm_wait_s_per_rank": list(trace.comm_wait_s_per_rank),
            # Top-K contention sites (small and JSON-safe) ride along so
            # `figure --id trace-hotspots` works on warm cache entries; the
            # full streaming snapshot (histograms, timelines) is deliberately
            # not serialised — exports that need it force a live simulation.
            "hot_spots": [
                [h.link, h.source, h.dest, h.wait_s, h.messages, h.nbytes]
                for h in trace.hot_spots
            ],
        },
    }


def point_from_payload(payload: dict) -> ExperimentPoint:
    """Rebuild an :class:`ExperimentPoint` stored by :func:`point_to_payload`."""
    trace_fields = dict(payload["trace"])
    for name in _TUPLE_FIELDS:
        trace_fields[name] = tuple(trace_fields.get(name, ()))
    trace_fields["_hot_spots"] = tuple(
        HotSpot(link, source, dest, wait_s, messages, nbytes)
        for link, source, dest, wait_s, messages, nbytes in trace_fields.pop(
            "hot_spots", ()
        )
    )
    return ExperimentPoint(
        spec=PointSpec(**payload["spec"]),
        gflops=payload["gflops"],
        time_s=payload["time_s"],
        trace=TraceSummary(**trace_fields),
        critical_path_s=payload.get("critical_path_s"),
        recovery=payload.get("recovery"),
    )


# ---------------------------------------------------------------------------
# The cache proper
# ---------------------------------------------------------------------------

class ResultCache:
    """LRU-fronted content-addressed store of simulation results.

    Parameters
    ----------
    root:
        Directory of the on-disk level (created on first write).  ``None``
        selects :func:`default_cache_root`.
    memory_entries:
        Capacity of the in-memory LRU front.  ``0`` disables the front level
        entirely (every hit is a disk hit) — used by tests.
    """

    def __init__(
        self, root: str | Path | None = None, *, memory_entries: int = 256
    ) -> None:
        if memory_entries < 0:
            raise ConfigurationError(
                f"memory_entries must be >= 0, got {memory_entries}"
            )
        self.root = Path(root) if root is not None else default_cache_root()
        self.memory_entries = memory_entries
        self._memory: OrderedDict[str, ExperimentPoint] = OrderedDict()
        self.stats = CacheStats()

    # ------------------------------------------------------------------ keys
    def key_for(
        self, spec: PointSpec, settings: Grid5000Settings | None = None
    ) -> str:
        """Content hash of one spec on one platform (see :mod:`.keys`)."""
        return config_key(spec, settings)

    def path_for(self, key: str) -> Path:
        """On-disk location of one entry (git-style two-character fan-out)."""
        return self.root / key[:2] / f"{key}.json"

    # ---------------------------------------------------------------- lookup
    def lookup(self, key: str) -> tuple[ExperimentPoint | None, str]:
        """Warm result and its provenance: ``(point, "memory"|"disk")`` or
        ``(None, "miss")``.  Disk hits are promoted into the memory front."""
        point = self._memory.get(key)
        if point is not None:
            self._memory.move_to_end(key)
            self.stats.memory_hits += 1
            return point, "memory"
        payload = self._read_payload(key)
        if payload is None:
            self.stats.misses += 1
            return None, "miss"
        point = point_from_payload(payload)
        self._remember(key, point)
        self.stats.disk_hits += 1
        return point, "disk"

    def get(self, key: str) -> ExperimentPoint | None:
        """Warm result for ``key``, or None (see :meth:`lookup`)."""
        return self.lookup(key)[0]

    def contains(self, key: str) -> bool:
        """True when ``key`` would answer warm (no counters touched)."""
        if key in self._memory:
            return True
        return self._read_payload(key) is not None

    def _read_payload(self, key: str) -> dict | None:
        path = self.path_for(key)
        try:
            text = path.read_text()
        except OSError:
            return None  # absent (or unreadable): a plain miss
        try:
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise ValueError("cache entry is not a JSON object")
        except ValueError:
            # Corrupt entry (torn write survived a crash, disk damage,
            # manual editing): quarantine it for post-mortem inspection and
            # answer "miss" — a broken file must never take the service down,
            # and must never be retried on every lookup either.
            self._quarantine(path)
            self.stats.corrupt_entries += 1
            return None
        if payload.get("engine_semantics") != ENGINE_SEMANTICS_VERSION:
            self.stats.stale_entries += 1
            return None
        return payload

    @staticmethod
    def _quarantine(path: Path) -> None:
        """Move a corrupt entry aside as ``<name>.corrupt`` (best effort)."""
        try:
            os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
        except OSError:
            pass  # raced with a concurrent writer/quarantine: nothing to do

    # ----------------------------------------------------------------- store
    def put(self, key: str, point: ExperimentPoint) -> None:
        """Store one result at both levels (atomic on-disk replace)."""
        self._remember(key, point)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = point_to_payload(point)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.stores += 1

    def _remember(self, key: str, point: ExperimentPoint) -> None:
        if self.memory_entries == 0:
            return
        self._memory[key] = point
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    # ------------------------------------------------------------- household
    def clear_memory(self) -> None:
        """Drop the LRU front (the disk level is untouched)."""
        self._memory.clear()

    def __len__(self) -> int:
        """Number of entries currently held in the memory front."""
        return len(self._memory)

    # Convenience wrapper joining key computation and lookup/store, used by
    # the runner so its store integration stays two lines per path.
    def get_spec(
        self, spec: PointSpec, settings: Grid5000Settings | None = None
    ) -> ExperimentPoint | None:
        """Warm result for a spec (canonicalised key computed here)."""
        return self.get(self.key_for(spec, settings))

    def put_spec(
        self,
        spec: PointSpec,
        point: ExperimentPoint,
        settings: Grid5000Settings | None = None,
    ) -> None:
        """Store a result under its spec's canonical key.

        The stored spec is the *canonical* one, so a later hit returns the
        effective configuration (policy defaults filled) regardless of how
        the original query spelt it.
        """
        if point.spec != canonical_spec(point.spec):
            point = ExperimentPoint(
                spec=canonical_spec(point.spec),
                gflops=point.gflops,
                time_s=point.time_s,
                trace=point.trace,
                critical_path_s=point.critical_path_s,
                recovery=point.recovery,
            )
        self.put(self.key_for(spec, settings), point)
