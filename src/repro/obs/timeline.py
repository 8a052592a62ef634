"""Fixed-memory virtual-time timelines with width-doubling windows.

A :class:`WindowedTimeline` keeps, for every rank, a fixed number of
accumulation windows for three series — busy seconds, p2p wait seconds and
received bytes.  The run's makespan is unknown until the end, so instead of
guessing a window width each rank's row starts at the smallest power-of-two
multiple of ``base_s`` whose window range covers the rank's *first* event,
and doubles (rebinning the row) whenever a later event lands past the last
window.  Memory is therefore O(ranks x n_windows) regardless of makespan.

**Flat layout.**  Each series is one flat ``array`` of ``n_ranks x
n_windows`` cells (machine doubles, int64 for bytes), rank ``r``'s row at
``[r * n_windows, (r + 1) * n_windows)``, plus one per-rank width list in
which 0 marks a rank that has not been seen yet.  Seeding a rank therefore
allocates nothing — it only sets the rank's width — and :meth:`snapshot`
folds the arrays through zero-copy numpy views.

**Determinism.**  An event at virtual time ``t`` is attributed wholly to
the window containing ``t`` (no proportional span splitting).  Widths are
exact powers of two times ``base_s``, so ``int(t / (w * 2**k)) ==
int(t / w) >> k`` exactly in floating point — an event's final window under
any sequence of doublings is identical to binning it directly at the final
width, which is why :meth:`snapshot` can normalise every rank to one
global width.  Rebinning on growth is a single pass (``new[j >> k] +=
old[j]``), and since the seed width and every doubling are pure functions
of the event sequence, two runs with the same event order produce
bit-identical timelines; the received-bytes series additionally uses exact
integer arithmetic, making it reproducible even from an event replay whose
rebin history differs (no busy events to drive the widths).  Seeding at the
first event's width (rather than always at ``base_s``) keeps the rebin work
off the hot path: a rank typically rebins zero or one time over a run.
"""

from __future__ import annotations

from array import array
from math import frexp

import numpy as np

__all__ = ["WindowedTimeline"]


class WindowedTimeline:
    """Per-rank windowed accumulator for busy / wait / received-bytes series."""

    __slots__ = ("n_ranks", "n_windows", "base_s", "widths", "busy", "wait", "nbytes")

    def __init__(self, n_ranks: int, *, n_windows: int = 64, base_s: float = 1e-6):
        if n_windows < 2 or n_windows & (n_windows - 1):
            raise ValueError(f"n_windows must be a power of two >= 2: {n_windows}")
        self.n_ranks = n_ranks
        self.n_windows = n_windows
        self.base_s = base_s
        #: Per-rank window width; 0.0 until the rank's first event.
        self.widths = [0.0] * n_ranks
        zeros = bytes(8 * n_ranks * n_windows)
        self.busy = array("d", zeros)
        self.wait = array("d", zeros)
        self.nbytes = array("q", zeros)

    # ------------------------------------------------------------ hot path
    def slot(self, rank: int, t: float) -> int:
        """Flat index of the cell holding time ``t`` in ``rank``'s row."""
        width = self.widths[rank] or self._seed(rank, t)
        i = int(t / width)
        if i >= self.n_windows:
            i = int(t / self._grow(rank, t))
        return rank * self.n_windows + i

    def _seed(self, rank: int, t: float) -> float:
        """Give ``rank`` the width whose window range already covers ``t``."""
        width = self.base_s
        limit = self.n_windows * width
        if t >= limit:
            # Smallest power-of-two factor with t < limit * 2**k; rounding in
            # the division can only mis-size by one step, which the slot-time
            # ``i >= n_windows`` guard absorbs via _grow.
            width *= 2.0 ** frexp(t / limit)[1]
        self.widths[rank] = width
        return width

    def _grow(self, rank: int, t: float) -> float:
        """Double ``rank``'s window width until ``t`` fits; rebin in one pass."""
        n = self.n_windows
        width = self.widths[rank]
        shift = 0
        while t >= n * width:
            width *= 2.0
            shift += 1
        base = rank * n
        for series in (self.busy, self.wait, self.nbytes):
            row = series[base : base + n].tolist()
            if row.count(0) == n:
                continue
            # Ascending j adds each window into its target in the same order
            # as an in-place pass; no window j >= 1 is a target before it is
            # drained (j >> shift < j), so reading the copy is equivalent.
            for j, v in enumerate(row):
                if v and j:
                    series[base + (j >> shift)] += v
                    series[base + j] = 0
        self.widths[rank] = width
        return width

    # ------------------------------------------------------------ snapshot
    def snapshot_width(self, horizon: float) -> float:
        """Smallest power-of-two multiple of ``base_s`` covering ``horizon``."""
        width = self.base_s
        limit = self.n_windows * width
        while horizon >= limit:
            width *= 2.0
            limit = self.n_windows * width
        return width

    def snapshot(
        self, horizon: float
    ) -> tuple[
        dict[int, tuple[float, ...]],
        dict[int, tuple[float, ...]],
        dict[int, tuple[int, ...]],
    ]:
        """Normalise every seen rank to the ``horizon`` width; skip all-zero series.

        Returns ``(busy, wait, received bytes)`` as rank-keyed dicts of
        per-window tuples, in ascending rank order.  Ranks are grouped by
        fold shift and each group folds in one vectorised
        ``reshape(-1, 2**shift).sum(axis=2)`` over a copy of its rows, so
        the live arrays are untouched and snapshotting mid-run is safe.
        With fixed inputs the result is deterministic, and for the integer
        bytes series it is exact under any summation order.
        """
        target = self.snapshot_width(horizon)
        n = self.n_windows
        widths = np.asarray(self.widths)
        seen = np.flatnonzero(widths)
        # Widths and target are base_s times powers of two, so the ratio is
        # an exact power of two; a width above the target folds by 0.
        shifts = np.maximum(np.frexp(target / widths[seen])[1] - 1, 0)
        groups = np.unique(shifts).tolist()
        outs: tuple[dict, dict, dict] = ({}, {}, {})
        for shift in groups:
            ranks = seen[shifts == shift]
            for out, series in zip(outs, (self.busy, self.wait, self.nbytes)):
                mat = np.frombuffer(series, dtype=np.dtype(series.typecode))
                mat = mat.reshape(self.n_ranks, n)[ranks]
                if shift:
                    span = 1 << shift
                    folded = np.zeros_like(mat)
                    if span >= n:
                        folded[:, 0] = mat.sum(axis=1)
                    else:
                        folded[:, : n >> shift] = mat.reshape(len(ranks), -1, span).sum(axis=2)
                    mat = folded
                mask = mat.any(axis=1)
                # Boxing rows into Python numbers is the expensive part of
                # the whole snapshot — do it only for active rows.
                for rank, values in zip(ranks[mask].tolist(), mat[mask].tolist()):
                    out[rank] = tuple(values)
        if len(groups) > 1:  # restore ascending rank order
            outs = tuple({r: out[r] for r in sorted(out)} for out in outs)
        return outs
