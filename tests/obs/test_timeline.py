"""Unit tests of the width-doubling windowed timeline."""

from __future__ import annotations

import pytest

from repro.obs.timeline import WindowedTimeline


def _add(tl, series, rank, t, value):
    """Accumulate ``value`` at time ``t`` in one of ``rank``'s series."""
    getattr(tl, series)[tl.slot(rank, t)] += value


def test_rejects_non_power_of_two_window_counts():
    with pytest.raises(ValueError):
        WindowedTimeline(4, n_windows=48)
    with pytest.raises(ValueError):
        WindowedTimeline(4, n_windows=1)


def test_ranks_seeded_lazily():
    tl = WindowedTimeline(1024, n_windows=4, base_s=1.0)
    assert not any(tl.widths)  # width 0: no event seen yet
    assert len(tl.busy) == len(tl.wait) == len(tl.nbytes) == 1024 * 4
    _add(tl, "busy", 7, 0.5, 0.5)
    assert [r for r, w in enumerate(tl.widths) if w] == [7]
    assert tl.busy[7 * 4] == 0.5  # rank 7's row starts at 7 * n_windows


def test_single_window_attribution():
    tl = WindowedTimeline(2, n_windows=4, base_s=1.0)
    _add(tl, "busy", 0, 0.5, 0.4)
    _add(tl, "busy", 0, 2.5, 0.6)
    busy, wait, nbytes = tl.snapshot(horizon=3.0)
    assert busy[0] == (0.4, 0.0, 0.6, 0.0)
    assert wait == {}
    assert nbytes == {}


def test_grow_folds_pairwise_and_doubles_width():
    tl = WindowedTimeline(1, n_windows=4, base_s=1.0)
    for t in (0.5, 1.5, 2.5, 3.5):
        _add(tl, "nbytes", 0, t, 10)
    # t=5.0 is past the last window: one doubling to width 2.0.
    _add(tl, "nbytes", 0, 5.0, 100)
    _busy, _wait, nbytes = tl.snapshot(horizon=5.0)
    assert nbytes[0] == (20, 20, 100, 0)


def test_fold_is_equivalent_to_direct_binning():
    # The determinism claim: an event's final window after any sequence of
    # doublings equals binning it directly at the final width.
    events = [(0.3, 1), (1.9, 2), (7.2, 4), (30.0, 8), (121.5, 16), (2.2, 32)]
    grown = WindowedTimeline(1, n_windows=8, base_s=1.0)
    for t, v in events:
        _add(grown, "nbytes", 0, t, v)
    final_width = grown.snapshot_width(max(t for t, _ in events))
    direct = WindowedTimeline(1, n_windows=8, base_s=final_width)
    for t, v in events:
        _add(direct, "nbytes", 0, t, v)
    horizon = max(t for t, _ in events)
    assert grown.snapshot(horizon) == direct.snapshot(horizon)


def test_snapshot_folds_copies_not_the_live_rows():
    tl = WindowedTimeline(1, n_windows=4, base_s=1.0)
    _add(tl, "busy", 0, 0.5, 1.0)
    before = tuple(tl.busy)
    tl.snapshot(horizon=1000.0)  # forces folding to a much wider window
    assert tuple(tl.busy) == before
    assert tl.widths[0] == 1.0  # width untouched


def test_snapshot_width_covers_the_horizon():
    tl = WindowedTimeline(1, n_windows=64, base_s=1e-6)
    w = tl.snapshot_width(0.05)
    assert 64 * w > 0.05
    assert 64 * (w / 2) <= 0.05


def test_all_zero_series_are_skipped():
    tl = WindowedTimeline(2, n_windows=4, base_s=1.0)
    _add(tl, "wait", 1, 0.5, 0.25)
    busy, wait, nbytes = tl.snapshot(horizon=1.0)
    assert busy == {}
    assert wait == {1: (0.25, 0.0, 0.0, 0.0)}
    assert nbytes == {}


def test_bytes_series_stays_integer():
    tl = WindowedTimeline(1, n_windows=2, base_s=1.0)
    _add(tl, "nbytes", 0, 0.1, 3)
    _add(tl, "nbytes", 0, 1.1, 4)
    _add(tl, "nbytes", 0, 3.9, 5)  # forces a fold
    _busy, _wait, nbytes = tl.snapshot(horizon=3.9)
    assert nbytes[0] == (7, 5)
    assert all(isinstance(v, int) for v in nbytes[0])
