"""Self-test of the benchmark's correctness check.

Simulates one pinned operation (the cheapest ``fig8_service`` point) and checks
it twice: against ``pinned.json`` as committed, where it must pass, and
against a copy with one pinned value perturbed, where it must be counted as
a failed operation.  Run from the repository root::

    python3 perfbench/selftest.py

Exits with status 0 when both checks behave, 1 otherwise.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from harness import Checker, load_pins, op_stats  # noqa: E402


def main() -> int:
    from repro.experiments import ExperimentRunner
    from workloads import Fig8Service

    spec = min(Fig8Service.sweep(), key=lambda s: (s.algorithm != "tsqr", s.m, s.n_sites))
    key = Fig8Service.key(spec)
    point = ExperimentRunner().run_point(spec)
    stats = op_stats(point.trace, point.time_s)

    pins = load_pins()
    clean = Checker(pins)
    clean.check(key, stats)

    perturbed_pins = copy.deepcopy(pins)
    perturbed_pins[key]["flop_events"] += 1
    perturbed = Checker(perturbed_pins)
    perturbed.check(key, stats)

    print(f"{key}: pinned values -> attempted {clean.attempted}, failed {clean.failed}; "
          f"one perturbed value -> attempted {perturbed.attempted}, failed {perturbed.failed}")
    if clean.failed != 0 or perturbed.failed != 1:
        print("self-test FAILED: the check does not separate pinned from perturbed values")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
