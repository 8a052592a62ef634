"""Run-to-run spread of the benchmark's end-to-end metrics, and its baseline.

Runs ``perfbench/run.py`` once per seed on each workload, one run at a time,
and prints for every end-to-end metric the median of the runs, their
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, beside the
metric's bound in ``BENCHMARK.json``.  Run from the repository root::

    python3 perfbench/spread.py --seeds 301-310
    python3 perfbench/spread.py --workloads tsqr_scale --seeds 1-5 --seconds 10

``--baseline`` then makes one ``--trace 1`` run per workload and writes the
end-to-end quartiles and the per-layer values to ``perfbench/BASELINE.json``.
Exits with status 1 if a run fails or reports a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform as host_platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds_arg(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: its result line, and the unscaled times it printed."""
    cmd = [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    unscaled = {}
    for line in lines:
        if line.startswith("unscaled "):
            for part in line[len("unscaled "):].split(", "):
                name, value, _ = part.split()
                unscaled[name] = float(value)
    return json.loads(lines[-1]), unscaled


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("301-310"))
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--baseline", action="store_true",
                        help="also make one traced run per workload and write BASELINE.json")
    args = parser.parse_args(argv)

    bounds = {m["name"]: (m["bound"], m["unit"]) for m in BENCHMARK["end_to_end"]}
    ok = True
    baseline: dict = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        unscaled: dict[str, list[float]] = {}
        start = time.perf_counter()
        for seed in args.seeds:
            result, times = run(workload, seed, args.seconds, 0)
            ok &= result["correct"] and result["failed"] == 0
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name, value in times.items():
                unscaled.setdefault(name, []).append(value)
        print(f"{workload}: {len(args.seeds)} runs of {args.seconds} s, seeds "
              f"{args.seeds[0]}-{args.seeds[-1]}, {time.perf_counter() - start:.0f} s in all")
        end_to_end = {}
        for name, (bound, unit) in bounds.items():
            s = summary(values[name])
            spread = (s["q3"] - s["q1"]) / s["median"]
            mark = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "OVER")
            print(f"  {name:12s} median {s['median']:.6g} {unit}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {spread:.3f}  bound {bound}  {mark}")
            print("    runs in seed order: " + " ".join(f"{v:.4g}" for v in values[name]))
            end_to_end[name] = {**s, "unit": unit}
        for name, vals in unscaled.items():
            s = summary(vals)
            print(f"  unscaled {name}: median {s['median']:.6g} s  spread "
                  f"{(s['q3'] - s['q1']) / s['median']:.3f} (not gated)")
        baseline[workload] = {"end_to_end": end_to_end}
        if args.baseline:
            traced, _ = run(workload, args.seeds[0], args.seconds, 1)
            ok &= traced["correct"] and traced["failed"] == 0
            baseline[workload]["per_layer"] = traced["metrics"]
        sys.stdout.flush()

    if args.baseline:
        import numpy

        sys.path.insert(0, str(HERE))
        from run import _commit

        (HERE / "BASELINE.json").write_text(json.dumps({
            "commit": _commit(),
            "measured_on": (f"{host_platform.machine()} Linux, nproc {os.cpu_count()}, "
                            f"Python {host_platform.python_version()}, "
                            f"NumPy {numpy.__version__}"),
            "run_seconds": args.seconds,
            "note": (f"end_to_end: median and quartiles over runs with seeds "
                     f"{args.seeds[0]}-{args.seeds[-1]} and --trace 0, setup_s and wall_s "
                     f"scaled to the reference host speed; per_layer: one --trace 1 run "
                     f"with seed {args.seeds[0]}, timings unscaled."),
            "workloads": baseline,
            "trajectory": [],
        }, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
