"""Run the benchmark over several seeds and record one point of the trajectory.

    python3 bench/record.py OUT.json

Run from the root of a checkout.  For every workload in BENCHMARK.json it
makes one untraced run for each of the seeds 1..10 and one traced run with
seed 1, then writes the
median and quartiles of each end-to-end metric, the spread (interquartile
range over median), the per-layer metrics of the traced run and the machine
the numbers came from.  Runs are sequential: one benchmark at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from statistics import median, quantiles

BENCH = Path(__file__).resolve().parent
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    print(f"{workload} seed {seed} trace {trace}: attempted {result['attempted']}, "
          f"failed {result['failed']}", file=sys.stderr, flush=True)
    return result


def machine() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
        "rss_source": "resource.getrusage(RUSAGE_CHILDREN).ru_maxrss",
    }
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        models = [ln.split(":", 1)[1].strip() for ln in cpuinfo.read_text().splitlines()
                  if ln.startswith("model name")]
        info["cpu"] = models[0] if models else None
    meminfo = Path("/proc/meminfo")
    if meminfo.exists():
        total = next(ln for ln in meminfo.read_text().splitlines() if ln.startswith("MemTotal"))
        info["memory_kb"] = int(total.split()[1])
    return info


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = median(values)
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "values": values,
    }


def main() -> None:
    config = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    args = parser.parse_args()
    seconds = config["run_seconds"]

    point = {"machine": machine(), "run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in config["workloads"]):
        runs = [run(workload, seed, seconds, 0) for seed in SEEDS]
        end_to_end = {
            name: summarize([r["metrics"][name]["value"] for r in runs])
            for name in runs[0]["metrics"]
        }
        traced = run(workload, SEEDS[0], seconds, 1)
        point["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        Path(args.out).write_text(json.dumps(point, indent=1) + "\n")
        for name, s in end_to_end.items():
            print(f"{workload:15s} {name:20s} median {s['median']:12.6g}  spread {s['spread']:.4f}")


if __name__ == "__main__":
    main()
