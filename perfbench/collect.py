"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workloads roundtrip refined requests \
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 20 [--trace 0|1] --out FILE

For each workload and metric it reports the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread (third
minus first quartile, over the median).  The summary, with the
interpreter, ``nproc``, the commit (when run inside a git checkout) and
every run's raw result, is written to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    summary = {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "seeds": args.seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {},
    }
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            print(workload, seed, json.dumps(result["metrics"]), flush=True)
        names = runs[0]["metrics"]
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": {
                name: {
                    "unit": runs[0]["metrics"][name]["unit"],
                    **summarise([r["metrics"][name]["value"] for r in runs]),
                }
                for name in names
            },
        }
        for name, stats in summary["workloads"][workload]["metrics"].items():
            spread = "n/a" if stats["spread"] is None else f"{stats['spread']:.4f}"
            print(f"{workload} {name} median={stats['median']:.6g} spread={spread}", flush=True)
    args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
