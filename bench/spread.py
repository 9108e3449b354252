"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json bounds.

    python3 bench/spread.py --workload NAME [--seeds 0-9] [--seconds S]

Runs the harness once per seed (one after another, never in parallel) and
prints, per end-to-end metric, the median over the runs and the distance
between the first and third quartile as a share of that median, next to the
metric's bound. The spread of ``setup_s`` is shown but carries no bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run_bench.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        print(f"seed {seed}: " + ", ".join(
            f"{k} {v['value']:.4g}" for k, v in metrics.items()), flush=True)
        for k, v in metrics.items():
            values.setdefault(k, []).append(v["value"])
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{args.workload} {m['name']:<20} median {med:.6g} "
              f"spread {(q3 - q1) / med:.3f} bound {m['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
