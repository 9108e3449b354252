"""Benchmark harness for flowgad: end-to-end timings, correctness checks and,
with ``--trace 1``, a per-layer breakdown.

    python3 bench/run_bench.py [--workload NAME|all] [--seed N] [--seconds S]
                               [--trace 0|1] [--out FILE] [--smoke]

Run from the root of a checkout. Each repetition of a workload runs in a
fresh child process (``bench/child.py``) with the BLAS thread variables set
to ``os.cpu_count()``; repetitions follow one another (closed loop, one
execution at a time) until ``--seconds`` would be exceeded, with at least
three untraced ones. Timings are the median over the repetitions.

With ``--trace 0`` the metrics are the end-to-end ones named in
``BENCHMARK.json``; with ``--trace 1`` each cycle is one untraced, one traced
and one allocation-tracking repetition, and the metrics are the per-layer
ones. Every metric is printed with its unit, then the last line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Checks, each counted as failed work and turning ``correct`` false: every
seed run or CLI command completes, every score is finite, every repetition
gives the same report digest and AUC, and in traced runs the Adam step
count equals the one implied by the config and split sizes and every count
repeats exactly. The exit code is 0 only when all checks pass; it is 2,
with no JSON line, when the harness itself cannot run (for example when
``src/flowgad`` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
MIN_PLAIN_REPS = 3
CHILD_TIMEOUT_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# Count-valued per-layer entries; they must repeat exactly between runs.
EXACT_SUFFIXES = (".calls", "tape_nodes_per_step", "bytes_written")


class HarnessError(Exception):
    """The benchmark could not produce a result (not a program failure)."""


def declared() -> dict:
    """BENCHMARK.json: the metrics every run reports and the run length."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_child(name: str, seed: int, mode: str, rep_dir: Path,
              smoke: bool) -> dict:
    threads = str(os.cpu_count() or 1)
    env = dict(os.environ, **{var: threads for var in BLAS_THREAD_VARS})
    env.pop("PYTHONPATH", None)
    result = rep_dir / "result.json"
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", name,
           "--seed", str(seed), "--mode", mode, "--work", str(rep_dir),
           "--result", str(result)] + (["--smoke"] if smoke else [])
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{name} {mode} repetition exceeded "
                           f"{CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not result.is_file():
        raise HarnessError(f"{name} {mode} repetition exited "
                           f"{proc.returncode}:\n{proc.stderr.strip()}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def repeat(name: str, seed: int, seconds: float, trace: bool,
           smoke: bool, run_dir: Path) -> list[dict]:
    """Cycles of repetitions for about ``seconds``: another cycle starts
    while at least half of an average cycle's time is left."""
    cycle = ("plain", "traced", "memory") if trace else ("plain",)
    min_cycles = 1 if trace else MIN_PLAIN_REPS
    reps: list[dict] = []
    start = time.monotonic()
    while True:
        for mode in cycle:
            rep_dir = run_dir / f"rep{len(reps)}-{mode}"
            reps.append(run_child(name, seed, mode, rep_dir, smoke))
            for sub in ("data", "run"):     # keep result.json and spans only
                shutil.rmtree(rep_dir / sub, ignore_errors=True)
        cycles = len(reps) // len(cycle)
        elapsed = time.monotonic() - start
        if cycles >= min_cycles and elapsed * (1 + 0.5 / cycles) > seconds:
            return reps


def check(reps: list[dict], trace: bool) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over all repetitions of one run."""
    attempted = sum(r["attempted"] for r in reps)
    failed = 0
    problems = []
    reference = next((r for r in reps if "digest" in r), None)
    for i, r in enumerate(reps):
        bad = list(r["errors"])
        if "digest" in r:
            if not r["scores_finite"]:
                bad.append("a score is not finite")
            if r["digest"] != reference["digest"]:
                bad.append("report differs from the first repetition's")
            if r["auc_mean"] != reference["auc_mean"]:
                bad.append(f"auc_mean {r['auc_mean']!r} differs from "
                           f"{reference['auc_mean']!r}")
        elif not bad:
            bad.append("no report was produced")
        if "layer" in r:
            steps = r["layer"]["optim.adam.calls"]
            if steps != r["expected_adam_steps"]:
                bad.append(f"{steps} Adam steps, config and split imply "
                           f"{r['expected_adam_steps']}")
        # a failed check on the outputs fails every unit of the repetition
        failed += r["attempted"] if len(bad) > len(r["errors"]) else r["failed"]
        problems += [f"repetition {i} ({r['mode']}): {b}" for b in bad]
    traced = [r for r in reps if "layer" in r]
    if trace and len(traced) >= 2:
        first = traced[0]["layer"]
        for r in traced[1:]:
            for key, value in first.items():
                if key.endswith(EXACT_SUFFIXES) and r["layer"][key] != value:
                    problems.append(f"count {key} did not repeat: {value} "
                                    f"then {r['layer'][key]}")
                    failed += 1
    return attempted, failed, problems


def end_to_end(reps: list[dict], declared: list[dict]) -> dict:
    plain = [r for r in reps if r["mode"] == "plain"]
    out = {}
    for m in declared:
        values = [r[m["name"]] for r in plain]
        out[m["name"]] = {"value": statistics.median(values), "unit": m["unit"],
                          "max": max(values), "min": min(values),
                          "n": len(values)}
    return out


def per_layer(reps: list[dict], declared: list[dict]) -> dict:
    """Times are medians over the traced repetitions, counts come from the
    first one (they repeat exactly), allocation peaks from the
    allocation-tracking ones."""
    plain = [r["wall_s"] for r in reps if r["mode"] == "plain"]
    traced = [r for r in reps if r["mode"] == "traced"]
    memory = [r for r in reps if r["mode"] == "memory"]
    out = {}
    for m in declared:
        name = m["name"]
        key = name[:-len(".steps")] + ".calls" if name.endswith(".steps") else name
        if name == "trace.overhead_s":
            value = (statistics.median(r["wall_s"] for r in traced)
                     - statistics.median(plain))
        elif name.endswith(".peak_alloc_mib"):
            value = statistics.median(r["layer"].get(key, 0.0) for r in memory)
        elif key not in traced[0]["layer"]:
            raise HarnessError(f"per-layer metric {name} is not measured")
        elif key.endswith(EXACT_SUFFIXES):
            value = traced[0]["layer"][key]
        else:
            value = statistics.median(r["layer"][key] for r in traced)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    run_dir = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    reps = repeat(name, seed, seconds, trace, smoke, run_dir)
    attempted, failed, problems = check(reps, trace)
    spec = declared()
    e2e = end_to_end(reps, spec["end_to_end"])
    metrics = per_layer(reps, spec["per_layer"]) if trace else e2e
    reference = next((r for r in reps if "auc_mean" in r), {})
    missing = sorted({t for r in reps for t in r["missing_targets"]})
    spans = next(run_dir.glob("rep*-traced/spans.npz"), None)
    return {
        "workload": name, "trace": int(trace), "smoke": smoke,
        "environment": reps[0]["environment"],
        "repetitions": len(reps), "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "problems": problems,
        "auc_mean": reference.get("auc_mean"), "missing_targets": missing,
        "graph_passes": reps[0]["graph_passes"],
        "end_to_end": e2e, "metrics": metrics,
        "spans": spans and str(spans.relative_to(ROOT)),
    }


def print_result(res: dict):
    print(f"== {res['workload']} (seed {res['environment']['workload_seed']}, "
          f"{res['repetitions']} repetitions)")
    print("environment: " + json.dumps(res["environment"], sort_keys=True))
    for name, m in res["end_to_end"].items():
        print(f"  {name:<22} {m['value']:>12.4f} {m['unit']:<10} "
              f"median of n={m['n']}, max {m['max']:.4f}")
    print(f"  {'':<22} train_graphs_per_s counts {res['graph_passes']} "
          f"graph passes per execution")
    auc = res["auc_mean"]
    print(f"  {'auc_mean':<22} {auc if auc is None else format(auc, '12.4f'):>12} "
          f"{'AUC':<10} identical across repetitions")
    print(f"  {'fail_ratio':<22} {res['fail_ratio']:>12.4f} {'ratio':<10} "
          f"{res['failed']} failed of {res['attempted']} seed runs or commands")
    if res["trace"]:
        for name, m in res["metrics"].items():
            print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
        print(f"  spans written to {res['spans']}")
    for t in res["missing_targets"]:
        print(f"  warning: no function behind span {t}; its metrics read 0")
    for p in res["problems"]:
        print(f"  FAILED: {p}")


def save(path: Path, res: dict):
    """Merges this result into the JSON file at ``path``, keyed by
    workload and trace setting."""
    data = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    data[f"{res['workload']}/trace{res['trace']}"] = res
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark flowgad end to end, or per layer with --trace 1.")
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="also merge the full result into this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="a handful of graphs and one epoch (harness tests)")
    args = parser.parse_args()

    if not (ROOT / "src" / "flowgad" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'flowgad'} is missing; run from a "
              f"flowgad checkout", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    seconds = args.seconds or declared()["run_seconds"]
    results = []
    try:
        for name in names:
            res = run_workload(name, args.seed, seconds, bool(args.trace),
                               args.smoke)
            print_result(res)
            if args.out:
                save(args.out, res)
            results.append(res)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results
                   for k, v in r["metrics"].items()}
    summary = {
        "correct": all(not r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] and summary["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
