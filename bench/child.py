"""One repetition of one workload, in a process of its own.

Usage (the harness starts it; run by hand only to debug):

    python3 bench/child.py --workload NAME --seed N --mode plain|traced|memory
        --work DIR --result FILE [--smoke]

It builds the inputs from the seed outside the timed region, runs the
workload once, and writes a JSON record to FILE: wall and set-up time,
training throughput, peak RSS, AUC, the result digest used by the
determinism check, and in the traced modes the per-layer values. It exits
non-zero without a record when ``flowgad`` cannot be imported from the
checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def import_flowgad():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import flowgad
    except ImportError as exc:
        sys.exit(f"cannot import flowgad from {src}: {exc}")
    if Path(flowgad.__file__).resolve().parent != src / "flowgad":
        sys.exit(f"flowgad was imported from {flowgad.__file__}, not from {src}")
    return flowgad


def make_graphset(spec, seed: int):
    """The workload's graphs. Each graph has its own seed derived from the
    workload seed, its class and its index, and a node count fixed by its
    index."""
    from flowgad import GraphSet, planted_anomaly_set
    graphs = []
    for anomalous, count in ((0, spec.num_normal), (1, spec.num_anomalous)):
        for i, n in enumerate(spec.sizes(count)):
            graph_seed = int(np.random.SeedSequence(
                [seed, anomalous, i]).generate_state(1)[0])
            part = planted_anomaly_set(
                num_normal=1 - anomalous, num_anomalous=anomalous,
                seed=graph_seed, n_range=(n, n), p_in=spec.p_in,
                p_out=spec.p_out, p_sparse=spec.p_sparse)
            graphs.extend(part.graphs)
    return GraphSet(name=spec.name.replace("-", "_"), graphs=graphs)


def digest(report) -> str:
    return hashlib.sha256(report.canonical_bytes()).hexdigest()


def scores_of(report) -> list[float]:
    return [r["score"] for seed in report.per_seed for r in seed["records"]]


def run_library(spec, gs, work: Path) -> dict:
    from flowgad import ExperimentConfig, run_experiment
    config = ExperimentConfig(**spec.config())
    report, _ = run_experiment(gs, config)
    return {"report": report, "attempted": len(spec.seeds), "failed": 0,
            "errors": []}


def prepare_cli(spec, gs, work: Path):
    """TUDataset files and the config file, written before timing starts."""
    from flowgad import write_tudataset
    write_tudataset(gs, str(work / "data" / gs.name), gs.name)
    cfg = spec.config()
    cfg["seeds"] = ",".join(str(s) for s in cfg["seeds"])
    lines = [f"dataset = {gs.name}", "data_dir = data"]
    lines += [f"{key} = {value}" for key, value in cfg.items()]
    (work / "run.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_cli(spec, gs, work: Path) -> dict:
    from flowgad.cli import main
    commands = (["train", "run.cfg", "--out-dir", "run"],
                ["eval", "run.cfg", "--out-dir", "run"],
                ["plotdata", os.path.join("run", "report.json")])
    errors = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except Exception:       # the command crashed; counted, not fatal
            code, err = 1, io.StringIO(traceback.format_exc())
        if code != 0:
            errors.append(f"flowgad {argv[0]} exited {code}: "
                          f"{err.getvalue().strip()[-400:]}")
    return {"report": None, "attempted": len(commands), "failed": len(errors),
            "errors": errors}


def check_cli_outputs(work: Path) -> tuple[object, list[str]]:
    """The report eval wrote, and whether plotdata's histogram accounts for
    every scored graph."""
    from flowgad.pipeline import report_from_dict
    run = work / "run"
    try:
        with open(run / "report.json", encoding="utf-8") as fh:
            report = report_from_dict(json.load(fh))
        with open(run / "histogram.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, ValueError, KeyError) as exc:
        return None, [f"unreadable CLI output: {exc!r}"]
    problems = []
    binned = sum(int(r["normal"]) + int(r["anomalous"]) for r in rows)
    if binned != len(scores_of(report)):
        problems.append(f"histogram holds {binned} graphs, report scored "
                        f"{len(scores_of(report))}")
    for stage in ("source", "flow", "target"):
        if not (run / f"embeddings_{stage}.csv").is_file():
            problems.append(f"plotdata wrote no embeddings_{stage}.csv")
    return report, problems


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "cpu_count": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "workload_seed": seed}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("plain", "traced", "memory"))
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    import_flowgad()
    spec = WORKLOADS[args.workload]
    if args.smoke:
        spec = spec.smoke()
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)

    gs = make_graphset(spec, args.seed)
    if spec.runner == "cli":
        prepare_cli(spec, gs, work)
    (np.ones((64, 64)) @ np.ones((64, 64))).sum()   # start the BLAS threads

    stopwatch = tracing.Stopwatch()
    tracing.install(stopwatch.NAMES, stopwatch.wrap)
    tracer = peaks = None
    missing = []
    if args.mode == "memory":
        peaks = tracing.AllocPeaks()
        tracing.install(peaks.NAMES, peaks.wrap)
    if args.mode in ("traced", "memory"):
        tracer = tracing.Tracer()
        missing = tracing.install(tracing.SPANS, tracer.wrap)

    runner = run_cli if spec.runner == "cli" else run_library
    t0 = time.perf_counter()
    try:
        outcome = runner(spec, gs, work)
    except Exception:           # the program failed; counted, not fatal
        outcome = {"report": None, "attempted": len(spec.seeds),
                   "failed": len(spec.seeds), "errors": [traceback.format_exc()]}
    wall = time.perf_counter() - t0
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report, errors = outcome["report"], list(outcome["errors"])
    if spec.runner == "cli" and not errors:
        report, problems = check_cli_outputs(work)
        errors += problems
    record = {
        "mode": args.mode, "environment": environment(args.seed),
        "attempted": outcome["attempted"], "failed": outcome["failed"],
        "errors": errors, "missing_targets": missing,
        "wall_s": wall,
        "setup_s": stopwatch.seconds(tracing.SETUP),
        "train_graphs_per_s": (spec.graph_passes()
                               / max(stopwatch.seconds(tracing.PHASES), 1e-12)),
        "peak_rss_mib": peak_rss,
        "graph_passes": spec.graph_passes(),
        "expected_adam_steps": spec.adam_steps(),
    }
    if report is not None:
        scores = np.asarray(scores_of(report), dtype=np.float64)
        record.update(auc_mean=report.auc_mean, digest=digest(report),
                      scores=int(scores.size),
                      scores_finite=bool(np.all(np.isfinite(scores))))
    if tracer is not None:
        record["layer"] = tracer.summary()
        if peaks is not None:
            record["layer"].update(peaks.peaks)
        else:
            tracer.save(str(work / "spans.npz"))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
