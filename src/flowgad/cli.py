"""Command-line surface: prepare, train, eval, plotdata.

``prepare`` parses a dataset directory, prints its statistics, and writes a
canonical JSON dump. ``train`` runs the three phases (together or one at a
time) and writes checkpoints plus per-epoch loss CSVs. ``eval`` loads the
checkpoints, scores the held-out graphs, and writes report.json and
scores.csv. ``plotdata`` turns a report into histogram and embedding CSVs
for external plotting.

Exit codes: 0 success, 1 internal error, 2 dataset/parse, 3 configuration,
4 phase order, 5 numeric or training fault, 6 undefined metric.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from .checkpoint import PhaseStore, atomic_write, write_csv
from .data import (canonical_bytes, dataset_fingerprint, graphset_to_dict,
                   make_anomaly_split, parse_tudataset)
from .errors import (ConfigError, DatasetError, FlowgadError, NumericFault,
                     PhaseOrderError, TrainingFault, UndefinedMetricError)
from .pipeline import (PHASES, ExperimentConfig, build_report,
                       config_from_dict, export_embeddings, phase_chain,
                       prepare_experiment, report_from_dict, run_seed,
                       score_histogram)
from .synthetic import planted_anomaly_set

EXIT_CODES = (
    (DatasetError, 2),
    (ConfigError, 3),
    (PhaseOrderError, 4),
    (NumericFault, 5),
    (TrainingFault, 5),
    (UndefinedMetricError, 6),
)

_BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False,
               "1": True, "0": False}
# each key's value type is the type of its field's default
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}


def parse_config_file(path: str) -> ExperimentConfig:
    """Flat ``key = value`` lines; '#' starts a comment; keys mirror the
    experiment configuration fields. Environment variables never override
    file values."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    raw: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(
                    f"{path}:{line_no}: expected 'key = value', got {text!r}")
            key, value = (part.strip() for part in text.split("=", 1))
            if key in raw:
                raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
            raw[key] = _parse_value(key, value, path, line_no)
    return config_from_dict(raw)


def _parse_value(key: str, value: str, path: str, line_no: int):
    kind = type(_DEFAULTS.get(key))
    try:
        if key == "seeds":
            return tuple(int(v) for v in value.split(",") if v.strip())
        if key == "normal_class":
            return value if value == "majority" else int(value)
        if kind is bool:
            if value.lower() not in _BOOL_WORDS:
                raise ValueError(value)
            return _BOOL_WORDS[value.lower()]
        if kind in (int, float):
            return kind(value)
    except ValueError:
        raise ConfigError(
            f"{path}:{line_no}: bad value {value!r} for key {key!r}") from None
    return value


def load_dataset(config: ExperimentConfig):
    """The name "planted" builds the seeded synthetic benchmark; anything
    else is parsed from <data_dir>/<name>/ in TUDataset layout."""
    if config.dataset == "planted":
        return planted_anomaly_set()
    return parse_tudataset(os.path.join(config.data_dir, config.dataset),
                           config.dataset)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_prepare(args) -> int:
    gs = parse_tudataset(args.directory, args.name)
    nodes = np.array([g.n for g in gs.graphs], dtype=np.float64)
    edges = np.array([g.num_edges for g in gs.graphs], dtype=np.float64)
    print(f"{gs.name}: {len(gs)} graphs, avg nodes {nodes.mean():.2f}, "
          f"avg edges {edges.mean():.2f} "
          f"(both-directions convention {2 * edges.mean():.2f})")
    labels: dict[int, int] = {}
    for g in gs.graphs:
        labels[g.label] = labels.get(g.label, 0) + 1
    print("labels: " + ", ".join(f"{k}: {v}" for k, v in sorted(labels.items())))
    print(f"fingerprint: {dataset_fingerprint(gs)}")
    out = args.out or f"{args.name}_canonical.json"
    with atomic_write(out, "wb") as fh:
        fh.write(canonical_bytes(graphset_to_dict(gs)) + b"\n")
    print(f"wrote {out}")
    return 0


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    if getattr(args, "variant", None):
        config.variant = args.variant
    if getattr(args, "seed_override", None):
        config.seeds = tuple(int(v) for v in args.seed_override.split(","))
    return config.validate()


def _store(config: ExperimentConfig, args) -> PhaseStore:
    out_dir = args.out_dir or os.path.join(
        "runs", f"{config.dataset}_{config.variant}")
    return PhaseStore(out_dir, config.fingerprint())


_PHASE_DONE = {"source": "encoder trained", "flow": "flow written",
               "target": "student trained"}


def cmd_train(args) -> int:
    config = _apply_overrides(parse_config_file(args.config), args)
    store = _store(config, args)
    gs, normal, inputs = prepare_experiment(load_dataset(config), config)
    phases = PHASES if args.phase == "all" else (args.phase,)
    for seed in config.seeds:
        result = run_seed(gs, inputs, config, seed, normal, store=store,
                          train=phases, score=False)
        for phase in phase_chain(config.variant):
            if phase in phases:
                trace = result.traces.get(phase)
                note = ("identity" if trace is None else
                        f"final loss {trace[-1]:.4f}" if trace else "no epochs")
                print(f"seed {seed}: {_PHASE_DONE[phase]} ({note})")
    return 0


def cmd_eval(args) -> int:
    config = _apply_overrides(parse_config_file(args.config), args)
    store = _store(config, args)
    t0 = time.perf_counter()
    gs = load_dataset(config)
    t1 = time.perf_counter()
    gs, normal, inputs = prepare_experiment(gs, config)
    once = {"load": t1 - t0, "setup": time.perf_counter() - t1}
    missing = [seed for seed in config.seeds
               if not os.path.isfile(store.path(seed, "source"))]
    if missing:
        raise PhaseOrderError(
            f"no encoder checkpoint for seeds {missing}; run train first")

    results = []
    for seed in config.seeds:
        results.append(run_seed(gs, inputs, config, seed, normal, store=store,
                                train=()))
        print(f"seed {seed}: AUC {results[-1].auc:.4f}")
    report = build_report(gs, config, normal, results, once)
    report_path = os.path.join(store.root, "report.json")
    with atomic_write(report_path, encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=1)
        fh.write("\n")
    write_csv(os.path.join(store.root, "scores.csv"),
              ["seed", "graph", "flag", "score", "raw"],
              [[r.seed, rec["graph"], int(rec["flag"]), repr(rec["score"]),
                repr(rec["raw"])] for r in results for rec in r.records])
    print(f"{gs.name} {config.variant} "
          f"{100 * report.auc_mean:.2f}±{100 * report.auc_std:.2f}")
    print(f"wrote {report_path}")
    return 0


def cmd_plotdata(args) -> int:
    if not os.path.isfile(args.report):
        raise DatasetError("report file not found", path=args.report)
    with open(args.report, "r", encoding="utf-8") as fh:
        try:
            report = report_from_dict(json.load(fh))
        except (json.JSONDecodeError, KeyError) as exc:
            raise DatasetError(f"malformed report: {exc}", path=args.report) from None
    if not report.per_seed:
        raise DatasetError("report contains no seed results", path=args.report)
    out_dir = args.out_dir or os.path.dirname(os.path.abspath(args.report))

    records = [r for p in report.per_seed for r in p["records"]]
    edges, normal, anomalous = score_histogram(records)
    write_csv(os.path.join(out_dir, "histogram.csv"),
              ["bin_lo", "bin_hi", "normal", "anomalous"],
              [[repr(float(edges[i])), repr(float(edges[i + 1])),
                int(normal[i]), int(anomalous[i])]
               for i in range(len(normal))])
    print(f"wrote {os.path.join(out_dir, 'histogram.csv')}")

    config = config_from_dict(report.config)
    store = PhaseStore(os.path.dirname(os.path.abspath(args.report)),
                       report.config_fingerprint)
    first_seed = report.per_seed[0]["seed"]
    if not os.path.isfile(store.path(first_seed, "source")):
        print("no checkpoints next to the report; skipping embedding export")
        return 0
    gs, _, inputs = prepare_experiment(load_dataset(config), config)
    split = make_anomaly_split(gs, report.normal_class, config.test_fraction,
                               first_seed)
    models, _ = store.load_chain(first_seed, phase_chain(config.variant))
    embeddings = export_embeddings(inputs, split.test, models["encoder"],
                                   models.get("flow"), models.get("student"),
                                   config)
    for stage, rows in embeddings.items():
        write_csv(os.path.join(out_dir, f"embeddings_{stage}.csv"),
                  ["graph", "flag"] + [f"e{j}" for j in range(config.d)],
                  [row[:2] + [repr(v) for v in row[2:]] for row in rows])
        print(f"wrote {os.path.join(out_dir, f'embeddings_{stage}.csv')}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowgad",
        description="Graph-level anomaly detection by flow-guided distillation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="parse a dataset and dump stats + canonical JSON")
    p.add_argument("directory", help="dataset directory")
    p.add_argument("name", help="dataset name (file prefix)")
    p.add_argument("--out", help="canonical JSON path")
    p.set_defaults(fn=cmd_prepare)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--variant", choices=("full", "non_st", "asy_st", "non_nf"))
    common.add_argument("--seed-override", help="comma-separated seed list")
    common.add_argument("--out-dir", help="run directory (default runs/<dataset>_<variant>)")

    p = sub.add_parser("train", parents=[common],
                       help="run training phases and write checkpoints")
    p.add_argument("config", help="key = value config file")
    p.add_argument("--phase", choices=("all", "source", "flow", "target"),
                   default="all")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", parents=[common],
                       help="score held-out graphs from checkpoints")
    p.add_argument("config", help="key = value config file")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("plotdata", parents=[common],
                       help="emit histogram and embedding CSVs from a report")
    p.add_argument("report", help="path to report.json")
    p.set_defaults(fn=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FlowgadError as exc:
        for klass, code in EXIT_CODES:
            if isinstance(exc, klass):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
