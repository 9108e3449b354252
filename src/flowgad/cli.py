"""Command-line surface: prepare, train, eval, plotdata.

``prepare`` parses a dataset directory and prints its statistics and its
fingerprint. ``train`` runs the three phases (together or one at a
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
from .data import dataset_fingerprint, make_anomaly_split, parse_tudataset
from .errors import (ConfigError, DatasetError, FlowgadError, NumericFault,
                     PhaseOrderError, TrainingFault, UndefinedMetricError)
from .pipeline import (PHASES, VARIANTS, ExperimentConfig, build_report,
                       config_from_dict, export_embeddings, phase_chain,
                       prepare_experiment, report_from_dict, score_histogram,
                       score_seed, train_seed)
from .synthetic import planted_anomaly_set

EXIT_CODES = (
    (DatasetError, 2),
    (ConfigError, 3),
    (PhaseOrderError, 4),
    (NumericFault, 5),
    (TrainingFault, 5),
    (UndefinedMetricError, 6),
)

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
            if key not in _DEFAULTS:
                raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
            if key in raw:
                raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
            raw[key] = _parse_value(key, value, path, line_no)
    return config_from_dict(raw)


def _parse_seeds(value: str) -> tuple:
    """A comma-separated seed list, as the ``seeds`` key and
    ``--seed-override`` take it. Raises ValueError on an empty or
    non-integer entry."""
    return tuple(int(v) for v in value.split(","))


def _parse_value(key: str, value: str, path: str, line_no: int):
    kind = type(_DEFAULTS[key])
    try:
        if key == "seeds":
            return _parse_seeds(value)
        if key == "normal_class":
            return value if value == "majority" else int(value)
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
    return 0


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    if getattr(args, "variant", None):
        config.variant = args.variant
    if getattr(args, "seed_override", None) is not None:
        try:
            config.seeds = _parse_seeds(args.seed_override)
        except ValueError:
            raise ConfigError(f"--seed-override: bad seed list "
                              f"{args.seed_override!r}") from None
    return config.validate()


def _store(config: ExperimentConfig, args, gs) -> PhaseStore:
    """The run directory's checkpoints, bound to ``config`` and to ``gs``,
    the subsampled set that ``prepare_experiment`` returned."""
    out_dir = args.out_dir or os.path.join(
        "runs", f"{config.dataset}_{config.variant}")
    return PhaseStore(out_dir, config.fingerprint(), dataset_fingerprint(gs))


_PHASE_DONE = {"source": "encoder trained", "flow": "flow written",
               "target": "student trained"}


def cmd_train(args) -> int:
    config = _apply_overrides(parse_config_file(args.config), args)
    chain = phase_chain(config.variant)
    if args.phase != "all" and args.phase not in chain:
        raise ConfigError(f"--phase {args.phase}: variant {config.variant} "
                          f"runs only {', '.join(chain)}")
    gs, normal, inputs = prepare_experiment(load_dataset(config), config,
                                            "train")
    store = _store(config, args, gs)
    phases = chain if args.phase == "all" else (args.phase,)
    for seed in config.seeds:
        result = train_seed(gs, inputs, config, seed, normal, store=store,
                            phases=phases)
        for phase in phases:
            trace = result.traces.get(phase)
            note = ("identity" if trace is None else
                    f"final loss {trace[-1]:.4f}" if trace else "no epochs")
            print(f"seed {seed}: {_PHASE_DONE[phase]} ({note})")
    return 0


def cmd_eval(args) -> int:
    config = _apply_overrides(parse_config_file(args.config), args)
    t0 = time.perf_counter()
    gs = load_dataset(config)
    t1 = time.perf_counter()
    gs, normal, inputs = prepare_experiment(gs, config, "test")
    once = {"load": t1 - t0, "setup": time.perf_counter() - t1}
    store = _store(config, args, gs)
    missing = [seed for seed in config.seeds
               if not os.path.isfile(store.path(seed, "source"))]
    if missing:
        raise PhaseOrderError(
            f"no encoder checkpoint for seeds {missing}; run train first")

    results = []
    for seed in config.seeds:
        # no phase is trained here: score_seed reads the chain from the store
        trained = train_seed(gs, inputs, config, seed, normal, store=store,
                             phases=())
        results.append(score_seed(trained, inputs, config, store=store))
        print(f"seed {seed}: AUC {results[-1].auc:.4f}")
    report = build_report(gs, config, normal, results, once)
    report_path = os.path.join(store.root, "report.json")
    with atomic_write(report_path, encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=1)
        fh.write("\n")
    write_csv(os.path.join(store.root, "scores.csv"),
              ["seed", "graph", "flag", "score"],
              [[r.seed, rec["graph"], int(rec["flag"]), repr(rec["score"])]
               for r in results for rec in r.records])
    print(f"{gs.name} {config.variant} "
          f"{100 * report.auc_mean:.2f}±{100 * report.auc_std:.2f}")
    print(f"wrote {report_path}")
    return 0


def cmd_plotdata(args) -> int:
    if not os.path.isfile(args.report):
        raise DatasetError("report file not found", path=args.report)
    with open(args.report, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
            if not isinstance(raw, dict):
                raise TypeError(f"the top level is a {type(raw).__name__}, "
                                f"not an object")
            report = report_from_dict(raw)
            if not report.per_seed:
                raise DatasetError("report contains no seed results",
                                   path=args.report)
            records = [r for p in report.per_seed for r in p["records"]]
            edges, normal, anomalous = score_histogram(records)
            if not isinstance(report.config, dict):
                raise TypeError(f"config is a {type(report.config).__name__}")
            first_seed = report.per_seed[0]["seed"]
        except (ValueError, KeyError, TypeError) as exc:
            # a JSON syntax error is a ValueError; a missing entry a KeyError
            raise DatasetError(f"malformed report: {type(exc).__name__} {exc}",
                               path=args.report) from None
    config = config_from_dict(report.config)
    if config.fingerprint() != report.config_fingerprint:
        # the checkpoints beside the report are bound to the fingerprint,
        # and the inputs would be built from the edited config
        raise PhaseOrderError(f"the report's config does not match its "
                              f"config_fingerprint; re-run eval [{args.report}]")
    out_dir = args.out_dir or os.path.dirname(os.path.abspath(args.report))

    write_csv(os.path.join(out_dir, "histogram.csv"),
              ["bin_lo", "bin_hi", "normal", "anomalous"],
              [[repr(float(edges[i])), repr(float(edges[i + 1])),
                int(normal[i]), int(anomalous[i])]
               for i in range(len(normal))])
    print(f"wrote {os.path.join(out_dir, 'histogram.csv')}")

    store = PhaseStore(os.path.dirname(os.path.abspath(args.report)),
                       config.fingerprint(), report.data_fingerprint)
    if not os.path.isfile(store.path(first_seed, "source")):
        print("no checkpoints next to the report; skipping embedding export")
        return 0
    gs, _, inputs = prepare_experiment(
        load_dataset(config), dataclasses.replace(config, seeds=(first_seed,)),
        "test")
    # the checkpoints must match the data embedded now, not only the report
    store = dataclasses.replace(store, data_fingerprint=dataset_fingerprint(gs))
    split = make_anomaly_split(gs, report.normal_class, config.test_fraction,
                               first_seed)
    models, _ = store.load_chain(first_seed, phase_chain(config.variant))
    embeddings = export_embeddings(inputs, split.test, models, config)
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

    p = sub.add_parser("prepare", help="parse a dataset and print its stats "
                                       "and fingerprint")
    p.add_argument("directory", help="dataset directory")
    p.add_argument("name", help="dataset name (file prefix)")
    p.set_defaults(fn=cmd_prepare)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--variant", choices=VARIANTS)
    common.add_argument("--seed-override", help="comma-separated seed list")
    common.add_argument("--out-dir", help="run directory (default runs/<dataset>_<variant>)")

    p = sub.add_parser("train", parents=[common],
                       help="run training phases and write checkpoints")
    p.add_argument("config", help="key = value config file")
    p.add_argument("--phase", choices=("all",) + PHASES, default="all")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", parents=[common],
                       help="score held-out graphs from checkpoints")
    p.add_argument("config", help="key = value config file")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("plotdata",
                       help="emit histogram and embedding CSVs from a report")
    p.add_argument("report", help="path to report.json")
    p.add_argument("--out-dir", help="CSV directory (default: the report's)")
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
