"""Print report digests that a byte-identity claim can be checked against.

For every ablation variant and batch size this runs ``run_experiment`` on
the default planted set (seeds 0 and 1, 5 epochs per phase) and prints
``sha256(ScoreReport.canonical_bytes())`` followed by the per-seed AUCs.
Two more lines per batch size run ``full`` with the mean readout and with
the squared Euclidean distance, the non-default paths of the student loss.
Run it on two commits and diff the output: a change that claims
byte-identical results must print the same lines, and a change that moves
the digests reports its AUCs from the same output. The digests depend on
the numpy and BLAS build and on the BLAS thread count, so compare runs
made on one machine with one setting.

Usage: PYTHONPATH=src python3 scripts/digests.py
"""

from __future__ import annotations

import hashlib

from flowgad.pipeline import VARIANTS, ExperimentConfig, run_experiment
from flowgad.synthetic import planted_anomaly_set

BATCH_SIZES = (1, 4)
# (label, config overrides): every variant at the defaults, then ``full``
# with each non-default student-loss option
RUNS = ([(variant, {"variant": variant}) for variant in VARIANTS]
        + [("full/readout=mean", {"variant": "full", "readout": "mean"}),
           ("full/distance=sqeuclidean",
            {"variant": "full", "distance": "sqeuclidean"})])


def digest(overrides: dict, batch_size: int) -> tuple[str, list]:
    """The report digest and the per-seed AUCs of one run."""
    config = ExperimentConfig(seeds=(0, 1), s_epochs=5, n_epochs=5,
                              t_epochs=5, batch_size=batch_size, **overrides)
    report, _ = run_experiment(planted_anomaly_set(), config)
    aucs = [seed["auc"] for seed in report.per_seed]
    return hashlib.sha256(report.canonical_bytes()).hexdigest(), aucs


def main():
    for label, overrides in RUNS:
        for batch_size in BATCH_SIZES:
            hexdigest, aucs = digest(overrides, batch_size)
            print(f"{label:<7} batch {batch_size}  {hexdigest}  auc "
                  + " ".join(f"{auc:.4f}" for auc in aucs))


if __name__ == "__main__":
    main()
