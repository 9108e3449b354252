"""Print report digests that a byte-identity claim can be checked against.

For every ablation variant and batch size this runs ``run_experiment`` on
the default planted set (seeds 0 and 1, 5 epochs per phase) and prints
``sha256(ScoreReport.canonical_bytes())``. Run it on two commits and diff
the output: a change that claims byte-identical results must print the
same lines. The digests depend on the numpy and BLAS build and on the BLAS
thread count, so compare runs made on one machine with one setting.

Usage: PYTHONPATH=src python3 scripts/digests.py
"""

from __future__ import annotations

import hashlib

from flowgad.pipeline import ExperimentConfig, run_experiment
from flowgad.synthetic import planted_anomaly_set

VARIANTS = ("full", "non_st", "asy_st", "non_nf")
BATCH_SIZES = (1, 4)


def digest(variant: str, batch_size: int) -> str:
    config = ExperimentConfig(variant=variant, seeds=(0, 1), s_epochs=5,
                              n_epochs=5, t_epochs=5, batch_size=batch_size)
    report, _ = run_experiment(planted_anomaly_set(), config)
    return hashlib.sha256(report.canonical_bytes()).hexdigest()


def main():
    for variant in VARIANTS:
        for batch_size in BATCH_SIZES:
            print(f"{variant:<7} batch {batch_size}  {digest(variant, batch_size)}")


if __name__ == "__main__":
    main()
