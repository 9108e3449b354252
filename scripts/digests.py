"""Print result digests that a byte-identity claim can be checked against.

For every ablation variant and batch size this runs ``run_experiment`` on
the default planted set (seeds 0 and 1, 5 epochs per phase) and prints two
digests followed by the per-seed AUCs. The ``report`` digest is
``sha256(ScoreReport.canonical_bytes())``; it covers the configuration, so
it moves whenever a config field is added or removed. The ``per_seed``
digest covers only the per-seed results (records, traces, AUCs), so a
change to the configuration surface can still show that it left every
result bit-identical. Run it on two commits and diff the output: a change
that claims byte-identical results must print the same lines, and a change
that moves the digests reports its AUCs from the same output. The digests
depend on the numpy and BLAS build and on the BLAS thread count, so compare
runs made on one machine with one setting.

Usage: PYTHONPATH=src python3 scripts/digests.py
"""

from __future__ import annotations

import hashlib

from flowgad.data import payload_fingerprint
from flowgad.pipeline import VARIANTS, ExperimentConfig, run_experiment
from flowgad.synthetic import planted_anomaly_set

BATCH_SIZES = (1, 4)


def digests(variant: str, batch_size: int) -> tuple[str, str, list]:
    """The report digest, the per-seed digest and the per-seed AUCs of
    one run."""
    config = ExperimentConfig(variant=variant, seeds=(0, 1), s_epochs=5,
                              n_epochs=5, t_epochs=5, batch_size=batch_size)
    report, _ = run_experiment(planted_anomaly_set(), config)
    aucs = [seed["auc"] for seed in report.per_seed]
    return (hashlib.sha256(report.canonical_bytes()).hexdigest(),
            payload_fingerprint(report.per_seed), aucs)


def main():
    for variant in VARIANTS:
        for batch_size in BATCH_SIZES:
            report, per_seed, aucs = digests(variant, batch_size)
            print(f"{variant:<7} batch {batch_size}  report {report}  "
                  f"per_seed {per_seed}  auc "
                  + " ".join(f"{auc:.4f}" for auc in aucs))


if __name__ == "__main__":
    main()
