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

Those graphs have 10-16 nodes. Two more lines, ``full`` at batch 1 and 4
marked ``large``, run a planted set of 30 graphs of 150-300 nodes (seed 0,
2 epochs per phase), so that a byte-identity claim also covers the dense
kernels at sizes where their n x n work dominates.

For each of the two graph sets, an ``encoding`` line gives the sha256 of
the bytes of every graph's ``rw_structural_encoding(adjacency, 16)``, in
order: a change can show whether the node features moved or only
training did. An ``inputs`` line gives, for each set, the bytes that
``precompute_inputs`` keeps for all its graphs: the adjacencies, the
A_hat operators (the index plus the values of their nonzeros,
``autodiff.Nonzeros.nbytes``) and the initial features. Those counts are
exact and the same on every machine, so a change that moves the inputs'
footprint shows it beside the digests. A ``held`` line gives, for each set, the bytes of
A_hat and initial features that ``run_experiment`` holds while it trains
(the training normals of every seed) and while it scores (the held-out
graphs of every seed), with the graph counts, under the seeds of that
set's digest lines. The adjacencies belong to the graph set and stay
either way, so they are left out. These counts are exact and
machine-independent too. A ``nodes`` line gives, at batch 1 and at batch
4, the mean count of tape nodes a training step of each phase records on
the default planted set (variant ``full``, one epoch per phase). That
count is exact and the same on every machine too, so a change that adds
or removes nodes shows it without a benchmark run. A ``workspace`` line
gives, for each set at batch 1 and at batch 4, each trained phase's
workspace high-water bytes (the largest total of regions any of its
tapes took) and the number of memory mappings its workspace made, in one
``run_experiment`` of seed 0 with one epoch per phase. Every trained
phase writes its packs' dense A_hat or A there, so none reads 0 B; the
flow's is its packs' A_hat alone. The bytes are exact and
machine-independent, so a change to the workspace shows whether it moved
any byte. The whole script runs in a few seconds on
two cores.

A ``parse`` line writes the default planted set with ``write_tudataset``,
parses it back, and gives the ``dataset_fingerprint`` of what was read and
the parse's transient: its tracemalloc peak above the bytes it keeps, as a
multiple of the edge file's float64 table (16 bytes a line). Both are
exact for one numpy version, so a change to the parser shows whether it
read other values or held more at once.

The first line, ``environment``, prints ``pipeline.environment()``: the
numpy and BLAS versions, the BLAS thread variables (None when unset), the
thread count BLAS runs at (``blas_threads``) and the CPU count. The
digests of the 150-300-node set differ between 1 and 2 OpenBLAS threads,
so a diff of two runs made under different settings shows it on that
first line.

Usage: PYTHONPATH=src python3 scripts/digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import tempfile
import tracemalloc
import weakref

from flowgad import autodiff as ad
from flowgad import pipeline
from flowgad.data import (dataset_fingerprint, parse_tudataset,
                          payload_fingerprint, write_tudataset)
from flowgad.encoding import rw_structural_encoding
from flowgad.pipeline import (VARIANTS, ExperimentConfig, environment,
                              precompute_inputs, run_experiment)
from flowgad.synthetic import planted_anomaly_set

BATCH_SIZES = (1, 4)


def large_set():
    """30 planted graphs of 150-300 nodes at a mean degree of about 5."""
    return planted_anomaly_set(num_normal=24, num_anomalous=6,
                               n_range=(150, 300), p_in=0.04, p_out=0.004,
                               p_sparse=0.02)


def digests(gs, config) -> tuple[str, str, list]:
    """The report digest, the per-seed digest and the per-seed AUCs of
    one run."""
    report, _ = run_experiment(gs, config)
    aucs = [seed["auc"] for seed in report.per_seed]
    return (hashlib.sha256(report.canonical_bytes()).hexdigest(),
            payload_fingerprint(report.per_seed), aucs)


def encoding_digest(gs) -> str:
    """sha256 over the bytes of each graph's 16-step encoding, in order."""
    h = hashlib.sha256()
    for g in gs.graphs:
        h.update(rw_structural_encoding(g.adjacency, 16).tobytes())
    return h.hexdigest()


def input_bytes(gs) -> str:
    """The bytes of every graph's adjacency, A_hat and initial features as
    ``precompute_inputs`` builds them at k_se = 16."""
    inputs = precompute_inputs(gs, ExperimentConfig(k_se=16),
                               range(len(gs))).values()
    return "  ".join(f"{name} {sum(getattr(gi, name).nbytes for gi in inputs)}"
                     for name in ("adjacency", "a_hat", "x_init"))


def held_bytes(gs, seeds) -> str:
    """The A_hat and initial-feature bytes of the inputs ``run_experiment``
    hands to ``train_seed`` and to ``score_seed`` at k_se = 16, over
    ``seeds``, with no epochs."""
    held = {}
    real = {name: getattr(pipeline, name) for name in ("train_seed", "score_seed")}

    def spy(name):
        def run(*args, **kwargs):
            inputs = args[1]
            held.setdefault(name, (len(inputs), sum(
                gi.a_hat.nbytes + gi.x_init.nbytes for gi in inputs.values())))
            return real[name](*args, **kwargs)
        return run

    for name in real:
        setattr(pipeline, name, spy(name))
    try:
        run_experiment(gs, ExperimentConfig(seeds=seeds, k_se=16, s_epochs=0,
                                            n_epochs=0, t_epochs=0))
    finally:
        for name, fn in real.items():
            setattr(pipeline, name, fn)
    return "  ".join(f"{side} {held[name][1]} ({held[name][0]} graphs)"
                     for side, name in (("train", "train_seed"),
                                        ("score", "score_seed")))


def parse_check() -> str:
    """The fingerprint of the default planted set written out and parsed
    back, and the parse's transient over the edge file's float64 table."""
    with tempfile.TemporaryDirectory() as directory:
        write_tudataset(planted_anomaly_set(), directory, "PLANTED")
        with open(os.path.join(directory, "PLANTED_A.txt")) as fh:
            table = 16 * sum(1 for _ in fh)
        tracemalloc.start()
        try:
            back = parse_tudataset(directory, "PLANTED")
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return (f"{dataset_fingerprint(back)}  transient "
            f"{(peak - kept) / table:.2f} x edge table")


@contextlib.contextmanager
def phase_marked():
    """Yields a one-item list that names the phase whose runner is running
    (None outside the phase runners) while the block runs."""
    phase = [None]
    real_phases = {name: getattr(pipeline, f"run_phase_{name}")
                   for name in ("source", "flow", "target")}

    def in_phase(name):
        def run(*args, **kwargs):
            phase[0] = name
            try:
                return real_phases[name](*args, **kwargs)
            finally:
                phase[0] = None
        return run

    for name in real_phases:
        setattr(pipeline, f"run_phase_{name}", in_phase(name))
    try:
        yield phase
    finally:
        for name, run in real_phases.items():
            setattr(pipeline, f"run_phase_{name}", run)


def step_ops(gs, config) -> dict:
    """Per trained phase, the op names of each training step's tape, in
    order, in one ``run_experiment``."""
    steps = {}
    real_backward = ad.Tape.backward

    def backward(tape, loss):
        if phase[0] is not None:
            steps.setdefault(phase[0], []).append(
                [node.op for node in tape.nodes])
        return real_backward(tape, loss)

    ad.Tape.backward = backward
    try:
        with phase_marked() as phase:
            run_experiment(gs, config)
    finally:
        ad.Tape.backward = real_backward
    return steps


def workspace_use(gs, batch_size) -> dict:
    """Per trained phase, the high-water bytes of its workspace and the
    number of memory mappings the workspace made, in one
    ``run_experiment`` of seed 0 with one epoch per phase."""
    use = {}
    real_workspace = ad.Workspace

    class Recording(real_workspace):
        def __init__(self):
            super().__init__()
            self.mappings = []      # a weak reference per mapping made
            use[phase[0]] = self

        def take(self, nbytes):
            region = super().take(nbytes)
            mapping = self._buffer.base
            if mapping is not None and (not self.mappings
                                        or self.mappings[-1]() is not mapping):
                self.mappings.append(weakref.ref(mapping))
            return region

    ad.Workspace = Recording
    try:
        with phase_marked() as phase:
            run_experiment(gs, ExperimentConfig(seeds=(0,), s_epochs=1,
                                                n_epochs=1, t_epochs=1,
                                                batch_size=batch_size))
    finally:
        ad.Workspace = real_workspace
    return {name: (workspace._high, len(workspace.mappings))
            for name, workspace in use.items()}


def runs():
    """(label, graph set, config) of every printed line."""
    for variant in VARIANTS:
        for batch_size in BATCH_SIZES:
            yield (f"{variant:<7} batch {batch_size}", planted_anomaly_set(),
                   ExperimentConfig(variant=variant, seeds=(0, 1), s_epochs=5,
                                    n_epochs=5, t_epochs=5,
                                    batch_size=batch_size))
    for batch_size in BATCH_SIZES:
        yield (f"full    batch {batch_size} large", large_set(),
               ExperimentConfig(variant="full", seeds=(0,), s_epochs=2,
                                n_epochs=2, t_epochs=2, batch_size=batch_size))


def main():
    print("environment "
          + " ".join(f"{key}={value}" for key, value in environment().items()))
    for label, gs, seeds in (("default", planted_anomaly_set(), (0, 1)),
                             ("large  ", large_set(), (0,))):
        print(f"encoding {label}  {encoding_digest(gs)}")
        print(f"inputs   {label}  {input_bytes(gs)}")
        print(f"held     {label}  {held_bytes(gs, seeds)}")
    print(f"parse    default  {parse_check()}")
    for batch_size in BATCH_SIZES:
        steps = step_ops(planted_anomaly_set(), ExperimentConfig(
            seeds=(0,), s_epochs=1, n_epochs=1, t_epochs=1,
            batch_size=batch_size))
        print(f"nodes    batch {batch_size}  " + "  ".join(
            f"{name} {sum(map(len, ops)) / len(ops):.2f}"
            for name, ops in steps.items()))
    for label, gs in (("default", planted_anomaly_set()),
                      ("large  ", large_set())):
        for batch_size in BATCH_SIZES:
            print(f"workspace {label} batch {batch_size}  " + "  ".join(
                f"{name} {high} B mappings {maps}" for name, (high, maps)
                in workspace_use(gs, batch_size).items()))
    for label, gs, config in runs():
        report, per_seed, aucs = digests(gs, config)
        print(f"{label}  report {report}  per_seed {per_seed}  auc "
              + " ".join(f"{auc:.4f}" for auc in aucs))


if __name__ == "__main__":
    main()
