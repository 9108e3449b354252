"""The benchmark's workloads: input shapes, run settings, expected counts.

Each workload is planted graphs scaled to one public dataset's graph sizes,
because the real AIDS, BZR and DD files are not in the repository. Graph
sizes are fixed per graph index, evenly spread over the size range, and the
workload seed changes only which edges are drawn. The dense kernels do the
same work on every seed, so the spread between seeds measures the machine
rather than the input.

This module does not import ``flowgad`` at import time; the harness process
uses only the shapes and counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

TEST_FRACTION = 0.15    # the library default, passed explicitly
PHASES = 3              # teacher, flow and student are each trained


@dataclass(frozen=True)
class Workload:
    name: str
    runner: str             # "library": run_experiment; "cli": train, eval, plotdata
    num_normal: int
    num_anomalous: int
    n_range: tuple[int, int]
    p_in: float
    p_out: float
    p_sparse: float
    seeds: tuple[int, ...]
    epochs: int             # per phase
    batch_size: int
    why: str                # shape, layers stressed and reason, for BENCHMARK.json

    def sizes(self, count: int) -> list[int]:
        """Node counts evenly spread over ``n_range``."""
        lo, hi = self.n_range
        if count == 1:
            return [lo]
        return [lo + round(i * (hi - lo) / (count - 1)) for i in range(count)]

    def n_train(self) -> int:
        """Normal graphs left for training after the held-out share, which
        the split rounds half up."""
        return self.num_normal - math.floor(TEST_FRACTION * self.num_normal + 0.5)

    def graph_passes(self) -> int:
        """One graph through one epoch of one phase for one seed."""
        return len(self.seeds) * PHASES * self.epochs * self.n_train()

    def adam_steps(self) -> int:
        batches = math.ceil(self.n_train() / self.batch_size)
        return len(self.seeds) * PHASES * self.epochs * batches

    def config(self) -> dict:
        return dict(seeds=self.seeds, s_epochs=self.epochs,
                    n_epochs=self.epochs, t_epochs=self.epochs,
                    batch_size=self.batch_size, test_fraction=TEST_FRACTION)

    def smoke(self) -> "Workload":
        """A handful of graphs and one epoch, for the harness's own tests."""
        return replace(self, num_normal=8, num_anomalous=3, seeds=self.seeds[:1],
                       epochs=1)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="planted-small", runner="library",
        num_normal=50, num_anomalous=10, n_range=(10, 16),
        p_in=0.6, p_out=0.2, p_sparse=0.3,
        seeds=(0, 1, 2), epochs=30, batch_size=1,
        why=("AIDS-scale: 60 graphs of 10-16 nodes, 3 seeds x 30 epochs, batch 1. "
             "Stresses autodiff, optim, flow, target: 11,340 tiny steps, so per-step "
             "tape and Adam overhead dominate")),
    Workload(
        name="planted-large", runner="library",
        num_normal=16, num_anomalous=4, n_range=(300, 600),
        p_in=0.02, p_out=0.002, p_sparse=0.011,
        seeds=(0,), epochs=10, batch_size=1,
        why=("DD-scale: 20 graphs of 300-600 nodes at degree ~5, 1 seed x 10 epochs. "
             "Stresses source, encoding, matmul: n^2 loss buffers, n^3 RWSE set-up "
             "and memory dominate")),
    Workload(
        name="cli-roundtrip", runner="cli",
        num_normal=240, num_anomalous=160, n_range=(20, 40),
        p_in=0.6, p_out=0.2, p_sparse=0.3,
        seeds=(0, 1, 2), epochs=3, batch_size=8,
        why=("BZR-scale: 400 graphs of 20-40 nodes on disk; flowgad train, eval, "
             "plotdata, batch 8. Stresses data, checkpoint, cli, pipeline: 3 parses, "
             "9 checkpoint writes, 21 reads")),
)}
