"""Three-phase training orchestration, scoring, AUC, variants, reports.

Phase 1 pre-trains the reconstruction encoder on normal graphs and freezes
it. Phase 2 fits the coupling flow to the frozen embeddings. Phase 3
distills a student network toward the flow outputs. A graph's anomaly score
is the distillation loss at beta = 1/2: the disagreement between student
and flow at graph and node level.

Variants swap parts out: ``non_st`` stops after phase 1 and scores by
reconstruction loss; ``asy_st`` drops the flow and distills a student with
the same architecture as the encoder (symmetric pair); ``non_nf`` drops the
flow but keeps the heterogeneous student.

Training, the per-graph set-up of each phase and scoring run on packs of
``batch_size`` graphs: one tape, or one frozen forward pass, per pack. A
pack of one graph computes exactly what that graph alone does. Each phase
runner builds its training packs once, with ``packs``, the one place that
groups graphs.

Set-up builds each graph's inputs (A_hat and the initial features) once
per command, and only for the graphs the command trains on or scores.
Small graphs get their random-walk encoding in stacks of one node count,
up to ``STACK_ELEMENTS`` adjacency entries per stack; larger graphs one at
a time. Either way the bits are those of the graph alone.

Every piece of randomness draws from a stream derived from (seed, phase),
so phases are individually reproducible, and a split guard vets each graph
index handed to a trainer so test data can never leak into training.

``train_seed`` is the one place that sequences a seed's phases, and
``score_seed`` the one place that scores its held-out graphs. The library
and the command line call both: the library passes models in memory,
trains every seed before it scores any, and so, like the command line's
``train`` and ``eval``, holds only one side's inputs at a time. The command
line hands both functions a ``PhaseStore``, so that each phase is
checkpointed and read back.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import time
from dataclasses import dataclass, asdict, field, fields, replace

import numpy as np

from . import autodiff as ad
from .checkpoint import PhaseStore
from .data import (AnomalySplit, GraphSet, canonical_bytes, dataset_fingerprint,
                   majority_class, make_anomaly_split, normalized_adjacency,
                   payload_fingerprint)
from .encoding import rw_structural_encoding
from .errors import (ConfigError, ContractViolation, PhaseOrderError,
                     TrainingFault, UndefinedMetricError)
from .flow import GraphFlow, train_flow
from .optim import freeze, is_frozen, make_rng
from .source import (FeatureDecoder, GcnEncoder, graph_source_loss,
                     pretrain_source)
from .target import GinNetwork, graph_target_loss, train_target

VARIANTS = ("full", "non_st", "asy_st", "non_nf")
PHASES = ("source", "flow", "target")


@dataclass
class ExperimentConfig:
    dataset: str = "planted"
    data_dir: str = "data"
    normal_class: object = "majority"   # int label or the string "majority"
    test_fraction: float = 0.15
    seeds: tuple = (0, 1, 2, 3, 4)
    variant: str = "full"
    alpha: float = 0.7
    beta: float = 0.6
    gcn_layers: int = 2
    hidden: int = 16
    d: int = 16
    flow_steps: int = 2
    s_max: float = 2.0
    gin_layers: int = 2
    k_se: int = 16
    s_epochs: int = 100
    n_epochs: int = 100
    t_epochs: int = 100
    lr: float = 1e-3
    batch_size: int = 1
    max_graphs: int = 0                 # 0 keeps the whole set

    def validate(self) -> "ExperimentConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "seeds":
                if not (isinstance(value, (list, tuple))
                        and all(_is_a(v, int) for v in value)):
                    raise ConfigError(f"seeds must be a list of integers, "
                                      f"got {value!r}")
            elif f.name != "normal_class" and not _is_a(value, type(f.default)):
                raise ConfigError(f"{f.name} must be "
                                  f"{_TYPE_NAMES[type(f.default)]}, "
                                  f"got {value!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not (0.0 <= self.beta <= 1.0):
            raise ConfigError(f"beta must lie in [0, 1], got {self.beta}")
        if not (0.0 < self.test_fraction < 1.0):
            raise ConfigError(f"test_fraction must lie in (0, 1), got {self.test_fraction}")
        if self.d < 2 or self.d % 2 != 0:
            raise ConfigError(f"d must be even and at least 2, got {self.d}")
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if min(self.seeds) < 0 or len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be non-negative and distinct, "
                              f"got {list(self.seeds)}")
        for name, v in (("gcn_layers", self.gcn_layers), ("hidden", self.hidden),
                        ("flow_steps", self.flow_steps), ("gin_layers", self.gin_layers),
                        ("k_se", self.k_se), ("batch_size", self.batch_size)):
            if v < 1:
                raise ConfigError(f"{name} must be positive, got {v}")
        for name, v in (("s_epochs", self.s_epochs), ("n_epochs", self.n_epochs),
                        ("t_epochs", self.t_epochs), ("max_graphs", self.max_graphs)):
            if v < 0:
                raise ConfigError(f"{name} must be non-negative, got {v}")
        for name, v in (("lr", self.lr), ("s_max", self.s_max)):
            if not (math.isfinite(v) and v > 0):
                raise ConfigError(f"{name} must be positive and finite, got {v}")
        if not _is_a(self.normal_class, int) and self.normal_class != "majority":
            raise ConfigError(
                f"normal_class must be an integer label or 'majority', got {self.normal_class!r}")
        return self

    def to_dict(self) -> dict:
        d = asdict(self)
        d["seeds"] = list(self.seeds)
        return d

    def fingerprint(self) -> str:
        return payload_fingerprint(self.to_dict())


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _is_a(value, kind) -> bool:
    """Whether ``value`` fits a field whose default is of type ``kind``:
    an int field takes an int, a float field an int or a float, and
    neither takes a bool."""
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def config_from_dict(d: dict) -> ExperimentConfig:
    known = {f.name for f in ExperimentConfig.__dataclass_fields__.values()}
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = replace(ExperimentConfig(), **d)
    if isinstance(cfg.seeds, list):
        cfg.seeds = tuple(cfg.seeds)
    return cfg.validate()


# ---------------------------------------------------------------------------
# per-graph precomputation and the split guard
# ---------------------------------------------------------------------------

@dataclass
class GraphInputs:
    """One graph's matrices, or a pack's: the models take only a pack,
    whose ``adjacency`` and ``a_hat`` are BlockDiags of its graphs' own
    matrices and whose ``x_init`` stacks their rows (``packs``). A graph's
    ``adjacency`` is shared with its ``Graph``: bool, n^2 bytes. Its
    ``a_hat`` is an ``autodiff.Nonzeros``: the index and values of the
    nonzeros of A + I normalized, 16 bytes each. Each model that
    multiplies by a pack's A or A_hat writes its dense float64 blocks once
    per forward pass (``autodiff.as_float``)."""
    adjacency: np.ndarray | ad.BlockDiag
    a_hat: ad.Nonzeros | ad.BlockDiag
    x_init: np.ndarray


# A graph whose n x n adjacency has at most this many elements is encoded
# in a stack of graphs of its node count, and each stack holds at most this
# many elements: 512 KiB per float64 buffer, of which the encoding keeps
# four alive besides the stacked adjacencies; the same stack gives the
# graphs' A_hat. Larger graphs are encoded one at a time, in index order,
# after the stacks, and get their A_hat after the encoding buffer is freed.
STACK_ELEMENTS = 1 << 16


def precompute_inputs(gs: GraphSet, config: ExperimentConfig,
                      indices) -> dict[int, GraphInputs]:
    """Adjacency, propagation operator and initial features of the graphs
    ``indices``, keyed by graph index in the order given.

    The initial features are the graph's attribute columns, then its
    random-walk encoding; graphs without attribute columns use the
    encoding alone, so their information is purely topological. Small
    graphs are grouped by node count and handled a stack at a time
    (``STACK_ELEMENTS``): one encoding call and one
    ``normalized_adjacency`` call per stack, whose A_hat slices give each
    graph's nonzeros. Both give the same bits as each graph alone.
    Deterministic in (dataset, k_se, indices)."""
    indices = list(indices)
    by_size: dict[int, list[int]] = {}
    for i in indices:
        n = gs.graphs[i].n
        if n * n <= STACK_ELEMENTS:
            by_size.setdefault(n, []).append(i)
    # one buffer, sized by the largest stack or graph, holds the powers of
    # every encoding call, so that set-up does not map fresh pages for each
    # power of each graph
    largest = max([min(len(group), STACK_ELEMENTS // (n * n)) * n * n
                   for n, group in by_size.items()]
                  + [gs.graphs[i].n ** 2 for i in indices
                     if gs.graphs[i].n ** 2 > STACK_ELEMENTS], default=0)
    scratch = np.empty(4 * largest)
    encodings: dict[int, np.ndarray] = {}
    a_hats: dict[int, ad.Nonzeros] = {}
    for n, group in by_size.items():
        step = STACK_ELEMENTS // (n * n)
        for start in range(0, len(group), step):
            chunk = group[start:start + step]
            stack = np.stack([gs.graphs[i].adjacency for i in chunk])
            encodings.update(zip(chunk, rw_structural_encoding(
                stack, config.k_se, scratch)))
            a_hats.update(zip(chunk, map(ad.Nonzeros,
                                         normalized_adjacency(stack))))
    for i in indices:
        if i not in encodings:
            encodings[i] = rw_structural_encoding(gs.graphs[i].adjacency,
                                                  config.k_se, scratch)
    del scratch     # freed before any large graph's A_hat is made
    out = {}
    for i in indices:
        g = gs.graphs[i]
        # a large graph's dense A_hat lives only until its nonzeros are taken
        a_hat = (a_hats.pop(i) if i in a_hats
                 else ad.Nonzeros(normalized_adjacency(g)))
        out[i] = GraphInputs(adjacency=g.adjacency, a_hat=a_hat,
                             x_init=np.concatenate([g.features,
                                                    encodings.pop(i)], axis=1))
    widths = {gi.x_init.shape[1] for gi in out.values()}
    if len(widths) > 1:
        raise ContractViolation(f"inconsistent feature widths across graphs: {widths}")
    return out


def packs(inputs, indices, size: int):
    """The graphs ``indices`` in order, ``size`` to a pack; the last pack
    holds what is left."""
    for start in range(0, len(indices), size):
        chunk = indices[start:start + size]
        yield GraphInputs(
            adjacency=ad.BlockDiag([inputs[i].adjacency for i in chunk]),
            a_hat=ad.BlockDiag([inputs[i].a_hat for i in chunk]),
            x_init=np.concatenate([inputs[i].x_init for i in chunk]))


class SplitGuard:
    """Vets every graph index a trainer asks for against the split."""

    def __init__(self, split: AnomalySplit):
        self._train = frozenset(split.train)
        self._test = frozenset(split.test_indices())
        self.seen: set[int] = set()

    def take(self, indices) -> list[int]:
        indices = list(indices)
        leaked = [i for i in indices if i in self._test]
        if leaked:
            raise ContractViolation(
                f"test graphs {leaked[:5]} were requested for training")
        foreign = [i for i in indices if i not in self._train]
        if foreign:
            raise ContractViolation(
                f"graphs {foreign[:5]} are outside the training split")
        self.seen.update(indices)
        return indices


def subsample_graphset(gs: GraphSet, max_graphs: int) -> GraphSet:
    """Label-stratified random subset, fixed internal seed, used for large
    sets where a full run is impractical. Keeps at least one graph of every
    label so splits stay constructible: shares that overshoot
    ``max_graphs`` give way from the largest, and a cap below the number of
    labels is a ConfigError."""
    if max_graphs <= 0 or len(gs) <= max_graphs:
        return gs
    rng = make_rng(0, 77, max_graphs)
    by_label: dict[int, list[int]] = {}
    for i, g in enumerate(gs.graphs):
        by_label.setdefault(g.label, []).append(i)
    if len(by_label) > max_graphs:
        raise ConfigError(f"max_graphs = {max_graphs} cannot keep a graph of "
                          f"each of {len(by_label)} labels")
    labels = sorted(by_label)
    shares = [max(1, int(round(max_graphs * len(by_label[label]) / len(gs))))
              for label in labels]
    while sum(shares) > max_graphs:
        shares[shares.index(max(shares))] -= 1
    keep: list[int] = []
    for label, share in zip(labels, shares):
        members = by_label[label]
        picked = rng.permutation(len(members))[:share]
        keep.extend(members[j] for j in picked)
    keep.sort()
    return GraphSet(name=gs.name, graphs=[gs.graphs[i] for i in keep],
                    label_vocabulary=set(gs.label_vocabulary))


# ---------------------------------------------------------------------------
# the model stack, scoring and AUC
# ---------------------------------------------------------------------------

def student_propagation(gi: GraphInputs, student):
    """A GCN student (``asy_st``) reads A_hat, a GIN student raw A."""
    return gi.a_hat if isinstance(student, GcnEncoder) else gi.adjacency


def forward_stack(gi: GraphInputs, models: dict) -> dict:
    """Node matrices of one pack at each stage the named models
    reach: "source" (teacher embeddings), "flow" (their latent) and
    "target" (the student's output). Frozen models record nothing, so no
    tape is built. The pack's A_hat is written out dense once, here, and
    that pack is what the teacher, the flow and a GCN student read."""
    gi = replace(gi, a_hat=ad.as_float(gi.a_hat))
    x = ad.constant(gi.x_init)
    h = models["encoder"].forward(gi.a_hat, x)
    stages = {"source": h.data}
    if "flow" in models:
        stages["flow"] = models["flow"].forward(h, gi.a_hat)[0].data
    if "student" in models:
        student = models["student"]
        propagation = student_propagation(gi, student)
        del gi      # a GIN student casts A; the dense A_hat goes first
        stages["target"] = student.forward(propagation, x).data
    return stages


def score_graph(gi: GraphInputs, models: dict,
                config: ExperimentConfig) -> np.ndarray:
    """The anomaly score of each graph of a pack (``packs``), from the
    models of the variant's phase chain. The flow-less baseline
    (``non_st``) scores by its reconstruction loss; every other variant by
    the distillation loss at beta = 1/2: the mean of the graph-level and
    mean node-level disagreement, in [0, 1] under the cosine distance."""
    if config.variant == "non_st":
        losses = graph_source_loss(models["encoder"], models["decoder"],
                                   gi.a_hat, gi.adjacency, gi.x_init,
                                   config.alpha)
    else:
        stages = forward_stack(gi, models)
        losses = graph_target_loss(ad.constant(stages["target"]),
                                   stages["flow"], 0.5, gi.a_hat.offsets)
    return np.ravel(losses.data)


def compute_auc(scores, flags) -> float:
    """Tied-rank AUC: the probability a random anomaly outscores a random
    normal graph, ties counted half."""
    s = np.asarray(scores, dtype=np.float64)
    f = np.asarray(flags, dtype=bool)
    if s.ndim != 1 or s.shape != f.shape:
        raise ContractViolation(f"scores {s.shape} and flags {f.shape} must be 1-D and equal length")
    if not np.all(np.isfinite(s)):
        raise ContractViolation("scores must be finite")
    pos = int(f.sum())
    neg = len(f) - pos
    if pos == 0 or neg == 0:
        raise UndefinedMetricError(
            f"AUC needs both classes; got {pos} anomalous and {neg} normal")
    # i, j: 0-based sorted positions of each tie group's first and last member
    _, group, counts = np.unique(s, return_inverse=True, return_counts=True)
    j = np.cumsum(counts) - 1
    i = j - counts + 1
    ranks = (0.5 * (i + j) + 1.0)[group]   # mean of 1-based ranks
    return float((ranks[f].sum() - pos * (pos + 1) / 2.0) / (pos * neg))


def score_histogram(records):
    """Per-class score counts in 50 equal bins over [min(0, lowest score),
    max(1, highest score)]: bins of 0.02 when every score lies in [0, 1],
    wider when a score (a ``non_st`` reconstruction loss) lies outside.
    Returns (edges, normal_counts, anomaly_counts)."""
    scores = np.array([rec["score"] for rec in records], dtype=np.float64)
    flags = np.array([rec["flag"] for rec in records], dtype=bool)
    edges = np.histogram_bin_edges(
        scores, bins=50, range=(scores.min(initial=0.0), scores.max(initial=1.0)))
    return (edges, np.histogram(scores[~flags], bins=edges)[0],
            np.histogram(scores[flags], bins=edges)[0])


# ---------------------------------------------------------------------------
# phase runners
# ---------------------------------------------------------------------------

def resolve_normal_class(gs: GraphSet, config: ExperimentConfig) -> int:
    if isinstance(config.normal_class, int):
        return config.normal_class
    return majority_class(gs)


def prepare_experiment(gs: GraphSet, config: ExperimentConfig, side: str):
    """The set-up every run shares: returns (subsampled set, normal class,
    per-graph inputs keyed by graph index).

    Inputs are built only for the graphs that one ``side`` of the split of
    some seed in ``config.seeds`` holds: "train" the training normals,
    "test" the held-out graphs. No run holds both sides at once:
    ``run_experiment`` builds what the held-out side still lacks after
    training."""
    gs = subsample_graphset(gs, config.max_graphs)
    normal = resolve_normal_class(gs, config)
    wanted: set[int] = set()
    for seed in config.seeds:
        split = make_anomaly_split(gs, normal, config.test_fraction, seed)
        wanted.update(split.train if side == "train" else split.test_indices())
    return gs, normal, precompute_inputs(gs, config, sorted(wanted))


# Each runner takes the upstream models by name and returns its own models
# by name plus the per-epoch loss trace (None when nothing is trained).

def run_phase_source(upstream: dict, inputs, train_idx,
                     config: ExperimentConfig, seed: int):
    d_in = inputs[train_idx[0]].x_init.shape[1]
    rng = make_rng(seed, 1)
    encoder = GcnEncoder(d_in, config.hidden, config.d, config.gcn_layers, rng)
    decoder = FeatureDecoder(config.d, d_in, rng)
    train = [(pack.a_hat, pack.adjacency, pack.x_init)
             for pack in packs(inputs, train_idx, config.batch_size)]
    trace = pretrain_source(encoder, decoder, train, alpha=config.alpha,
                            epochs=config.s_epochs, lr=config.lr)
    return {"encoder": encoder, "decoder": decoder}, trace


def run_phase_flow(upstream: dict, inputs, train_idx,
                   config: ExperimentConfig, seed: int):
    """The no-flow ablations get an untrained zero-step (identity) flow."""
    encoder = upstream["encoder"]
    if not is_frozen(encoder):
        raise PhaseOrderError("encoder must be frozen before the flow phase")
    steps = config.flow_steps if config.variant == "full" else 0
    flow = GraphFlow(config.d, steps, config.s_max, make_rng(seed, 2))
    if not flow.steps:
        return {"flow": flow}, None
    train = [(pack.a_hat, forward_stack(pack, upstream)["source"])
             for pack in packs(inputs, train_idx, config.batch_size)]
    trace = train_flow(flow, train, epochs=config.n_epochs, lr=config.lr)
    return {"flow": flow}, trace


def run_phase_target(upstream: dict, inputs, train_idx,
                     config: ExperimentConfig, seed: int):
    encoder, flow = upstream["encoder"], upstream["flow"]
    if not is_frozen(encoder):
        raise PhaseOrderError("encoder must be frozen before the student phase")
    if not is_frozen(flow):
        raise PhaseOrderError("flow must be frozen before the student phase")
    d_in = inputs[train_idx[0]].x_init.shape[1]
    rng = make_rng(seed, 3)
    if config.variant == "asy_st":
        student = GcnEncoder(d_in, config.hidden, config.d,
                             config.gcn_layers, rng)
    else:
        student = GinNetwork(d_in, config.d, config.d, config.gin_layers, rng)
    train = [(student_propagation(pack, student), pack.x_init,
              forward_stack(pack, upstream)["flow"])
             for pack in packs(inputs, train_idx, config.batch_size)]
    trace = train_target(student, train, beta=config.beta,
                         epochs=config.t_epochs, lr=config.lr)
    return {"student": student}, trace


@dataclass
class SeedResult:
    seed: int
    auc: float | None      # None when the held-out graphs were not scored
    records: list          # dicts: graph, flag, score
    traces: dict           # phase -> per-epoch loss list
    split: AnomalySplit
    guard: SplitGuard
    phase_seconds: dict
    models: dict           # name -> frozen model; {} if a store run skips scoring


def phase_chain(variant: str) -> tuple:
    """The phases a variant runs, in order. The no-flow ablations keep a
    flow phase that yields a zero-step flow, so every student checkpoint
    chains to a flow checkpoint."""
    return PHASES[:1] if variant == "non_st" else PHASES


def train_seed(gs: GraphSet, inputs, config: ExperimentConfig, seed: int,
               normal: int, store: PhaseStore | None = None,
               phases=None) -> SeedResult:
    """Trains the phases named in ``phases`` (default: the variant's whole
    chain) in order, on the seed's training normals. ``inputs`` must hold
    those graphs. The result holds no records until ``score_seed``.

    Without a store the trained models are kept in the result, so every
    phase the variant runs must be trained. With a store each trained phase
    is saved, and a later phase reads its upstream phases back through the
    store, which verifies the checkpoint chain; phases left out of
    ``phases`` come from an earlier run."""
    split = make_anomaly_split(gs, normal, config.test_fraction, seed)
    guard = SplitGuard(split)
    result = SeedResult(seed=seed, auc=None, records=[], traces={},
                        split=split, guard=guard, phase_seconds={}, models={})
    chain = phase_chain(config.variant)
    todo = chain if phases is None else [p for p in chain if p in phases]
    if store is None and len(todo) != len(chain):
        raise ContractViolation("without a phase store every phase must be trained")
    with _seed_prefix(seed):
        for phase in todo:
            above, upstream_fp = _upstream(result, store,
                                           chain[:chain.index(phase)])
            # looked up per call, so a profiler that replaces the module's
            # runner functions sees every phase
            runner = {"source": run_phase_source, "flow": run_phase_flow,
                      "target": run_phase_target}[phase]
            t0 = time.perf_counter()
            trained, trace = runner(above, inputs, guard.take(split.train),
                                    config, seed)
            result.phase_seconds[phase] = time.perf_counter() - t0
            freeze(*trained.values())
            if trace is not None:
                result.traces[phase] = trace
            if store is None:
                result.models.update(trained)
            else:
                store.save(seed, phase, trained, upstream_fp, trace)
    return result


def score_seed(result: SeedResult, inputs, config: ExperimentConfig,
               store: PhaseStore | None = None) -> SeedResult:
    """Scores the held-out graphs of ``result``'s split, which ``inputs``
    must hold, and fills in its records, AUC, scoring time and models.

    Without a store the models are those ``train_seed`` kept in ``result``;
    with one, the variant's whole chain is read back from the store."""
    split = result.split
    with _seed_prefix(result.seed):
        models, _ = _upstream(result, store, phase_chain(config.variant))
        t0 = time.perf_counter()
        scores = [float(score) for pack in
                  packs(inputs, split.test_indices(), config.batch_size)
                  for score in score_graph(pack, models, config)]
        result.records = [{"graph": idx, "flag": bool(flag), "score": score}
                          for (idx, flag), score in zip(split.test, scores)]
        result.phase_seconds["scoring"] = time.perf_counter() - t0
        result.auc = compute_auc([r["score"] for r in result.records],
                                 [r["flag"] for r in result.records])
        result.models = models
    return result


def _upstream(result: SeedResult, store: PhaseStore | None, phases):
    """(models, fingerprint of the last phase) of ``phases``: in memory
    without a store, else read back through it."""
    if store is None:
        return result.models, None
    return store.load_chain(result.seed, phases)


@contextlib.contextmanager
def _seed_prefix(seed: int):
    """Prefixes the seed to a training fault, contract violation or
    phase-order error raised inside."""
    try:
        yield
    except (TrainingFault, ContractViolation, PhaseOrderError) as exc:
        exc.args = (f"seed {seed}: {exc.args[0]}",) + exc.args[1:]
        raise


# ---------------------------------------------------------------------------
# experiment driver and report
# ---------------------------------------------------------------------------

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def blas_threads() -> int | None:
    """The thread count numpy's BLAS runs at, read through the
    ``scipy_openblas_get_num_threads64_`` symbol that numpy's bundled
    OpenBLAS exports; None when the library or the symbol is missing."""
    try:
        get = ctypes.CDLL(np._core._multiarray_umath.__file__
                          ).scipy_openblas_get_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


def environment() -> dict:
    """What a run's timings depend on besides the code and the data: the
    numpy version, its BLAS build, the BLAS thread variables (None when
    unset), the thread count BLAS actually runs at (``blas_threads``) and
    the CPU count."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            **{var: os.environ.get(var) for var in BLAS_THREAD_VARIABLES},
            "blas_threads": blas_threads(), "cpu_count": os.cpu_count()}


@dataclass
class ScoreReport:
    dataset: str
    variant: str
    config: dict
    config_fingerprint: str
    data_fingerprint: str | None   # None in reports written before it existed
    normal_class: int
    per_seed: list          # dicts: seed, auc, records, traces
    auc_mean: float
    auc_std: float
    phase_seconds: dict
    timestamp: str
    environment: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def canonical_bytes(self) -> bytes:
        """Deterministic serialization: wall-clock, timestamp and
        environment excluded.

        Two runs of one config on one data set give the same bytes under
        one numpy and BLAS build at one BLAS thread count. They need not
        agree across thread counts once graphs reach about 150 nodes: the
        dense products then split their sums differently, and the last
        bits move (``environment()["blas_threads"]`` records the count)."""
        d = self.to_dict()
        d.pop("phase_seconds")
        d.pop("timestamp")
        d.pop("environment")
        return canonical_bytes(d)


def report_from_dict(d: dict) -> ScoreReport:
    return ScoreReport(
        dataset=d["dataset"], variant=d["variant"], config=d["config"],
        config_fingerprint=d["config_fingerprint"],
        data_fingerprint=d.get("data_fingerprint"),
        normal_class=d["normal_class"], per_seed=d["per_seed"],
        auc_mean=d["auc_mean"], auc_std=d["auc_std"],
        phase_seconds=d.get("phase_seconds", {}), timestamp=d.get("timestamp", ""),
        environment=d.get("environment", {}))


def build_report(gs: GraphSet, config: ExperimentConfig, normal: int,
                 results, once: dict) -> ScoreReport:
    """Aggregates scored seeds; phase timings are summed over seeds.

    ``once`` holds the spans timed once, not per seed: ``setup`` is the
    subsample, the splits and the building of the inputs of the graphs
    the run uses; ``run_experiment``'s sums its two set-up stages (the
    training side before training, the rest of the held-out side before
    scoring), and ``eval`` adds ``load``, the reading of the dataset
    files. The report records the fingerprints of ``config`` and of
    ``gs``, the subsampled set that was trained on and scored."""
    aucs = np.array([r.auc for r in results])
    seconds: dict = dict(once)
    for r in results:
        for k, v in r.phase_seconds.items():
            seconds[k] = seconds.get(k, 0.0) + v
    per_seed = [{"seed": r.seed, "auc": r.auc, "records": r.records,
                 "traces": r.traces} for r in results]
    return ScoreReport(
        dataset=gs.name, variant=config.variant, config=config.to_dict(),
        config_fingerprint=config.fingerprint(),
        data_fingerprint=dataset_fingerprint(gs), normal_class=normal,
        per_seed=per_seed, auc_mean=float(aucs.mean()),
        auc_std=float(aucs.std()),
        phase_seconds={k: round(v, 3) for k, v in seconds.items()},
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S"),
        environment=environment())


def run_experiment(gs: GraphSet, config: ExperimentConfig):
    """Full multi-seed experiment. Returns (ScoreReport, list of SeedResult);
    each result keeps its seed's trained, frozen models.

    Training and scoring each hold only their own side's inputs, as the
    ``train`` and ``eval`` commands do: set-up builds the training normals
    of every seed, every seed is trained, the inputs that no held-out side
    uses are released, the held-out graphs not built yet are built, and
    every seed is scored. Each graph is built once, and its bits do not
    depend on which call builds it."""
    config.validate()
    t0 = time.perf_counter()
    gs, normal, inputs = prepare_experiment(gs, config, "train")
    setup = time.perf_counter() - t0
    results = [train_seed(gs, inputs, config, seed, normal)
               for seed in config.seeds]
    t0 = time.perf_counter()
    held = sorted({i for r in results for i in r.split.test_indices()})
    inputs = {i: inputs[i] for i in held if i in inputs}
    inputs.update(precompute_inputs(gs, config,
                                    [i for i in held if i not in inputs]))
    once = {"setup": setup + time.perf_counter() - t0}
    for r in results:
        score_seed(r, inputs, config)
    return build_report(gs, config, normal, results, once), results


def export_embeddings(inputs, index_flags, models: dict,
                      config: ExperimentConfig) -> dict:
    """Rows of (graph index, flag, max-pooled d-vector) for every stage of the
    variant's phase chain, keyed by stage; one forward pass per pack of
    ``batch_size`` graphs."""
    chain = phase_chain(config.variant)
    index_flags = list(index_flags)
    vectors: dict = {stage: [] for stage in chain}
    for pack in packs(inputs, [idx for idx, _ in index_flags],
                      config.batch_size):
        stages = forward_stack(pack, models)
        for stage in chain:
            vectors[stage].extend(ad.segment_max(ad.constant(stages[stage]),
                                                 pack.a_hat.offsets).data)
    return {stage: [[int(idx), int(bool(flag))] + [float(v) for v in vec]
                    for (idx, flag), vec in zip(index_flags, vectors[stage])]
            for stage in chain}
