"""Three-phase training orchestration, scoring, AUC, variants, reports.

Phase 1 pre-trains the reconstruction encoder on normal graphs and freezes
it. Phase 2 fits the coupling flow to the frozen embeddings. Phase 3
distills a student network toward the flow outputs. A graph's anomaly score
is the disagreement between student and flow at graph and node level.

Variants swap parts out: ``non_st`` stops after phase 1 and scores by
reconstruction loss; ``asy_st`` drops the flow and distills a student with
the same architecture as the encoder (symmetric pair); ``non_nf`` drops the
flow but keeps the heterogeneous student.

Every piece of randomness draws from a stream derived from (seed, phase),
so phases are individually reproducible, and a split guard vets each graph
index handed to a trainer so test data can never leak into training.

``run_seed`` is the one place that sequences the phases. The library passes
models between phases in memory; the command line hands it a ``PhaseStore``
so that each phase is checkpointed and read back.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import autodiff as ad
from .checkpoint import PhaseStore
from .data import (AnomalySplit, GraphSet, canonical_bytes, majority_class,
                   make_anomaly_split, normalized_adjacency, payload_fingerprint)
from .encoding import build_init_features
from .errors import (ConfigError, ContractViolation, PhaseOrderError,
                     TrainingFault, UndefinedMetricError)
from .flow import GraphFlow, train_flow
from .optim import freeze, is_frozen, make_rng
from .source import (FeatureDecoder, GcnEncoder, graph_source_loss,
                     pretrain_source)
from .target import GinNetwork, READOUTS, distance, train_target

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
    include_degree: bool = False
    s_epochs: int = 100
    n_epochs: int = 100
    t_epochs: int = 100
    lr: float = 1e-3
    batch_size: int = 1
    distance: str = "cosine"
    readout: str = "max"
    normalize_nf: bool = True
    max_graphs: int = 0                 # 0 keeps the whole set

    def validate(self) -> "ExperimentConfig":
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
        for name, v in (("gcn_layers", self.gcn_layers), ("hidden", self.hidden),
                        ("flow_steps", self.flow_steps), ("gin_layers", self.gin_layers),
                        ("k_se", self.k_se), ("batch_size", self.batch_size)):
            if v < 1:
                raise ConfigError(f"{name} must be positive, got {v}")
        for name, v in (("s_epochs", self.s_epochs), ("n_epochs", self.n_epochs),
                        ("t_epochs", self.t_epochs), ("max_graphs", self.max_graphs)):
            if v < 0:
                raise ConfigError(f"{name} must be non-negative, got {v}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.s_max <= 0:
            raise ConfigError(f"s_max must be positive, got {self.s_max}")
        if self.distance not in ("cosine", "sqeuclidean"):
            raise ConfigError(f"unknown distance {self.distance!r}")
        if self.readout not in READOUTS:
            raise ConfigError(f"unknown readout {self.readout!r}")
        if not isinstance(self.normal_class, int) and self.normal_class != "majority":
            raise ConfigError(
                f"normal_class must be an integer label or 'majority', got {self.normal_class!r}")
        return self

    def to_dict(self) -> dict:
        d = asdict(self)
        d["seeds"] = list(self.seeds)
        return d

    def fingerprint(self) -> str:
        return payload_fingerprint(self.to_dict())


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
    n: int
    adjacency: np.ndarray
    a_hat: np.ndarray
    x_init: np.ndarray


def precompute_inputs(gs: GraphSet, config: ExperimentConfig) -> list[GraphInputs]:
    """Adjacency, propagation operator, and initial features per graph.

    Deterministic in (dataset, k_se, include_degree); shared across seeds
    and phases, so it runs once per experiment."""
    out = []
    for g in gs.graphs:
        out.append(GraphInputs(
            n=g.n,
            adjacency=g.adjacency,
            a_hat=normalized_adjacency(g),
            x_init=build_init_features(g, config.k_se, config.include_degree),
        ))
    widths = {gi.x_init.shape[1] for gi in out}
    if len(widths) != 1:
        raise ContractViolation(f"inconsistent feature widths across graphs: {widths}")
    return out


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
    label so splits stay constructible."""
    if max_graphs <= 0 or len(gs) <= max_graphs:
        return gs
    rng = make_rng(0, 77, max_graphs)
    by_label: dict[int, list[int]] = {}
    for i, g in enumerate(gs.graphs):
        by_label.setdefault(g.label, []).append(i)
    keep: list[int] = []
    for label in sorted(by_label):
        members = by_label[label]
        share = max(1, int(round(max_graphs * len(members) / len(gs))))
        picked = rng.permutation(len(members))[:share]
        keep.extend(members[j] for j in picked)
    keep = sorted(keep[:max_graphs])
    return GraphSet(name=gs.name, graphs=[gs.graphs[i] for i in keep],
                    label_vocabulary=set(gs.label_vocabulary))


# ---------------------------------------------------------------------------
# the model stack, scoring and AUC
# ---------------------------------------------------------------------------

def student_propagation(gi: GraphInputs, student) -> np.ndarray:
    """A GCN student (``asy_st``) reads A_hat, a GIN student raw A."""
    return gi.a_hat if isinstance(student, GcnEncoder) else gi.adjacency


def forward_stack(gi: GraphInputs, encoder: GcnEncoder, flow=None,
                  student=None) -> dict:
    """Node matrices of one graph at each stage the given models reach:
    "source" (teacher embeddings), "flow" (their latent) and "target" (the
    student's output). Frozen models record nothing, so no tape is built."""
    a_hat, x = ad.constant(gi.a_hat), ad.constant(gi.x_init)
    h = encoder.forward(a_hat, x)
    stages = {"source": h.data}
    if flow is not None:
        stages["flow"] = flow.forward(h, a_hat)[0].data
    if student is not None:
        prop = ad.constant(student_propagation(gi, student))
        stages["target"] = student.forward(prop, x).data
    return stages


def pooled(nodes: np.ndarray, readout: str) -> np.ndarray:
    """The graph vector that ``readout`` pools from a node matrix."""
    return np.ravel(READOUTS[readout](ad.constant(nodes)).data)


def score_graph(gi: GraphInputs, encoder: GcnEncoder, flow, student,
                config: ExperimentConfig) -> tuple[float, float]:
    """Returns (score, raw). The score averages the graph-level and mean
    node-level disagreement so it lives in [0, 1] under the cosine distance;
    raw is their plain sum."""
    stages = forward_stack(gi, encoder, flow, student)
    z_nodes, out = stages["flow"], stages["target"]
    graph_term = distance(pooled(out, config.readout),
                          pooled(z_nodes, config.readout), config.distance)
    node_terms = [distance(out[i], z_nodes[i], config.distance)
                  for i in range(gi.n)]
    raw = graph_term + float(np.mean(node_terms))
    return raw / 2.0, raw


def reconstruction_score(gi: GraphInputs, encoder: GcnEncoder,
                         decoder: FeatureDecoder, alpha: float) -> float:
    """Per-graph reconstruction loss, the score of the flow-less baseline."""
    loss = graph_source_loss(encoder, decoder, gi.a_hat, gi.adjacency,
                             gi.x_init, alpha)
    return loss.item()


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


def score_histogram(records, width: float = 0.02):
    """Per-class binned score counts over [0, 1]; out-of-range scores land
    in the edge bins. Returns (edges, normal_counts, anomaly_counts)."""
    nbins = int(round(1.0 / width))
    edges = np.linspace(0.0, 1.0, nbins + 1)
    normal = np.zeros(nbins, dtype=np.int64)
    anomalous = np.zeros(nbins, dtype=np.int64)
    for rec in records:
        b = min(nbins - 1, max(0, int(rec["score"] / width)))
        (anomalous if rec["flag"] else normal)[b] += 1
    return edges, normal, anomalous


# ---------------------------------------------------------------------------
# phase runners
# ---------------------------------------------------------------------------

def resolve_normal_class(gs: GraphSet, config: ExperimentConfig) -> int:
    if isinstance(config.normal_class, int):
        return config.normal_class
    return majority_class(gs)


def prepare_experiment(gs: GraphSet, config: ExperimentConfig):
    """The set-up every run shares: returns (subsampled set, normal class,
    per-graph inputs)."""
    gs = subsample_graphset(gs, config.max_graphs)
    return gs, resolve_normal_class(gs, config), precompute_inputs(gs, config)


# Each runner takes the upstream models by name and returns its own models
# by name plus the per-epoch loss trace (None when nothing is trained).

def run_phase_source(upstream: dict, inputs, train_idx,
                     config: ExperimentConfig, seed: int):
    d_in = inputs[train_idx[0]].x_init.shape[1]
    triples = [(inputs[i].a_hat, inputs[i].adjacency, inputs[i].x_init)
               for i in train_idx]
    encoder, decoder, trace = pretrain_source(
        triples, d_in, hidden=config.hidden, d_out=config.d,
        layers=config.gcn_layers, alpha=config.alpha, epochs=config.s_epochs,
        lr=config.lr, rng=make_rng(seed, 1), batch_size=config.batch_size)
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
    pairs = [(inputs[i].a_hat, forward_stack(inputs[i], encoder)["source"])
             for i in train_idx]
    trace = train_flow(flow, pairs, epochs=config.n_epochs, lr=config.lr,
                       batch_size=config.batch_size,
                       normalize=config.normalize_nf)
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
    quads = []
    for i in train_idx:
        gi = inputs[i]
        z_nodes = forward_stack(gi, encoder, flow)["flow"]
        quads.append((student_propagation(gi, student), gi.x_init, z_nodes,
                      pooled(z_nodes, config.readout)))
    trace = train_target(student, quads, beta=config.beta,
                         epochs=config.t_epochs, lr=config.lr,
                         batch_size=config.batch_size, kind=config.distance,
                         readout=config.readout)
    return {"student": student}, trace


@dataclass
class SeedResult:
    seed: int
    auc: float | None      # None when the held-out graphs were not scored
    records: list          # dicts: graph, flag, score, raw
    traces: dict           # phase -> per-epoch loss list
    split: AnomalySplit
    guard: SplitGuard
    phase_seconds: dict
    models: dict = field(default_factory=dict)


def phase_chain(variant: str) -> tuple:
    """The phases a variant runs, in order. The no-flow ablations keep a
    flow phase that yields a zero-step flow, so every student checkpoint
    chains to a flow checkpoint."""
    return PHASES[:1] if variant == "non_st" else PHASES


def run_seed(gs: GraphSet, inputs, config: ExperimentConfig, seed: int,
             normal: int, store: PhaseStore | None = None, train=PHASES,
             score: bool = True) -> SeedResult:
    """Trains the phases named in ``train`` in order, then scores the
    held-out graphs unless ``score`` is false.

    Without a store the models pass in memory, so every phase the variant
    runs must be trained. With a store each trained phase is saved, and
    every consumer (a later phase, the scorer) reads its upstream phases
    back through the store, which verifies the checkpoint chain; phases
    left out of ``train`` come from an earlier run."""
    split = make_anomaly_split(gs, normal, config.test_fraction, seed)
    guard = SplitGuard(split)
    chain = phase_chain(config.variant)
    todo = [phase for phase in chain if phase in train]
    if store is None and len(todo) != len(chain):
        raise ContractViolation("without a phase store every phase must be trained")
    traces: dict = {}
    seconds: dict = {}
    models: dict = {}
    records: list = []
    auc = None

    def upstream(phases):
        return (models, None) if store is None else store.load_chain(seed, phases)

    try:
        for phase in todo:
            above, upstream_fp = upstream(chain[:chain.index(phase)])
            # looked up per call, so a profiler that replaces the module's
            # runner functions sees every phase
            runner = {"source": run_phase_source, "flow": run_phase_flow,
                      "target": run_phase_target}[phase]
            t0 = time.perf_counter()
            trained, trace = runner(above, inputs, guard.take(split.train),
                                    config, seed)
            seconds[phase] = time.perf_counter() - t0
            freeze(*trained.values())
            if trace is not None:
                traces[phase] = trace
            if store is None:
                models.update(trained)
            else:
                store.save(seed, phase, trained, upstream_fp, trace)

        if score:
            models, _ = upstream(chain)
            t0 = time.perf_counter()
            for idx, flag in split.test:
                if config.variant == "non_st":
                    value = raw = reconstruction_score(
                        inputs[idx], models["encoder"], models["decoder"],
                        config.alpha)
                else:
                    value, raw = score_graph(inputs[idx], models["encoder"],
                                             models["flow"], models["student"],
                                             config)
                records.append({"graph": idx, "flag": bool(flag),
                                "score": float(value), "raw": float(raw)})
            seconds["scoring"] = time.perf_counter() - t0
            auc = compute_auc([r["score"] for r in records],
                              [r["flag"] for r in records])
    except (TrainingFault, ContractViolation, PhaseOrderError) as exc:
        exc.args = (f"seed {seed}: {exc.args[0]}",) + exc.args[1:]
        raise
    return SeedResult(seed=seed, auc=auc, records=records, traces=traces,
                      split=split, guard=guard, phase_seconds=seconds,
                      models=models)


# ---------------------------------------------------------------------------
# experiment driver and report
# ---------------------------------------------------------------------------

@dataclass
class ScoreReport:
    dataset: str
    variant: str
    config: dict
    config_fingerprint: str
    normal_class: int
    per_seed: list          # dicts: seed, auc, records, traces
    auc_mean: float
    auc_std: float
    phase_seconds: dict
    timestamp: str

    def to_dict(self) -> dict:
        return asdict(self)

    def canonical_bytes(self) -> bytes:
        """Deterministic serialization: wall-clock and timestamp excluded."""
        d = self.to_dict()
        d.pop("phase_seconds")
        d.pop("timestamp")
        return canonical_bytes(d)


def report_from_dict(d: dict) -> ScoreReport:
    return ScoreReport(
        dataset=d["dataset"], variant=d["variant"], config=d["config"],
        config_fingerprint=d["config_fingerprint"],
        normal_class=d["normal_class"], per_seed=d["per_seed"],
        auc_mean=d["auc_mean"], auc_std=d["auc_std"],
        phase_seconds=d.get("phase_seconds", {}), timestamp=d.get("timestamp", ""))


def build_report(gs: GraphSet, config: ExperimentConfig, normal: int,
                 results, once: dict) -> ScoreReport:
    """Aggregates scored seeds; phase timings are summed over seeds.

    ``once`` holds the phases timed once before the seeds: ``setup`` is
    ``prepare_experiment`` (split, adjacencies, encodings) in every report,
    and ``eval`` adds ``load``, the reading of the dataset files."""
    aucs = np.array([r.auc for r in results])
    seconds: dict = dict(once)
    for r in results:
        for k, v in r.phase_seconds.items():
            seconds[k] = seconds.get(k, 0.0) + v
    per_seed = [{"seed": r.seed, "auc": r.auc, "records": r.records,
                 "traces": r.traces} for r in results]
    return ScoreReport(
        dataset=gs.name, variant=config.variant, config=config.to_dict(),
        config_fingerprint=config.fingerprint(), normal_class=normal,
        per_seed=per_seed, auc_mean=float(aucs.mean()),
        auc_std=float(aucs.std()),
        phase_seconds={k: round(v, 3) for k, v in seconds.items()},
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S"))


def run_experiment(gs: GraphSet, config: ExperimentConfig,
                   keep_models: bool = False):
    """Full multi-seed experiment. Returns (ScoreReport, list of SeedResult);
    model objects are dropped from the results unless ``keep_models``."""
    config.validate()
    t0 = time.perf_counter()
    gs, normal, inputs = prepare_experiment(gs, config)
    once = {"setup": time.perf_counter() - t0}
    results = [run_seed(gs, inputs, config, seed, normal)
               for seed in config.seeds]
    report = build_report(gs, config, normal, results, once)
    if not keep_models:
        for r in results:
            r.models = {}
    return report, results


def export_embeddings(inputs, index_flags, encoder: GcnEncoder, flow, student,
                      config: ExperimentConfig) -> dict:
    """Rows of (graph index, flag, pooled d-vector) for every stage of the
    variant's phase chain, keyed by stage; one forward pass per graph."""
    chain = phase_chain(config.variant)
    rows: dict = {stage: [] for stage in chain}
    for idx, flag in index_flags:
        stages = forward_stack(inputs[idx], encoder, flow, student)
        for stage in chain:
            vec = pooled(stages[stage], config.readout)
            rows[stage].append([int(idx), int(bool(flag))]
                               + [float(v) for v in vec])
    return rows
