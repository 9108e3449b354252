import dataclasses
import importlib.util
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from flowgad import autodiff as ad
from flowgad import pipeline
from flowgad.checkpoint import PhaseStore, load_checkpoint, save_checkpoint
from flowgad.data import Graph, GraphSet, dataset_fingerprint, make_anomaly_split
from flowgad.errors import (ConfigError, ContractViolation, PhaseOrderError,
                            UndefinedMetricError)
from flowgad.flow import CouplingStep, GraphFlow
from flowgad.optim import make_rng
from flowgad.pipeline import (PHASES, VARIANTS, ExperimentConfig, SplitGuard,
                              compute_auc, config_from_dict, export_embeddings,
                              forward_stack, packs, precompute_inputs,
                              report_from_dict, resolve_normal_class,
                              run_experiment, score_graph, score_histogram,
                              score_seed, subsample_graphset, train_seed)
from flowgad.source import FeatureDecoder, GcnEncoder
from flowgad.synthetic import planted_anomaly_set
from flowgad.target import GinNetwork

from conftest import (COMPOSED_OPS, REPO_ROOT, composed_coupling_step,
                      composed_cosine_distance, fail_checkpoint_writes,
                      reference_distance)

TINY = dict(s_epochs=6, n_epochs=6, t_epochs=6, d=8, hidden=8, k_se=8,
            seeds=(0,))


def small_set():
    return planted_anomaly_set(num_normal=14, num_anomalous=5, seed=1)


def large_set():
    """Five planted graphs of 150-170 nodes, the size from which the dense
    products' bits depend on the BLAS thread count."""
    return planted_anomaly_set(num_normal=4, num_anomalous=1, seed=4,
                               n_range=(150, 170), p_in=0.04, p_out=0.004,
                               p_sparse=0.02)


def auc_bruteforce(scores, flags):
    # O(P*N) pairwise oracle: anomaly above normal counts 1, tie 0.5
    pos = [s for s, f in zip(scores, flags) if f]
    neg = [s for s, f in zip(scores, flags) if not f]
    total = 0.0
    for a in pos:
        for b in neg:
            total += 1.0 if a > b else (0.5 if a == b else 0.0)
    return total / (len(pos) * len(neg))


# --------------------------------------------------------------------- config

def test_config_validation_catches_bad_values():
    good = ExperimentConfig()
    good.validate()
    for field, value in [("variant", "vanilla"), ("alpha", 1.2),
                         ("beta", -0.1), ("d", 7), ("d", 0),
                         ("test_fraction", 0.0), ("seeds", ()),
                         ("lr", 0.0), ("lr", float("nan")), ("lr", float("inf")),
                         ("s_max", float("inf")), ("s_max", float("nan")),
                         ("s_epochs", -1),
                         ("seeds", (0, -1)), ("seeds", (2, 2)),
                         ("normal_class", "minority")]:
        cfg = dataclasses.replace(ExperimentConfig(), **{field: value})
        with pytest.raises(ConfigError):
            cfg.validate()


@pytest.mark.parametrize("field, value", [
    ("seeds", 3), ("seeds", "0,1"), ("seeds", (0, "1")), ("seeds", (0, 1.0)),
    ("seeds", (True,)), ("hidden", "8"), ("hidden", 8.0), ("hidden", True),
    ("max_graphs", None), ("lr", "0.1"), ("alpha", None), ("alpha", False),
    ("dataset", 3), ("variant", ["full"]), ("normal_class", True)])
def test_config_validation_names_a_wrongly_typed_field(field, value):
    # a ConfigError naming the key, not a TypeError from a comparison
    cfg = dataclasses.replace(ExperimentConfig(), **{field: value})
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        cfg.validate()
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        run_experiment(small_set(), cfg)


def test_config_validation_takes_an_int_for_a_float_field():
    assert ExperimentConfig(lr=1, alpha=0, seeds=[0, 2]).validate().lr == 1


def test_config_fingerprint_tracks_content():
    a = ExperimentConfig()
    b = ExperimentConfig()
    assert a.fingerprint() == b.fingerprint()
    b.alpha = 0.8
    assert a.fingerprint() != b.fingerprint()


def test_config_from_dict_rejects_unknown_keys():
    # the keys of the former loss and feature options are unknown too
    for key, value in [("mystery", 3), ("distance", "cosine"),
                       ("readout", "max"), ("normalize_nf", True),
                       ("include_degree", False)]:
        with pytest.raises(ConfigError, match=key):
            config_from_dict({key: value})


# ------------------------------------------------------------------------ auc

def test_auc_perfect_separation():
    assert compute_auc([0.9, 0.8, 0.2], [True, True, False]) == 1.0


def test_auc_tie_convention():
    assert compute_auc([0.5, 0.5], [True, False]) == 0.5


def test_auc_matches_bruteforce_on_random_instances(rng):
    for _ in range(40):
        m = int(rng.integers(2, 40))
        scores = np.round(rng.random(m), 2)   # rounding forces ties
        flags = rng.random(m) < 0.4
        if flags.all() or not flags.any():
            continue
        assert compute_auc(scores, flags) == pytest.approx(
            auc_bruteforce(scores, flags), abs=1e-12)


def auc_tie_loop(scores, flags):
    # reference: ranks from a sorted walk over tie groups
    s = np.asarray(scores, dtype=np.float64)
    f = np.asarray(flags, dtype=bool)
    pos, neg = int(f.sum()), int((~f).sum())
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(len(s), dtype=np.float64)
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and s[order[j + 1]] == s[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return float((ranks[f].sum() - pos * (pos + 1) / 2.0) / (pos * neg))


def test_auc_equals_tie_loop_reference_exactly(rng):
    for _ in range(200):
        m = int(rng.integers(2, 60))
        scores = np.round(rng.random(m), int(rng.integers(0, 3)))
        scores[rng.random(m) < 0.1] = -0.0
        flags = rng.random(m) < 0.4
        if flags.all() or not flags.any():
            continue
        assert compute_auc(scores, flags) == auc_tie_loop(scores, flags)


def test_auc_single_class_undefined():
    with pytest.raises(UndefinedMetricError):
        compute_auc([0.1, 0.2], [True, True])
    with pytest.raises(UndefinedMetricError):
        compute_auc([0.1, 0.2], [False, False])


def test_auc_shape_checks():
    with pytest.raises(ContractViolation):
        compute_auc([0.1, 0.2], [True])
    with pytest.raises(ContractViolation):
        compute_auc([np.nan, 0.2], [True, False])


# ------------------------------------------------------------------ histogram

def test_histogram_conserves_counts(rng):
    records = [{"score": float(s), "flag": bool(f)}
               for s, f in zip(rng.random(60), rng.random(60) < 0.3)]
    edges, normal, anomalous = score_histogram(records)
    # scores in [0, 1] get 50 bins of 0.02
    assert np.array_equal(edges, np.linspace(0.0, 1.0, 51))
    assert normal.sum() + anomalous.sum() == 60
    assert anomalous.sum() == sum(r["flag"] for r in records)


def test_histogram_clamps_out_of_range():
    # the range stretches to the extreme scores, which land in the edge bins
    records = [{"score": -0.5, "flag": False}, {"score": 3.0, "flag": True}]
    edges, normal, anomalous = score_histogram(records)
    assert (edges[0], edges[-1]) == (-0.5, 3.0)
    assert normal[0] == 1
    assert anomalous[-1] == 1


def test_histogram_spreads_reconstruction_scores():
    # non_st scores are reconstruction losses, far above 1; they must not
    # all pile into one edge bin
    scores = [21.7, 25.0, 33.1, 40.2, 55.9, 68.0]
    records = [{"score": s, "flag": i % 2 == 1} for i, s in enumerate(scores)]
    edges, normal, anomalous = score_histogram(records)
    assert (edges[0], edges[-1]) == (0.0, 68.0)
    counts = normal + anomalous
    assert counts.sum() == len(scores)
    assert np.count_nonzero(counts) > 1


# ---------------------------------------------------------------- split guard

def test_split_guard_blocks_test_indices():
    gs = small_set()
    split = make_anomaly_split(gs, 0, 0.25, seed=0)
    guard = SplitGuard(split)
    assert guard.take(split.train) == split.train
    assert set(guard.seen) == set(split.train)
    with pytest.raises(ContractViolation):
        guard.take([split.test_indices()[0]])


def test_subsample_is_stratified_and_stable():
    gs = planted_anomaly_set(num_normal=40, num_anomalous=20, seed=2)
    sub1 = subsample_graphset(gs, 30)
    sub2 = subsample_graphset(gs, 30)
    assert len(sub1) <= 30
    labels1 = [g.label for g in sub1.graphs]
    assert labels1 == [g.label for g in sub2.graphs]
    # roughly preserves the 2:1 ratio
    assert labels1.count(0) > labels1.count(1)
    assert subsample_graphset(gs, 0) is gs


def _labelled_set(counts):
    """Single-node graphs, ``counts[label]`` of each label."""
    return GraphSet(name="labels", graphs=[
        Graph(n=1, adjacency=np.zeros((1, 1)), features=np.zeros((1, 0)),
              label=label)
        for label, count in enumerate(counts) for _ in range(count)])


@pytest.mark.parametrize("counts,kept", [((95, 5), [9, 1]), ((99, 1), [9, 1]),
                                         ((90, 9, 1), [8, 1, 1])])
def test_subsample_keeps_every_label_when_shares_overshoot(counts, kept):
    # the rounded shares (at least 1 each) add up to 11 here; the largest
    # gives way, so the smallest label is never cut off
    sub = subsample_graphset(_labelled_set(counts), 10)
    labels = [g.label for g in sub.graphs]
    assert [labels.count(label) for label in range(len(counts))] == kept


def test_subsample_below_the_label_count_is_a_config_error():
    with pytest.raises(ConfigError, match="max_graphs"):
        subsample_graphset(_labelled_set((5, 4, 3)), 2)


# ------------------------------------------------------------- end to end

def test_full_variant_separates_planted_anomalies():
    gs = small_set()
    cfg = ExperimentConfig(**TINY)
    report, results = run_experiment(gs, cfg)
    assert report.auc_mean > 0.8
    assert len(report.per_seed) == 1
    for rec in report.per_seed[0]["records"]:
        assert 0.0 <= rec["score"] <= 1.0


def test_report_canonical_bytes_deterministic():
    gs = small_set()
    cfg = ExperimentConfig(**TINY)
    r1, _ = run_experiment(gs, cfg)
    r2, _ = run_experiment(gs, cfg)
    assert r1.canonical_bytes() == r2.canonical_bytes()


def test_report_canonical_bytes_deterministic_on_large_graphs():
    # byte-identical at one thread count; README states the contract
    cfg = ExperimentConfig(**{**TINY, "s_epochs": 1, "n_epochs": 1,
                              "t_epochs": 1})
    r1, _ = run_experiment(large_set(), cfg)
    r2, _ = run_experiment(large_set(), cfg)
    assert r1.canonical_bytes() == r2.canonical_bytes()


@pytest.mark.parametrize("batch_size", [1, 4])
@pytest.mark.parametrize("variant", ["full", "asy_st"])
def test_float_adjacency_twin_gives_the_same_report(variant, batch_size):
    # the library stores A as bool; a caller's float64 0/1 graph set must
    # give the same bytes, on small graphs and on 150+-node ones
    gs = GraphSet(name="mixed",
                  graphs=small_set().graphs[:8] + large_set().graphs)
    twin = GraphSet(name="mixed", graphs=[
        Graph(n=g.n, adjacency=g.adjacency.astype(np.float64),
              features=g.features, label=g.label) for g in gs.graphs])
    assert all(g.adjacency.dtype == np.bool_ for g in gs.graphs)
    cfg = ExperimentConfig(**{**TINY, "s_epochs": 1, "n_epochs": 1,
                              "t_epochs": 1, "variant": variant,
                              "batch_size": batch_size})
    report, _ = run_experiment(gs, cfg)
    twin_report, _ = run_experiment(twin, cfg)
    assert report.canonical_bytes() == twin_report.canonical_bytes()


def test_report_times_setup_outside_the_digest():
    report, _ = run_experiment(small_set(), ExperimentConfig(**TINY))
    seconds = report.phase_seconds
    assert set(seconds) == {"setup", "source", "flow", "target", "scoring"}
    assert all(v >= 0.0 for v in seconds.values())
    retimed = dataclasses.replace(
        report, phase_seconds={**seconds, "setup": seconds["setup"] + 7.0})
    assert retimed.canonical_bytes() == report.canonical_bytes()
    assert retimed.to_dict() != report.to_dict()


def test_report_records_the_environment_outside_the_digest(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    report, _ = run_experiment(small_set(), ExperimentConfig(**TINY))
    env = report.environment
    assert set(env) == {"numpy", "blas", "blas_version", "OPENBLAS_NUM_THREADS",
                        "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                        "BLIS_NUM_THREADS", "blas_threads", "cpu_count"}
    assert env["numpy"] == np.__version__
    assert env["blas_threads"] == pipeline.blas_threads()
    assert env["OPENBLAS_NUM_THREADS"] == "3" and env["MKL_NUM_THREADS"] is None
    assert env["cpu_count"] == os.cpu_count()
    assert report.to_dict()["environment"] == env
    moved = dataclasses.replace(report, environment={**env, "cpu_count": -1})
    assert moved.canonical_bytes() == report.canonical_bytes()
    # a report written before the block existed still reads, to the same digest
    old = report.to_dict()
    del old["environment"]
    assert report_from_dict(old).environment == {}
    assert report_from_dict(old).canonical_bytes() == report.canonical_bytes()


def test_blas_threads_reads_the_thread_setting():
    # OpenBLAS reads its variable when it loads, so a fresh process is set
    code = "from flowgad.pipeline import blas_threads; print(blas_threads())"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    # None on a numpy whose BLAS does not export the symbol
    assert out.strip() == ("None" if pipeline.blas_threads() is None else "1")


def test_blas_threads_is_none_when_the_lookup_fails(monkeypatch):
    monkeypatch.setattr(pipeline.ctypes, "CDLL", lambda path: object())
    assert pipeline.blas_threads() is None
    assert pipeline.environment()["blas_threads"] is None

    def missing(path):
        raise OSError(f"cannot open {path}")

    monkeypatch.setattr(pipeline.ctypes, "CDLL", missing)
    assert pipeline.blas_threads() is None


def test_report_records_the_fingerprint_of_the_subsampled_set():
    gs = small_set()
    cfg = ExperimentConfig(**{**TINY, "max_graphs": 12})
    report, _ = run_experiment(gs, cfg)
    kept = subsample_graphset(gs, 12)
    assert len(kept) == 12
    assert report.data_fingerprint == dataset_fingerprint(kept)
    assert report.data_fingerprint != dataset_fingerprint(gs)
    assert report.to_dict()["data_fingerprint"] == report.data_fingerprint
    assert report.data_fingerprint.encode() in report.canonical_bytes()
    # a report written before the field existed still reads
    old = report.to_dict()
    del old["data_fingerprint"]
    assert report_from_dict(old).data_fingerprint is None


def _sides(gs, config):
    """(union of the seeds' training sides, union of their held-out sides)."""
    normal = resolve_normal_class(gs, config)
    splits = [make_anomaly_split(gs, normal, config.test_fraction, seed)
              for seed in config.seeds]
    return ({i for s in splits for i in s.train},
            {i for s in splits for i in s.test_indices()})


def test_run_experiment_builds_every_graph_once(monkeypatch):
    # set-up builds the training sides, every seed trains, and only then
    # are the held-out graphs that set-up left out built
    events = []
    real_precompute = pipeline.precompute_inputs
    real_target = pipeline.run_phase_target

    def spy(gs, config, indices):
        events.append(("build", list(indices)))
        return real_precompute(gs, config, indices)

    def target(upstream, inputs, train_idx, config, seed):
        trained = real_target(upstream, inputs, train_idx, config, seed)
        events.append(("target", seed))
        return trained

    monkeypatch.setattr(pipeline, "precompute_inputs", spy)
    monkeypatch.setattr(pipeline, "run_phase_target", target)
    gs = small_set()
    config = ExperimentConfig(**{**TINY, "seeds": (0, 1)})
    run_experiment(gs, config)
    builds = [indices for kind, indices in events if kind == "build"]
    assert sorted(i for indices in builds for i in indices) == list(range(len(gs)))
    train, _ = _sides(gs, config)
    assert builds[0] == sorted(train)
    held_only = set(range(len(gs))) - train
    assert held_only
    last_target = events.index(("target", config.seeds[-1]))
    assert [e for e in events if e[0] == "target"] == [("target", s)
                                                       for s in config.seeds]
    assert not any(held_only & set(indices)
                   for kind, indices in events[:last_target] if kind == "build")


def test_scoring_holds_only_the_held_out_inputs(monkeypatch):
    # the scorer is handed the held-out graphs' inputs alone, and the
    # training-only graphs' A_hat and features are already freed by then
    built = {}
    seen = []
    real_precompute = pipeline.precompute_inputs
    real_score = pipeline.score_seed

    def spy(gs, config, indices):
        out = real_precompute(gs, config, indices)
        built.update({i: (weakref.ref(gi.a_hat), weakref.ref(gi.x_init))
                      for i, gi in out.items()})
        return out

    def score(result, inputs, config, store=None):
        alive = {i for i, refs in built.items()
                 if any(ref() is not None for ref in refs)}
        seen.append((set(inputs), alive))
        return real_score(result, inputs, config, store)

    monkeypatch.setattr(pipeline, "precompute_inputs", spy)
    monkeypatch.setattr(pipeline, "score_seed", score)
    gs = small_set()
    config = ExperimentConfig(**{**TINY, "seeds": (0, 1)})
    run_experiment(gs, config)
    train, held = _sides(gs, config)
    assert train - held
    assert seen == [(held, held)] * len(config.seeds)


def test_all_variants_run_and_report():
    gs = small_set()
    for variant in ("non_st", "asy_st", "non_nf"):
        cfg = ExperimentConfig(variant=variant, **TINY)
        report, results = run_experiment(gs, cfg)
        assert report.variant == variant
        assert 0.0 <= report.auc_mean <= 1.0
        traces = results[0].traces
        if variant == "non_st":
            assert set(traces) == {"source"}
        else:
            assert "target" in traces and "flow" not in traces


def test_reports_match_the_composed_chains(monkeypatch):
    # the fused model ops leave every report byte-identical to the
    # primitive chains they replaced
    gs = planted_anomaly_set()
    for variant in VARIANTS:
        for batch_size in (1, 4):
            config = ExperimentConfig(variant=variant, seeds=(0,),
                                      s_epochs=2, n_epochs=2, t_epochs=2,
                                      batch_size=batch_size)
            fused = run_experiment(gs, config)[0].canonical_bytes()
            with monkeypatch.context() as patch:
                patch.setattr(CouplingStep, "forward", composed_coupling_step)
                patch.setattr(ad, "cosine_distance", composed_cosine_distance)
                for name, chain_op in COMPOSED_OPS.items():
                    patch.setattr(ad, name, chain_op)
                chain = run_experiment(gs, config)[0].canonical_bytes()
            assert fused == chain, (variant, batch_size)


# one tape node per model layer: the op names of each training step
SOURCE_STEP = ["gcn_layer", "gcn_layer", "perceptron", "gram_bce", "sub",
               "mul", "segment_sum", "scale", "scale", "add"]
FLOW_STEP = ["coupling_step", "add", "coupling_step", "add", "concat",
             "normal_nll"]
LOSS_STEP = ["segment_max", "cosine_distance", "cosine_distance",
             "segment_sum", "mul", "scale", "scale", "add"]
TARGET_STEP = {"full": ["gin_layer", "gin_layer"] + LOSS_STEP,
               "asy_st": ["gcn_layer", "gcn_layer"] + LOSS_STEP}
MEAN = ["reduce_sum", "scale"]


def _load_digests():
    """``scripts/digests.py``, whose recorder of each step's tape ops
    feeds its ``nodes`` line."""
    path = os.path.join(REPO_ROOT, "scripts", "digests.py")
    spec = importlib.util.spec_from_file_location("digests_script", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("variant", ["full", "asy_st"])
@pytest.mark.parametrize("batch_size", [1, 4])
def test_each_training_step_records_its_ops_once(variant, batch_size):
    config = ExperimentConfig(variant=variant, seeds=(0,), s_epochs=1,
                              n_epochs=1, t_epochs=1, batch_size=batch_size)
    steps = _load_digests().step_ops(planted_anomaly_set(), config)
    expected = {"source": SOURCE_STEP, "target": TARGET_STEP[variant]}
    if variant == "full":
        expected["flow"] = FLOW_STEP
    assert set(steps) == set(expected)
    # a step of one graph descends on its loss, with no mean
    mean = MEAN if batch_size > 1 else []
    for phase, ops in expected.items():
        assert steps[phase][0] == ops + mean, phase
        assert all(step in (ops, ops + mean) for step in steps[phase])


def test_protocol_purity_on_synthetic_run():
    gs = small_set()
    cfg = ExperimentConfig(**TINY)
    _, results = run_experiment(gs, cfg)
    for res in results:
        test_set = set(res.split.test_indices())
        assert not (res.guard.seen & test_set)
        assert res.guard.seen == set(res.split.train)


def test_multi_seed_aggregation():
    gs = small_set()
    cfg = ExperimentConfig(**{**TINY, "seeds": (0, 1, 2),
                              "s_epochs": 3, "n_epochs": 3, "t_epochs": 3})
    report, results = run_experiment(gs, cfg)
    aucs = [p["auc"] for p in report.per_seed]
    assert report.auc_mean == pytest.approx(np.mean(aucs))
    assert report.auc_std == pytest.approx(np.std(aucs))
    # different seeds must produce different splits
    assert results[0].split.train != results[1].split.train


def test_score_graph_agreement_is_zero(rng):
    # student outputs identical to the flow targets give score 0; the
    # cheapest construction is scoring the source against itself through
    # an identity flow and an identity-like student stub
    gs = small_set()
    cfg = ExperimentConfig(**TINY)
    inputs = precompute_inputs(gs, cfg, range(len(gs)))

    class Echo(GcnEncoder):
        # subclassing keeps the normalized-adjacency routing of real
        # GCN students; forward just replays the teacher pipeline
        def __init__(self, encoder, flow):
            self.encoder, self.flow = encoder, flow

        def forward(self, prop, x):
            h = self.encoder.forward(prop, x)
            z, _ = self.flow.forward(h, prop)
            return z

    _, results = run_experiment(gs, cfg)
    models = results[0].models
    echo = Echo(models["encoder"], models["flow"])
    score = score_graph(next(packs(inputs, [0], 1)),
                        {**models, "student": echo}, cfg)
    assert score < 1e-9


@pytest.mark.parametrize("variant", ["full", "asy_st"])
def test_score_matches_per_node_reference(variant):
    # the score is the beta = 1/2 distillation loss; the oracle averages a
    # scalar distance over the node rows, one at a time
    gs = planted_anomaly_set()
    cfg = ExperimentConfig(variant=variant, seeds=(0,), s_epochs=5,
                           n_epochs=5, t_epochs=5)
    _, results = run_experiment(gs, cfg)
    models = results[0].models
    graphs_with_zero_pairs = 0
    inputs = precompute_inputs(gs, cfg, range(len(gs)))
    for gi in packs(inputs, range(len(gs)), 1):
        with ad.Tape() as tape:
            stages = forward_stack(gi, models)
            score = score_graph(gi, models, cfg)
        assert tape.nodes == []
        z_nodes, out = stages["flow"], stages["target"]
        graph_term = reference_distance(out.max(axis=0), z_nodes.max(axis=0))
        node_term = np.mean([reference_distance(out[i], z_nodes[i])
                             for i in range(len(out))])
        assert score == pytest.approx((graph_term + node_term) / 2, abs=1e-15)
        assert 0.0 <= score <= 1.0
        graphs_with_zero_pairs += bool(np.any(~z_nodes.any(axis=1)
                                              & ~out.any(axis=1)))
    # isolated attribute-free nodes stay zero only without a trained flow
    assert (graphs_with_zero_pairs > 0) == (variant == "asy_st")


@pytest.mark.parametrize("variant", ["full", "non_nf", "asy_st"])
def test_forward_stack_writes_each_pack_a_hat_once(monkeypatch, variant):
    # the teacher, the flow and a GCN student (asy_st) read one written-out
    # A_hat; a zero-step flow (non_nf, asy_st) and a GIN student write none
    gs = small_set()
    cfg = ExperimentConfig(**{**TINY, "variant": variant, "batch_size": 4})
    _, results = run_experiment(gs, cfg)
    models = results[0].models
    inputs = precompute_inputs(gs, cfg, range(len(gs)))
    real = ad.as_float
    scatters = []

    def counting(a):
        scatters.append(any(isinstance(block, ad.Nonzeros)
                            for block in a.blocks))
        return real(a)

    monkeypatch.setattr(ad, "as_float", counting)
    for pack in packs(inputs, list(range(len(gs))), 4):
        scatters.clear()
        stages = forward_stack(pack, models)
        assert sum(scatters) == 1
        assert set(stages) == {"source", "flow", "target"}


def test_train_seed_annotates_failures(tmp_path):
    gs = small_set()
    cfg = ExperimentConfig(**{**TINY, "lr": 1e80})
    inputs = precompute_inputs(gs, cfg, range(len(gs)))
    with np.errstate(all="ignore"):
        with pytest.raises(Exception, match="seed 0"):
            train_seed(gs, inputs, cfg, 0, 0)
    # scoring names its seed too: here no checkpoint was written
    store = PhaseStore(str(tmp_path), cfg.fingerprint(), dataset_fingerprint(gs))
    untrained = train_seed(gs, inputs, cfg, 0, 0, store=store, phases=())
    with pytest.raises(PhaseOrderError, match="seed 0: checkpoint missing"):
        score_seed(untrained, inputs, cfg, store=store)


def test_train_seed_without_a_store_trains_the_whole_chain():
    gs = small_set()
    inputs = precompute_inputs(gs, ExperimentConfig(**TINY), range(len(gs)))
    for phases in ((), ("source",), ("source", "flow")):
        with pytest.raises(ContractViolation, match="every phase"):
            train_seed(gs, inputs, ExperimentConfig(**TINY), 0, 0,
                       phases=phases)


# ------------------------------------------------------------- checkpoints

def _trained_models(tmp_path):
    gs = small_set()
    cfg = ExperimentConfig(**{**TINY, "s_epochs": 2, "n_epochs": 2,
                              "t_epochs": 2})
    _, results = run_experiment(gs, cfg)
    return gs, cfg, precompute_inputs(gs, cfg, range(len(gs))), results[0]


def _save_encoder(store, res):
    return store.save(0, "source", {"encoder": res.models["encoder"],
                                    "decoder": res.models["decoder"]}, None)


def test_checkpoint_roundtrip_preserves_scores(tmp_path):
    gs, cfg, inputs, res = _trained_models(tmp_path)
    store = PhaseStore(str(tmp_path), cfg.fingerprint(), dataset_fingerprint(gs))
    enc_fp = _save_encoder(store, res)
    flow_fp = store.save(0, "flow", {"flow": res.models["flow"]}, enc_fp)
    target_fp = store.save(0, "target", {"student": res.models["student"]},
                           flow_fp)

    assert store.load_chain(0, ("source",))[1] == enc_fp
    assert store.load_chain(0, PHASES[:2])[1] == flow_fp
    models, last_fp = store.load_chain(0, PHASES)
    assert last_fp == target_fp
    assert set(models) == {"encoder", "decoder", "flow", "student"}
    for gi in packs(inputs, range(4), 1):
        orig = score_graph(gi, res.models, cfg)
        loaded = score_graph(gi, models, cfg)
        assert orig == loaded


def test_checkpoint_chain_rejects_stale_upstream(tmp_path):
    gs, cfg, inputs, res = _trained_models(tmp_path)
    fp, data_fp = cfg.fingerprint(), dataset_fingerprint(gs)
    store = PhaseStore(str(tmp_path), fp, data_fp)
    _save_encoder(store, res)
    # a flow built on an encoder other than the one on disk
    store.save(0, "flow", {"flow": res.models["flow"]}, "0" * 64)
    with pytest.raises(PhaseOrderError, match="retrained"):
        store.load_chain(0, PHASES[:2])
    with pytest.raises(PhaseOrderError, match="config"):
        PhaseStore(str(tmp_path), "1" * 64, data_fp).load_chain(0, ("source",))
    with pytest.raises(PhaseOrderError, match="other data; re-run train"):
        PhaseStore(str(tmp_path), fp, "1" * 64).load_chain(0, ("source",))


def test_checkpoint_detects_tampering(tmp_path):
    gs, cfg, inputs, res = _trained_models(tmp_path)
    store = PhaseStore(str(tmp_path), cfg.fingerprint(), dataset_fingerprint(gs))
    _save_encoder(store, res)
    path = store.path(0, "source")
    text = open(path).read()
    with open(path, "w") as fh:
        fh.write(text.replace('"encoder.0"', '"encoder.X"', 1))
    with pytest.raises(PhaseOrderError, match="verification"):
        load_checkpoint(path, "encoder")


def test_old_adapter_format_is_phase_order_error(tmp_path):
    # a checkpoint that verifies but whose meta does not describe models
    store = PhaseStore(str(tmp_path), "fp", "data")
    save_checkpoint(store.path(0, "source"), "encoder",
                    {"encoder_w0": np.ones((3, 2))},
                    {"d_in": 3, "hidden": 2, "d_out": 2, "layers": 1},
                    store.lineage(None))
    with pytest.raises(PhaseOrderError, match="encoder.ckpt cannot be rebuilt"):
        store.load_chain(0, ("source",))


def test_student_checkpoint_with_gin_epsilon_is_phase_order_error(tmp_path):
    # students saved while GIN layers took an epsilon record it in their
    # constructor arguments; the GIN-0 student no longer accepts it
    store = PhaseStore(str(tmp_path), "fp", "data")
    enc_fp = store.save(0, "source", {
        "encoder": GcnEncoder(3, 4, 4, 1, make_rng(0)),
        "decoder": FeatureDecoder(4, 3, make_rng(0))}, None)
    flow_fp = store.save(0, "flow", {"flow": GraphFlow(4, 0, 2.0, make_rng(0))},
                         enc_fp)
    student = GinNetwork(3, 4, 4, 1, make_rng(0))
    meta = {"student": {"class": "GinNetwork",
                        "args": {**student.init_args(), "eps": 0.0}}}
    arrays = {f"student.{i}": p.data for i, p in enumerate(student.params())}
    save_checkpoint(store.path(0, "target"), "target", arrays, meta,
                    store.lineage(flow_fp))
    with pytest.raises(PhaseOrderError, match="target.ckpt cannot be rebuilt"):
        store.load_chain(0, PHASES)


def test_interrupted_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    gs, cfg, inputs, res = _trained_models(tmp_path)
    path = tmp_path / "0" / "encoder.ckpt"
    _save_encoder(PhaseStore(str(tmp_path), cfg.fingerprint(), "data"), res)
    before = path.read_bytes()
    fail_checkpoint_writes(monkeypatch, b'{"arrays":{"enc')
    with pytest.raises(OSError, match="disk full"):
        _save_encoder(PhaseStore(str(tmp_path), "another config", "data"), res)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path / "0") == ["encoder.ckpt"]


def test_missing_checkpoint_is_phase_order_error(tmp_path):
    with pytest.raises(PhaseOrderError, match="missing"):
        load_checkpoint(str(tmp_path / "nope.ckpt"), "encoder")


def test_checkpoint_of_another_kind_is_phase_order_error(tmp_path):
    store = PhaseStore(str(tmp_path), "fp", "data")
    store.save(0, "source", {"encoder": GcnEncoder(3, 4, 4, 1, make_rng(0)),
                             "decoder": FeatureDecoder(4, 3, make_rng(0))}, None)
    with pytest.raises(PhaseOrderError,
                       match="is a 'encoder' checkpoint, expected 'flow'"):
        load_checkpoint(store.path(0, "source"), "flow")


# ------------------------------------------------------------- embeddings

def test_export_embeddings_shapes_and_stage_check(tmp_path):
    gs, cfg, inputs, res = _trained_models(tmp_path)
    pairs = res.split.test[:3]
    rows = export_embeddings(inputs, pairs, res.models, cfg)
    assert list(rows) == ["source", "flow", "target"]
    for stage_rows in rows.values():
        assert len(stage_rows) == 3
        assert all(len(row) == 2 + cfg.d for row in stage_rows)
    assert rows == export_embeddings(inputs, pairs, res.models, cfg)
    # the reconstruction baseline has only the teacher's stage
    teacher = {k: res.models[k] for k in ("encoder", "decoder")}
    only_source = export_embeddings(inputs, pairs, teacher,
                                    dataclasses.replace(cfg, variant="non_st"))
    assert only_source == {"source": rows["source"]}


def test_resolve_normal_class_majority_and_override():
    gs = small_set()
    assert resolve_normal_class(gs, ExperimentConfig()) == 0
    assert resolve_normal_class(
        gs, ExperimentConfig(normal_class=1)) == 1
