"""Unsupervised graph-level anomaly detection by flow-guided distillation.

A reconstruction-pretrained graph encoder (the teacher) feeds a reversible
coupling flow that maps normal-graph embeddings toward a standard normal
latent; a separate student network is distilled against the flow output on
normal graphs only. At test time, graphs where the two sides disagree are
flagged anomalous, and AUC is aggregated over seeds.
"""

from .autodiff import Tape, Tensor, gradcheck
from .data import (AnomalySplit, Graph, GraphSet, dataset_fingerprint,
                   majority_class, make_anomaly_split, normalized_adjacency,
                   parse_tudataset, write_tudataset)
from .encoding import rw_structural_encoding
from .errors import (ConfigError, ContractViolation, DatasetError,
                     DeterminismError, FlowgadError, NumericFault,
                     PhaseOrderError, TrainingFault, UndefinedMetricError)
from .flow import CouplingStep, GraphFlow, nf_loss, train_flow
from .optim import Adam, glorot_init, make_rng
from .pipeline import (ExperimentConfig, ScoreReport, SplitGuard,
                       compute_auc, export_embeddings, run_experiment,
                       score_graph, score_histogram)
from .source import (FeatureDecoder, GcnEncoder, adjacency_recon_loss,
                     pretrain_source, source_loss)
from .synthetic import planted_anomaly_set
from .target import GinNetwork, graph_target_loss, train_target

__version__ = "0.1.0"
