"""Open-domain recognition toolkit.

Trains a shared encoder and a full classifier head on a labeled source
domain covering only part of the target's categories: classifier weights
for the missing categories are propagated over a class taxonomy by a graph
convolution, a Hungarian-matched cross-domain discrepancy aligns the
feature distributions, and a limited balance constraint keeps the unknown
class probability mass in a sensible range.
"""

from .evaluate import AccuracyTriple, accuracy_triple, predict
from .gcn import GcnParams, GcnSchedule, gcn_forward, train_gcn_init
from .graph import KnowledgeGraph, check_reachability, load_graph, normalized_adjacency, save_graph
from .losses import (
    ClassifierHead,
    LossWeights,
    balance_loss_vanilla,
    classifier_responses,
    cls_loss,
    limited_balance_loss,
    sgmd_loss,
)
from .matching import MatchedPairs, hungarian, match_domains, pairwise_l1, partition_folds
from .model import Encoder, ModelState, encode, init_head_from_gcn, pretrain_source
from .numkit import leaky_relu, make_rng, softmax_rows
from .synth import LabeledDataset, SynthConfig, UnlabeledDataset, generate
from .trainer import (
    ExperimentConfig,
    TrainHistory,
    parse_config,
    run_ablation,
    run_da_mode,
    run_pipeline,
)

__version__ = "0.1.0"
