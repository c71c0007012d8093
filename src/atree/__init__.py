"""atree: hierarchical multi-class classification by recursive boosted
partitioning with per-node binary SVMs, plus baselines and exact test-time
complexity accounting."""

from .boosting import (BoostConfig, BoostedClassifier, DecisionStump,
                       adaboost_train, error_bound, prob_positive_batch,
                       strong_score_batch, train_stump)
from .dataset import (Dataset, generate_gaussian_blobs, generate_two_cluster_2d,
                      load_csv, split_train_test, write_csv)
from .errors import AtreeError, ParseError, SchemaError, ValidationError
from .metrics import (ComplexityReport, EvaluationRun, complexity_report,
                      evaluate_atree, evaluate_one_vs_all, evaluate_one_vs_one,
                      mean_per_class_accuracy, train_one_vs_all,
                      train_one_vs_one)
from .svm import (KernelSpec, KernelSvmModel, LinearSvmModel, SvmConfig, kernel_matrix,
                  train_kernel_svm, train_linear_svm, train_svm)
from .tree import (Atree, AtreeConfig, EntropySplit, InternalNode, LeafNode,
                   PartitionResult, attach_svms_phase2, binarize_labels,
                   build_phase1, deserialize, entropy_split, node_cost,
                   partition_samples, serialize, to_dot, train_atree)

__version__ = "0.1.0"
