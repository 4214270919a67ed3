"""Information-theoretic feature selection over discretized tabular data.

A library and CLI implementing greedy high-order conditional-mutual-information
feature selection alongside the classic MI-based criteria (MIM, MIFS, mRMR,
JMI, DISR, CMIM, RelaxMRMR and the order-3/4 JMI/CMIM variants), over
integer-coded columns with plug-in or James-Stein shrinkage estimators, plus a
repeated-holdout KNN benchmark harness and exact MI-call accounting.
"""

__version__ = "0.1.0"

from .criteria import Criterion, parse_criterion
from .data import (BinningSpec, DiscreteDataset, RawTable, SplitSpec,
                   apply_binning, discretize, fit_binning, load_csv,
                   make_splits, make_xor_table, toy_dataset, toy_table)
from .estimators import TARGET, EstimatorContext
from .evaluate import EvalReport, average_ranks, benchmark
from .hocmim import RedundancyTrace, hocmim_score
from .oracle import run_oracle_checks
from .selection import SelectionResult, predicted_mi_calls, run_sfs

__all__ = [
    "BinningSpec", "Criterion", "DiscreteDataset", "EstimatorContext",
    "EvalReport", "RawTable", "RedundancyTrace",
    "SelectionResult", "SplitSpec", "TARGET", "apply_binning",
    "average_ranks", "benchmark", "discretize", "fit_binning",
    "hocmim_score", "load_csv", "make_splits", "make_xor_table",
    "parse_criterion", "predicted_mi_calls",
    "run_oracle_checks", "run_sfs", "toy_dataset", "toy_table",
]
