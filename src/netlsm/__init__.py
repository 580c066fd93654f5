"""Latent space modeling for indirectly-observed signed weighted bipartite
networks, with refinement baselines and a survival-prediction pipeline."""

__version__ = "0.1.0"

from .network import (
    CompatibilityNetwork,
    NetworkFormatError,
    load_network,
    save_network,
)
from .model import (
    LsmParams,
    FitConfig,
    FitResult,
    FitError,
    RefinedEstimates,
    pair_affinity,
    log_likelihood,
    log_likelihood_gradient,
    fit,
    fit_networks,
    refine_network,
)
from .mdsinit import build_dissimilarity, classical_mds, mds_init
from .procrustes import ProcrustesResult, procrustes_align
from .simulate import SimConfig, SimulatedNetwork, simulate, run_replicates, run_blocks
from .baselines import NmtfConfig, NmtfResult, pca_refine, nmtf_refine
from .metrics import EvalReport, rmse, mean_log_prob, sign_accuracy, evaluate_refinement
from .survival import (
    TransplantDataset,
    CoxModel,
    ConvergenceError,
    design_matrix,
    cox_fit,
    tune_lambda,
    extract_network,
    substitute_coefficients,
    c_index,
    SurvivalGenConfig,
    simulate_transplants,
    pipeline_end_to_end,
)
