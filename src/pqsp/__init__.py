"""Parallel QSP: factor a polynomial into threads, simulate the joint
circuit, and estimate spectral properties with predicted shot budgets."""

from .errors import ConvergenceError, InputError, NotNonNegativeError, PostSelectionError
from .poly import (
    Parity,
    Polynomial,
    chebyshev_coeff_1norm,
    chebyshev_coeff_bound,
    chebyshev_coefficient,
    chebyshev_polynomial,
    constituent_norm_bounds,
    parity_split,
    split_constituents,
    sup_norm,
)
from .factor import (
    FactorizationPlan,
    ParallelTermList,
    chebyshev_parallel_terms,
    factorize_nonneg,
    find_roots,
    rescale_factors,
    term_layout,
    verify_factorization,
)
from .qsp import QspPhases, find_phases, realized_value
from .sim import (
    DensityMatrix,
    Estimate,
    ShotSampler,
    generalized_swap_expectation,
    joint_readout,
    layout_table,
    parallel_qsp_run,
    parallel_qsp_runs,
    query_depth_report,
    spectral_hadamard_test,
)
from .estimate import (
    CostModel,
    EstimationReport,
    estimate_chebyshev,
    estimate_direct,
    monomial_poly_trace,
    partition_function,
    predict_cost,
    renyi_integer,
    renyi_noninteger,
    von_neumann,
)
from .config import ExperimentConfig, RunRecord, config_hash, resolve_state

__version__ = "0.1.0"
