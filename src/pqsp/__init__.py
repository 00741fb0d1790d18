"""Parallel QSP: factor a polynomial into threads, simulate the joint
circuit, and estimate spectral properties with predicted shot budgets."""

from .errors import ConvergenceError, InputError, NotNonNegativeError, PostSelectionError
from .poly import (
    ChebyshevSeries,
    Parity,
    Polynomial,
    chebyshev_coeff_1norm,
    chebyshev_coeff_bound,
    chebyshev_coefficient,
    chebyshev_polynomial,
    constituent_norm_bounds,
    from_chebyshev,
    parity_split,
    polynomial_from_dict,
    split_constituents,
    sup_norm,
    to_chebyshev,
)
from .factor import (
    FactorizationPlan,
    ParallelTerm,
    ParallelTermList,
    RootSet,
    chebyshev_parallel_terms,
    factorization_constant,
    factorize_nonneg,
    find_roots,
    rescale_factors,
    term_factor_polynomials,
    verify_factorization,
)
from .qsp import (
    QspConditionReport,
    QspPhases,
    QspUnitaryValue,
    chebyshev_block_value,
    designated_element,
    extract_polynomials,
    find_phases,
    qsp_unitary,
    realized_value,
    validate_conditions,
)
from .sim import (
    BlockEncoding,
    DensityMatrix,
    Estimate,
    Purification,
    ShotSampler,
    apply_qsp,
    block_encode_density,
    generalized_swap_expectation,
    hadamard_test,
    oracle_block_encode,
    parallel_qsp_run,
    purify,
    qsp_test,
    query_depth_report,
)
from .estimate import (
    CostModel,
    EstimationReport,
    estimate_chebyshev,
    estimate_direct,
    importance_sample,
    monomial_poly_trace,
    partition_function,
    predict_cost,
    renyi_integer,
    renyi_noninteger,
    von_neumann,
)
from .config import ExperimentConfig, RunRecord, config_hash, resolve_state

__version__ = "0.1.0"
