"""Sumset vs difference-set growth: counting, construction, and the exponent bound.

Subpackages by role:
    wcount    exact counting (inclusion-exclusion) and enumeration of the
              bounded simplex sets W(m, L, B)
    construct digit-map integer sets, their counted exponent bound, and the
              brute-force sumsets/difference sets that check it
    ratefn    large-deviation rate function I(c, B) via its convex dual
    optimize  nested maximization of the exponent bound over (a, r, B)
    cli       command-line entry point

Everything is pure Python, with no runtime dependencies.
"""
from .construct import (
    BoundReport,
    IntegerSet,
    build_U,
    diff_count,
    diffset,
    encode_f,
    encode_g,
    max_U,
    sumset,
    theta_bound,
    theta_bound_exact,
    verify_diffset_identity,
    verify_injectivity,
    verify_sumset_identity,
)
from .optimize import (
    OptimizationReport,
    ThetaPoint,
    maximize_a,
    maximize_r,
    table1,
    theta_objective,
)
from .ratefn import RateQuery, RateResult, log_mgf, log_W_rate_limit, rate_I, tilted_mean
from .wcount import (
    CountValue,
    EnumerationCapError,
    LatticeVector,
    WParams,
    binomial,
    count_W,
    enumerate_W,
    log_count_rate,
)

__version__ = "0.1.0"

#: the numeric kernel, carried as ``backend`` in the optimize/table1 records
BACKEND_NAME = "python"

__all__ = [
    "BACKEND_NAME",
    "BoundReport",
    "CountValue",
    "EnumerationCapError",
    "IntegerSet",
    "LatticeVector",
    "OptimizationReport",
    "RateQuery",
    "RateResult",
    "ThetaPoint",
    "WParams",
    "binomial",
    "build_U",
    "count_W",
    "diff_count",
    "diffset",
    "encode_f",
    "encode_g",
    "enumerate_W",
    "log_W_rate_limit",
    "log_count_rate",
    "log_mgf",
    "max_U",
    "maximize_a",
    "maximize_r",
    "rate_I",
    "sumset",
    "table1",
    "theta_bound",
    "theta_bound_exact",
    "theta_objective",
    "tilted_mean",
    "verify_diffset_identity",
    "verify_injectivity",
    "verify_sumset_identity",
    "__version__",
]
