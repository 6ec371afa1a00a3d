"""Sumset vs difference-set growth: counting, construction, and the exponent bound.

Modules by role:
    wcount     counting and enumeration of the bounded simplex sets W(m, L, B)
    exactcount the inclusion-exclusion count under wcount and its work bound
    construct  digit-map integer sets, their counted exponent bound, and the
               brute-force sumsets/difference sets that check it
    ratefn     large-deviation rate function I(c, B) via its convex dual
    optimize   maximization of the exponent bound, per B, as one search in a tilt
    cli        command-line entry point

Each submodule loads on first use: ``from sumdiff import log_count_rate``
loads ``wcount`` and the ``exactcount`` it uses.  The result records
(``WParams``, ``CountValue``, ``BoundReport``, ``ThetaPoint``,
``OptimizationReport``, ``RateQuery``, ``RateResult``) are immutable
NamedTuples; ``._asdict()`` gives their fields as a dict.

Everything is pure Python, with no runtime dependencies.
"""
from importlib import import_module

__version__ = "0.1.0"

#: the numeric kernel; no record carries it, but the benchmark harness
#: (perfbench/run.py) still reads it until ROADMAP item 7's perfbench change,
#: after which item 13 deletes it
BACKEND_NAME = "python"

#: public name -> the submodule that defines it, imported on first access
_HOME = {
    "BoundReport": "construct",
    "IntegerSet": "construct",
    "build_U": "construct",
    "diff_count": "construct",
    "diffset": "construct",
    "encode_g": "construct",
    "max_U": "construct",
    "sumset": "construct",
    "theta_bound": "construct",
    "theta_bound_exact": "construct",
    "verify_diffset_identity": "construct",
    "verify_injectivity": "construct",
    "verify_sumset_identity": "construct",
    "verify_triple": "construct",
    "OptimizationReport": "optimize",
    "ThetaPoint": "optimize",
    "maximize_a": "optimize",
    "maximize_r": "optimize",
    "table1": "optimize",
    "theta_objective": "optimize",
    "RateQuery": "ratefn",
    "RateResult": "ratefn",
    "log_W_rate_limit": "ratefn",
    "log_mgf": "ratefn",
    "rate_I": "ratefn",
    "tilted_mean": "ratefn",
    "CountValue": "wcount",
    "EnumerationCapError": "wcount",
    "LatticeVector": "wcount",
    "WParams": "wcount",
    "count_W": "wcount",
    "enumerate_W": "wcount",
    "log_count_rate": "wcount",
}

_SUBMODULES = {"cli", *_HOME.values()}

__all__ = ["BACKEND_NAME", *sorted(_HOME), "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule binds it on the package, so this runs once per name
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
