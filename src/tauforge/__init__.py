"""Exact tables, oracles, and geometry for trigonometric invariant operators.

The package carries the E7 operator tables in invariant coordinates,
numeric chain-rule and ground-state oracles that certify them, flag and
spectrum machinery, a flatness check for the induced metric, and exact
small-rank derivations that close the loop on the whole method.
"""

from .exactpoly import MultiPoly, NuDegreeError, NuLinear
from .operator import (
    AlgebraicOperator,
    FlagBasis,
    SpectrumResult,
    WP_PARAM_NAMES,
    apply,
    e7_operator,
    enumerate_flag_basis,
    flag_degree_check,
    flag_matrix,
    operator_to_json,
    spectrum,
    stored_data_report,
    weighted_projective_check,
)
from .rootsys import (
    RootSystem,
    WeylOrbit,
    build_system,
    characteristic_vector,
    deformed_weyl_vector,
    dominance_leq,
    highest_root,
    weyl_orbit,
)

# The exact modules above import no numeric library, and every command
# loads them.  The numeric ones import numpy and mpmath, so their names
# resolve on first use (PEP 562): `import tauforge` and the exact commands
# load neither library.
_NUMERIC = {
    "derive_operator": "derive",
    "SingularMetricError": "geometry",
    "chart_center": "geometry",
    "flatness_report": "geometry",
    "flatness_sample_points": "geometry",
    "sabotaged": "geometry",
    "with_coefficient": "geometry",
    "CancellationError": "oracle",
    "ClearanceError": "oracle",
    "FitResult": "oracle",
    "FramePool": "oracle",
    "NumericFrame": "oracle",
    "SamplePoint": "oracle",
    "build_frame": "oracle",
    "chain_rule_oracle": "oracle",
    "clearance": "oracle",
    "fit_entry": "oracle",
    "ground_state_energy": "oracle",
    "ground_state_residual": "oracle",
    "hp_digits": "oracle",
    "sample_points": "oracle",
    "tau_numeric": "oracle",
    "verify_tables": "oracle",
}


_NUMERIC_MODULES = ("derive", "fixedpoint", "geometry", "oracle")


def __getattr__(name: str):
    from importlib import import_module

    if name in _NUMERIC_MODULES:
        # importing a submodule binds it here, as `import tauforge` once did
        return import_module(f".{name}", __name__)
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_NUMERIC[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_NUMERIC) | set(_NUMERIC_MODULES))


__version__ = "0.1.0"

__all__ = [
    "AlgebraicOperator",
    "CancellationError",
    "ClearanceError",
    "FitResult",
    "FlagBasis",
    "FramePool",
    "MultiPoly",
    "NuDegreeError",
    "NuLinear",
    "NumericFrame",
    "RootSystem",
    "SamplePoint",
    "SingularMetricError",
    "SpectrumResult",
    "WP_PARAM_NAMES",
    "WeylOrbit",
    "apply",
    "build_frame",
    "build_system",
    "chain_rule_oracle",
    "characteristic_vector",
    "chart_center",
    "clearance",
    "deformed_weyl_vector",
    "derive_operator",
    "dominance_leq",
    "e7_operator",
    "enumerate_flag_basis",
    "fit_entry",
    "flag_degree_check",
    "flag_matrix",
    "flatness_report",
    "flatness_sample_points",
    "ground_state_energy",
    "ground_state_residual",
    "highest_root",
    "hp_digits",
    "operator_to_json",
    "sabotaged",
    "sample_points",
    "spectrum",
    "stored_data_report",
    "tau_numeric",
    "verify_tables",
    "weighted_projective_check",
    "weyl_orbit",
    "with_coefficient",
    "__version__",
]
