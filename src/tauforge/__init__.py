"""Exact tables, oracles, and geometry for trigonometric invariant operators.

The package carries the E7 operator tables in invariant coordinates,
numeric chain-rule and ground-state oracles that certify them, flag and
spectrum machinery, a flatness check for the induced metric, and exact
small-rank derivations that close the loop on the whole method.
"""

from .derive import derive_operator
from .exactpoly import MultiPoly, NuDegreeError, NuLinear
from .geometry import (
    SingularMetricError,
    chart_center,
    flatness_report,
    flatness_sample_points,
    sabotaged,
    with_coefficient,
)
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
from .oracle import (
    CancellationError,
    ClearanceError,
    FitResult,
    FramePool,
    NumericFrame,
    SamplePoint,
    build_frame,
    chain_rule_oracle,
    clearance,
    fit_entry,
    ground_state_energy,
    ground_state_residual,
    hp_digits,
    sample_points,
    tau_numeric,
    verify_tables,
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
