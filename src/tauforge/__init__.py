"""Exact tables, oracles, and geometry for trigonometric invariant operators.

The package carries the E7 operator tables in invariant coordinates,
numeric chain-rule and ground-state oracles that certify them, flag and
spectrum machinery, a flatness check for the induced metric, and exact
small-rank derivations that close the loop on the whole method.
"""

from types import ModuleType as _ModuleType

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

# the eager names, then the numeric ones, then the version
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + list(_NUMERIC) + ["__version__"]
