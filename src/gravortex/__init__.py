"""Vortex, gravitating-vortex, and Einstein-Bogomol'nyi solves on model
surfaces of genus 0 and 1, with exact algebraic existence oracles.

All background metrics are normalised to area 2*pi and the Laplacian is
taken positive; see the individual modules for conventions.
"""

__version__ = "0.1.0"

from .geometry import (  # noqa: F401
    POINT_AT_INFINITY,
    ScalarField,
    SurfaceGrid,
    SurfaceModel,
    build_grid,
    constant_field,
    field,
    integrate,
    laplacian_apply,
    laplacian_invert,
    mean_value,
)
from .sections import (  # noqa: F401
    Divisor,
    SectionData,
    build_section,
    rescale,
)
from .equations import (  # noqa: F401
    EquationKind,
    FieldState,
    IdentityReport,
    ProblemSpec,
    conformal_exponent,
    direct_gve_residual,
    identity_report,
    initial_state,
    make_state,
    metric_density,
    residual_fields,
    scalar_curvature,
)
from .stability import (  # noqa: F401
    DivisorClass,
    ExistenceReport,
    ExistenceVerdict,
    StabilityVerdict,
    alpha_star,
    bradlow_bound,
    bradlow_check,
    classify_divisor,
    classify_multiplicities,
    destabilizes,
    eb_coupling,
    existence_oracle,
    is_polystable,
    sigma_range,
    sigma_slope,
    topological_constant,
)
from .solvers import (  # noqa: F401
    FailureReason,
    SolveReport,
    SolverConfig,
    advance_gravitating,
    newton_step,
    solve_eb,
    solve_gravitating,
    solve_vortex,
)
from .radial import RadialEBSolution, solve_eb_radial  # noqa: F401
