"""Singular stress and body-force fields as distributions, verified by quadrature.

The package represents stresses and body forces that consist of a
piecewise-smooth bulk part, a surface-concentrated part on an oriented
interface, and a surface dipole part pairing with normal derivatives of
test functions.  It provides the dual evaluation paths (defining pairings
vs. closed-form divergence identities), local/weak equilibrium residuals,
the stress-dipole limit experiment, stress-function density extraction,
and the global force/moment conditions on multiply connected domains,
plus a scenario-driven CLI.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    EvaluationError,
    FieldError,
    GeometryError,
    RankMismatchError,
    StressDistError,
)
from .geometry import (
    Ball,
    Box,
    CylinderAnnulus,
    SphericalShell,
    cylinder_patch_interface,
    equatorial_annulus_interface,
    integrate_curve,
    integrate_surface,
    integrate_volume,
    mean_curvature,
    plane_disk_interface,
    shape_operator,
    sphere_interface,
    boundary_force_moment,
)
from .fields import (
    BumpScalar,
    BumpSymTensor,
    BumpVector,
    GradientTestField,
    PiecewiseField,
    Poly3,
    SurfaceField,
    make_bump,
    make_gradient_test_field,
)
from .distributions import (
    BDist,
    CDist,
    CompositeDist,
    FDist,
    PairingValue,
    cauchy_flux,
    distributional_curl,
    distributional_div,
    identity1_rhs,
    identity2_rhs,
    identity_sides,
    interface_terms,
    mollified_pair,
    mollify_convergence,
)
from .equilibrium import (
    Check,
    EquilibriumScenario,
    bulk_residual,
    dipole_limit,
    interface_residuals,
    local_report,
    weak_equals_local,
)
from .stressfn import (
    DensityTriple,
    StressFunction,
    check_lemma2_conditions,
    curl_curl,
    extract_densities,
    global_conditions,
    lemma2_algebraic_identity,
    surface_curl,
    trace_curl_check,
)
