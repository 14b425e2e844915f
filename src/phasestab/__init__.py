"""Spectral feedback stabilization of a conserved phase-field system.

A cosine-spectral library and CLI that linearizes the coupled
Cahn-Hilliard / energy-balance dynamics around a stationary state, builds a
localized finite-dimensional actuator through the unstable modes, solves the
associated algebraic Riccati equation, and demonstrates exponential decay of
the nonlinear closed loop.
"""

from .actuator import (
    Actuator,
    GramianConditionError,
    NullControlPlan,
    apply_B,
    apply_B_star,
    build_actuator,
    bump_weight,
    kalman_certificate,
    null_control,
)
from .config import ConfigError, SimConfig, load_config, save_config
from .linearization import (
    LinearizedPlant,
    PhysicalParams,
    assemble_plant,
    g_field,
    mean_F_second,
)
from .lqr import (
    RiccatiError,
    RiccatiSolution,
    solve_care,
)
from .sim import (
    BlowUpError,
    ImplicitSolveError,
    StateYZ,
    TrajectoryRecord,
    from_physical,
    remainder_G_direct,
    simulate,
    physical_deviation_norm,
    to_physical,
)
from .spectral import (
    ScalarField,
    SpectralBasis,
    apply_A_power,
    gradient_squared,
    laplacian,
    norm_D_alpha,
    pointwise_product,
    transform_forward,
    transform_inverse,
)
from .stationary import (
    StationaryState,
    chi_infinity,
    gbar_infinity,
    stationary_constant,
    stationary_minimize,
)

__version__ = "0.1.0"
