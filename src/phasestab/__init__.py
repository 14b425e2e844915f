"""Spectral feedback stabilization of a conserved phase-field system.

A cosine-spectral library and CLI that linearizes the coupled
Cahn-Hilliard / energy-balance dynamics around a stationary state, builds a
localized finite-dimensional actuator through the unstable modes, solves the
associated algebraic Riccati equation, and demonstrates exponential decay of
the nonlinear closed loop.
"""

from .actuator import (
    Actuator,
    NullControlPlan,
    build_actuator,
    bump_weight,
    kalman_certificate,
    null_control,
)
from .config import ConfigError, NumericalError, SimConfig, load_config, save_config
from .linearization import (
    F_second_parts,
    LinearizedPlant,
    PhysicalParams,
    assemble_plant,
)
from .lqr import (
    RiccatiSolution,
    solve_care,
)
from .sim import (
    TrajectoryRecord,
    simulate,
)
from .spectral import (
    ScalarField,
    SpectralBasis,
    laplacian,
)
from .stationary import (
    StationaryState,
    chi_infinity,
    gbar_infinity,
    stationary_constant,
    stationary_minimize,
)

__version__ = "0.1.0"
