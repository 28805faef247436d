"""Exact solver and verification suite for the shifted wave equation on
homogeneous trees.

The package works in the quadratic field Q(sqrt(q)) so that closed-form
propagators, the leapfrog recurrence, horocycle-summation transforms and all
energy diagnostics can be compared as exact equalities.
"""

from .errors import (
    ConfigError,
    ConsistencyError,
    DomainError,
    ModeError,
    ParameterError,
    TruncationError,
)
from .functions import (
    HeightSequence,
    RadialProfile,
    TreeFunction,
    is_radial,
    radial_profile_of,
    spherical_mean,
)
from .laplacians import (
    SpectralConstants,
    gamma,
    gamma_tilde,
    laplacian_line,
    laplacian_tree,
    rayleigh_quotient,
    tau,
    two_step_laplacian,
)
from .energy import (
    EnergyReport,
    HuygensReport,
    PropagationReport,
    default_shell_margin,
    energies,
    equipartition_gap,
    gap_bound_constant,
    huygens_report,
    kinetic_energy,
    potential_energy,
    propagation_bounds,
    radial_equipartition_gap,
    radial_total_energy,
    total_energy,
    total_energy_closed_form,
)
from .experiment import ExperimentConfig, run_experiment
from .radial import (
    distance_count,
    evaluate_kernel_solution,
    kernel_family_recurrence,
    m_kernel,
    propagator_kernels,
    radial_adjacency,
    radial_convolve,
    radial_solve,
)
from .scalars import QSurd, Scalar, ScalarMode, sqrt_q_power
from .topology import Ball, VertexAddress, distance, omega, sphere, sphere_volume
from .transforms import (
    abel,
    abel_inverse,
    cos_q,
    dual_abel,
    dual_abel_inverse,
    fourier_height,
    fourier_table,
    sin_q,
    sine_ratio_q,
)
from .verify import run_verification
from .wave import (
    WaveTrajectory,
    asgeirsson_field,
    asgeirsson_verify,
    c_operator,
    m_operator,
    propagators,
    s_operator,
    solve,
    step_recurrence,
)

__version__ = "0.1.0"
