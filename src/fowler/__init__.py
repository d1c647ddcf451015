"""Pseudo-spectral simulator and verification harness for the Fowler dune equation.

The package evaluates the nonlocal fractional operator by two independent
routes (Fourier multiplier and singular integral), builds the semigroup
kernel of the linear part, advances mild solutions of the travelling-wave
perturbation equation by a Duhamel/Picard integrator, and ships executable
checks for the quantitative properties of all of these.
"""

__version__ = "0.1.0"

from .grid import (
    Grid,
    RealField,
    circular_convolve,
    make_grid,
)
from .operator import (
    A_I,
    ALPHA0,
    B_I,
    XI_C,
    XI_STAR,
    QuadratureSpec,
    apply_nonlocal_fourier,
    apply_nonlocal_integral,
    psi_symbol,
    sobolev_norm,
)
from .kernel import (
    KernelNormFit,
    KernelSnapshot,
    convolve_kernel,
    grad_kernel_norms,
    kernel_field,
    semigroup_residual,
)
from .profiles import WaveProfile
from .evolution import (
    BlowUpError,
    ContractionBound,
    InitialCondition,
    K0,
    K1,
    PicardError,
    SimConfig,
    Trajectory,
    contraction_time_bound,
    evolve,
    evolve_full,
)
from .diagnostics import (
    DiagnosticsRecord,
    EnergyBoundParams,
    c1b_norm,
    energy_bound_check,
    l2_norm,
)
from .config import ConfigError, RunSettings, parse_config
