"""horomix: desk-scale numerics for slowly mixing flows.

Subpackages cover the correlation ODE pipeline, Laplace-type asymptotic
expansions, spectral averages over finite character lattices, and the
mixing-integral synthesis tying them together.
"""

__version__ = "0.1.0"

from .corr_ode import (
    ForcingProfile,
    ModePair,
    Trajectory,
    assemble_forcing,
    asymptotic_amplitude,
    asymptotic_constant,
    euler_residual,
    master_grid,
    solve_master,
    tail_remainder_check,
)
from .cover_spectrum import (
    CharacterLattice,
    convergence_study,
    enumerate_characters,
    limit_density,
    spectral_average,
)
from .laplace import (
    PhaseProblem,
    fit_expansion,
    gaussian_moment,
    laplace_expand,
    laplace_quadrature,
)
from .mixing import (
    MixingProblem,
    correlation_integral,
    leading_constant,
    mixing_expansion,
)
from .spectral_model import (
    Perturbation,
    SpectralModel,
    lambda_of_nu,
    nu_of_lambda,
)

__all__ = [
    "CharacterLattice",
    "ForcingProfile",
    "MixingProblem",
    "ModePair",
    "Perturbation",
    "PhaseProblem",
    "SpectralModel",
    "Trajectory",
    "assemble_forcing",
    "asymptotic_amplitude",
    "asymptotic_constant",
    "convergence_study",
    "correlation_integral",
    "enumerate_characters",
    "euler_residual",
    "fit_expansion",
    "gaussian_moment",
    "lambda_of_nu",
    "laplace_expand",
    "laplace_quadrature",
    "leading_constant",
    "limit_density",
    "master_grid",
    "mixing_expansion",
    "nu_of_lambda",
    "solve_master",
    "spectral_average",
    "tail_remainder_check",
    "__version__",
]
