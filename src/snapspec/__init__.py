"""snapspec: PSF-coded snapshot spectral imaging, forward model and solvers.

A spectral cube is encoded into a single RGB exposure by wavelength-dependent
point spread functions; this package simulates that encoding and inverts it
with an unrolled ADMM/HQS loop whose measurement-consistency step is solved
exactly in the frequency domain.  A dense brute-force oracle ships alongside
the production solver so the two can be checked against each other at small
scales.
"""

from .errors import (
    DegenerateMetricError,
    DimensionError,
    DivergenceError,
    FormatError,
    ParameterError,
    SingularPivotError,
    SnapspecError,
    ValidationError,
)
from .fidelity import (
    FidelityProblem,
    block_inverse_3x3,
    fidelity_solve,
    fidelity_solve_naive,
    gdm_fidelity_step,
    subproblem_gradient,
    subproblem_objective,
)
from .metrics import MetricReport, evaluate, psnr, sam, ssim
from .optics import (
    FrequencyOperator,
    NoiseModel,
    OpticalSystem,
    add_noise,
    apply_adjoint,
    apply_forward_frequency,
    build_frequency_operator,
    forward_encode,
)
from .oracle import DenseSystem
from .synth import (
    band_wavelengths,
    rgb_response,
    rotating_psf_stack,
    smooth_cube,
    synthetic_system,
)
from .tensorio import load_response_csv, load_tensor, save_response_csv, save_tensor
from .unfolding import (
    AdjointInitializer,
    Denoiser,
    GaussianDenoiser,
    IdentityDenoiser,
    Initializer,
    MeanInitializer,
    QuadraticDenoiser,
    RandInitializer,
    ReconstructionResult,
    StageSchedule,
    StageTrace,
    TotalVariationDenoiser,
    ZeroInitializer,
    reconstruct,
    tv_denoise,
)

__version__ = "0.1.0"

__all__ = [
    "AdjointInitializer",
    "Denoiser",
    "DenseSystem",
    "DegenerateMetricError",
    "DimensionError",
    "DivergenceError",
    "FidelityProblem",
    "FormatError",
    "FrequencyOperator",
    "GaussianDenoiser",
    "IdentityDenoiser",
    "Initializer",
    "MeanInitializer",
    "MetricReport",
    "NoiseModel",
    "OpticalSystem",
    "ParameterError",
    "QuadraticDenoiser",
    "RandInitializer",
    "ReconstructionResult",
    "SingularPivotError",
    "SnapspecError",
    "StageSchedule",
    "StageTrace",
    "TotalVariationDenoiser",
    "ValidationError",
    "ZeroInitializer",
    "add_noise",
    "apply_adjoint",
    "apply_forward_frequency",
    "band_wavelengths",
    "block_inverse_3x3",
    "build_frequency_operator",
    "evaluate",
    "fidelity_solve",
    "fidelity_solve_naive",
    "forward_encode",
    "gdm_fidelity_step",
    "load_response_csv",
    "load_tensor",
    "psnr",
    "reconstruct",
    "rgb_response",
    "rotating_psf_stack",
    "sam",
    "save_response_csv",
    "save_tensor",
    "smooth_cube",
    "ssim",
    "subproblem_gradient",
    "subproblem_objective",
    "synthetic_system",
    "tv_denoise",
]
