"""Widely linear matched filtering and improper-noise analysis.

The package solves the strictly linear matched filter (covariance only) and
the widely linear matched filter (covariance plus complementary covariance)
for complex improper noise, quantifies the SNR gain of the second over the
first, explains that gain through an approximate uncorrelating transform
with a closed-form lower bound, and interprets a small complex-valued CNN
as a bank of such filters. A command line harness (``wlmf-run``) reproduces
the accompanying numerical studies as CSV/JSON files.

Layout: ``linalg`` (complex Hermitian/symmetric factorizations), ``noise``
(improper MA noise models and covariances), ``filters`` (matched filter
solvers and SNRs), ``impropriety`` (gain analysis, bounds, sequence
designer), ``cnn`` (complex-valued classifier), ``experiments`` + ``cli``
(reproducible runs).
"""

from .errors import (
    DegenerateWindowError,
    DimensionMismatchError,
    DivergenceDetectedError,
    EmptyInputError,
    InsufficientSamplesError,
    NonFiniteInputError,
    InvalidImproprietyError,
    InvalidParameterError,
    NotHermitianError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    NumericalConsistencyError,
    SingularAtOneError,
    WlmfError,
)
from .linalg import (
    hermitian_eig,
    hermitian_solve,
    takagi,
)
from .noise import (
    CovariancePair,
    analytic_covariances,
    demo_model,
    empirical_covariances,
    ma_filter,
    sample_improper_white,
    sliding_windows,
)
from .filters import (
    apply_filter_sequence,
    slmf_solve,
    snr_gain,
    snr_slmf,
    snr_wlmf,
    template_to_feature,
    wlmf_solve,
)
from .impropriety import (
    approx_snr_gain,
    aut_decompose,
    design_matched_sequence,
    g_of_rho,
    impropriety_profile,
    lower_bound_rho,
    normalized_snr_bias,
    rotated_input,
)
from .cnn import CnnConfig, predict_proba, train
from .experiments import ExperimentSpec, run_experiment
from .seeding import derive_rng

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "WlmfError",
    "DimensionMismatchError",
    "EmptyInputError",
    "NonFiniteInputError",
    "NotHermitianError",
    "NotSymmetricError",
    "NotPositiveDefiniteError",
    "InvalidImproprietyError",
    "InvalidParameterError",
    "InsufficientSamplesError",
    "SingularAtOneError",
    "DegenerateWindowError",
    "DivergenceDetectedError",
    "NumericalConsistencyError",
    "takagi",
    "hermitian_eig",
    "hermitian_solve",
    "CovariancePair",
    "demo_model",
    "sample_improper_white",
    "ma_filter",
    "analytic_covariances",
    "empirical_covariances",
    "sliding_windows",
    "slmf_solve",
    "wlmf_solve",
    "snr_slmf",
    "snr_wlmf",
    "snr_gain",
    "apply_filter_sequence",
    "template_to_feature",
    "aut_decompose",
    "rotated_input",
    "impropriety_profile",
    "g_of_rho",
    "lower_bound_rho",
    "approx_snr_gain",
    "normalized_snr_bias",
    "design_matched_sequence",
    "CnnConfig",
    "predict_proba",
    "train",
    "ExperimentSpec",
    "run_experiment",
    "derive_rng",
]
