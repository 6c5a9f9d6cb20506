"""lplab: Littlewood-Paley function-space norms and convolution semigroups
on periodic grids, with an empirical inequality-verification harness."""

__version__ = "0.1.0"

from .grid import (
    Grid,
    SampledField,
    convolve,
    forward_transform,
    integrate,
    inverse_transform,
    load_field,
    make_grid,
    sample,
    save_field,
    spectral_derivative,
)
from .littlewood_paley import (
    DyadicResolution,
    TransitionProfile,
    apply_block,
    build_resolution,
    bump_profile,
    export_resolution,
    squared_resolution,
    validate_resolution,
)
from .norms import (
    INF,
    NormResult,
    SpaceParams,
    besov_norm,
    bessel_norm,
    hardy_norm,
    lp_norm,
    resolution_l1_bound,
    sobolev_w1m_norm,
    space_norm,
    triebel_infty_norm,
    triebel_norm,
)
from .kernels import (
    KernelFamily,
    SemigroupSpec,
    UnderResolvedError,
    apply_semigroup,
    cauchy_poisson,
    chapman_kolmogorov_residual,
    char_exponent,
    closed_form_kernel,
    gauss_weierstrass,
    generalized_gauss_weierstrass,
    gradient_l1,
    hartman_wintner_profile,
    spectral_kernel,
    stable_exponent,
)
from .subordination import (
    BernsteinSpec,
    SubordinatorDensity,
    bernstein_eval,
    laplace_residuals,
    log_bernstein,
    power_bernstein,
    stable_half_density,
    subordinate_kernel,
    subordinator_moment,
    user_bernstein,
    user_density,
)
from .verifier import (
    CorpusSpec,
    InequalityCase,
    PowerLawFit,
    SmoothingSweep,
    VerificationReport,
    check_inequality,
    conv_eq23_case,
    fit_power_law,
    generate_corpus,
    profile_equivalence,
    refined,
    smoothing_sweep,
    theorem_semi11_bound_check,
)
