"""lplab: Littlewood-Paley function-space norms and convolution semigroups
on periodic grids, with an empirical inequality-verification harness.

Importing the package executes ``grid`` only.  Every other submodule is
registered in ``sys.modules`` and as a package attribute through
``importlib.util.LazyLoader``, and its body runs on its first attribute
access, so a command executes only the modules it runs.  The public names
below resolve on first use (PEP 562) to the submodule's own objects."""

import importlib.util
import sys
import threading

from . import grid

__version__ = "0.1.0"

# submodule -> the public names it exports through the package
_EXPORTS = {
    "grid": (
        "Grid", "SampledField", "UnderResolvedError", "convolve", "forward_transform",
        "integrate", "inverse_transform", "load_field", "make_grid", "sample",
        "save_field", "spectral_derivative",
    ),
    "littlewood_paley": (
        "DyadicResolution", "TransitionProfile", "apply_block", "build_resolution",
        "bump_profile", "export_resolution", "squared_resolution", "validate_resolution",
    ),
    "norms": (
        "INF", "NormResult", "SpaceParams", "besov_norm", "bessel_norm", "hardy_norm",
        "lp_norm", "resolution_l1_bound", "sobolev_w1m_norm", "space_norm",
        "triebel_infty_norm", "triebel_norm",
    ),
    "kernels": (
        "KernelFamily", "SemigroupSpec", "apply_semigroup", "cauchy_poisson",
        "chapman_kolmogorov_residual", "char_exponent", "closed_form_kernel",
        "gauss_weierstrass", "generalized_gauss_weierstrass", "gradient_l1",
        "hartman_wintner_profile", "spectral_kernel", "stable_exponent",
    ),
    "subordination": (
        "BernsteinSpec", "SubordinatorDensity", "bernstein_eval", "laplace_residuals",
        "log_bernstein", "power_bernstein", "stable_half_density", "subordinate_kernel",
        "subordinator_moment", "user_bernstein", "user_density",
    ),
    "verifier": (
        "CorpusSpec", "InequalityCase", "PowerLawFit", "SmoothingSweep",
        "VerificationReport", "check_inequality", "conv_eq23_case", "fit_power_law",
        "generate_corpus", "profile_equivalence", "refined", "smoothing_sweep",
        "theorem_semi11_bound_check",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_EXPORTS, *_HOME]


# Each submodule stays in sys.modules, where bench/tracing.py, pickling by
# reference and importlib.import_module look it up; grid, which every
# command reads, executed above.
def _register_lazily(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _EXPORTS:
    if _name != "grid":
        globals()[_name] = _register_lazily(_name)
del _name

# On Python 3.10 and 3.11 LazyLoader takes no lock while it executes a
# module, so a second thread could read the half-executed module; names are
# resolved under one lock instead.
_RESOLVING = threading.RLock()


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    with _RESOLVING:
        value = globals()[name] = getattr(globals()[module], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
