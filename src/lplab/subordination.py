"""Bernstein functions, subordinator densities, and subordinate kernels.

A Bernstein function g with g(0) = 0 encodes a convolution semigroup of
probability measures (rho_t) on [0, infinity) through the Laplace identity

    integral e^(-lambda r) rho_t(dr) = e^(-t g(lambda)),

and averaging Gaussian heat kernels against rho_t produces the subordinate
semigroup kernel p_t(x) = integral (4 pi r)^(-n/2) e^(-|x|^2/4r) rho_t(dr).
The mixture is evaluated once per distinct lattice radius |x|^2.  Those radii
come from the distinct squares x_j^2 on one axis: their n-tuples, summed in
the lattice's axis order, hold exactly the lattice's floats, and one gather by
each axis's square index builds the field.

Only the alpha = 1/2 stable subordinator ships with a built-in density; any
other density must be supplied by the caller and is accepted only after it
passes the Laplace-identity check, which is the characterization that can be
verified numerically.  Quadrature is log-spaced trapezoidal with explicit
edge-term diagnostics, never adaptive, so results are reproducible.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, SampledField, _sampled

__all__ = [
    "BernsteinSpec",
    "SubordinatorDensity",
    "power_bernstein",
    "log_bernstein",
    "user_bernstein",
    "bernstein_eval",
    "stable_half_density",
    "laplace_residuals",
    "subordinate_kernel",
    "subordinator_moment",
    "user_density",
]

_LAPLACE_NODES = (0.1, 1.0, 10.0)
_MASS_TOL = 1e-6
_LAPLACE_TOL = 1e-5
# the largest share of a moment that one edge quadrature node may carry
_EDGE_TOL = 1e-6


@dataclass(frozen=True)
class BernsteinSpec:
    """A Bernstein function g with g(0) = 0, given by a vectorized callable g.

    Construction checks g(0) = 0 and that g is nondecreasing and concave on a
    log-spaced sweep, however the spec is built.
    """

    g: object

    def __post_init__(self):
        lam = np.geomspace(1e-3, 1e6, 6001)
        v = bernstein_eval(self, lam)
        g0 = bernstein_eval(self, np.array([0.0]))[0]
        if not abs(g0) <= 1e-12:
            raise ValueError(f"Bernstein function must satisfy g(0) = 0, got {g0:.3e}")
        scale = max(abs(v[-1]), 1.0)
        if not np.all(np.diff(v) >= -1e-9 * scale):
            raise ValueError("Bernstein function is not nondecreasing on the sweep")
        slopes = np.diff(v) / np.diff(lam)
        if not np.all(np.diff(slopes) <= 1e-9 * max(slopes.max(), 1.0)):
            raise ValueError("Bernstein function is not concave on the sweep")


def power_bernstein(alpha: float) -> BernsteinSpec:
    """g(lambda) = lambda^alpha, alpha in (0, 1]."""
    alpha = float(alpha)
    if not 0 < alpha <= 1:
        raise ValueError(f"power exponent must be in (0, 1], got {alpha}")
    return BernsteinSpec(lambda lam: lam**alpha)


def log_bernstein() -> BernsteinSpec:
    """g(lambda) = log(1 + lambda)."""
    return BernsteinSpec(np.log1p)


def user_bernstein(g) -> BernsteinSpec:
    return BernsteinSpec(g)


def bernstein_eval(spec: BernsteinSpec, lam):
    """g(lambda), vectorized, lambda >= 0."""
    lam = np.asarray(lam, dtype=float)
    if not np.all(lam >= 0):
        raise ValueError("lambda must be >= 0")
    return np.asarray(spec.g(lam), dtype=float)


@dataclass(frozen=True)
class SubordinatorDensity:
    """A subordinator law rho_t discretized on log-spaced radial nodes.

    Quadratures use sum w_i f(r_i) rho_t(r_i); the weights implement the
    trapezoidal rule in log r and are derived from the nodes.  Construction
    accepts only laws that carry unit mass to 1e-6 and reproduce
    e^(-t g(lambda)) through the Laplace identity to 1e-5.
    """

    t: float
    nodes: np.ndarray
    density: np.ndarray
    bernstein: BernsteinSpec
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        for name in ("nodes", "density"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (self.t > 0):
            raise ValueError("t must be positive")
        r = self.nodes
        if r.size < 2 or not (np.all(r > 0) and np.all(np.diff(r) > 0)):
            raise ValueError(f"nodes must be positive and strictly increasing, got {r}")
        y = np.log(r)
        dy = np.empty_like(y)
        dy[1:-1] = 0.5 * (y[2:] - y[:-2])
        dy[0] = 0.5 * (y[1] - y[0])
        dy[-1] = 0.5 * (y[-1] - y[-2])
        object.__setattr__(self, "weights", dy * r)
        for arr in (self.nodes, self.density, self.weights):
            arr.setflags(write=False)
        mass_err = abs(self.mass() - 1.0)
        if not mass_err <= _MASS_TOL:
            raise ValueError(
                f"subordinator mass off by {mass_err:.3e} (> {_MASS_TOL:g}); "
                "density is not finite or its nodes do not cover the law"
            )
        worst = np.max(list(laplace_residuals(self).values()))
        if not worst <= _LAPLACE_TOL:
            raise ValueError(
                f"Laplace identity residual {worst:.3e} (> {_LAPLACE_TOL:g}); "
                "bad node range or density"
            )

    def mass(self) -> float:
        return float(np.sum(self.weights * self.density))


def laplace_residuals(dens: SubordinatorDensity) -> dict:
    """|sum w e^(-lambda r) rho(r) - e^(-t g(lambda))| per lambda in _LAPLACE_NODES."""
    out = {}
    for lam in _LAPLACE_NODES:
        approx = float(np.sum(dens.weights * np.exp(-lam * dens.nodes) * dens.density))
        exact = float(np.exp(-dens.t * bernstein_eval(dens.bernstein, np.array([lam]))[0]))
        out[float(lam)] = abs(approx - exact)
    return out


def stable_half_density(t: float, num_nodes: int = 4096,
                        r_min: float | None = None,
                        r_max: float | None = None) -> SubordinatorDensity:
    """The alpha = 1/2 stable subordinator law for g(lambda) = sqrt(lambda).

    rho_t(r) = t (4 pi)^(-1/2) r^(-3/2) e^(-t^2/4r) on log-spaced nodes; the
    default node range [1e-8 t^2, 1e13 t^2] keeps the heavy r^(-3/2) tail
    mass below 1e-6.  The density is accepted only after the Laplace-identity
    check against e^(-t sqrt(lambda)) passes.
    """
    if not (t > 0 and math.isfinite(t)):
        raise ValueError(f"t must be positive and finite, got {t}")
    if num_nodes < 512:
        raise ValueError("need at least 512 quadrature nodes")
    r_min = 1e-8 * t * t if r_min is None else r_min
    r_max = 1e13 * t * t if r_max is None else r_max
    # a NaN end goes on to the node check, which shows the nodes
    for name, r in (("r_min", r_min), ("r_max", r_max)):
        if math.isinf(r):
            raise ValueError(f"{name} must be finite, got {r}")
    nodes = np.geomspace(r_min, r_max, num_nodes)
    with np.errstate(under="ignore"):
        density = t / (2.0 * np.sqrt(np.pi)) * nodes**-1.5 * np.exp(-t * t / (4.0 * nodes))
    return SubordinatorDensity(t, nodes, density, power_bernstein(0.5))


def user_density(t: float, nodes, density, bernstein: BernsteinSpec) -> SubordinatorDensity:
    """Wrap a caller-supplied density; accepted only if the Laplace and mass
    checks pass."""
    return SubordinatorDensity(t, nodes, density, bernstein)


def subordinate_kernel(dens: SubordinatorDensity, grid: Grid) -> SampledField:
    """Gaussian scale mixture sum_i w_i rho(r_i) (4 pi r_i)^(-n/2) e^(-|x|^2/4 r_i).

    The mixture is summed once per distinct |x|^2 among the n-tuples of
    distinct axis squares, each summed in the lattice's axis order, so every
    value is bitwise the one a dense lattice of |x|^2 gives.  The field is
    then one gather: the tuple values indexed by each axis's square index.
    Apart from the field, no array has the lattice's size.

    Warns when the node range does not cover [1e-4, 1e4] * t^2, the scales
    that carry the bulk of the law.
    """
    t2 = dens.t * dens.t
    if dens.nodes[0] > 1e-4 * t2 or dens.nodes[-1] < 1e4 * t2:
        warnings.warn(
            f"subordinator nodes [{dens.nodes[0]:.3g}, {dens.nodes[-1]:.3g}] do not "
            f"cover [1e-4, 1e4] * t^2; kernel quadrature may be under-resolved",
            stacklevel=2,
        )
    n = grid.dim
    sq, ax = np.unique(grid.axis_coords() ** 2, return_inverse=True)
    r2, inv = np.unique(sum(np.ix_(*[sq] * n)).ravel(), return_inverse=True)
    out = np.zeros(r2.size)
    coeff = dens.weights * dens.density
    # chunks of about 2^15 (node, radius) pairs, whatever the lattice's size
    step = max(1, 2**15 // r2.size)
    with np.errstate(under="ignore"):
        for i in range(0, dens.nodes.size, step):
            r = dens.nodes[i:i + step, None]
            c = (coeff[i:i + step, None] * (4.0 * np.pi * r) ** (-n / 2.0))
            out += np.einsum("ij->j", c * np.exp(-r2[None, :] / (4.0 * r)))
    # the gather is a fresh array, which the field takes over
    return _sampled(grid, out[inv].reshape((sq.size,) * n)[np.ix_(*[ax] * n)])


def subordinator_moment(dens: SubordinatorDensity, u: float) -> float:
    """Negative moment K_t = sum w_i r_i^(-u/2) rho(r_i), finite u >= 0.

    The integrand peaks near r -> 0 where only the density's own decay tames
    the singularity; an edge node contributing more than 1e-6 of the total
    signals an unresolved range and raises.
    """
    if not 0 <= u < math.inf:
        raise ValueError(f"u must be finite and >= 0, got {u}")
    with np.errstate(under="ignore"):
        terms = dens.weights * dens.nodes ** (-u / 2.0) * dens.density
    total = float(terms.sum())
    if total > 0:
        edge = max(terms[0], terms[-1]) / total
        if not edge <= _EDGE_TOL:
            raise ValueError(
                f"edge quadrature term carries {edge:.2e} of the moment; "
                "extend the node range"
            )
    return total
