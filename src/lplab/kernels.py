"""Convolution-semigroup kernels: synthesis, diagnostics, and application.

Kernels p_t are synthesized spectrally from a characteristic exponent psi via
p_t = F^-1((2 pi)^(-n/2) e^(-t psi)), which makes the Chapman-Kolmogorov
identity p_(t+s) = p_t * p_s exact on the lattice and keeps masses exact
(integral = e^(-t psi(0))).  Closed forms for the Gauss-Weierstrass and
Cauchy-Poisson families are provided separately as cross-validation oracles;
note a heavy-tailed closed form sampled on the box carries its tail-mass
truncation, while the spectral kernel is the exact periodization.

Under-resolution is a hard error: if e^(-t Re psi) > 1e-12 anywhere on the
lattice's Nyquist faces the kernel is wider than the frequency lattice and
every downstream quantity would be silently aliased.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    Grid,
    SampledField,
    _IMAG_TOL,
    _derivative_symbol,
    _field,
    _finite_real,
    _hermitian_full,
    _hermitian_parts,
    _integral,
    _lattice_spectrum,
    _multiplied,
    convolve,
    integrate,
)
from .norms import lp_norm

__all__ = [
    "UnderResolvedError",
    "SemigroupSpec",
    "KernelFamily",
    "kernel_diagnostics",
    "gauss_weierstrass",
    "generalized_gauss_weierstrass",
    "cauchy_poisson",
    "char_exponent",
    "stable_exponent",
    "symbol_values",
    "closed_form_kernel",
    "spectral_kernel",
    "gradient_l1",
    "chapman_kolmogorov_residual",
    "hartman_wintner_profile",
    "apply_semigroup",
]

_TAIL_TOL = 1e-12


class UnderResolvedError(RuntimeError):
    """The requested kernel does not fit the grid's frequency lattice."""


@dataclass(frozen=True)
class SemigroupSpec:
    """A convolution semigroup on R^dim, given by exactly one of its order m
    or a caller-supplied characteristic exponent psi.

    An order m > 0 stands for the isotropic exponent psi = |xi|^(2m):
    Gauss-Weierstrass is m = 1, the stable semigroup of index alpha is
    m = alpha/2 (Cauchy-Poisson at m = 1/2), and m > 1 gives signed kernels.
    A ``psi`` is a vectorized callable ``psi(*xi_meshes)``; Re psi >= 0 is
    checked on the lattice at kernel build, while continuous negative
    definiteness cannot be checked numerically and remains the caller's
    responsibility.
    """

    dim: int
    m: float | None = None
    psi: object = None

    def __post_init__(self):
        if not (_integral(self.dim) and self.dim in (1, 2, 3)):
            raise ValueError(f"semigroup dim must be 1, 2 or 3, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))
        if (self.m is None) == (self.psi is None):
            raise ValueError("a semigroup needs exactly one of the order m and psi")
        if self.m is not None and not (_finite_real(self.m) and self.m > 0):
            raise ValueError(f"order m must be > 0 and finite, got {self.m!r}")


def gauss_weierstrass(dim: int = 1) -> SemigroupSpec:
    return SemigroupSpec(dim, m=1.0)


def generalized_gauss_weierstrass(m: float, dim: int = 1) -> SemigroupSpec:
    """psi = |xi|^(2m); any real m > 0 (need not be an integer)."""
    return SemigroupSpec(dim, m=float(m))


def cauchy_poisson(dim: int = 1) -> SemigroupSpec:
    """psi = |xi|, order m = 1/2; its closed form is known in dim 1 only."""
    return SemigroupSpec(dim, m=0.5)


def char_exponent(psi, dim: int) -> SemigroupSpec:
    return SemigroupSpec(dim, psi=psi)


def stable_exponent(alpha: float, dim: int = 1) -> SemigroupSpec:
    """The isotropic stable exponent psi = |xi|^alpha, alpha in (0, 2]: the
    generalized Gauss-Weierstrass semigroup of order m = alpha/2."""
    if not 0 < alpha <= 2:
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")
    return generalized_gauss_weierstrass(alpha / 2.0, dim)


def _check_dim(spec: SemigroupSpec, grid: Grid) -> None:
    if grid.dim != spec.dim:
        raise ValueError(f"grid dim {grid.dim} != semigroup dim {spec.dim}")


def symbol_values(spec: SemigroupSpec, grid: Grid) -> np.ndarray:
    """Evaluate the characteristic exponent on the grid's full frequency
    lattice: complex128 for a caller-supplied psi, the float64 |xi|^(2m) for
    an order."""
    _check_dim(spec, grid)
    if spec.psi is not None:
        vals = np.asarray(spec.psi(*grid.freq_mesh()), dtype=np.complex128)
        return np.broadcast_to(vals, grid.shape)
    return _hermitian_full(grid, grid.radial_freq() ** (2.0 * spec.m))


def closed_form_kernel(spec: SemigroupSpec, t: float, grid: Grid) -> SampledField:
    """Sampled closed-form kernel for the two classical orders.

    m = 1, Gauss-Weierstrass: (4 pi t)^(-n/2) exp(-|x|^2 / 4t).
    m = 1/2 in dim 1, Cauchy-Poisson: (1/pi) t / (x^2 + t^2).
    The samples are the whole-space closed form restricted to the box (no
    periodization), so heavy tails show up as box-mass deficit.
    """
    if not 0 < t < np.inf:
        raise ValueError(f"time t must be positive and finite, got {t}")
    _check_dim(spec, grid)
    if spec.m == 1.0:
        r2 = sum(np.ix_(*[grid.axis_coords() ** 2] * grid.dim))
        vals = (4.0 * np.pi * t) ** (-grid.dim / 2.0) * np.exp(-r2 / (4.0 * t))
    elif spec.m == 0.5 and spec.dim == 1:
        x = grid.axis_coords()
        vals = (1.0 / np.pi) * t / (x**2 + t**2)
    else:
        raise ValueError(f"no closed form for {spec}: only m = 1, and m = 1/2 in dim 1")
    return SampledField(grid, vals)


def spectral_kernel(spec: SemigroupSpec, t: float, grid: Grid) -> SampledField:
    """Kernel p_t = F^-1((2 pi)^(-n/2) e^(-t psi)) on the lattice: a real
    field held as its half spectrum, built with no transform.

    Raises :class:`UnderResolvedError` when the spectral tail e^(-t Re psi)
    exceeds 1e-12 anywhere on the lattice's Nyquist faces (index N/2 on any
    axis), and ValueError when Re psi < 0 somewhere on the lattice.  An
    order's exponent |xi|^(2m) is real and even, so it is evaluated on the
    half lattice only, which holds every value it takes.  A psi callable is
    evaluated on the full lattice, and the kernel keeps the Hermitian part
    of e^(-t psi); ValueError is raised when the anti-Hermitian part, whose
    synthesis would be the kernel's imaginary part, exceeds 1e-8 of it.
    """
    if not 0 < t < np.inf:
        raise ValueError(f"time t must be positive and finite, got {t}")
    if spec.psi is None:
        _check_dim(spec, grid)
        psi = grid.radial_freq() ** (2.0 * spec.m)
    else:
        psi = symbol_values(spec, grid)
    if not psi.real.min() >= -1e-12:
        raise ValueError(
            f"Re psi < 0 or NaN on the lattice (min {psi.real.min():.3e}); "
            "not a valid characteristic exponent"
        )
    # index N/2 on every axis; on the half lattice's last axis, its last column
    face = grid.samples_per_axis // 2
    psi_nyq = min(psi.real.take(face, axis=a).min() for a in range(grid.dim))
    with np.errstate(under="ignore"):
        tail = np.exp(-t * psi_nyq)
    if tail > _TAIL_TOL:
        raise UnderResolvedError(
            f"kernel under-resolved at t={t:g}: exp(-t Re psi) on the Nyquist "
            f"faces reaches {tail:.3e} > {_TAIL_TOL:g} "
            f"(nyquist {grid.nyquist:.4g}); increase N or choose larger t"
        )
    norm = (2.0 * np.pi) ** (-grid.dim / 2.0)
    with np.errstate(under="ignore"):
        decay = np.exp(-t * psi)
    if spec.psi is not None:
        # the real part of a synthesis is the synthesis of the Hermitian part
        decay, anti = _hermitian_parts(grid, decay)
        resid, scale = np.abs(anti).max(), np.abs(decay).max()
        if resid > _IMAG_TOL * scale:
            raise ValueError(
                f"kernel spectrum has anti-Hermitian part {resid:.3e} (scale {scale:.3e}); "
                "psi is not Hermitian-symmetric on the lattice"
            )
    return _field(grid, _lattice_spectrum(grid, decay, norm))


class KernelFamily:
    """One semigroup on one grid, checked to share its dimension.

    Each :meth:`kernel` call builds p_t afresh, so no kernel outlives the
    caller that reads it; a caller that reads one kernel twice holds it.
    """

    def __init__(self, spec: SemigroupSpec, grid: Grid):
        _check_dim(spec, grid)
        self.spec = spec
        self.grid = grid

    def kernel(self, t: float) -> SampledField:
        return spectral_kernel(self.spec, t, self.grid)

    def l1_norm(self, t: float) -> float:
        """The total-variation mass ||p_t||_L1, the right-hand factor of the
        semigroup contraction bound (for signed kernels it exceeds the
        integral)."""
        return lp_norm(self.kernel(t), 1)


def kernel_diagnostics(p: SampledField, t: float) -> dict:
    """The ``kernel`` command's summary of the kernel p = p_t."""
    # before integrate synthesizes p's samples, which the field then keeps
    grad = gradient_l1(p)
    return {
        "t": float(t),
        "mass": integrate(p),
        "l1_norm": lp_norm(p, 1),
        "gradient_l1": grad,
        "min_value": float(p.values.min()),
    }


def gradient_l1(p: SampledField) -> float:
    """Integral of the Euclidean norm of the spectral gradient of p."""
    sq = np.zeros(p.grid.shape)
    units = np.eye(p.grid.dim, dtype=int)
    for d in _multiplied(p, (_derivative_symbol(p.grid, e) for e in units)):
        d = d.real
        d **= 2
        sq += d
        del d  # not held while the next component is synthesized
    return float(p.grid.cell_volume * np.sqrt(sq, out=sq).sum())


def chapman_kolmogorov_residual(fam: KernelFamily, t: float, s: float) -> float:
    """sup |p_(t+s) - p_t * p_s| / sup |p_(t+s)| for one kernel family."""
    if not (t > 0 and s > 0):
        raise ValueError("both times must be positive")
    p_ts = fam.kernel(t + s)
    conv = convolve(fam.kernel(t), fam.kernel(s))
    num = np.abs(p_ts.values - conv.values).max()
    den = np.abs(p_ts.values).max()
    return float(num / den)


def hartman_wintner_profile(spec: SemigroupSpec, radii, grid: Grid):
    """Profile r -> min_{|xi| ~ r on the lattice} Re psi(xi) / log r.

    A monotone-increasing trend with a large final value is the numerical
    surrogate for Re psi / log |xi| -> infinity (reported, never claimed as a
    limit).  Each radius is matched to the nearest available lattice
    magnitudes.
    """
    radii = np.asarray(radii, dtype=float)
    if not np.all(radii > 1.0):
        raise ValueError(f"radii must exceed 1, got {radii}")
    if radii.max() > grid.nyquist:
        raise ValueError(
            f"radius {radii.max():g} outside the lattice (nyquist {grid.nyquist:.4g})"
        )
    psi = symbol_values(spec, grid).real.ravel()
    rho = _hermitian_full(grid, grid.radial_freq()).ravel()
    out = []
    for r in radii:
        dist = np.abs(rho - r)
        near = dist <= dist.min() + 1e-9 * max(r, 1.0)
        out.append((float(r), float(psi[near].min() / np.log(r))))
    return out


def apply_semigroup(fam: KernelFamily, t: float, f: SampledField) -> SampledField:
    """P_t f = f * p_t."""
    return convolve(f, fam.kernel(t))
