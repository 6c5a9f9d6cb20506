"""Dyadic resolutions of unity and Littlewood-Paley block operators.

A resolution is a family (phi_k) of radial frequency cutoffs built from a
base bump phi_0 with 1_{B(0,1)} <= phi_0 <= 1_{B(0,3/2)} via

    phi_k(xi) = phi_0(2^-k xi) - phi_0(2^-(k-1) xi),   k >= 1,

so that sum_k phi_k = 1.  Block operators phi_k(D) f = F^-1(phi_k * Ff) are
the building blocks of every function-space norm in :mod:`lplab.norms`.

Multipliers are stored sampled on the frequency lattice, never symbolically;
blocks whose support exceeds the Nyquist frequency are dropped, so norms are
norms of the band-limited projection (exact for band-limited fields).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .grid import Grid, SampledField, _multiplied

__all__ = [
    "TransitionProfile",
    "DyadicResolution",
    "ResolutionReport",
    "bump_profile",
    "build_resolution",
    "squared_resolution",
    "validate_resolution",
    "apply_block",
    "block_spectra",
    "export_resolution",
]


@dataclass(frozen=True)
class TransitionProfile:
    """Smooth monotone ramp [0,1] -> [0,1] shaping the cutoff transition.

    Must satisfy ramp(0) = 0 and ramp(1) = 1 exactly, with all one-sided
    derivatives vanishing at the endpoints (so the assembled cutoffs are
    C-infinity).  Construction checks the endpoints exactly and monotonicity
    on a 1e-3 sweep.
    """

    name: str
    ramp: object  # vectorized callable [0,1] -> [0,1]

    def __post_init__(self):
        t = np.linspace(0.0, 1.0, 1001)
        v = np.asarray(self.ramp(t), dtype=float)
        if v[0] != 0.0 or v[-1] != 1.0:
            raise ValueError(f"profile {self.name!r}: endpoint values not exact")
        if np.any(np.diff(v) < -1e-12):
            raise ValueError(f"profile {self.name!r}: ramp is not monotone")


def bump_profile(sharpness: float = 1.0, name: str | None = None) -> TransitionProfile:
    """Normalized exponential-bump ramp w(t)/(w(t)+w(1-t)), w(t)=exp(-a/t).

    Any sharpness a > 0 gives a valid C-infinity profile; a = 1 is the
    default, larger a steepens the transition.
    """
    if not sharpness > 0:
        raise ValueError("sharpness must be positive")
    a = float(sharpness)

    def ramp(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        inside = (t > 0.0) & (t < 1.0)
        ti = t[inside]
        with np.errstate(over="ignore", under="ignore"):
            w0 = np.exp(-a / ti)
            w1 = np.exp(-a / (1.0 - ti))
        out[inside] = w0 / (w0 + w1)
        out[t >= 1.0] = 1.0
        return out

    return TransitionProfile(name or f"bump{a:g}", ramp)


def _top_block_index(grid: Grid) -> int:
    """The largest k whose block support {2^(k-1) <= |xi| < 2^(k+1)} fits
    inside the grid's lattice: floor(log2(nyquist)) - 1."""
    return int(np.floor(np.log2(grid.nyquist))) - 1


@dataclass(frozen=True)
class DyadicResolution:
    """Sampled multiplier family (phi_k), k = 0..k_max, on a grid's lattice.

    ``k_max`` is ``len(blocks) - 1``; :func:`build_resolution` takes it as
    large as the lattice allows.  Derived families such as (phi_k^2) only
    satisfy c <= sum phi_k <= C instead of = 1; :func:`validate_resolution`
    reports (c, C).
    """

    grid: Grid
    blocks: tuple
    profile: TransitionProfile

    @property
    def k_max(self) -> int:
        return len(self.blocks) - 1

    def band_radius(self) -> float:
        """Radius 2^k_max below which the partition of unity is complete."""
        return 2.0**self.k_max


def _phi0(rho: np.ndarray, profile: TransitionProfile) -> np.ndarray:
    out = np.zeros(rho.shape)
    out[rho <= 1.0] = 1.0
    mid = (rho > 1.0) & (rho < 1.5)
    out[mid] = profile.ramp((1.5 - rho[mid]) / 0.5)
    return out


def build_resolution(grid: Grid, profile: TransitionProfile | None = None) -> DyadicResolution:
    """Build the dyadic resolution of unity on a grid's frequency lattice.

    phi_0 equals 1 on |xi| <= 1, 0 on |xi| >= 3/2, and ramps in between;
    higher blocks follow by the dyadic difference.  Requires nyquist >= 4
    (below that there are no blocks beyond k = 1).
    """
    profile = profile or bump_profile()
    if grid.nyquist < 4.0:
        raise ValueError(
            f"nyquist {grid.nyquist:.3g} < 4: grid too coarse for a dyadic resolution"
        )
    rho = grid.radial_freq()
    blocks = [_phi0(rho, profile)]
    prev = blocks[0]
    for k in range(1, _top_block_index(grid) + 1):
        cur = _phi0(rho * 2.0**-k, profile)
        blocks.append(cur - prev)
        prev = cur
    for b in blocks:
        b.setflags(write=False)
    return DyadicResolution(grid, tuple(blocks), profile)


def squared_resolution(res: DyadicResolution) -> DyadicResolution:
    """The family (phi_k^2): admissible in the relaxed sense c <= sum <= C."""
    blocks = tuple(b * b for b in res.blocks)
    for b in blocks:
        b.setflags(write=False)
    return DyadicResolution(res.grid, blocks, res.profile)


def _partition_bounds(res: DyadicResolution) -> tuple:
    """(c, C): the extremes of sum_k phi_k over |xi| <= band_radius."""
    total = sum(res.blocks)
    band = total[res.grid.radial_freq() <= res.band_radius()]
    return float(band.min()), float(band.max())


@dataclass(frozen=True)
class ResolutionReport:
    """Admissibility diagnostics for a block family (report-only).

    The scaled-derivative proxies bound 2^(k|a|) |D^a phi_k| for |a| <= 2 by
    centered finite differences on the frequency lattice; they depend on the
    transition profile and are recorded, not asserted against a fixed value.
    """

    partition_min: float
    partition_max: float
    support_violations: int
    derivative_proxy_1: float
    derivative_proxy_2: float


def validate_resolution(res: DyadicResolution) -> ResolutionReport:
    """Check partition bounds, block supports, and derivative proxies."""
    grid = res.grid
    rho = grid.radial_freq()
    part_min, part_max = _partition_bounds(res)

    violations = 0
    for k, b in enumerate(res.blocks):
        if k == 0:
            outside = rho >= 2.0
        else:
            outside = (rho < 2.0 ** (k - 1)) | (rho >= 2.0 ** (k + 1))
        violations += int(np.count_nonzero(np.abs(b[outside]) > 1e-15))

    dxi = np.pi / grid.half_width
    d1 = 0.0
    d2 = 0.0
    for k, b in enumerate(res.blocks):
        # fftshift so finite differences never straddle the FFT wrap seam
        bs = np.fft.fftshift(b)
        grads = np.gradient(bs, dxi) if grid.dim > 1 else [np.gradient(bs, dxi)]
        mag = np.sqrt(sum(g**2 for g in grads))
        d1 = max(d1, 2.0**k * float(mag.max()))
        for g in grads:
            seconds = np.gradient(g, dxi) if grid.dim > 1 else [np.gradient(g, dxi)]
            for s in seconds:
                d2 = max(d2, 4.0**k * float(np.abs(s).max()))
    return ResolutionReport(part_min, part_max, violations, d1, d2)


def apply_block(res: DyadicResolution, k: int, f: SampledField) -> SampledField:
    """phi_k(D) f = F^-1(phi_k * Ff); real output for real input (to ~1e-10)."""
    if not (0 <= k <= res.k_max):
        raise ValueError(f"block index {k} outside 0..{res.k_max}")
    if f.grid != res.grid:
        raise ValueError("field grid does not match resolution grid")
    return SampledField(res.grid, next(_multiplied(f, [res.blocks[k]])))


def block_spectra(res: DyadicResolution, f: SampledField):
    """Yield the blocks phi_k(D) f, k = 0..k_max, as space samples.

    Shares one forward transform of ``f`` across all blocks; every
    function-space norm reads its blocks from here.
    """
    if f.grid != res.grid:
        raise ValueError("field grid does not match resolution grid")
    yield from _multiplied(f, res.blocks)


def export_resolution(res: DyadicResolution, directory: str) -> None:
    """Write per-block CSVs (xi index, value) plus JSON metadata."""
    os.makedirs(directory, exist_ok=True)
    for k, b in enumerate(res.blocks):
        with open(os.path.join(directory, f"block_{k}.csv"), "w") as fh:
            fh.write("index,value\n")
            fh.write("".join(f"{i},{v:.17g}\n" for i, v in enumerate(b.ravel().tolist())))
    c, C = _partition_bounds(res)
    meta = {
        "profile": res.profile.name,
        "K_max": res.k_max,
        "c": c,
        "C": C,
        "admissible_general": (c, C) != (1.0, 1.0),
        "grid": {"dim": res.grid.dim, "N": res.grid.samples_per_axis, "L": res.grid.half_width},
    }
    with open(os.path.join(directory, "resolution.json"), "w") as fh:
        json.dump(meta, fh, sort_keys=True)
        fh.write("\n")
