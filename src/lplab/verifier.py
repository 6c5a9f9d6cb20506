"""Corpus generation and empirical verification of convolution inequalities.

The checker evaluates norm inequalities of the form

    ||f * g | A|| <= C * ||f | A1|| * ||g | A2||

pairwise over seeded corpora, reporting per-pair ratios and the empirical
constant (the max ratio).  Where a constant is claimed (Young's inequality
and the single-norm convolution estimate, whose constant is 1 for p1 finite
and 2^n otherwise) the verdict asserts it; where the constant is an
existence statement (the two-norm estimate) the assertable property is
finiteness plus stability under grid refinement, and that is what verdicts
encode.  Every check returns a ``VerificationReport``, and
``refined(check, grid)`` runs any ``check(grid)`` at N and 2N and attaches
the relative change of its empirical constant.

Corpora are deterministic functions of (seed, L, band_limit) only - not of
the grid resolution - so the same continuum objects can be re-sampled on a
refined grid for stability checks.
"""

from __future__ import annotations

import importlib
import math
import numbers
import os
import sys
import threading
from dataclasses import asdict, dataclass, field

import numpy as np

from . import grid as grid_module
from .grid import (Grid, SampledField, _box, _field, _jsonable, _lattice_spectrum, _write_csv,
                   convolve)
from .kernels import KernelFamily, gradient_l1
from .littlewood_paley import (
    DyadicResolution,
    TransitionProfile,
    _top_block_index,
    build_resolution,
)
from .norms import INF, SpaceParams, _lp_values, _modulus, lp_norm, space_norm, besov_norm

__all__ = [
    "CorpusSpec",
    "InequalityCase",
    "VerificationReport",
    "PowerLawFit",
    "SmoothingSweep",
    "generate_corpus",
    "check_inequality",
    "refined",
    "fit_power_law",
    "smoothing_sweep",
    "theorem_semi11_bound_check",
    "profile_equivalence",
    "conv_eq23_case",
]

_RHS_FLOOR = 1e-12
_STABILITY_TOL = 0.05


def _pmap(fn, items):
    """Order-preserving map honoring the LPLAB_THREADS cap (default serial).
    The thread pool is imported only when one is started: it loads
    ``concurrent.futures``, ``logging`` and ``queue``."""
    workers = int(os.environ.get("LPLAB_THREADS", "1"))
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Corpus.  Each builder draws its parameters from ``rng``, in an order and
# with values that do not depend on N, and returns its real field's spectrum
# on ``box``, the box (see :func:`lplab.grid._box`) that holds the band.


def _separable_spectrum(box, weights, factors) -> np.ndarray:
    """The spectrum on ``box`` of sum_t weights[t] prod_a factors[t, a](x_a),
    for one-axis factors of shape (terms, dim, N) sampled at
    ``grid.axis_coords()`` whose sum is a real field: the outer products of
    the box's rows of their 1-D spectra, from one batched FFT."""
    spectra = np.fft.fft(factors, axis=-1)
    axes = "ijk"[: len(box)]
    operands = ",".join("t" + a for a in axes)
    return np.einsum(f"t,{operands}->{axes}", weights,
                     *(spectra[:, a, i.ravel()] for a, i in enumerate(box)))


def _gaussian_mix(rng, grid: Grid, band: float, box) -> np.ndarray:
    L = grid.half_width
    k = int(rng.integers(1, 5))
    centers = rng.uniform(-L / 4, L / 4, size=(k, grid.dim))
    sigmas = rng.uniform(L / 40, L / 10, size=k)
    weights = rng.uniform(0.3, 1.0, size=k)
    x = grid.axis_coords()
    factors = np.exp(-((x - centers[..., None]) ** 2) / (2.0 * sigmas[:, None, None] ** 2))
    return _separable_spectrum(box, weights, factors)


def _band_limited_random(rng, grid: Grid, band: float, box) -> np.ndarray:
    # Coefficients are drawn on the resolution-independent lattice pi*j/L,
    # |j| <= J, the box's extent, so refined grids see the same trig polynomial.
    J = box[-1].size - 1
    shape = (2 * J + 1,) * grid.dim
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # the coefficients are the unitary transform at the offsets -J..J, of a
    # complex field centered at x = 0; the corpus field is its real part,
    # whose coefficients are their Hermitian part (offset -j is the block
    # flipped on every axis), rolled from offset order into the box's FFT
    # order on the full axes and kept at the last axis's offsets 0..J
    hermitian = 0.5 * (coeffs + np.conj(coeffs[(slice(None, None, -1),) * grid.dim]))
    full_axes = tuple(range(grid.dim - 1))
    return _lattice_spectrum(grid, np.roll(hermitian, -J, axis=full_axes)[..., J:])


def _mollified_step(rng, grid: Grid, band: float, box) -> np.ndarray:
    # analytic tanh edges at scale 1/band: jump-like through the dyadic
    # range yet resolution-independent (spectrum decayed before Nyquist)
    L = grid.half_width
    lo = rng.uniform(-L / 2, 0.0, size=grid.dim)[:, None]
    width = rng.uniform(L / 8, L / 2, size=grid.dim)[:, None]
    sigma = 1.0 / band
    x = grid.axis_coords()
    window = 0.5 * (np.tanh((x - lo) / sigma) - np.tanh((x - lo - width) / sigma))
    return _separable_spectrum(box, np.ones(1), window[None])


def _oscillatory_packet(rng, grid: Grid, band: float, box) -> np.ndarray:
    L = grid.half_width
    direction = rng.standard_normal(grid.dim)
    direction /= np.linalg.norm(direction)
    omega = rng.uniform(band / 4, 3 * band / 4) * direction
    phase = rng.uniform(0, 2 * np.pi)
    center = rng.uniform(-L / 4, L / 4, size=grid.dim)
    sigma = rng.uniform(L / 10, L / 4)
    x = grid.axis_coords()
    # cos(omega.x + phase) e^(-|x - center|^2 / 2 sigma^2) is the mean of
    # e^(i phase) prod_a c_a(x_a) and its conjugate, for the one-axis factors
    # c_a(x_a) = e^(i omega_a x_a - (x_a - center_a)^2 / 2 sigma^2)
    c = np.exp(1j * omega[:, None] * x - (x - center[:, None]) ** 2 / (2.0 * sigma * sigma))
    return _separable_spectrum(box, 0.5 * np.exp([1j * phase, -1j * phase]),
                               np.stack((c, c.conj())))


_BUILDERS = {"gaussian_mix": _gaussian_mix, "band_limited_random": _band_limited_random,
             "mollified_step": _mollified_step, "oscillatory_packet": _oscillatory_packet}


def _integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class CorpusSpec:
    """Seeded recipe for a family-stratified corpus of real band-limited
    fields, each normalized to unit L1 mass."""

    seed: int
    count: int
    families: tuple = tuple(_BUILDERS)
    band_limit: float = 16.0

    def __post_init__(self):
        # numpy's own refusal of a negative seed names neither it nor its value
        if not (_integer(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        # a fractional or string count would fail deep in the build, and True is 1
        if not (_integer(self.count) and self.count >= 1):
            raise ValueError(f"count must be an integer >= 1, got {self.count!r}")
        if not self.families:
            raise ValueError("families must name at least one corpus family")
        unknown = set(self.families) - set(_BUILDERS)
        if unknown:
            raise ValueError(f"unknown corpus families {sorted(unknown)}")
        if not self.band_limit > 0:  # written so that a NaN fails too
            raise ValueError(f"band_limit must be positive, got {self.band_limit}")


_RNG_IMPORT = threading.Lock()


def _rng(seed: int) -> np.random.Generator:
    """``np.random.default_rng(seed)``.  Its first call imports numpy.random
    without OpenSSL: numpy.random imports ``secrets``, whose ``hmac`` and
    ``hashlib`` load OpenSSL's libcrypto (a few MB of a process's peak) that
    a seeded stream never calls.  With ``_hashlib`` blocked they fall back to
    the interpreter's built-in hashes, and ``secrets.compare_digest`` to
    ``_operator._compare_digest``, which is as constant-time; the ``hashlib``
    and ``hmac`` so built are then dropped from sys.modules, so a later import
    gets the usual OpenSSL-backed ones (a thread that first imports hashlib
    during that import gets the fallback too).  Where numpy.random or
    ``_hashlib`` is loaded already, nothing is blocked."""
    with _RNG_IMPORT:
        if "numpy.random" not in sys.modules and "_hashlib" not in sys.modules:
            added = {"hashlib", "hmac"} - set(sys.modules)
            sys.modules["_hashlib"] = None
            try:
                importlib.import_module("numpy.random")
            finally:
                del sys.modules["_hashlib"]
                for name in added:
                    sys.modules.pop(name, None)
    return np.random.default_rng(seed)


def generate_corpus(spec: CorpusSpec, grid: Grid) -> list:
    """Deterministic corpus of real fields, band-limited below
    ``spec.band_limit`` (spectrum zeroed outside) and L1-normalized.  Each
    field holds its spectrum on the box (see :func:`lplab.grid._box`) that
    holds the band.

    Requires band_limit <= 2^(k_max - 1) so every corpus field is fully
    resolved by the grid's dyadic blocks.
    """
    k_max = _top_block_index(grid)
    if spec.band_limit > 2.0 ** (k_max - 1):
        raise ValueError(
            f"band_limit {spec.band_limit:g} exceeds 2^(k_max-1) = {2.0 ** (k_max - 1):g}"
        )
    rng = _rng(spec.seed)
    # |xi| >= |xi_axis| on every axis, so off this box |xi| > band_limit and
    # every field's spectrum is zero: each is built on the box and cut to
    # the band there, where |xi| takes the values it takes on the half lattice
    freq = grid.freq_axis()
    box = _box(grid, int(np.count_nonzero(freq[: grid.samples_per_axis // 2]
                                          <= spec.band_limit)) - 1)
    inside = np.sqrt(sum(freq[i] ** 2 for i in box)) <= spec.band_limit
    fields = []
    for i in range(spec.count):
        build = _BUILDERS[spec.families[i % len(spec.families)]]
        boxed = build(rng, grid, spec.band_limit, box) * inside
        # the L1 mass from one synthesis whose modulus is taken in place;
        # _ifft is read from its module, so a wrapper put there sees it too
        mass = _lp_values(_modulus(grid_module._ifft(grid, boxed)), 1, grid)
        # the field keeps only its spectrum, so no later step transforms it
        # again; its samples are synthesized if and when they are read
        fields.append(_field(grid, boxed / mass))
    return fields


# ---------------------------------------------------------------------------
# Inequality cases


def _inv(p: float) -> float:
    return 0.0 if p == INF else 1.0 / p


@dataclass(frozen=True)
class InequalityCase:
    """One convolution inequality instance with its exponents.

    ``name`` selects the shape: ``young`` (plain Lp), ``conv1``
    (||f*g|A^s_{p,q}|| vs ||f|A^s_{p1,q}|| * ||g|L_{p2}||), ``conv3`` and its
    specialization ``conv_eq23`` (two function-space norms on the right),
    which needs p1 = p, p2 = 1, q1 = q and q2 = inf.
    The scale is B or F and the smoothness orders s, u are finite.
    Exponents need p, p1, p2 >= 1 and q, q1, q2 > 0; the integrability ones
    must satisfy 1 + 1/p = 1/p1 + 1/p2 exactly and, for conv3,
    1/q <= 1/q1 + 1/q2 (1/inf = 0).  F-scale checks require
    the summability exponents involved to be >= 1 (theorem hypotheses).
    A claimed constant must be finite and > 0 (no ratio meets one <= 0),
    and a tolerance finite and >= 0.
    """

    name: str
    p: float
    p1: float
    p2: float
    scale: str = "B"
    s: float = 0.0
    u: float = 0.0
    q: float = INF
    q1: float = INF
    q2: float = INF
    constant_claim: float | None = None
    tolerance: float | None = None

    def __post_init__(self):
        if self.name not in ("young", "conv1", "conv3", "conv_eq23"):
            raise ValueError(f"unknown case name {self.name!r}")
        if self.scale not in ("B", "F"):
            raise ValueError(f"scale must be 'B' or 'F', got {self.scale!r}")
        if not (math.isfinite(self.s) and math.isfinite(self.u)):
            raise ValueError(f"smoothness s and u must be finite, got s={self.s}, u={self.u}")
        # written so that a NaN exponent fails too
        if not (all(x >= 1 for x in (self.p, self.p1, self.p2))
                and all(x > 0 for x in (self.q, self.q1, self.q2))):
            raise ValueError(f"exponents need p, p1, p2 >= 1 and q, q1, q2 > 0: {self}")
        if abs(1.0 + _inv(self.p) - _inv(self.p1) - _inv(self.p2)) > 1e-12:
            raise ValueError(
                f"integrability relation 1 + 1/p = 1/p1 + 1/p2 violated: "
                f"p={self.p}, p1={self.p1}, p2={self.p2}"
            )
        if self.name == "conv_eq23" and not (self.p1 == self.p and self.p2 == 1
                                             and self.q1 == self.q and self.q2 == INF):
            raise ValueError(f"conv_eq23 needs p1 = p, p2 = 1, q1 = q and q2 = inf: {self}")
        if self.name in ("conv3", "conv_eq23"):
            if _inv(self.q) > _inv(self.q1) + _inv(self.q2) + 1e-12:
                raise ValueError(
                    f"summability relation 1/q <= 1/q1 + 1/q2 violated: "
                    f"q={self.q}, q1={self.q1}, q2={self.q2}"
                )
        if self.scale == "F":
            used = {"young": (), "conv1": (self.q,)}.get(self.name, (self.q, self.q1, self.q2))
            if any(qq < 1 for qq in used):
                raise ValueError("F-scale checks require summability exponents >= 1")
        if self.constant_claim is not None and not 0 < self.constant_claim < math.inf:
            raise ValueError(f"constant_claim must be finite and > 0, got {self.constant_claim}")
        if self.tolerance is not None and not 0 <= self.tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and >= 0, got {self.tolerance}")

    def effective_claim(self, dim: int) -> float | None:
        if self.constant_claim is not None:
            return self.constant_claim
        if self.name == "young":
            return 1.0
        if self.name == "conv1":
            return 1.0 if self.p1 < INF else 2.0**dim
        return None

    def effective_tolerance(self) -> float:
        if self.tolerance is not None:
            return self.tolerance
        if self.name == "young":
            return 1e-9
        if self.name == "conv1":
            return 1e-6 if self.scale == "B" else 1e-4
        return 1e-6


def conv_eq23_case(scale: str, s: float, u: float, p: float, q: float,
                   constant_claim=None, tolerance=None) -> InequalityCase:
    """The q1 = q, p1 = p specialization with the (1, inf) norm on g."""
    return InequalityCase("conv_eq23", p=p, p1=p, p2=1.0, scale=scale, s=s, u=u,
                          q=q, q1=q, q2=INF,
                          constant_claim=constant_claim, tolerance=tolerance)


@dataclass
class VerificationReport:
    """Per-pair ratio statistics and the verdict for one check.

    ``case`` is a plain dict naming the check and its parameters.
    ``tolerance`` is None for a report whose verdict never reads one."""

    case: dict
    ratios: tuple
    skipped: int = 0
    tolerance: float | None = None
    constant_claim: float | None = None
    refinement_delta: float | None = None
    details: dict = field(default_factory=dict)

    @property
    def max_ratio(self) -> float:
        """The largest pair ratio, 0.0 when every pair was skipped."""
        return max(self.ratios, default=0.0)

    @property
    def empirical_C(self) -> float:
        """The empirical constant: the same value as ``max_ratio``."""
        return self.max_ratio

    @property
    def verdict(self) -> bool:
        """max_ratio <= claim * (1 + tolerance) when a constant is claimed;
        otherwise a finite max_ratio and, once a refinement delta is
        attached, a delta of at most 5%."""
        if self.constant_claim is not None:
            return self.max_ratio <= self.constant_claim * (1.0 + self.tolerance)
        stable = self.refinement_delta is None or self.refinement_delta <= _STABILITY_TOL
        return math.isfinite(self.max_ratio) and stable

    def to_json_dict(self) -> dict:
        return {
            "case": _jsonable(self.case),
            "n_pairs": len(self.ratios) + self.skipped,
            "skipped": self.skipped,
            "max_ratio": self.max_ratio,
            "empirical_C": self.empirical_C,
            "tolerance": self.tolerance,
            "constant_claim": _jsonable(self.constant_claim),
            "refinement_delta": self.refinement_delta,
            "verdict": "pass" if self.verdict else "fail",
            "details": self.details,
        }

    def write_ratios_csv(self, path: str) -> None:
        _write_csv(path, ("pair", "ratio"), (range(len(self.ratios)), self.ratios))


def _case_sides(case: InequalityCase, f: SampledField, g: SampledField,
                res: DyadicResolution):
    conv = convolve(f, g)
    if case.name == "young":
        return lp_norm(conv, case.p), lp_norm(f, case.p1) * lp_norm(g, case.p2)
    if case.name == "conv1":
        lhs = space_norm(conv, res, SpaceParams(case.scale, case.s, case.p, case.q)).value
        rhs = (space_norm(f, res, SpaceParams(case.scale, case.s, case.p1, case.q)).value
               * lp_norm(g, case.p2))
        return lhs, rhs
    lhs = space_norm(conv, res,
                     SpaceParams(case.scale, case.s + case.u, case.p, case.q)).value
    rhs = (space_norm(f, res, SpaceParams(case.scale, case.s, case.p1, case.q1)).value
           * space_norm(g, res, SpaceParams(case.scale, case.u, case.p2, case.q2)).value)
    return lhs, rhs


def check_inequality(case: InequalityCase, corpus_f, corpus_g,
                     res: DyadicResolution) -> VerificationReport:
    """Evaluate the inequality pairwise over zip(corpus_f, corpus_g).

    Pairs whose right-hand side falls below 1e-12 are skipped and counted;
    see :attr:`VerificationReport.verdict` for what the verdict asserts.
    """
    pairs = list(zip(corpus_f, corpus_g))
    sides = _pmap(lambda fg: _case_sides(case, fg[0], fg[1], res), pairs)
    ratios, skipped = [], 0
    for lhs, rhs in sides:
        if rhs < _RHS_FLOOR:
            skipped += 1
        else:
            ratios.append(lhs / rhs)
    claim = case.effective_claim(res.grid.dim)
    return VerificationReport(
        case=asdict(case),
        ratios=tuple(ratios),
        skipped=skipped,
        # without a claimed constant the verdict reads no tolerance
        tolerance=None if claim is None else case.effective_tolerance(),
        constant_claim=claim,
        details={"dim": res.grid.dim, "N": res.grid.samples_per_axis,
                 "L": res.grid.half_width},
    )


def refined(check, grid: Grid) -> VerificationReport:
    """Run ``check(g)`` on ``grid`` and on its 2N twin (same dim and L) and
    return the fine report with the relative change of the empirical constant
    attached; with no claimed constant the verdict then requires a change of
    at most 5%."""
    coarse = check(grid)
    fine = check(Grid(grid.dim, 2 * grid.samples_per_axis, grid.half_width))
    c = coarse.empirical_C
    fine.refinement_delta = abs(fine.empirical_C / c - 1.0) if c else 0.0
    fine.details.update(coarse_empirical_C=c, stability_tol=_STABILITY_TOL)
    return fine


# ---------------------------------------------------------------------------
# Power-law fits and sweeps


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of log(value) = exponent * log(t) + intercept."""

    exponent: float
    intercept: float
    r_squared: float
    t_range: tuple


def _check_fit_times(ts) -> None:
    # one time repeated leaves the fit undetermined (an SVD that fails)
    distinct = len(set(map(float, ts)))  # np.unique's first call imports numpy.ma
    if distinct < 4:
        raise ValueError(f"a power-law fit needs at least 4 distinct times, got {distinct}")


def fit_power_law(ts, values) -> PowerLawFit:
    """Fit a power law to >= 4 distinct times with positive finite values."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    _check_fit_times(ts)
    if not np.all(np.isfinite(ts) & np.isfinite(values) & (ts > 0) & (values > 0)):
        raise ValueError("power-law fit requires positive finite times and values")
    lx, ly = np.log(ts), np.log(values)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    sstot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if sstot < 1e-300 else max(0.0, 1.0 - float(np.sum(resid**2)) / sstot)
    return PowerLawFit(float(slope), float(intercept), min(r2, 1.0),
                       (float(ts.min()), float(ts.max())))


@dataclass
class SmoothingSweep:
    """Curves of ||P_t f|A^{s+u}|| and ||p_t|B^u_{1,inf}|| over a t-sweep."""

    ts: tuple
    applied_norms: tuple
    applied_fit: PowerLawFit
    kernel_norms: tuple
    kernel_fit: PowerLawFit


def smoothing_sweep(fam: KernelFamily, f: SampledField, base: SpaceParams,
                    u: float, ts, res: DyadicResolution) -> SmoothingSweep:
    """Sweep ||P_t f | A^{s+u}_{p,q}|| and the kernel norm ||p_t | B^u_{1,inf}||
    (the dominant factor of the semigroup smoothing bound) over ``ts``.

    Each p_t is built for its time and dropped once its norm is taken and
    P_t f is formed, before P_t f's norm is taken."""
    if not (math.isfinite(u) and u >= 0):
        raise ValueError(f"smoothing order u must be finite and >= 0, got {u}")
    ts = sorted(float(t) for t in ts)
    _check_fit_times(ts)  # before any norm is computed
    target = base.shifted(u)
    kernel_sp = SpaceParams("B", u, 1.0, INF)

    def one(t):
        p_t = fam.kernel(t)
        knorm = besov_norm(p_t, res, kernel_sp).value
        applied = convolve(f, p_t)
        del p_t  # before P_t f's norm synthesizes its blocks
        return space_norm(applied, res, target).value, knorm

    rows = _pmap(one, ts)
    applied = tuple(r[0] for r in rows)
    kernels = tuple(r[1] for r in rows)
    return SmoothingSweep(tuple(ts), applied, fit_power_law(ts, applied),
                          kernels, fit_power_law(ts, kernels))


def theorem_semi11_bound_check(fam: KernelFamily, u: float, ts,
                               res: DyadicResolution) -> VerificationReport:
    """Check ||p_t|B^u_{1,inf}|| <= C_u * sup_r (||p_r||_L1 + ||grad p_{r/2}||_L1)^u
    with r swept over [t/(floor(u)+1), t/max(floor(u),1)] at 3 points.

    C_u is empirical (max ratio); the window integrand's monotonicity across
    the 3 sample points is recorded in the details.
    """
    if not u > 0:
        raise ValueError("u must be > 0")
    ts = sorted(float(t) for t in ts)
    if not ts:
        raise ValueError("ts must be nonempty")
    kernel_sp = SpaceParams("B", u, 1.0, INF)
    lo_div = math.floor(u) + 1
    hi_div = max(math.floor(u), 1)

    ratios, rows, monotone = [], [], True
    for t in ts:
        rs = sorted({t / lo_div, 0.5 * (t / lo_div + t / hi_div), t / hi_div})
        rhs_vals = [
            (fam.l1_norm(r) + gradient_l1(fam.kernel(r / 2.0))) ** u for r in rs
        ]
        diffs = np.diff(rhs_vals)
        if diffs.size and not (np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12)):
            monotone = False
        rhs = max(rhs_vals)
        lhs = besov_norm(fam.kernel(t), res, kernel_sp).value
        ratios.append(lhs / rhs)
        rows.append({"t": t, "lhs": lhs, "rhs_sup": rhs})
    return VerificationReport(case={"name": "semi11", "u": u, "m": fam.spec.m},
                              ratios=tuple(ratios),
                              details={"rows": rows, "window_monotone": monotone})


def profile_equivalence(corpus, grid: Grid, profile_a: TransitionProfile,
                        profile_b: TransitionProfile, sp: SpaceParams) -> VerificationReport:
    """Besov-norm equivalence under two transition profiles: each field's
    ratio is the two-sided factor max(r, 1/r) of its two norms' quotient r,
    so the empirical constant c, which no claim bounds, puts every r in [1/c, c]."""
    res_a = build_resolution(grid, profile_a)
    res_b = build_resolution(grid, profile_b)

    def factor(f):
        r = besov_norm(f, res_a, sp).value / besov_norm(f, res_b, sp).value
        return max(r, 1.0 / r)

    ratios = tuple(_pmap(factor, corpus))
    if not ratios:  # an empty corpus would pass with max_ratio 0
        raise ValueError("profile_equivalence needs a nonempty corpus, got an empty one")
    return VerificationReport(
        case={"name": "profile_equivalence", "profiles": [profile_a.name, profile_b.name],
              **asdict(sp)},
        ratios=ratios,
        details={"dim": grid.dim, "N": grid.samples_per_axis, "L": grid.half_width})
