"""Function-space (quasi-)norms built on Littlewood-Paley blocks.

Implements Lp norms, Besov norms ||2^{ks} phi_k(D) f | Lp | lq||,
Triebel-Lizorkin norms ||2^{ks} phi_k(D) f | lq | Lp|| (p < infinity), the
p = infinity Triebel-Lizorkin norm via averages over dyadic cubes, and the
auxiliary Bessel-potential, Sobolev and local-Hardy norms used to bound
kernel norms.

All norms are norms of the band-limited projection of the input (blocks
beyond the Nyquist frequency do not exist on the grid); for band-limited
fields this truncation is exact.  The cube-based p = infinity norm uses only
lattice-aligned cubes fully inside the box, so it is a certified lower bound
of the continuum norm.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import (Grid, SampledField, _derivative_symbol, _field, _integral, _jsonable,
                   _l2_norms, _lattice_spectrum, _multiplied)
from .littlewood_paley import DyadicResolution, block_l2_norms, block_spectra

__all__ = [
    "SpaceParams",
    "NormResult",
    "lp_norm",
    "besov_norm",
    "triebel_norm",
    "triebel_infty_norm",
    "space_norm",
    "resolution_l1_bound",
    "bessel_norm",
    "sobolev_w1m_norm",
    "hardy_norm",
]

INF = math.inf


@dataclass(frozen=True)
class SpaceParams:
    """Selects a function-space norm: scale A in {B, F}, finite smoothness s,
    integrability p in [1, inf], summability q in (0, inf]."""

    scale: str
    s: float
    p: float
    q: float

    def __post_init__(self):
        if self.scale not in ("B", "F"):
            raise ValueError(f"scale must be 'B' or 'F', got {self.scale!r}")
        if not math.isfinite(self.s):
            raise ValueError(f"smoothness s must be finite, got {self.s}")
        if not self.p >= 1:
            raise ValueError(f"integrability p must be >= 1, got {self.p}")
        if not self.q > 0:
            raise ValueError(f"summability q must be > 0, got {self.q}")

    @property
    def theorem_eligible(self) -> bool:
        """Whether the convolution theorems cover these parameters
        (F-scale requires q >= 1)."""
        return self.scale == "B" or self.q >= 1

    def shifted(self, du: float) -> "SpaceParams":
        return SpaceParams(self.scale, self.s + du, self.p, self.q)


@dataclass(frozen=True)
class NormResult:
    """A computed norm value with per-block diagnostics.

    ``block_terms[k]`` holds the 2^{ks}-weighted per-block contribution.  For
    the B-scale the value is exactly the declared lq reduction of the block
    terms; for the F-scale the lq is taken pointwise before Lp, so the block
    terms are per-block Lp diagnostics only (``reduction`` records which).
    """

    value: float
    block_terms: tuple
    space: SpaceParams
    reduction: str

    @property
    def truncation_k(self) -> int:
        """The top block index k_max the norm was truncated at."""
        return len(self.block_terms) - 1

    @property
    def tail_ratio(self) -> float:
        """block_terms[-1] / value: flags truncation at k_max."""
        return self.block_terms[-1] / self.value if self.value > 0 else 0.0

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "block_terms": list(self.block_terms),
            "truncation_k": self.truncation_k,
            "tail_ratio": self.tail_ratio,
            "space": {
                "A": self.space.scale,
                "s": self.space.s,
                "p": _jsonable(self.space.p),
                "q": _jsonable(self.space.q),
            },
            "reduction": self.reduction,
        }


def _modulus(values: np.ndarray) -> np.ndarray:
    """|values|, written over ``values`` when they are float64 samples the
    caller has no further use of (a block from :func:`block_spectra`, say)."""
    return np.abs(values, out=values if values.dtype == np.float64 else None)


def _lp_values(a: np.ndarray, p: float, grid: Grid) -> float:
    """(h^n sum a^p)^(1/p) of the moduli ``a``; their max for p = infinity."""
    if p == INF:
        return float(a.max())
    if p == 1:
        return float(grid.cell_volume * a.sum())
    if p == 2:
        return float(np.sqrt(grid.cell_volume * np.sum(a * a)))
    return float((grid.cell_volume * np.sum(a**p)) ** (1.0 / p))


def lp_norm(f: SampledField, p: float) -> float:
    """(h^n sum |f|^p)^(1/p); the lattice max for p = infinity.  At p = 2 it
    is taken by Parseval from the field's spectrum, so a field that holds
    only its spectrum is not synthesized."""
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if p == 2:
        return next(_l2_norms(f, (1.0,)))
    return _lp_values(np.abs(f.values), p, f.grid)


@contextlib.contextmanager
def _overflow_refused(s: float, q: float):
    """Weight block terms and take their powers and sums with a float64
    overflow refused by name, as :func:`_weight` refuses a weight; every
    finite result is unchanged."""
    try:
        with np.errstate(over="raise"):
            yield
    except (FloatingPointError, OverflowError):
        raise ValueError(f"a weighted block term, its power or their sum overflows float64 "
                         f"at smoothness s = {s}, q = {q}") from None


def _lq_reduce(terms: np.ndarray, sp: SpaceParams) -> float:
    if sp.q == INF:
        return float(terms.max()) if terms.size else 0.0
    with _overflow_refused(sp.s, sp.q):
        return float(np.sum(terms**sp.q) ** (1.0 / sp.q))


def _result(value, terms, sp, reduction) -> NormResult:
    return NormResult(float(value), tuple(float(t) for t in terms), sp, reduction)


def _weight(k: int, s: float) -> float:
    """The block weight 2^(ks); a weight beyond the float64 range is refused
    by name."""
    try:
        return 2.0 ** (k * s)
    except OverflowError:
        raise ValueError(f"block weight 2^(k s) overflows float64 at k = {k}, "
                         f"smoothness s = {s}") from None


def _block_terms(f: SampledField, res: DyadicResolution, sp: SpaceParams) -> np.ndarray:
    """2^{ks} ||phi_k(D) f||_Lp for k = 0..k_max: by Parseval from the
    spectrum of ``f`` at p = 2, from the synthesized blocks otherwise."""
    if sp.p == 2:
        norms = block_l2_norms(res, f)
    else:
        # map drops each block before it asks for the next one
        norms = map(lambda b: _lp_values(_modulus(b), sp.p, res.grid), block_spectra(res, f))
    weights = np.array([_weight(k, sp.s) for k in range(res.k_max + 1)])
    with _overflow_refused(sp.s, sp.q):
        return weights * np.fromiter(norms, float)


def besov_norm(f: SampledField, res: DyadicResolution, sp: SpaceParams) -> NormResult:
    """Besov (quasi-)norm: lq over k of 2^{ks} ||phi_k(D) f||_Lp.

    q < 1 is accepted (quasi-norm); the convolution-theorem checks never
    feed q < 1 to the F-scale, which is where the hypotheses require q >= 1.
    """
    if sp.scale != "B":
        raise ValueError("besov_norm requires scale 'B'")
    terms = _block_terms(f, res, sp)
    return _result(_lq_reduce(terms, sp), terms, sp, "lq_of_block_lp")


def triebel_norm(f: SampledField, res: DyadicResolution, sp: SpaceParams) -> NormResult:
    """Triebel-Lizorkin norm: Lp over x of the pointwise lq over k of
    2^{ks} |phi_k(D) f(x)|.  p = infinity is routed to the cube-based norm.
    At p = q = 2 the two sums commute (Fubini), so the norm is the l2 sum of
    the block L2 norms, taken by Parseval with no block synthesized."""
    if sp.scale != "F":
        raise ValueError("triebel_norm requires scale 'F'")
    if sp.p == INF:
        return triebel_infty_norm(f, res, sp.s, sp.q)
    if sp.p == 2 and sp.q == 2:
        terms = _block_terms(f, res, sp)
        return _result(_lq_reduce(terms, sp), terms, sp, "lp_of_pointwise_lq")
    acc = None
    terms = []
    with _overflow_refused(sp.s, sp.q):
        # not enumerate or zip: each holds its last item while it asks for
        # the next, so two blocks would be live at once
        blocks = map(_modulus, block_spectra(res, f))
        for k in range(res.k_max + 1):
            w = next(blocks)
            w *= _weight(k, sp.s)
            terms.append(_lp_values(w, sp.p, res.grid))
            if sp.q == INF:
                acc = w if acc is None else np.maximum(acc, w, out=acc)
            else:
                w **= sp.q
                acc = w if acc is None else np.add(acc, w, out=acc)
            del w  # before the next block is synthesized
        if sp.q != INF:
            acc **= 1.0 / sp.q
        value = _lp_values(acc, sp.p, res.grid)
    return _result(value, np.array(terms), sp, "lp_of_pointwise_lq")


def _cube_means(values: np.ndarray, grid: Grid, J: int):
    """Means of ``values`` over lattice-aligned dyadic cubes of side 2^-J
    fully inside the box; returns the per-cube means as a flat array.

    A cube is a product of one-axis intervals, so its sum is reduced one
    axis at a time over the samples' cube runs, with no index array of the
    lattice's size.  Where each cube holds one sample, the means are those
    samples, read from ``values`` with no copy where the cubes fill the box."""
    side = 2.0**-J
    L = grid.half_width
    idx = np.floor(grid.axis_coords() / side).astype(np.int64)
    # cube m spans [m*side, (m+1)*side); keep only cubes inside [-L, L]
    kept = np.flatnonzero((idx * side >= -L - 1e-12) & ((idx + 1) * side <= L + 1e-12))
    if kept.size == 0:
        return np.empty(0)
    # idx is nondecreasing, so the kept samples are one run per cube
    box = slice(kept[0], kept[-1] + 1)
    starts = np.flatnonzero(np.diff(idx[box], prepend=idx[kept[0]] - 1))
    if starts.size == kept.size:  # one sample per cube: the means are the samples
        return values[(box,) * grid.dim].ravel()
    counts = np.diff(starts, append=kept.size)
    sums, size = values[(box,) * grid.dim], 1
    for axis in range(grid.dim):
        sums = np.add.reduceat(sums, starts, axis=axis)
        size = np.multiply.outer(size, counts)
    sums /= size
    return sums.ravel()


def triebel_infty_norm(f: SampledField, res: DyadicResolution, s: float, q: float) -> NormResult:
    """F-scale norm at p = infinity via dyadic-cube averages.

    sup over J in [0, J_max] and lattice-aligned cubes Q of side 2^-J inside
    the box of (mean over cube samples of sum_{k>=J} |2^{ks} phi_k(D)f|^q)^(1/q).
    J is capped at log2(1/h) so every cube holds at least one sample.  For
    q = infinity the norm is by definition the Besov (inf, inf) norm.
    The blocks are read from k_max down, into one running tail sum whose cube
    means are taken as soon as it reaches each J.
    """
    if not q > 0:
        raise ValueError(f"q must be > 0, got {q}")
    sp = SpaceParams("F", s, INF, q)
    if q == INF:
        inner = besov_norm(f, res, SpaceParams("B", s, INF, INF))
        return replace(inner, space=sp, reduction="besov_inf_inf")
    grid = res.grid
    if grid.spacing > 1.0:
        raise ValueError("grid spacing exceeds the unit cube: no admissible J >= 0")
    j_cap = min(int(np.floor(np.log2(1.0 / grid.spacing))), res.k_max)
    terms = []
    tail = None
    best = 0.0
    moduli = map(_modulus, block_spectra(res, f, reverse=True))
    with _overflow_refused(s, q):
        for k, w in zip(range(res.k_max, -1, -1), moduli):
            w *= _weight(k, s)
            w **= q
            terms.append(float(w.max()) ** (1.0 / q))
            # the tail sum over k..k_max
            if tail is not None:
                w += tail
            tail = w
            if k <= j_cap:
                best = max(best, float(_cube_means(tail, grid, k).max(initial=0.0)))
        value = best ** (1.0 / q)
    return _result(value, np.array(terms[::-1]), sp, "cube_sup")


def space_norm(f: SampledField, res: DyadicResolution, sp: SpaceParams) -> NormResult:
    """Dispatch to the Besov or Triebel-Lizorkin norm selected by ``sp``."""
    if sp.scale == "B":
        return besov_norm(f, res, sp)
    return triebel_norm(f, res, sp)


def resolution_l1_bound(res: DyadicResolution) -> float:
    """max_k || F^-1 phi_k ||_L1, an explicit computable constant dominating
    ||f | B^0_{1,inf}|| / ||f||_L1 (block convolutions obey Young's bound).
    Each F^-1 phi_k is held on its block's box."""
    grid = res.grid
    return max(lp_norm(_field(grid, _lattice_spectrum(grid, b)), 1) for b in res.blocks)


def bessel_norm(f: SampledField, s: float) -> float:
    """Bessel-potential norm || F^-1((1+|xi|^2)^(s/2) Ff) ||_L1, s >= 0."""
    if not 0 <= s < math.inf:
        raise ValueError(f"smoothness s must be finite and >= 0, got {s}")
    rho2 = f.grid.radial_freq() ** 2
    out = next(_multiplied(f, [(1.0 + rho2) ** (s / 2.0)]))
    return _lp_values(_modulus(out), 1, f.grid)


def sobolev_w1m_norm(f: SampledField, m: int) -> float:
    """Sobolev norm || sum_{|alpha| <= m} |d^alpha f| ||_L1 with spectral
    derivatives."""
    if not _integral(m):
        raise ValueError(f"order m must be an integer, got {m!r}")
    if m < 0:
        raise ValueError(f"order m must be >= 0, got {m}")
    alphas = itertools.product(range(int(m) + 1), repeat=f.grid.dim)
    symbols = (_derivative_symbol(f.grid, a) for a in alphas if sum(a) <= m)
    total = None
    for d in _multiplied(f, symbols):
        d = _modulus(d)
        total = d if total is None else np.add(total, d, out=total)
        del d  # before the next derivative is synthesized
    return float(f.grid.cell_volume * total.sum())


def default_hardy_nodes(count: int = 32) -> np.ndarray:
    """Log-spaced maximal-function nodes in (0, 1)."""
    return np.geomspace(1e-3, 1.0 - 1e-3, count)


def hardy_norm(f: SampledField, t_nodes=None) -> float:
    """Local Hardy norm || sup_t |phi(tD) f| ||_L1 with the Gaussian window
    phi(xi) = exp(-|xi|^2).

    The sup over t in (0,1) is discretized on log-spaced nodes, so the result
    is a lower approximation of the continuum sup; refine the nodes to check
    stability.
    """
    nodes = default_hardy_nodes() if t_nodes is None else np.asarray(t_nodes, float)
    if nodes.size == 0:
        raise ValueError("t_nodes must be nonempty")
    if not (np.all(nodes > 0) and np.all(nodes < 1) and np.all(np.diff(nodes) >= 0)):
        raise ValueError(f"t_nodes must be sorted within (0, 1), got {nodes}")
    rho2 = f.grid.radial_freq() ** 2
    peak = None
    for out in _multiplied(f, (np.exp(-(t * t) * rho2) for t in nodes)):
        out = _modulus(out)
        peak = out if peak is None else np.maximum(peak, out, out=peak)
        del out  # before the next node's field is synthesized
    return float(f.grid.cell_volume * peak.sum())
