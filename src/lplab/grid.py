"""Periodic-box discretization with unitary Fourier transforms.

Functions on R^n are represented by samples on a uniform grid over the box
[-L, L)^n and treated as 2L-periodic.  The Fourier transform follows the
unitary angular-frequency convention

    (F f)(xi) = (2 pi)^(-n/2) * integral e^(-i x.xi) f(x) dx,

discretized with the rectangle rule (spectrally accurate for smooth periodic
integrands).  Under this convention the convolution theorem reads
F(f * g) = (2 pi)^(n/2) * Ff * Fg, and that factor is applied by
:func:`convolve`.

Accuracy contract: results are spectral for fields whose mass outside
[-L/2, L/2]^n and whose spectrum outside half-Nyquist are negligible
(below ~1e-10).  Heavier-tailed objects still work but carry a documented
domain-truncation error; see :func:`integrate`'s tests.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import numbers
import os
import sys
import threading
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "SampledField",
    "make_grid",
    "sample",
    "forward_transform",
    "inverse_transform",
    "integrate",
    "convolve",
    "spectral_derivative",
    "save_field",
    "load_field",
    "UnderResolvedError",
]

# Imaginary mass larger than this fraction of the field scale flags a
# convention bug rather than harmless roundoff.
_IMAG_TOL = 1e-8


class UnderResolvedError(RuntimeError):
    """The requested kernel does not fit the grid's frequency lattice.  It
    lives here, beside the grid, so that a command can catch it without
    importing the kernels."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L)^n with its FFT frequency lattice.

    Attributes
    ----------
    dim : int
        Spatial dimension, 1 <= dim <= 3.
    samples_per_axis : int
        Points per axis N; must be a power of two >= 64 (FFT contract).
    half_width : float
        Box half-width L > 0.
    """

    dim: int
    samples_per_axis: int
    half_width: float

    def __post_init__(self):
        n, N, L = self.dim, self.samples_per_axis, self.half_width
        if not (_integral(n) and n in (1, 2, 3)):
            raise ValueError(f"dim must be 1, 2 or 3, got {n!r}")
        if not (_integral(N) and N >= 64 and (int(N) & (int(N) - 1)) == 0):
            raise ValueError(f"samples_per_axis must be a power of two >= 64, got {N!r}")
        if not (_finite_real(L) and L > 0):
            raise ValueError(f"half_width must be positive and finite, got {L!r}")
        # the frozen fields keep the plain int and float these values equal
        for name, cast in (("dim", int), ("samples_per_axis", int), ("half_width", float)):
            object.__setattr__(self, name, cast(getattr(self, name)))

    @property
    def spacing(self) -> float:
        """Sample spacing h = 2L/N."""
        return 2.0 * self.half_width / self.samples_per_axis

    @property
    def nyquist(self) -> float:
        """Largest resolvable angular frequency pi*N/(2L) = pi/h."""
        return np.pi * self.samples_per_axis / (2.0 * self.half_width)

    @property
    def shape(self) -> tuple:
        return (self.samples_per_axis,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def axis_coords(self) -> np.ndarray:
        """Sample positions x_j = -L + j h along one axis."""
        return -self.half_width + self.spacing * np.arange(self.samples_per_axis)

    def freq_axis(self) -> np.ndarray:
        """Angular frequencies pi*j/L along one axis, in FFT order."""
        N = self.samples_per_axis
        return (np.pi / self.half_width) * np.fft.fftfreq(N, d=1.0 / N)

    def coord_mesh(self) -> tuple:
        """Dense coordinate meshes (one array per axis, 'ij' indexing)."""
        ax = self.axis_coords()
        return tuple(np.meshgrid(*([ax] * self.dim), indexing="ij"))

    def freq_mesh(self) -> tuple:
        """Sparse frequency meshes in FFT order (broadcastable)."""
        fx = self.freq_axis()
        return tuple(np.meshgrid(*([fx] * self.dim), indexing="ij", sparse=True))

    def radial_freq(self) -> np.ndarray:
        """|xi| on the half lattice [..., :N//2+1], where every spectrum lives."""
        last = self.samples_per_axis // 2 + 1
        return np.sqrt(sum(m[..., :last] ** 2 for m in self.freq_mesh()))


def _finite_real(v) -> bool:
    # an int or float (numpy's too) within the float64 range; never a bool or a str
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _integral(v) -> bool:
    # an int, or a float that equals one
    return _finite_real(v) and float(v).is_integer()


class SampledField:
    """A function sampled on a periodic grid: the values f(x_j) at the
    lattice points x_j = -L + j h.

    A field holds its samples, its lattice spectrum, or both; whichever is
    missing is computed on first read and kept, so a field is transformed at
    most once.  The spectrum (``spectrum``) is the uncentered, unscaled array
    ``_fft(values)``: the Hermitian half lattice of rfftn for a real field,
    and for a complex field u + iv the half lattices of u and v stacked on a
    leading axis of two.  A band-limited field, such as a corpus field or a
    convolution with one, holds its spectrum on a box instead (see
    :func:`_box`): the box's shape, (2J + 1,) * (n - 1) + (J + 1,) with
    J < N/2, standing for the half lattice that is zero off it.  It is not
    the unitary transform; :func:`forward_transform` returns that.

    Real input is stored as float64 and complex input as complex128, so a
    real field stays real through every transform.  Values must have the
    grid's shape or be flat in its order.  Samples and spectrum are each
    validated finite and frozen (read-only) when they are stored.  The field
    owns its values: an array the caller passes is copied, never frozen in
    place, so the caller may still write to it.
    """

    __slots__ = ("grid", "_samples", "_lattice", "_fill")

    def __init__(self, grid: Grid, values):
        v = np.asarray(values)
        if v.shape != grid.shape:
            # reshaping any other shape of the right size would scramble it
            if v.ndim != 1 or v.size != np.prod(grid.shape):
                raise ValueError(
                    f"values of shape {v.shape} do not fit grid shape {grid.shape}"
                )
            v = v.reshape(grid.shape)
        # the field's one copy, so the caller's array is never frozen or seen
        v = np.array(v, dtype=np.float64 if np.isrealobj(v) else np.complex128, order="C")
        self.grid = grid
        self._samples = _frozen(v, "field")
        self._lattice = None
        self._fill = threading.Lock()

    def __reduce__(self):
        # the fill lock is neither copied nor pickled: a copy makes its own
        if self._lattice is None:
            return SampledField, (self.grid, self._samples)
        return _field, (self.grid, self._lattice, self._samples)

    @property
    def dtype(self) -> np.dtype:
        """float64 for a real field, complex128 for a complex one."""
        if self._samples is not None:
            return self._samples.dtype
        real = self._lattice.ndim == self.grid.dim
        return np.dtype(np.float64 if real else np.complex128)

    # Each fill is taken under the field's lock, so threads that read one
    # field at once share a single transform and a single array.

    @property
    def values(self) -> np.ndarray:
        """The samples f(x_j), in the grid's shape."""
        if self._samples is None:
            with self._fill:
                if self._samples is None:
                    self._samples = _frozen(_ifft(self.grid, self._lattice), "field")
        return self._samples

    @property
    def spectrum(self) -> np.ndarray:
        """The lattice spectrum ``_fft(values)``, uncentered and unscaled."""
        if self._lattice is None:
            with self._fill:
                if self._lattice is None:
                    self._lattice = _frozen(_fft(self._samples), "field spectrum")
        return self._lattice


def _frozen(a: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} contains non-finite values")
    a.setflags(write=False)
    return a


def _field(grid: Grid, spectrum: np.ndarray, values=None) -> SampledField:
    """The field whose spectrum (see :class:`SampledField`) is ``spectrum``,
    a half-lattice array for a real field or a pair of them for a complex
    field, either of them possibly held on a box of extent J < N/2; any
    other shape is refused (see :func:`_extent`).  ``values``, when given, must be the samples of that
    spectrum.  Both arrays are taken over and frozen, not copied."""
    spec = np.asarray(spectrum, dtype=np.complex128)
    if not spec.ndim:  # which _extent takes for a scalar multiplier
        raise ValueError(f"spectrum of shape () fits neither lattice of {grid}")
    _extent(grid, spec)
    f = _held(grid, None, _frozen(spec, "field spectrum"))
    if values is not None:
        if values.shape != grid.shape or values.dtype != f.dtype:
            raise ValueError("samples do not match the spectrum's lattice")
        f._samples = _frozen(values, "field")
    return f


def _sampled(grid: Grid, values: np.ndarray) -> SampledField:
    """The field whose samples are ``values``, a C-ordered float64 or
    complex128 array of the grid's size that the caller has just built and
    keeps no other use of.  It is taken over and frozen, not copied: the
    samples twin of :func:`_field`."""
    if (values.size != math.prod(grid.shape) or not values.flags.c_contiguous
            or values.dtype not in (np.float64, np.complex128)):
        raise ValueError(f"samples of shape {values.shape} and dtype {values.dtype} "
                         f"are no field on {grid}")
    return _held(grid, _frozen(values.reshape(grid.shape), "field"), None)


def _held(grid: Grid, samples, lattice) -> SampledField:
    # a field built around frozen arrays, without the copy __init__ makes
    f = SampledField.__new__(SampledField)
    f.grid, f._samples, f._lattice, f._fill = grid, samples, lattice, threading.Lock()
    return f


def make_grid(dim: int, samples_per_axis: int, half_width: float) -> Grid:
    """Construct a validated periodic grid (see :class:`Grid`)."""
    return Grid(dim=dim, samples_per_axis=samples_per_axis, half_width=half_width)


def sample(expr, grid: Grid) -> SampledField:
    """Sample a pointwise function on the grid lattice.

    ``expr`` receives one dense coordinate array per axis and must evaluate
    vectorized; a real result gives a float64 field.  Non-finite evaluations
    raise, naming the offending lattice point.
    """
    mesh = grid.coord_mesh()
    vals = np.broadcast_to(np.asarray(expr(*mesh)), grid.shape)
    bad = ~np.isfinite(vals)
    if bad.any():
        idx = tuple(np.argwhere(bad)[0])
        point = tuple(float(m[idx]) for m in mesh)
        raise ValueError(f"expression evaluated non-finite at lattice point x={point}")
    return SampledField(grid, vals)


def _fwd_scale(grid: Grid) -> float:
    return (2.0 * np.pi) ** (-grid.dim / 2.0) * grid.cell_volume


# The package's one transform pair, uncentered (no shifts) and unscaled: rfftn
# and irfftn, whose Hermitian half lattice [..., :N//2+1] holds every spectrum,
# a complex field u + iv's as the pair (u, v).  Every multiplier is Hermitian,
# m(-xi) = conj m(xi), so it is given there and maps each part to a real field.
# The unitary transform differs from it by the centering sign and _fwd_scale,
# which forward_transform applies one way and _lattice_spectrum the other.
# Both write into an array the transform owns (out=), so no pass allocates a
# temporary: _fft is rfftn itself, and _ifft runs irfftn's one-axis passes in
# irfftn's own axis order, so its results are irfftn's bit for bit.  _ifft
# also takes a spectrum held on a box (see _box), such as a band-limited
# field's or a dyadic block's product: it zero-extends each axis just before
# that axis's pass, so lines that are all zero are never transformed (FFT
# pruning).


def _fft(x: np.ndarray) -> np.ndarray:
    """Lattice spectrum of the samples ``x``: the rfftn half lattice for
    float64 samples, the pair of its parts' half lattices for complex ones."""
    lead = 0
    if x.dtype != np.float64:
        x, lead = np.stack((x.real, x.imag)), 1
    out = np.empty(x.shape[:-1] + (x.shape[-1] // 2 + 1,), dtype=np.complex128)
    return np.fft.rfftn(x, axes=tuple(range(lead, x.ndim)), out=out)


def _ifft(grid: Grid, spec: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Inverse of :func:`_fft`: float64 samples of a half-lattice spectrum,
    complex samples of a pair.  ``spec`` may also be held on a box, which
    stands for the half lattice that is zero off it.  ``spec`` is written
    to only with ``overwrite``, which lets a complex128 ``spec`` the caller
    drops afterwards hold the first pass."""
    N = grid.samples_per_axis
    a = spec
    # irfftn's passes: ifft on every axis but the last, first to last, then
    # irfft on the last, which pads a box's last axis with zeros itself
    for axis in range(spec.ndim - grid.dim, spec.ndim - 1):
        if a.shape[axis] < N:
            a = _zero_extended(a, axis, N)
        a = np.fft.ifft(a, axis=axis, out=None if a is spec and not overwrite else a)
    out = np.fft.irfft(a, n=N, axis=-1)
    return out if spec.ndim == grid.dim else out[0] + 1j * out[1]


def _zero_extended(a: np.ndarray, axis: int, N: int) -> np.ndarray:
    """A box's full ``axis``, frequencies 0..J then -J..-1 in FFT order,
    extended with zeros to all N frequencies, as a new complex array."""
    J = a.shape[axis] // 2
    out = np.zeros(a.shape[:axis] + (N,) + a.shape[axis + 1 :], dtype=np.complex128)
    to, frm = np.moveaxis(out, axis, 0), np.moveaxis(a, axis, 0)
    to[: J + 1] = frm[: J + 1]
    to[N - J :] = frm[J + 1 :]
    return out


@functools.lru_cache(maxsize=64)
def _box(grid: Grid, J: int) -> tuple:
    """Open-mesh index of the box of extent ``J`` in the half lattice: the
    frequencies 0..J and -J..-1 (2J + 1 of them, in FFT order) on each full
    axis and 0..J on the last.  It is the smallest such sub-lattice that
    holds every |xi| < pi (J + 1) / L.  An array held on a box has the box's
    shape, (2J + 1,) * (n - 1) + (J + 1,), from which :func:`_extent` reads
    J."""
    return _box_in(_half_shape(grid), J)


@functools.lru_cache(maxsize=128)
def _box_in(lattice: tuple, J: int) -> tuple:
    """Open-mesh index of the box of extent ``J`` in an array of the lattice
    shape ``lattice``: the half lattice or a box of extent at least J.  Built
    once per (lattice, J), as read-only arrays: building it took about half
    of a 1-D Parseval norm."""
    index = np.ix_(*[np.r_[0 : J + 1, M - J : M] for M in lattice[:-1]], np.arange(J + 1))
    for a in index:
        a.setflags(write=False)
    return index


def _half_shape(grid: Grid) -> tuple:
    return grid.shape[:-1] + (grid.samples_per_axis // 2 + 1,)


def _extent(grid: Grid, a) -> int | None:
    """Where ``a`` is held: the extent J of its box (see :func:`_box`), or
    None for the half lattice or a scalar.  ``a`` is a field's spectrum, a
    pair of them, a block or a multiplier, and its shape is the only record
    of where it is held; a shape that fits neither lattice is refused."""
    shape = np.shape(a)
    if not shape:
        return None
    J, lattice = shape[-1] - 1, shape[-grid.dim :]
    if shape[: -grid.dim] in ((), (2,)):
        if lattice == _half_shape(grid):
            return None
        box = (2 * J + 1,) * (grid.dim - 1) + (J + 1,)
        if 0 <= J < grid.samples_per_axis // 2 and lattice == box:
            return J
    raise ValueError(f"array of shape {shape} fits neither lattice of {grid}")


def _on_smaller_box(grid: Grid, a, b) -> tuple:
    """``a`` and ``b`` (see :func:`_extent`) on the smaller of their boxes,
    where the half lattice is the larger: each itself if it is held there
    or is a scalar, and otherwise a new array of the values it takes at the
    box's frequencies, with any leading axes."""
    held = (_extent(grid, a), _extent(grid, b))
    J = min((K for K in held if K is not None), default=None)
    return tuple(x if K == J or np.ndim(x) == 0
                 else x[(...,) + _box_in(x.shape[x.ndim - grid.dim :], J)]
                 for x, K in zip((a, b), held))


def _product(grid: Grid, m, F: np.ndarray) -> np.ndarray:
    """The product m * F, for a field's spectrum ``F`` and a multiplier ``m``,
    as a new array on the smaller of their boxes: it holds every value that
    the product is not zero at."""
    m, F = _on_smaller_box(grid, m, F)
    return m * F


def _embedded(grid: Grid, box: np.ndarray) -> np.ndarray:
    """The half-lattice array that equals ``box`` on its box (see :func:`_box`)
    and is zero off it; a pair of them for a pair."""
    half = np.zeros(box.shape[: box.ndim - grid.dim] + _half_shape(grid), dtype=box.dtype)
    half[(...,) + _box(grid, _extent(grid, box))] = box
    return half


def forward_transform(f: SampledField) -> np.ndarray:
    """Discrete unitary Fourier transform of a field, as a lattice array in
    FFT order.

    The coefficient at lattice frequency xi_j equals
    (2 pi)^(-n/2) h^n sum_x e^(-i x.xi_j) f(x).  It is built from the
    field's spectrum: each half lattice is completed by the Hermitian mirror
    (see :func:`_hermitian_full`), and the centering shift of the samples by
    N/2 is the sign (-1)^(j_1 + ... + j_n), so a field that holds its
    spectrum is not transformed again.
    """
    grid = f.grid
    full = _hermitian_full(grid, f.spectrum)
    if full.ndim > grid.dim:  # the pair of u + iv: Fu + i Fv
        full = full[0] + 1j * full[1]
    # (-1)^j takes one value at j and at its mirror (-j) mod N, as N is even
    full *= _hermitian_full(grid, _centering_sign(grid, None, _fwd_scale(grid)))
    return full


def _hermitian_full(grid: Grid, half: np.ndarray) -> np.ndarray:
    """The full FFT-order lattice, in ``half``'s dtype, of the Hermitian array
    a(-xi) = conj a(xi) whose half lattice is ``half`` (or of each of a pair),
    or is zero off ``half``'s box when ``half`` is held on one."""
    if _extent(grid, half) is not None:
        half = _embedded(grid, half)
    N = grid.samples_per_axis
    full = np.empty(half.shape[:-1] + (N,), dtype=half.dtype)
    full[..., : N // 2 + 1] = half
    # index j on an axis mirrors to (-j) mod N; the last axis's N//2+1..N-1
    # are the mirrors of N//2-1..1
    rev = -np.arange(N) % N
    mirror = half[(...,) + np.ix_(*([rev] * (grid.dim - 1)), np.arange(N // 2 - 1, 0, -1))]
    np.conjugate(mirror, out=full[..., N // 2 + 1 :])
    return full


def _multiplied(f: SampledField, multipliers):
    """Yield the space samples of F^-1(m * Ff) for each multiplier m in turn,
    all from ``f``'s one spectrum.  Each m is a Hermitian FFT-order array held
    on the half lattice or on a box (see :func:`_extent`); the product is
    formed and transformed on the smaller of m's and the spectrum's boxes
    (see :func:`_product`).  So it maps a real field to a float64 one and acts
    on a complex field's two parts at once.

    A multiplier commutes with the cyclic N/2 shift that centers the samples,
    so no shift is needed, and the transform scales cancel."""
    F = f.spectrum
    for m in multipliers:
        # the product is a fresh array, so the first pass may overwrite it
        yield _ifft(f.grid, _product(f.grid, m, F), overwrite=True)


def _l2_norms(f: SampledField, multipliers):
    """Yield ||F^-1(m * Ff)||_L2 for each multiplier m (as in
    :func:`_multiplied`) by Parseval, with no inverse transform:
    h^n sum_x |g(x)|^2 = h^n N^-n sum_xi |Fg(xi)|^2, summed over both parts
    of a complex field.  A half-lattice point off the last axis's 0 and N/2
    planes also stands for its mirror -xi, which m(-xi) = conj m(xi) gives
    the same modulus, so it counts twice.  The sum runs over the whole half
    lattice when m or the spectrum is held on a box too, through one zero
    half lattice that holds the product's box, so its order, and every bit
    of the norm, do not depend on how either is held."""
    grid, F = f.grid, f.spectrum
    power = F.real**2 + F.imag**2
    N = grid.samples_per_axis
    power[..., 1 : N // 2] *= 2.0  # a box's last axis stops short of N/2
    scale = grid.cell_volume / N**grid.dim
    terms = None
    for m in multipliers:
        m, p = _on_smaller_box(grid, m, power)
        J = _extent(grid, p)
        if J is None:
            total = np.sum(np.abs(m) ** 2 * p)
        else:
            if terms is None:
                terms = np.zeros(F.shape[: F.ndim - grid.dim] + _half_shape(grid))
            box = (...,) + _box(grid, J)
            terms[box] = np.abs(m) ** 2 * p
            total = np.sum(terms)
            terms[box] = 0.0
        yield math.sqrt(scale * total)


def _lattice_spectrum(grid: Grid, F: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """The spectrum held by the field whose unitary transform is ``scale * F``
    (F on the half lattice, or a pair of them for a complex field): F times
    the centering sign, as the samples start at x = -L, and over the lattice
    transform's scale (2 pi)^(-n/2) h^n.  Nothing is transformed."""
    out = np.empty(F.shape, dtype=np.complex128)
    sign = _centering_sign(grid, _extent(grid, F), scale / _fwd_scale(grid))
    np.multiply(F, sign, out=out)
    return out


def _centering_sign(grid: Grid, J, scale: float) -> np.ndarray:
    """``scale`` times (-1)^(j_1 + ... + j_n) at lattice index j, on the box
    of extent ``J``, whose own lattice indices it takes, or on the half
    lattice for None (see :func:`_extent`): the factor by which the cyclic
    N/2 shift on every axis multiplies a spectrum.  Applied by
    :func:`_lattice_spectrum`, :func:`convolve` and :func:`forward_transform`
    only."""
    N = grid.samples_per_axis
    alternating = 1.0 - 2.0 * (np.arange(N) % 2)
    index = np.ix_(*map(np.arange, _half_shape(grid))) if J is None else _box(grid, J)
    sign = np.float64(scale)
    for i in index:
        sign = sign * alternating[i]
    return sign


def _hermitian_parts(grid: Grid, a: np.ndarray):
    """The half lattices [..., :N//2+1] of the Hermitian part
    (a(xi) + conj a(-xi)) / 2 and the anti-Hermitian part
    (a(xi) - conj a(-xi)) / 2 of the full-lattice FFT-order array ``a``.  The
    mirror -xi is index (-j) mod N on every axis; the modulus of either part
    is the same at xi and -xi, so the half lattice holds its maximum too.
    Its two readers are a psi-callable kernel's ``exp(-t psi)`` and
    :func:`inverse_transform`."""
    N = grid.samples_per_axis
    rev = -np.arange(N) % N
    mirror = np.conj(a[np.ix_(*([rev] * (grid.dim - 1)), rev[: N // 2 + 1])])
    half = a[..., : N // 2 + 1]
    return 0.5 * (half + mirror), 0.5 * (half - mirror)


def inverse_transform(grid: Grid, F: np.ndarray) -> SampledField:
    """The complex field f whose :func:`forward_transform` is the full-lattice
    ``F`` (exact discrete inverse), held as the pair (H, -iA): F's Hermitian
    part H transforms Re f and its anti-Hermitian part A transforms i Im f."""
    H, A = _hermitian_parts(grid, np.asarray(F))
    return _field(grid, _lattice_spectrum(grid, np.stack((H, -1j * A))))


def integrate(f: SampledField) -> float:
    """Rectangle-rule integral h^n * sum of values (real part).

    An imaginary residual above 1e-8 of the field scale signals a Fourier
    convention bug and raises.
    """
    total = f.grid.cell_volume * np.sum(f.values)
    # Scale guard keeps legitimate near-zero integrals (odd fields) passing;
    # a real field's total has no imaginary part, so it never builds |f|.
    if total.imag != 0:
        scale = max(abs(total.real), 1e-6 * f.grid.cell_volume * np.abs(f.values).sum())
        if abs(total.imag) > _IMAG_TOL * scale:
            raise ValueError(
                f"integral has imaginary residual {total.imag:.3e} "
                f"(result {total.real:.3e}); check transform conventions"
            )
    return float(total.real)


def convolve(f: SampledField, g: SampledField) -> SampledField:
    """Periodic convolution h^n sum_y f(x-y) g(y) via the FFT.

    Computed as F^-1((2 pi)^(n/2) Ff * Fg), which reproduces the discrete
    periodic convolution exactly (up to roundoff); the result is real when
    both fields are, and is held as its spectrum, on the smaller of the two
    spectra's boxes (see :func:`_box`).
    """
    grid = f.grid
    if grid != g.grid:
        raise ValueError("convolve requires matching grids (dim, N, L)")
    a, b = _on_smaller_box(grid, f.spectrum, g.spectrum)
    if a.ndim == b.ndim > f.grid.dim:
        # (u + iv) * (w + iz) = u*w - v*z + i (u*z + v*w), part by part
        prod = np.stack((a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]))
    else:
        prod = a * b  # a complex operand's pair broadcasts over the real one
    # the cyclic convolution of the samples, shifted by N/2 once because
    # both boxes start at -L; (2 pi)^(n/2) times both transform scales is h^n
    prod *= _centering_sign(grid, _extent(grid, prod), grid.cell_volume)
    return _field(grid, prod)


def spectral_derivative(f: SampledField, alpha) -> SampledField:
    """Partial derivative d^alpha f computed with the (i xi)^alpha multiplier.

    ``alpha`` is a multi-index (one integer order per axis); a bare integer is
    accepted in one dimension.  An order that is no integer, a bool among
    them, is refused.
    """
    alpha = (alpha,) if np.isscalar(alpha) else tuple(alpha)
    if len(alpha) != f.grid.dim or not all(_integral(a) and a >= 0 for a in alpha):
        raise ValueError(f"alpha must be {f.grid.dim} nonnegative orders, each an integer, "
                         f"got {alpha!r}")
    symbol = _derivative_symbol(f.grid, tuple(int(a) for a in alpha))
    return _field(f.grid, _product(f.grid, symbol, f.spectrum))


def _derivative_symbol(grid: Grid, alpha) -> np.ndarray:
    """The multiplier (i xi)^alpha of the partial derivative d^alpha on the
    half lattice: the product of one factor per differentiated axis, as a
    read-only view broadcast to the half lattice's shape.

    An odd order is zero at the Nyquist index N/2, where xi and -xi are one
    lattice point: the multiplier then stays Hermitian, so the derivative of
    a real field is real, and a mixed derivative is the single-axis ones
    applied in turn."""
    mult = np.ones((1,) * grid.dim)
    for axis, a in enumerate(alpha):
        if a:
            factor = (1j * grid.freq_axis()) ** a
            if a % 2:
                factor[grid.samples_per_axis // 2] = 0.0
            shape = [1] * grid.dim
            shape[axis] = grid.samples_per_axis
            mult = mult * factor.reshape(shape)
    return np.broadcast_to(mult[..., : grid.samples_per_axis // 2 + 1], _half_shape(grid))


# ---------------------------------------------------------------------------
# Serialization.  Every artifact of the package is written here, to
# ``<path>.tmp`` and then renamed over ``path``: complete or absent.


def _jsonable(x):
    """``x`` as written to JSON: an infinite float becomes "inf" or "-inf",
    since JSON has no infinity, also inside a dict; NaN is left for the
    writer to refuse."""
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _enc(x):
    # json.dumps calls this only for what it cannot encode itself, such as
    # np.int64; np.float64 is a float subclass and never gets here
    return _jsonable(x.item()) if isinstance(x, np.generic) else x


def _canonical(obj) -> str:
    # allow_nan=False: NaN and Infinity tokens are not JSON, so a non-finite
    # value that reaches an artifact is a validation error
    return json.dumps(obj, sort_keys=True, default=_enc, allow_nan=False)


def _write_file(path: str, parts) -> None:
    """Write the bytes ``parts`` to ``path`` via ``path.tmp``; a write that
    fails midway removes the tmp file and leaves ``path`` as it was."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(parts)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    os.replace(tmp, path)


def _write_json(path: str, obj) -> None:
    _write_file(path, ((_canonical(obj) + "\n").encode("ascii"),))


# Rows per formatted piece of a CSV, and samples per piece of a binary field
# written or read: large enough that the per-piece overhead vanishes, small
# enough that no piece nears the size of a field's text or bytes.  Formatting
# a CSV row takes about 400 bytes of work arrays, a binary sample 16, so the
# CSV pieces are the smaller.
_CSV_CHUNK = 8192
_BIN_CHUNK = 32768

# Magnitudes whose %.17g digits are computed below; smaller and larger ones,
# subnormals among them, would take the scaled products out of the normal
# float64 range.  _K_MIN.._K_MAX are the scales 10^k they need, one to spare.
_FAST_MIN, _FAST_MAX = 1e-270, 1e270
_K_MIN, _K_MAX = -256, 288
# The scaled value is exact to about 1e-14, so a fraction this far from 1/2
# decides its rounding; a closer one is formatted by ``%``.
_TIE_TOL = 1e-9

# The 44 candidate bytes of a formatted float: a sign, the "0.000" of a small
# fixed-notation value, 17 digits each followed by a possible point, then "e",
# the exponent's sign and three exponent digits.  A value keeps a subset.
_SLOT = np.frombuffer(b"-0.000" + b"0." * 16 + b"0e+000", np.uint8)
_DIGIT0, _EXP0 = 6, 39


@functools.cache
def _pow10():
    """``hi``, ``lo`` with ``hi + lo = 10^k`` to twice float64 precision, for
    k in _K_MIN.._K_MAX, both correctly rounded from Python integers."""
    his, los = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k >= 0:
            hi = float(10**k)
            lo = float(10**k - int(hi))
        else:
            p = 10**-k
            hi = 1 / p
            num, den = hi.as_integer_ratio()
            lo = (den - num * p) / (den * p)
        his.append(hi)
        los.append(lo)
    return _frozen(np.array(his), "powers of ten"), _frozen(np.array(los), "powers of ten")


@functools.cache
def _slot_keep():
    """The bytes of ``_SLOT`` a float keeps, one row per (layout, index of its
    last nonzero digit, sign bit).  Layout X + 4 is fixed notation with
    decimal exponent -4 <= X <= 16; 21 and 22 are exponent notation with two
    and three exponent digits."""
    keep = np.zeros((23, 17, 2, _SLOT.size), bool)
    keep[:, :, 1, 0] = True
    digits = _DIGIT0 + 2 * np.arange(17)
    for layout in range(23):
        x = layout - 4
        for last in range(17):
            row = keep[layout, last]
            row[:, digits[: last + 1]] = True
            if layout >= 21:
                row[:, _DIGIT0 + 1] = last > 0
                row[:, _EXP0:] = True
                row[:, _EXP0 + 2] = layout == 22
            elif x >= 0:
                row[:, digits[: x + 1]] = True  # the integer part keeps its zeros
                row[:, _DIGIT0 + 2 * x + 1] = last > x
            else:
                row[:, 1 : 2 - x] = True  # "0." and -X - 1 zeros
    keep = keep.reshape(-1, _SLOT.size)
    keep.setflags(write=False)  # cached: every caller shares it
    return keep


def _split(z):
    # Dekker's split of z into two halves of at most 26 significant bits
    t = z * 134217729.0
    hi = t - (t - z)
    return hi, z - hi


def _scaled(a, k):
    """The integer part and fraction of a * 10^k, exact to about 1e-14, for
    normal a > 0 and scales k in _K_MIN.._K_MAX."""
    his, los = _pow10()
    hi, lo = his[k - _K_MIN], los[k - _K_MIN]
    p = a * hi
    ah, al = _split(a)
    hh, hl = _split(hi)
    # a * hi = p + err exactly (Dekker's product); a * lo adds the tail of 10^k
    e = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    ip = np.floor(p)
    r = (p - ip) + e
    fr = np.floor(r)
    return ip.astype(np.int64) + fr.astype(np.int64), r - fr


def _digits(n, width: int):
    """The last ``width`` decimal digits of the non-negative int64s ``n``,
    most significant first, as ASCII bytes of shape (len(n), width)."""
    out = np.empty((n.size, width), np.uint8)
    for j in range(width - 1, -1, -1):
        q = n // 10  # floor_divide by a scalar is several times faster than divmod
        out[:, j] = n - 10 * q
        n = q
    return out + ord("0")


def _decimal(v):
    """The ``%.17g`` decimal form of the float64s ``v``: 17 correctly rounded
    digits as an int64 (0 for a zero), the decimal exponent, and a mask of
    the values this arithmetic does not cover, which ``%`` formats.  Among
    them are values next to a power of ten whose log10 misses the decimal
    exponent, and seventeen 9s, which might round up to 18 digits."""
    a = np.abs(v)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a = np.where(fast, a, 1.0)  # log10 and the split see no zero, inf or NaN
    x = np.floor(np.log10(a)).astype(np.int64)
    n, frac = _scaled(a, 16 - x)
    slow = ~fast & (v != 0)
    slow |= (np.abs(frac - 0.5) < _TIE_TOL) | (n < 10**16) | (n >= 10**17 - 1)
    n += frac > 0.5
    n[~fast] = 0  # a zero prints "0"; the slow values are formatted by %
    x[~fast] = 0
    return n, x, slow


def _format_floats(v, out, keep) -> None:
    """Lay the ``%.17g`` bytes of the float64s ``v`` into the rows of the
    (len(v), 44) ``out`` and mark them in ``keep``."""
    n, x, slow = _decimal(v)
    d = _digits(n, 17)
    last = np.where(n == 0, 0, 16 - np.argmax(d[:, ::-1] != ord("0"), axis=1))
    layout = np.where((x < -4) | (x >= 17), 21 + (np.abs(x) >= 100), x + 4)
    out[:] = _SLOT
    out[:, _DIGIT0:_EXP0:2] = d
    out[:, _EXP0 + 1] = np.where(x < 0, ord("-"), ord("+"))
    out[:, _EXP0 + 2 :] = _digits(np.abs(x), 3)
    np.take(_slot_keep(), (layout * 17 + last) * 2 + np.signbit(v), axis=0, out=keep)
    (slow,) = np.nonzero(slow)
    if slow.size:
        # each value left-justified in its 44-byte slot; %.17g prints no blank
        text = (b"%-44.17g" * slow.size) % tuple(v[slow].tolist())
        out[slow] = np.frombuffer(text, np.uint8).reshape(slow.size, _SLOT.size)
        keep[slow] = out[slow] != ord(" ")


def _format_ints(v, out, keep) -> None:
    """Lay the ``%d`` bytes of the int64s ``v`` into the rows of ``out``, a
    sign and then as many digits as the widest value has, and mark them in
    ``keep``."""
    width = out.shape[1] - 1
    a = np.abs(v)
    ndigits = np.searchsorted(10 ** np.arange(1, width, dtype=np.int64), a, side="right") + 1
    out[:, 0] = ord("-")
    out[:, 1:] = _digits(a, width)
    keep[:, 0] = v < 0
    keep[:, 1:] = np.arange(width) >= width - ndigits[:, None]


def _csv_rows(columns, start: int, stop: int) -> bytes:
    """The lines of rows ``start:stop`` of the CSV ``columns``: each a range,
    a float64 array, or the bytes of the one value all of its rows hold."""
    pieces = []  # bytes every row repeats, or (values, cell width, formatter)
    for j, c in enumerate(columns):
        pieces += [b","] if j else []
        if isinstance(c, range):
            r = c[start:stop]
            c = (np.arange(r.start, r.stop, r.step, dtype=np.int64),
                 1 + len(str(max(abs(r[0]), abs(r[-1])))), _format_ints)
        elif not isinstance(c, bytes):
            c = (c[start:stop], _SLOT.size, _format_floats)
        pieces.append(c)
    pieces.append(b"\n")
    widths = [len(p) if isinstance(p, bytes) else p[1] for p in pieces]
    out = np.empty((stop - start, sum(widths)), np.uint8)
    keep = np.empty(out.shape, bool)
    edges = np.cumsum([0] + widths)
    for p, lo, hi in zip(pieces, edges[:-1], edges[1:]):
        if isinstance(p, bytes):
            out[:, lo:hi] = np.frombuffer(p, np.uint8)
            keep[:, lo:hi] = True
        else:
            p[2](p[0], out[:, lo:hi], keep[:, lo:hi])
    # compress over a flat mask is several times faster than boolean indexing
    return np.compress(keep.ravel(), out).tobytes()


def _write_csv(path: str, header, columns) -> None:
    """Write the column names ``header`` and then one line per row of the
    equal-length ``columns`` (arrays, lists or ranges): a range column's
    values are printed ``%d`` and every other value byte for byte as
    ``%.17g`` would print it.  A ``bytes`` column is the cell that every one
    of its rows holds.

    The bytes are computed with numpy, ``_CSV_CHUNK`` rows at a time, into
    one byte matrix per chunk: each value's 17 correctly rounded digits come
    from a double-double product x * 10^k, and a mask keeps the sign, digits,
    point and exponent ``%g`` shows.  Values the digit arithmetic does not
    cover (non-finite, subnormal, beyond 1e+-270, within 1e-9 of a rounding
    tie, with a log10 that misses the decimal exponent, or with seventeen 9s
    that would round up) are formatted one at a time by ``%``."""
    sized = [c for c in columns if not isinstance(c, bytes)]
    n = len(sized[0])
    if any(len(c) != n for c in sized):
        raise ValueError("CSV columns differ in length")
    if len(header) != len(columns):
        raise ValueError(f"CSV header names {len(header)} columns, not {len(columns)}")
    cols = [c if isinstance(c, (range, bytes)) else np.asarray(c, dtype=np.float64)
            for c in columns]

    def chunks():
        yield (",".join(header) + "\n").encode()
        for start in range(0, n, _CSV_CHUNK):
            yield _csv_rows(cols, start, min(start + _CSV_CHUNK, n))

    _write_file(path, chunks())


def save_field(fld: SampledField, basepath: str, fmt: str = "binary") -> None:
    """Write a field as ``basepath`` + data file and ``basepath.json`` sidecar,
    each complete or absent.

    Binary round-trips exactly; CSV stores 17 significant decimal digits,
    which also round-trips float64 exactly.
    """
    if fmt not in ("binary", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    v = fld.values.ravel()
    if fmt == "binary":
        # _BIN_CHUNK samples a piece: no copy of the whole field as <c16
        _write_file(basepath + ".bin", (v[i:i + _BIN_CHUNK].astype("<c16")
                                        for i in range(0, v.size, _BIN_CHUNK)))
    else:
        # a real field's imaginary parts are one cell, "0", with no array of them
        im = v.imag if np.iscomplexobj(v) else b"0"
        _write_csv(basepath + ".csv", ("index", "re", "im"), (range(v.size), v.real, im))
    _write_json(basepath + ".json", {
        "dim": fld.grid.dim,
        "N": fld.grid.samples_per_axis,
        "L": fld.grid.half_width,
        "domain_tag": "space",
        "format": fmt,
    })


def _read_samples(path: str, size: int) -> np.ndarray:
    """The ``size`` ``<c16`` samples of a binary field file, read
    ``_BIN_CHUNK`` at a time into one float64 array while every imaginary
    part is zero, and read again whole as complex128 once one is not."""
    vals = np.empty(size)
    piece = np.empty(min(size, _BIN_CHUNK), dtype="<c16")
    with open(path, "rb") as fh:
        for i in range(0, size, _BIN_CHUNK):
            chunk = piece[: min(_BIN_CHUNK, size - i)]
            if fh.readinto(chunk) != chunk.nbytes:
                raise ValueError(f"{path} ends before its {size} samples")
            if chunk.imag.any():
                return np.fromfile(path, dtype="<c16").astype(np.complex128, copy=False)
            vals[i : i + chunk.size] = chunk.real
    return vals


def load_field(basepath: str) -> SampledField:
    """Read a field written by :func:`save_field`; a sidecar that declares
    anything but space samples is refused.  A field whose stored imaginary
    parts are all zero loads as a real (float64) field."""
    with open(basepath + ".json") as fh:
        meta = json.load(fh)
    tag = meta.get("domain_tag") if isinstance(meta, dict) else None
    if tag != "space":
        raise ValueError(f"field sidecar declares domain_tag {tag!r}, not 'space' samples")
    for key in ("dim", "N", "L", "format"):
        if meta.get(key) is None:
            raise ValueError(f"field sidecar lacks {key!r}")
    if meta["format"] not in ("binary", "csv"):
        raise ValueError(f"field sidecar format {meta['format']!r} is not 'binary' or 'csv'")
    # Grid applies these rules too, but names its own fields, not the keys
    for key, ok, kind in (("dim", _integral, "an integer"), ("N", _integral, "an integer"),
                          ("L", _finite_real, "a finite real number")):
        if not ok(meta[key]):
            raise ValueError(f"field sidecar {key!r} {meta[key]!r} is not {kind}")
    grid = make_grid(meta["dim"], meta["N"], meta["L"])
    if meta["format"] == "binary":
        # refused before any read: a reader stops at the samples it expects
        # and would drop stray trailing bytes
        want, got = 16 * math.prod(grid.shape), os.path.getsize(basepath + ".bin")
        if got != want:
            raise ValueError(
                f"{basepath}.bin holds {got} bytes, not the {want} of grid {grid.shape}")
        return _sampled(grid, _read_samples(basepath + ".bin", math.prod(grid.shape)))
    with warnings.catch_warnings():
        # a file without data rows is refused below, like a short row
        warnings.simplefilter("ignore", UserWarning)
        raw = np.loadtxt(basepath + ".csv", delimiter=",", skiprows=1, ndmin=2)
    if raw.shape[1] != 3:
        raise ValueError(f"{basepath}.csv does not hold rows of three columns index,re,im")
    # a row out of place would load as a silently permuted field
    if not np.array_equal(raw[:, 0], np.arange(len(raw))):
        raise ValueError(f"{basepath}.csv index column is not 0..{len(raw) - 1} in order")
    # a real field's all-zero imaginary column builds no complex array
    vals = raw[:, 1] + 1j * raw[:, 2] if raw[:, 2].any() else raw[:, 1]
    if vals.size != np.prod(grid.shape):
        raise ValueError(f"data size {vals.size} does not match grid {grid.shape}")
    return SampledField(grid, vals.reshape(grid.shape))
