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

import json
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
]

# Imaginary mass larger than this fraction of the field scale flags a
# convention bug rather than harmless roundoff.
_IMAG_TOL = 1e-8


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
        if n not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {n}")
        if N < 64 or (N & (N - 1)) != 0:
            raise ValueError(f"samples_per_axis must be a power of two >= 64, got {N}")
        if not (L > 0):
            raise ValueError(f"half_width must be positive, got {L}")

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
        """|xi| on the full frequency lattice."""
        mesh = self.freq_mesh()
        return np.sqrt(sum(m.astype(float) ** 2 for m in mesh))


@dataclass
class SampledField:
    """A complex-valued function sampled on a periodic grid: the values
    f(x_j) at the lattice points x_j = -L + j h.

    Values must have the grid's shape or be flat in its order; they are
    validated finite and frozen (read-only) at construction.  Spectra never
    take this form: :func:`forward_transform` returns a plain lattice array.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != self.grid.shape:
            # reshaping any other shape of the right size would scramble it
            if v.ndim != 1 or v.size != np.prod(self.grid.shape):
                raise ValueError(
                    f"values of shape {v.shape} do not fit grid shape {self.grid.shape}"
                )
            v = v.reshape(self.grid.shape)
        if not np.all(np.isfinite(v.view(np.float64))):
            raise ValueError("field contains non-finite values")
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        self.values = v


def make_grid(dim: int, samples_per_axis: int, half_width: float) -> Grid:
    """Construct a validated periodic grid (see :class:`Grid`)."""
    return Grid(dim=int(dim), samples_per_axis=int(samples_per_axis),
                half_width=float(half_width))


def sample(expr, grid: Grid) -> SampledField:
    """Sample a pointwise function on the grid lattice.

    ``expr`` receives one dense coordinate array per axis and must evaluate
    vectorized.  Non-finite evaluations raise, naming the offending lattice
    point.
    """
    mesh = grid.coord_mesh()
    vals = np.asarray(expr(*mesh), dtype=np.complex128)
    vals = np.broadcast_to(vals, grid.shape)
    bad = ~np.isfinite(vals.view(np.float64).reshape(grid.shape + (2,))).all(axis=-1)
    if bad.any():
        idx = tuple(np.argwhere(bad)[0])
        point = tuple(float(m[idx]) for m in mesh)
        raise ValueError(f"expression evaluated non-finite at lattice point x={point}")
    return SampledField(grid, vals)


def _fwd_scale(grid: Grid) -> float:
    return (2.0 * np.pi) ** (-grid.dim / 2.0) * grid.cell_volume


def forward_transform(f: SampledField) -> np.ndarray:
    """Discrete unitary Fourier transform of a field, as a lattice array in
    FFT order.

    The coefficient at lattice frequency xi_j equals
    (2 pi)^(-n/2) h^n sum_x e^(-i x.xi_j) f(x).
    """
    return _fwd_scale(f.grid) * np.fft.fftn(np.fft.ifftshift(f.values))


def _synthesize(grid: Grid, spec: np.ndarray) -> np.ndarray:
    """Space samples of the lattice spectrum ``spec``: the package's only
    inverse FFT, exactly inverting :func:`forward_transform`."""
    return np.fft.fftshift(np.fft.ifftn(spec)) / _fwd_scale(grid)


def _multiplied(f: SampledField, multipliers):
    """Yield the space samples of F^-1(m * Ff) for each multiplier m in turn,
    sharing one forward transform of ``f``.  Multipliers are lattice arrays
    in FFT order (or broadcastable to one)."""
    F = forward_transform(f)
    for m in multipliers:
        yield _synthesize(f.grid, m * F)


def inverse_transform(grid: Grid, F: np.ndarray) -> SampledField:
    """The field whose :func:`forward_transform` is the lattice array ``F``
    (exact discrete inverse)."""
    return SampledField(grid, _synthesize(grid, F))


def integrate(f: SampledField) -> float:
    """Rectangle-rule integral h^n * sum of values (real part).

    An imaginary residual above 1e-8 of the field scale signals a Fourier
    convention bug and raises.
    """
    total = f.grid.cell_volume * np.sum(f.values)
    # Scale guard keeps legitimate near-zero integrals (odd fields) passing.
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
    periodic convolution exactly (up to roundoff).
    """
    if f.grid != g.grid:
        raise ValueError("convolve requires matching grids (dim, N, L)")
    prod = (2.0 * np.pi) ** (f.grid.dim / 2.0) * forward_transform(f) * forward_transform(g)
    return SampledField(f.grid, _synthesize(f.grid, prod))


def spectral_derivative(f: SampledField, alpha) -> SampledField:
    """Partial derivative d^alpha f computed with the (i xi)^alpha multiplier.

    ``alpha`` is a multi-index (one integer order per axis); a bare integer is
    accepted in one dimension.
    """
    if np.isscalar(alpha):
        alpha = (int(alpha),)
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != f.grid.dim or any(a < 0 for a in alpha):
        raise ValueError(f"alpha must be {f.grid.dim} nonnegative orders, got {alpha}")
    return SampledField(f.grid, next(_multiplied(f, [_derivative_symbol(f.grid, alpha)])))


def _derivative_symbol(grid: Grid, alpha: tuple) -> np.ndarray:
    """The multiplier (i xi)^alpha of the partial derivative d^alpha."""
    mult = np.ones(grid.shape, dtype=np.complex128)
    for ax_mesh, a in zip(grid.freq_mesh(), alpha):
        if a:
            mult = mult * (1j * ax_mesh) ** a
    return mult


# ---------------------------------------------------------------------------
# Serialization: flat binary or CSV (index, re, im) plus a JSON sidecar.


def save_field(fld: SampledField, basepath: str, fmt: str = "binary") -> None:
    """Write a field as ``basepath`` + data file and ``basepath.json`` sidecar.

    Binary round-trips exactly; CSV stores 17 significant decimal digits,
    which also round-trips float64 exactly.
    """
    if fmt not in ("binary", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    sidecar = {
        "dim": fld.grid.dim,
        "N": fld.grid.samples_per_axis,
        "L": fld.grid.half_width,
        "domain_tag": "space",
        "format": fmt,
    }
    if fmt == "binary":
        data_path = basepath + ".bin"
        fld.values.astype("<c16").tofile(data_path)
    else:
        data_path = basepath + ".csv"
        flat = fld.values.ravel()
        rows = enumerate(zip(flat.real.tolist(), flat.imag.tolist()))
        with open(data_path, "w") as fh:
            fh.write("index,re,im\n")
            fh.write("".join(f"{i},{re:.17g},{im:.17g}\n" for i, (re, im) in rows))
    with open(basepath + ".json", "w") as fh:
        json.dump(sidecar, fh, sort_keys=True)
        fh.write("\n")


def load_field(basepath: str) -> SampledField:
    """Read a field written by :func:`save_field`; a sidecar that declares
    anything but space samples is refused."""
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
    grid = make_grid(meta["dim"], meta["N"], meta["L"])
    if meta["format"] == "binary":
        vals = np.fromfile(basepath + ".bin", dtype="<c16")
    else:
        raw = np.loadtxt(basepath + ".csv", delimiter=",", skiprows=1)
        raw = np.atleast_2d(raw)
        vals = raw[:, 1] + 1j * raw[:, 2]
    if vals.size != np.prod(grid.shape):
        raise ValueError(f"data size {vals.size} does not match grid {grid.shape}")
    return SampledField(grid, vals.reshape(grid.shape))
