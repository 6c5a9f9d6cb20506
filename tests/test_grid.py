import copy
import gc
import importlib
import json
import pickle
import threading
import tracemalloc

import numpy as np
import pytest

from lplab import (
    Grid,
    KernelFamily,
    SampledField,
    apply_block,
    apply_semigroup,
    build_resolution,
    char_exponent,
    convolve,
    forward_transform,
    integrate,
    inverse_transform,
    load_field,
    lp_norm,
    make_grid,
    sample,
    save_field,
    spectral_derivative,
    spectral_kernel,
    stable_exponent,
)
from lplab import grid as grid_module
from lplab.grid import _field, _fwd_scale
from lplab.littlewood_paley import DyadicResolution, block_l2_norms, block_spectra
from lplab.norms import INF, SpaceParams, besov_norm, resolution_l1_bound, triebel_norm
from lplab.verifier import CorpusSpec, generate_corpus, smoothing_sweep


def gaussian_density(grid, var=2.0):
    return sample(lambda x: (2 * np.pi * var) ** -0.5 * np.exp(-(x**2) / (2 * var)), grid)


def random_band_limited(grid, seed, band=10.0):
    rng = np.random.default_rng(seed)
    x = grid.axis_coords()
    jmax = int(band * grid.half_width / np.pi)
    a = rng.standard_normal(jmax + 1)
    b = rng.standard_normal(jmax + 1)
    vals = a[0] * np.ones_like(x)
    for j in range(1, jmax + 1):
        vals += a[j] * np.cos(np.pi * j * x / grid.half_width)
        vals += b[j] * np.sin(np.pi * j * x / grid.half_width)
    return SampledField(grid, vals)


def test_make_grid_derived_quantities():
    g = make_grid(1, 256, 20.0)
    assert g.spacing == 0.15625
    assert abs(g.nyquist - 20.106192982974676) < 1e-12
    g2 = make_grid(2, 64, 10.0)
    xi = g2.freq_axis()
    assert abs(xi[1] - np.pi / 10.0) < 1e-15
    assert g2.shape == (64, 64)


@pytest.mark.parametrize(
    "dim,n,L",
    [(1, 100, 10.0), (1, 4096, -1.0), (0, 256, 10.0), (4, 64, 10.0), (1, 32, 10.0),
     # truncated or cast, each of these would stand for some other grid
     pytest.param(1.9, 64, 2.0, id="fractional-dim"),
     pytest.param(1, 64.7, 2.0, id="fractional-N"),
     pytest.param(1, np.float64(64.5), 2.0, id="fractional-numpy-N"),
     pytest.param(True, 64, 2.0, id="bool-dim"),
     pytest.param(1, 64, True, id="bool-L"),
     pytest.param("1", 64, 2.0, id="string-dim"),
     pytest.param(1, "64", 2.0, id="string-N"),
     pytest.param(1, 64, "2", id="string-L"),
     pytest.param(1, 64, 10**400, id="int-L-beyond-float"),
     pytest.param(1, None, 2.0, id="null-N")],
)
def test_make_grid_rejects_bad_input(dim, n, L):
    with pytest.raises(ValueError):
        make_grid(dim, n, L)
    with pytest.raises(ValueError):
        Grid(dim, n, L)


def test_grid_takes_integral_values_of_any_number_type():
    want = make_grid(2, 64, 2.0)
    for dim, n, L in [(2.0, 64.0, 2), (np.int64(2), np.int32(64), np.float64(2.0))]:
        for g in (make_grid(dim, n, L), Grid(dim, n, L)):
            assert g == want and g.shape == (64, 64)
            assert [type(v) for v in (g.dim, g.samples_per_axis, g.half_width)] == [int, int, float]


@pytest.mark.parametrize("L", [np.inf, np.nan])
def test_make_grid_refuses_non_finite_half_width(L):
    with pytest.raises(ValueError, match="half_width"):
        make_grid(1, 64, L)


def test_grid_composability():
    assert make_grid(1, 256, 20.0) == make_grid(1, 256, 20.0)
    assert make_grid(1, 256, 20.0) != make_grid(1, 512, 20.0)
    with pytest.raises(ValueError):
        convolve(gaussian_density(make_grid(1, 256, 20.0)),
                 gaussian_density(make_grid(1, 512, 20.0)))


def test_sample_unit_gaussian_mass(grid_1d):
    f = sample(lambda x: (4 * np.pi) ** -0.5 * np.exp(-(x**2) / 4.0), grid_1d)
    assert abs(integrate(f) - 1.0) < 1e-12


def test_sample_zero_and_bump(grid_1d):
    z = sample(lambda x: np.zeros_like(x), grid_1d)
    assert np.all(z.values == 0)

    def bump(x):
        out = np.zeros_like(x)
        inside = np.abs(x) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - x[inside] ** 2))
        return out

    f = sample(bump, grid_1d)
    assert np.all(np.isfinite(f.values.view(np.float64)))
    x = grid_1d.axis_coords()
    assert np.all(f.values[np.abs(x) >= 1.0] == 0)


def test_sample_nonfinite_names_point():
    g = make_grid(1, 256, 20.0)
    with pytest.raises(ValueError, match="lattice point"):
        with np.errstate(divide="ignore"):
            sample(lambda x: 1.0 / x, g)  # pole at the lattice point x = 0


def test_gaussian_is_transform_fixed_point(grid_1d):
    f = sample(lambda x: np.exp(-(x**2) / 2.0), grid_1d)
    F = forward_transform(f)
    xi = grid_1d.freq_axis()
    assert np.abs(F - np.exp(-(xi**2) / 2.0)).max() < 1e-10


def test_discrete_delta_has_flat_spectrum(grid_1d):
    vals = np.zeros(grid_1d.shape)
    vals[grid_1d.samples_per_axis // 2] = 1.0 / grid_1d.spacing  # x = 0
    F = forward_transform(SampledField(grid_1d, vals))
    assert np.abs(F - (2 * np.pi) ** -0.5).max() < 1e-10


def test_transform_round_trip(grid_1d):
    for seed in range(5):
        f = random_band_limited(grid_1d, seed)
        back = inverse_transform(grid_1d, forward_transform(f))
        scale = np.abs(f.values).max()
        assert np.abs(back.values - f.values).max() < 1e-12 * scale


def test_hermitian_symmetry_of_real_fields(grid_1d):
    f = random_band_limited(grid_1d, 11)
    F = forward_transform(f)
    flipped = np.conj(F[(-np.arange(F.size)) % F.size])
    assert np.abs(F - flipped).max() < 1e-12 * np.abs(F).max()


def test_integrate_zero_field(grid_1d):
    assert integrate(sample(lambda x: np.zeros_like(x), grid_1d)) == 0.0


def test_integrate_cauchy_documents_tail_truncation():
    # heavy tails: the analytic integral is 1 and the box carries a tail-mass
    # deficit of 2/(pi L) + O(L^-3), which is what the quadrature reports
    g = make_grid(1, 2**15, 200.0)
    f = sample(lambda x: 1.0 / (np.pi * (x**2 + 1.0)), g)
    mass = integrate(f)
    tail = 2.0 / (np.pi * g.half_width)
    assert abs(mass - 1.0) < 2 * tail
    assert abs((1.0 - mass) - tail) < 0.01 * tail
    analytic_box_mass = (2.0 / np.pi) * np.arctan(g.half_width)
    assert abs(mass - analytic_box_mass) < 1e-9


def test_integrate_flags_imaginary_mass(grid_1d):
    f = sample(lambda x: 1j * np.exp(-(x**2)), grid_1d)
    with pytest.raises(ValueError, match="imaginary"):
        integrate(f)


def test_integrate_builds_no_field_sized_temporary_for_a_real_field():
    f = SampledField(make_grid(3, 64, 5.0), np.random.default_rng(8).standard_normal((64,) * 3))
    total, peak = _peak_above_held(lambda: integrate(f))
    assert total == float(f.grid.cell_volume * np.sum(f.values))
    # a real total has no imaginary part to guard; its |f| was a 2 MiB array
    assert peak < 2**18


def test_convolution_of_gaussian_densities(grid_1d):
    f = gaussian_density(grid_1d, var=1.0)
    conv = convolve(f, f)
    target = gaussian_density(grid_1d, var=2.0)
    assert np.abs(conv.values - target.values).max() < 1e-10


def test_delta_is_convolution_identity(grid_1d):
    vals = np.zeros(grid_1d.shape)
    vals[grid_1d.samples_per_axis // 2] = 1.0 / grid_1d.spacing
    delta = SampledField(grid_1d, vals)
    f = random_band_limited(grid_1d, 3)
    conv = convolve(f, delta)
    assert np.abs(conv.values - f.values).max() < 1e-12 * np.abs(f.values).max()


def test_youngs_inequality_l1():
    g = make_grid(1, 1024, 20.0)
    rng = np.random.default_rng(42)
    for _ in range(50):
        f = SampledField(g, rng.random(g.shape))
        h = SampledField(g, rng.random(g.shape))
        assert lp_norm(convolve(f, h), 1) <= lp_norm(f, 1) * lp_norm(h, 1) + 1e-12


def test_convolution_commutes(grid_1d):
    f = random_band_limited(grid_1d, 5)
    g = random_band_limited(grid_1d, 6)
    fg = convolve(f, g)
    gf = convolve(g, f)
    assert np.abs(fg.values - gf.values).max() <= 1e-12 * np.abs(fg.values).max()


def test_plancherel(grid_1d):
    for seed in range(3):
        f = random_band_limited(grid_1d, seed)
        F = forward_transform(f)
        space = lp_norm(f, 2)
        freq = np.sqrt((np.pi / grid_1d.half_width) * np.sum(np.abs(F) ** 2))
        assert abs(space - freq) < 1e-12 * space


def test_quadrature_exactness(grid_1d):
    L = grid_1d.half_width
    for j in (1, 7, 100):
        f = sample(lambda x, j=j: np.cos(np.pi * j * x / L), grid_1d)
        assert abs(integrate(f)) < 1e-10 * (2 * L)
    const = sample(lambda x: np.ones_like(x), grid_1d)
    assert abs(integrate(const) - 2 * L) < 1e-10 * (2 * L)


def test_spectral_derivative_gaussian(grid_1d):
    f = sample(lambda x: np.exp(-(x**2) / 2.0), grid_1d)
    d = spectral_derivative(f, 1)
    target = sample(lambda x: -x * np.exp(-(x**2) / 2.0), grid_1d)
    assert np.abs(d.values - target.values).max() < 1e-10


def test_spectral_derivative_2d_mixed(grid_2d):
    f = sample(lambda x, y: np.exp(-(x**2 + y**2) / 2.0), grid_2d)
    d = spectral_derivative(f, (1, 1))
    target = sample(lambda x, y: x * y * np.exp(-(x**2 + y**2) / 2.0), grid_2d)
    assert np.abs(d.values - target.values).max() < 1e-9


@pytest.mark.parametrize("alpha", [1, (1, 0, 0), (1, -1), (1.5, 0), (True, 0), (0, 2.0000001)],
                         ids=["too-few", "too-many", "negative", "fractional", "bool",
                              "near-integer"])
def test_spectral_derivative_refuses_bad_multi_index(grid_2d, alpha):
    f = sample(lambda x, y: np.exp(-(x**2 + y**2) / 2.0), grid_2d)
    with pytest.raises(ValueError, match="alpha must be 2 nonnegative orders"):
        spectral_derivative(f, alpha)


def test_odd_derivative_is_zero_at_nyquist_for_complex_fields():
    # xi and -xi are one lattice point at index N/2, so an odd order has no
    # sign to give it: the multiplier is 0 there, for complex fields too
    g = make_grid(2, 64, 5.0)
    rng = np.random.default_rng(3)
    f = SampledField(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    F, D = forward_transform(f), forward_transform(spectral_derivative(f, (1, 0)))
    nyq = g.samples_per_axis // 2
    scale = np.abs(F).max()
    assert np.abs(D[nyq, :]).max() < 1e-11 * scale
    xi = g.freq_axis()[:, None]
    rest = np.arange(g.samples_per_axis) != nyq
    assert np.abs(D - 1j * xi * F)[rest].max() < 1e-11 * scale


def test_field_copies_the_callers_array():
    g = make_grid(2, 64, 5.0)
    for given in (np.zeros(g.shape), np.zeros(g.shape, dtype=complex), np.zeros(64 * 64)):
        f = SampledField(g, given)
        given[0] = 1.0  # the caller's array stays writable
        assert not f.values.any()
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0


def test_field_rejects_nonfinite(grid_1d):
    vals = np.zeros(grid_1d.shape)
    vals[3] = np.nan
    with pytest.raises(ValueError):
        SampledField(grid_1d, vals)


def test_field_accepts_grid_shape_or_flat_only():
    g = make_grid(2, 64, 5.0)
    vals = np.arange(64 * 64, dtype=float)
    assert np.array_equal(SampledField(g, vals).values, vals.reshape(64, 64))
    assert np.array_equal(SampledField(g, vals.reshape(64, 64)).values.ravel(), vals)
    for shape in [(32, 128), (64, 64, 1), (4096, 1)]:
        with pytest.raises(ValueError, match="do not fit grid shape"):
            SampledField(g, vals.reshape(shape))
    with pytest.raises(ValueError, match="do not fit grid shape"):
        SampledField(g, vals[:-1])


def test_field_values_immutable(grid_1d):
    f = gaussian_density(grid_1d)
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_field_spectrum_and_samples_are_read_only(grid_2d):
    rng = np.random.default_rng(1)
    from_samples = SampledField(grid_2d, rng.standard_normal(grid_2d.shape))
    from_spectrum = convolve(from_samples, from_samples)
    for f in (from_samples, from_spectrum):
        for arr in (f.values, f.spectrum):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 1.0


def test_field_refuses_non_finite_spectrum(grid_2d):
    spec = np.array(SampledField(grid_2d, np.ones(grid_2d.shape)).spectrum)
    spec[3, 4] = np.nan
    with pytest.raises(ValueError, match="spectrum contains non-finite"):
        _field(grid_2d, spec)
    with pytest.raises(ValueError, match="fits neither lattice"):
        _field(grid_2d, spec[:, :-1])
    # a half-lattice spectrum is a real field's: its samples are real and grid-shaped
    half = SampledField(grid_2d, np.ones(grid_2d.shape)).spectrum
    for values in (np.ones(grid_2d.shape, dtype=complex), np.ones(grid_2d.shape[0])):
        with pytest.raises(ValueError, match="samples do not match"):
            _field(grid_2d, np.array(half), values)


def test_field_of_a_spectrum_matches_its_samples(grid_2d):
    rng = np.random.default_rng(2)
    for vals in (rng.standard_normal(grid_2d.shape),
                 rng.standard_normal(grid_2d.shape) + 1j * rng.standard_normal(grid_2d.shape)):
        f = SampledField(grid_2d, vals)
        g = _field(grid_2d, np.array(f.spectrum))
        assert g.dtype == f.dtype
        assert np.abs(g.values - vals).max() <= 1e-14 * np.abs(vals).max()


def test_field_copies_and_pickles_in_either_form(grid_2d):
    def copies(g):
        return [copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))]

    f = SampledField(grid_2d, np.random.default_rng(4).standard_normal(grid_2d.shape))
    # samples only: a copy holds no spectrum until one is read
    fresh = copies(f)
    assert f._lattice is None and all(h._lattice is None for h in fresh)
    g = convolve(f, f)  # held as its spectrum; f now holds both forms
    cases = [(f, fresh), (g, copies(g)), (f, copies(f))]
    assert g._samples is None and f._lattice is not None
    for orig, made in cases:
        for h in made:
            assert np.array_equal(h.values, orig.values)
            assert np.array_equal(h.spectrum, orig.spectrum)


@pytest.mark.parametrize("module", ["kernels", "norms", "verifier", "littlewood_paley"])
def test_only_grid_applies_the_lattice_transform_convention(module):
    # the centering sign and the transform scale are grid.py's alone
    names = {"_fwd_scale", "_centering_sign", "_shifted", "_times"}
    assert not names & set(vars(importlib.import_module("lplab." + module)))


def test_concurrent_reads_share_one_fill(grid_2d):
    f = _field(grid_2d, SampledField(grid_2d, np.ones(grid_2d.shape)).spectrum.copy())
    seen = []
    start = threading.Barrier(4)

    def read():
        start.wait()
        seen.append(f.values)

    threads = [threading.Thread(target=read) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(v is seen[0] for v in seen)


class _FFTCounter:
    """Counts the transforms made while it is installed: forward transforms,
    inverse transforms and shifts apart.  A lattice transform, ``grid._fft``
    or ``grid._ifft``, counts once, named "rfftn" or "irfftn" after the numpy
    transform it computes, however many one-axis passes it runs; a numpy.fft
    call counts when no lattice transform makes it.  ``calls`` lists each
    counted call's name and the shape of the array it transforms, in order."""

    FORWARD = ("fft", "rfft", "fft2", "rfft2", "fftn", "rfftn")
    INVERSE = ("ifft", "irfft", "ifft2", "irfft2", "ifftn", "irfftn")
    SHIFT = ("fftshift", "ifftshift")

    def __init__(self, monkeypatch):
        self.forward = self.inverse = self.shift = 0
        self.calls = []
        self._depth = 0  # lattice transforms under way
        for kind, names in (("forward", self.FORWARD), ("inverse", self.INVERSE),
                            ("shift", self.SHIFT)):
            for name in names:
                monkeypatch.setattr(np.fft, name,
                                    self._counted(kind, name, getattr(np.fft, name)))
        monkeypatch.setattr(grid_module, "_fft", self._lattice(
            "forward", "rfftn", grid_module._fft, lambda x: x))
        monkeypatch.setattr(grid_module, "_ifft", self._lattice(
            "inverse", "irfftn", grid_module._ifft, lambda grid, spec: spec))

    def _count(self, kind, name, a):
        setattr(self, kind, getattr(self, kind) + 1)
        self.calls.append((name, np.shape(a)))

    def _counted(self, kind, name, fn):
        def counted(a, *args, **kwargs):
            if not self._depth:
                self._count(kind, name, a)
            return fn(a, *args, **kwargs)
        return counted

    def _lattice(self, kind, name, fn, transformed):
        def counted(*args, **kwargs):
            self._count(kind, name, transformed(*args))
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
        return counted


@pytest.mark.parametrize("family", ["gaussian_mix", "band_limited_random",
                                    "mollified_step", "oscillatory_packet"])
def test_corpus_field_takes_one_batched_1d_fft_and_its_mass_synthesis(monkeypatch, family):
    grid = make_grid(3, 64, 4.0)
    spec = CorpusSpec(seed=2, count=3, families=(family,), band_limit=4.0)
    counter = _FFTCounter(monkeypatch)
    corpus = generate_corpus(spec, grid)
    # per field: the 1-D spectra of its (terms, dim, N) axis factors in one
    # call (none for a coefficient block), and the irfftn of its L1 mass,
    # from the band's box (J = floor(band L / pi) = 5); no transform of an
    # N^n array
    per_field = [] if family == "band_limited_random" else ["fft"]
    assert [name for name, _ in counter.calls] == (per_field + ["irfftn"]) * spec.count
    assert all(shape[1:] == (3, 64) for name, shape in counter.calls if name == "fft")
    assert all(shape == (11, 11, 6) for name, shape in counter.calls if name == "irfftn")
    assert all(f.dtype == np.float64 for f in corpus)


def test_smoothing_sweep_transforms_no_field_twice(monkeypatch):
    grid = make_grid(3, 64, 4.0)
    res = build_resolution(grid)
    fam = KernelFamily(stable_exponent(2.0, 3), grid)
    f = generate_corpus(CorpusSpec(seed=0, count=1, families=("mollified_step",),
                                   band_limit=4.0), grid)[0]
    ts = [0.25, 0.5, 1.0, 2.0]
    counter = _FFTCounter(monkeypatch)
    smoothing_sweep(fam, f, SpaceParams("F", 0.0, 2.0, 2.0), 1.0, ts, res)
    # the F(2,2) norm takes no inverse transform and the B(1,inf) kernel norm
    # one per block; kernels and convolutions are built from their spectra
    assert counter.forward == 0
    assert counter.inverse == len(ts) * (res.k_max + 1)


def test_norm_of_a_convolution_takes_no_forward_transform(monkeypatch, grid_2d):
    rng = np.random.default_rng(3)
    res = build_resolution(grid_2d)
    f, g = (SampledField(grid_2d, rng.standard_normal(grid_2d.shape)) for _ in range(2))
    _ = f.spectrum, g.spectrum  # each field's one forward transform, not counted
    counter = _FFTCounter(monkeypatch)
    h = convolve(f, g)
    besov_norm(h, res, SpaceParams("B", 0.5, 1.0, INF))
    triebel_norm(h, res, SpaceParams("F", 0.5, 2.0, 2.0))
    assert counter.forward == 0
    assert counter.inverse == res.k_max + 1


# A complex field u + iv is held as the half spectra of u and v, and every
# operation acts on the two parts: each result must be the one on u and v,
# recombined.
@pytest.mark.parametrize("dim, N, L", [(1, 256, 10.0), (2, 64, 6.0), (3, 64, 4.0)])
def test_complex_field_operations_act_on_each_part(dim, N, L):
    grid = make_grid(dim, N, L)
    rng = np.random.default_rng(dim)
    u, v, w, z, r = (SampledField(grid, rng.standard_normal(grid.shape)) for _ in range(5))
    f, g = (SampledField(grid, a.values + 1j * b.values) for a, b in ((u, v), (w, z)))

    def assert_parts(op, a, b, got):
        want = op(a) + 1j * op(b)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def conv(a, b):
        return convolve(a, b).values

    want = conv(u, w) - conv(v, z) + 1j * (conv(u, z) + conv(v, w))
    assert np.abs(conv(f, g) - want).max() <= 1e-14 * np.abs(want).max()
    assert_parts(lambda a: conv(a, r), u, v, conv(f, r))
    assert_parts(lambda a: conv(r, a), u, v, conv(r, f))
    res = build_resolution(grid)
    for k in range(res.k_max + 1):
        assert_parts(lambda a: apply_block(res, k, a).values, u, v, apply_block(res, k, f).values)
    alpha = (1,) * dim
    assert_parts(lambda a: spectral_derivative(a, alpha).values, u, v,
                 spectral_derivative(f, alpha).values)
    # ||g + ih||^2 = ||g||^2 + ||h||^2 for real g and h
    parts = np.hypot(list(block_l2_norms(res, u)), list(block_l2_norms(res, v)))
    assert np.abs(np.array(list(block_l2_norms(res, f))) - parts).max() <= 1e-14 * parts.max()
    assert_parts(forward_transform, u, v, forward_transform(f))
    assert_parts(lambda a: inverse_transform(grid, forward_transform(a)).values, u, v,
                 inverse_transform(grid, forward_transform(f)).values)


def test_complex_spectrum_is_one_rfftn_of_the_pair(monkeypatch, grid_2d):
    rng = np.random.default_rng(9)
    f = SampledField(grid_2d, rng.standard_normal(grid_2d.shape)
                     + 1j * rng.standard_normal(grid_2d.shape))
    r = SampledField(grid_2d, rng.standard_normal(grid_2d.shape))
    _ = r.spectrum  # the real field's one forward transform, not counted
    counter = _FFTCounter(monkeypatch)
    assert f.spectrum.shape == (2, 128, 65)
    assert counter.calls == [("rfftn", (128, 128))]
    # both operands hold their spectra, so nothing is transformed again
    h = convolve(f, r)
    assert counter.forward == 1 and counter.inverse == counter.shift == 0
    assert h.dtype == np.complex128


def test_psi_kernel_and_its_convolution_take_no_fft(monkeypatch, grid_2d):
    f = SampledField(grid_2d, np.random.default_rng(6).standard_normal(grid_2d.shape))
    _ = f.spectrum  # the field's one forward transform, not counted
    counter = _FFTCounter(monkeypatch)
    psi = char_exponent(lambda x, y: x**2 + y**2 + 1j * x**3, 2)
    h = convolve(spectral_kernel(psi, 1.0, grid_2d), f)
    assert counter.forward == counter.inverse == counter.shift == 0
    assert h.dtype == np.float64


def test_forward_transform_of_a_known_spectrum_takes_no_fft(monkeypatch, grid_2d):
    f = SampledField(grid_2d, np.random.default_rng(8).standard_normal(grid_2d.shape))
    _ = f.spectrum  # the field's one forward transform, not counted
    counter = _FFTCounter(monkeypatch)
    forward_transform(convolve(f, f))
    assert counter.forward == counter.inverse == 0


def test_every_synthesis_centers_by_sign_not_by_shift(monkeypatch, grid_2d):
    F = forward_transform(SampledField(grid_2d, np.random.default_rng(4).standard_normal(
        grid_2d.shape)))
    counter = _FFTCounter(monkeypatch)
    back = inverse_transform(grid_2d, F)
    # the inverse is held as its spectrum, so the round trip transforms nothing
    assert np.abs(forward_transform(back) - F).max() <= 1e-15 * np.abs(F).max()
    assert counter.forward == counter.inverse == 0
    _ = back.values
    resolution_l1_bound(build_resolution(grid_2d))
    assert counter.inverse > 0 and counter.shift == 0
    # a psi callable's kernel is held as its spectrum too: built with no
    # transform, and synthesized, with no shift, when its samples are read
    done = counter.inverse
    p = spectral_kernel(char_exponent(lambda x, y: x**2 + y**2, 2), 1.0, grid_2d)
    assert counter.forward == 0 and counter.inverse == done
    _ = p.values
    assert counter.inverse == done + 1 and counter.shift == 0


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("dim, N", [(1, 1024), (2, 128), (3, 64)])
def test_forward_transform_matches_the_centered_fftn_of_the_samples(dim, N, cplx):
    g = make_grid(dim, N, 6.0)
    rng = np.random.default_rng(dim)
    vals = rng.standard_normal(g.shape)
    if cplx:
        vals = vals + 1j * rng.standard_normal(g.shape)
    f = SampledField(g, vals)
    for h in (f, convolve(f, f), spectral_derivative(f, (1,) * dim)):
        ref = _fwd_scale(g) * np.fft.fftn(np.fft.ifftshift(h.values))
        assert np.abs(forward_transform(h) - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("fmt", ["binary", "csv"])
def test_field_serialization_round_trip(tmp_path, fmt):
    g = make_grid(1, 64, 5.0) if fmt == "csv" else make_grid(1, 1024, 20.0)
    rng = np.random.default_rng(9)
    f = SampledField(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    base = str(tmp_path / "field")
    save_field(f, base, fmt=fmt)
    back = load_field(base)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)  # exact, both formats
    sidecar = json.loads((tmp_path / "field.json").read_text())
    assert sidecar["N"] == g.samples_per_axis and sidecar["dim"] == 1
    assert sidecar["domain_tag"] == "space"


def test_save_field_rejects_unknown_format(tmp_path):
    f = gaussian_density(make_grid(1, 64, 5.0))
    with pytest.raises(ValueError, match="unknown format"):
        save_field(f, str(tmp_path / "field"), fmt="npy")
    assert not list(tmp_path.iterdir())


def _complex_field(g):
    rng = np.random.default_rng(4)
    vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    vals[(0,) * g.dim] = complex(-0.0, 1e-300)
    return SampledField(g, vals)


def _csv_reference(f):
    """A field's CSV text, formatted one row at a time."""
    flat = f.values.ravel()
    return "index,re,im\n" + "".join(
        f"{i},{flat[i].real:.17g},{flat[i].imag:.17g}\n" for i in range(flat.size)
    )


def test_csv_bytes_keep_row_format(tmp_path):
    f = _complex_field(make_grid(2, 64, 5.0))
    save_field(f, str(tmp_path / "field"), fmt="csv")
    assert (tmp_path / "field.csv").read_bytes() == _csv_reference(f).encode()


# 4,096 rows fit in one chunk of the writer; these span several
@pytest.mark.parametrize("field", [
    lambda: spectral_kernel(stable_exponent(2.0, 3), 0.05, make_grid(3, 64, 4.0)),
    lambda: _complex_field(make_grid(2, 256, 5.0)),
], ids=["real-3d-64", "complex-2d-256"])
def test_csv_bytes_across_chunks(tmp_path, field):
    f = field()
    assert f.values.size > grid_module._CSV_CHUNK
    save_field(f, str(tmp_path / "field"), fmt="csv")
    assert (tmp_path / "field.csv").read_bytes() == _csv_reference(f).encode()


@pytest.mark.parametrize("rows", [0, 1] + [m * grid_module._CSV_CHUNK + r
                                           for m, r in ((1, 0), (2, 3), (4, 0), (8, 3))])
def test_csv_table_bytes_at_chunk_edges(tmp_path, rows):
    ratios = np.random.default_rng(6).uniform(0.1, 2.0, rows)
    path = str(tmp_path / "table.csv")
    grid_module._write_csv(path, ("pair", "ratio"), (range(rows), ratios))
    expected = "pair,ratio\n" + "".join(f"{i},{r:.17g}\n" for i, r in enumerate(ratios))
    assert (tmp_path / "table.csv").read_bytes() == expected.encode()
    with pytest.raises(ValueError, match="differ in length"):
        grid_module._write_csv(path, ("pair", "ratio"), (range(rows + 1), ratios))
    with pytest.raises(ValueError, match="header names 3 columns, not 2"):
        grid_module._write_csv(path, ("pair", "ratio", "extra"), (range(rows), ratios))


def _csv_column_reference(values) -> bytes:
    return ("x\n" + ("%.17g\n" * len(values)) % tuple(values)).encode()


@pytest.mark.parametrize("values, text", [
    ([0.0] * 5, "0"),
    ([-0.0] * 5, "-0"),
    ([2.5e-7] * 5, "2.4999999999999999e-07"),
    ([0.0, -0.0, -0.0, 0.0, 1.0], None),
], ids=["plus-zero", "minus-zero", "nonzero", "mixed-zeros"])
def test_csv_constant_and_zero_columns(tmp_path, values, text):
    path = tmp_path / "c.csv"
    grid_module._write_csv(str(path), ("x",), (np.array(values),))
    assert path.read_bytes() == _csv_column_reference(values)
    if text is not None:
        assert path.read_text().splitlines()[1:] == [text] * len(values)


def _adversarial_floats(rng):
    """Values where a decimal formatter can slip: every class of bit pattern,
    powers of ten and two with their neighbours, halfway cases and the
    switches between fixed and exponent notation."""
    edges = np.concatenate([10.0 ** np.arange(-323, 309), np.ldexp(1.0, np.arange(-1074, 1024)),
                            [1e-5, 1e-4, 1e16, 1e17, 99999999999999999.0]])
    v = np.concatenate([
        rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64),
        edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf),
        (rng.integers(10**16, 10**17, 100_000) * 10 + 5).astype(np.float64),
        # 1 + odd / 2^17 has 18 digits and ends in 5: an exact rounding tie
        1.0 + (2 * rng.integers(0, 2**16, 2_000) + 1) * 2.0**-17,
        rng.integers(1, 10**6, 50_000) * 10.0 ** rng.integers(-300, 300, 50_000).astype(float),
        rng.standard_normal(750_000) * 10.0 ** rng.uniform(-20, 20, 750_000),
    ])
    return np.where(rng.random(v.size) < 0.5, -v, v)


def test_csv_bytes_of_a_million_adversarial_values(tmp_path):
    v = _adversarial_floats(np.random.default_rng(13))
    assert v.size >= 10**6
    path = tmp_path / "a.csv"
    grid_module._write_csv(str(path), ("x",), (v,))
    assert path.read_bytes() == _csv_column_reference(v.tolist())
    # the vectorized digits, not the per-value fallback, format the bulk; of
    # the values they cover, about 1% are exact ties, most of them between
    # 1e13 and 1e16, where a float64 has a binary fraction of a few bits
    covered = v[np.isfinite(v) & (np.abs(v) >= 1e-270) & (np.abs(v) <= 1e270)]
    assert grid_module._decimal(covered[::4])[2].mean() < 0.02


def test_a_kernel_field_takes_no_per_value_fallback():
    f = spectral_kernel(stable_exponent(2.0, 3), 0.05, make_grid(3, 64, 4.0))
    assert not grid_module._decimal(f.values.ravel())[2].any()


@pytest.mark.parametrize("existing", [False, True])
def test_a_write_that_fails_midway_leaves_no_trace(tmp_path, existing):
    target = tmp_path / "artifact"
    if existing:
        target.write_bytes(b"old")

    def parts():
        yield b"partial"
        raise OSError("no space left on device")

    with pytest.raises(OSError, match="no space"):
        grid_module._write_file(str(target), parts())
    assert [p.name for p in tmp_path.iterdir()] == (["artifact"] if existing else [])
    if existing:
        assert target.read_bytes() == b"old"


def test_binary_field_write_is_atomic(tmp_path, monkeypatch):
    f = SampledField(make_grid(1, 64, 5.0), np.arange(64.0))
    base = str(tmp_path / "field")
    save_field(f, base)
    assert (tmp_path / "field.bin").read_bytes() == f.values.astype("<c16").tobytes()
    write_file, written = grid_module._write_file, []

    def interrupted(path, parts):
        def cut():
            for part in parts:
                written.append(memoryview(part).tobytes())  # refuses a str
                yield part
            raise KeyboardInterrupt
        write_file(path, cut())

    # an interrupt after the data is written but before the rename
    monkeypatch.setattr(grid_module, "_write_file", interrupted)
    with pytest.raises(KeyboardInterrupt):
        save_field(SampledField(f.grid, np.ones(64)), base)
    assert written == [np.ones(64).astype("<c16").tobytes()]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["field.bin", "field.json"]
    assert np.array_equal(load_field(base).values, f.values)


@pytest.mark.parametrize("dim,N", [(1, 64), (1, 32768), (3, 64)],
                         ids=["below-chunk", "one-chunk", "chunk-multiple"])
def test_binary_field_bytes_are_its_c16_samples(tmp_path, dim, N):
    g = make_grid(dim, N, 5.0)
    vals = np.random.default_rng(7).standard_normal(g.shape)
    for name, v in (("real", vals), ("complex", vals * (1.0 - 0.5j))):
        save_field(SampledField(g, v), str(tmp_path / name))
        assert (tmp_path / f"{name}.bin").read_bytes() == v.astype("<c16").tobytes()


def test_binary_field_write_holds_no_copy_of_the_field(tmp_path):
    f = SampledField(make_grid(3, 64, 5.0), np.random.default_rng(8).standard_normal((64,) * 3))
    base = str(tmp_path / "field")
    save_field(f, base)  # fill any cache
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        save_field(f, base)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # one 512 KiB piece of <c16 bytes at a time; the whole field's were 4 MiB
    assert peak < 2**20


def _peak_above_held(fn):
    """The result of ``fn()`` and the tracemalloc peak it reached above what
    was held before it ran."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return out, peak


def test_csv_field_write_builds_no_imaginary_column(tmp_path):
    f = SampledField(make_grid(3, 64, 5.0), np.random.default_rng(8).standard_normal((64,) * 3))
    base = str(tmp_path / "field")
    save_field(f, base, fmt="csv")  # fill any cache
    _, peak = _peak_above_held(lambda: save_field(f, base, fmt="csv"))
    # one piece of 8,192 formatted rows (about 3.2 MiB); a real field's
    # all-zero imaginary parts (2 MiB) and 32,768-row pieces peaked 14.9 MiB
    assert peak <= 4 * 2**20
    assert np.array_equal(load_field(base).values, f.values)


def test_boxed_l2_norms_hold_one_zero_half_lattice():
    grid = make_grid(3, 64, 4.0)
    f = SampledField(grid, np.random.default_rng(8).standard_normal(grid.shape))
    res = build_resolution(grid)
    f.spectrum  # fill the spectrum
    _, peak = _peak_above_held(lambda: list(block_l2_norms(res, f)))
    # largest box first, so a box left in the shared lattice would count
    # again in the next norm; each norm has the bits of one taken alone
    blocks = res.blocks[::-1]
    alone = [next(grid_module._l2_norms(f, (b,), boxed=True)) for b in blocks]
    assert list(grid_module._l2_norms(f, blocks, boxed=True)) == alone
    # the 1 MiB power, one zero half lattice (1 MiB) and the largest box's
    # products (2.49 MiB measured); a zero half lattice per block, two of
    # them live while the next replaced the last, peaked 3.10 MiB
    assert peak <= 2.75 * 2**20


def test_box_index_is_built_once_per_grid_and_extent_and_read_only():
    index = grid_module._box(make_grid(3, 64, 4.0), 7)
    # an equal grid shares it, so no caller may write to it
    assert index is grid_module._box(make_grid(3, 64, 4.0), 7)
    assert not any(a.flags.writeable for a in index)
    full = [*range(8), *range(57, 64)]
    assert [a.ravel().tolist() for a in index] == [full, full, list(range(8))]


def test_binary_field_read_fills_the_fields_one_array(tmp_path):
    g = make_grid(3, 64, 5.0)
    vals = np.random.default_rng(9).standard_normal(g.shape)
    base = str(tmp_path / "field")
    save_field(SampledField(g, vals), base)
    load_field(base)  # fill any cache
    f, peak = _peak_above_held(lambda: load_field(base))
    # the 2 MiB field and one 512 KiB piece of <c16 bytes; reading the whole
    # file, keeping it as the view .real and copying that peaked 6.25 MiB
    assert peak <= 2.75 * 2**20
    assert f.dtype == np.float64 and np.array_equal(f.values, vals)
    assert not f.values.flags.writeable


@pytest.mark.parametrize("where", [0, 2**15, 64**3 - 1], ids=["first", "second-piece", "last"])
def test_binary_field_with_one_imaginary_part_loads_complex(tmp_path, where):
    g = make_grid(3, 64, 5.0)
    vals = np.random.default_rng(10).standard_normal(g.shape).astype(np.complex128)
    vals.flat[where] += 1e-300j
    base = str(tmp_path / "field")
    save_field(SampledField(g, vals), base)
    f = load_field(base)
    assert f.dtype == np.complex128 and np.array_equal(f.values, vals)


def test_load_field_refuses_a_binary_file_that_ends_while_read(tmp_path, monkeypatch):
    base = str(tmp_path / "field")
    save_field(SampledField(make_grid(1, 64, 5.0), np.arange(64.0)), base)
    data = tmp_path / "field.bin"
    data.write_bytes(data.read_bytes()[:-16])
    # the file shrinks between the size check and the read
    monkeypatch.setattr(grid_module.os.path, "getsize", lambda path: 1024)
    with pytest.raises(ValueError, match="field.bin ends before its 64 samples"):
        load_field(base)


def test_sampled_refuses_samples_that_fit_no_field():
    g = make_grid(2, 64, 5.0)
    for bad in (np.zeros(63 * 64), np.zeros(g.shape, np.float32), np.zeros((64, 128))[:, ::2]):
        with pytest.raises(ValueError, match="are no field on"):
            grid_module._sampled(g, bad)
    vals = np.arange(64.0 * 64)
    f = grid_module._sampled(g, vals)
    assert f.values.base is vals and not f.values.flags.writeable


def test_block_synthesis_holds_no_half_lattice_temporary():
    grid = make_grid(3, 64, 4.0)
    res = build_resolution(grid)
    f = SampledField(grid, np.random.default_rng(11).standard_normal(grid.shape))
    _ = f.spectrum  # held, as in every norm
    list(block_spectra(res, f))  # fill any cache
    for k in range(res.k_max + 1):
        one = DyadicResolution(grid, res.blocks[k : k + 1], res.profile)
        b, peak = _peak_above_held(lambda: next(block_spectra(one, f)))
        # the 2 MiB block and its product's extensions on the box, at most
        # 1 MiB for k = 3 (3.24 MiB measured); the product on the half lattice
        # and irfftn's two passes peaked 6.19 MiB for every k
        assert b.shape == grid.shape
        assert peak <= 3.5 * 2**20


@pytest.mark.parametrize("cut", ["stray-bytes", "truncated"])
def test_load_field_refuses_a_binary_file_of_the_wrong_size(tmp_path, cut):
    base = str(tmp_path / "field")
    save_field(SampledField(make_grid(1, 64, 5.0), np.arange(64.0)), base)
    data = tmp_path / "field.bin"
    raw = data.read_bytes()
    # a reader would take the whole samples of either and drop the rest
    data.write_bytes(raw + b"abc" if cut == "stray-bytes" else raw[:-3])
    got = len(raw) + 3 if cut == "stray-bytes" else len(raw) - 3
    with pytest.raises(ValueError, match=f"field.bin holds {got} bytes, not the 1024 of"):
        load_field(base)


def test_real_csv_rows_have_a_zero_imaginary_column(tmp_path):
    g = make_grid(2, 64, 5.0)
    vals = np.random.default_rng(5).standard_normal(g.shape)
    vals[0, 0] = -0.0
    save_field(SampledField(g, vals), str(tmp_path / "field"), fmt="csv")
    expected = "index,re,im\n" + "".join(
        f"{i},{v:.17g},0\n" for i, v in enumerate(vals.ravel().tolist()))
    assert (tmp_path / "field.csv").read_bytes() == expected.encode()


def test_real_fields_stay_real_and_complex_fields_complex(tmp_path):
    g = make_grid(2, 64, 8.0)
    f = sample(lambda x, y: np.exp(-(x**2 + y**2)), g)
    c = SampledField(g, f.values * (1.0 + 0.5j))
    res = build_resolution(g)
    fam = KernelFamily(stable_exponent(1.5, 2), g)
    real = [f, SampledField(g, np.arange(64 * 64)), convolve(f, f), apply_block(res, 1, f),
            spectral_derivative(f, (1, 0)), fam.kernel(1.0), apply_semigroup(fam, 1.0, f)]
    assert all(r.values.dtype == np.float64 for r in real)
    assert all(b.dtype == np.float64 for b in block_spectra(res, f))
    mixed = [c, convolve(c, f), convolve(f, c), apply_block(res, 1, c),
             spectral_derivative(c, (0, 1)), apply_semigroup(fam, 1.0, c)]
    assert all(r.values.dtype == np.complex128 for r in mixed)
    assert all(b.dtype == np.complex128 for b in block_spectra(res, c))
    # a psi callable's kernel is real too: the half spectrum of the Hermitian
    # part of exp(-t psi)
    psi = char_exponent(lambda x, y: x**2 + y**2, 2)
    assert spectral_kernel(psi, 1.0, g).values.dtype == np.float64
    stored = [("real", f, np.float64), ("zero-imag", SampledField(g, f.values + 0j), np.float64),
              ("complex", c, np.complex128)]
    for fmt, ext in (("binary", ".bin"), ("csv", ".csv")):
        for name, fld, dtype in stored:
            save_field(fld, str(tmp_path / name), fmt=fmt)
            back = load_field(str(tmp_path / name))
            assert back.values.dtype == dtype and np.array_equal(back.values, fld.values)
        # +0 imaginary parts, as every kernel file so far has, write the real bytes
        real_bytes = (tmp_path / f"real{ext}").read_bytes()
        assert real_bytes == (tmp_path / f"zero-imag{ext}").read_bytes()


def test_three_dimensional_smoke():
    g = make_grid(3, 64, 10.0)
    f = sample(lambda x, y, z: np.exp(-(x**2 + y**2 + z**2) / 2.0) * (2 * np.pi) ** -1.5, g)
    assert abs(integrate(f) - 1.0) < 1e-12
    back = inverse_transform(g, forward_transform(f))
    assert np.abs(back.values - f.values).max() < 1e-12
