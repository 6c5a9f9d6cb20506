"""Property-based checks of the spectral path: every Fourier multiplier goes
through forward_transform and one synthesis, so these invariants cover them
all.  Examples are derandomized and bounded so the suite stays deterministic.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lplab import (
    INF,
    KernelFamily,
    SampledField,
    SpaceParams,
    besov_norm,
    bessel_norm,
    build_resolution,
    bump_profile,
    chapman_kolmogorov_residual,
    convolve,
    forward_transform,
    generalized_gauss_weierstrass,
    gradient_l1,
    hardy_norm,
    inverse_transform,
    lp_norm,
    make_grid,
    spectral_derivative,
    spectral_kernel,
    stable_exponent,
    triebel_norm,
)
from lplab import grid as grid_module
from lplab.grid import _embedded
from lplab.littlewood_paley import block_spectra
from lplab.norms import default_hardy_nodes

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None, database=None)

grids = st.builds(
    make_grid,
    dim=st.sampled_from([1, 2]),
    samples_per_axis=st.sampled_from([64, 128]),
    half_width=st.floats(1.0, 40.0),
)
# half-widths up to 20 keep nyquist = pi N / 2L >= 4, which a resolution needs
resolved_grids = st.builds(
    make_grid,
    dim=st.sampled_from([1, 2]),
    samples_per_axis=st.sampled_from([64, 128]),
    half_width=st.floats(1.0, 20.0),
)
seeds = st.integers(0, 2**32 - 1)


def random_field(grid, seed, complex_valued=False):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape)
    if complex_valued:
        vals = vals + 1j * rng.standard_normal(grid.shape)
    return SampledField(grid, vals)


@PROPERTY
@given(grids, seeds)
def test_transform_round_trip_and_parseval(grid, seed):
    f = random_field(grid, seed, complex_valued=True)
    F = forward_transform(f)
    back = inverse_transform(grid, F)
    assert np.abs(back.values - f.values).max() <= 1e-12 * np.abs(f.values).max()
    # unitary: h^n sum |f|^2 = (pi/L)^n sum |Ff|^2
    space = grid.cell_volume * np.sum(np.abs(f.values) ** 2)
    freq = (np.pi / grid.half_width) ** grid.dim * np.sum(np.abs(F) ** 2)
    assert freq == pytest.approx(space, rel=1e-12)


@PROPERTY
@given(grids, seeds)
def test_real_spectrum_that_is_not_even_inverts_on_the_full_lattice(grid, seed):
    F = np.random.default_rng(seed).standard_normal(grid.shape)
    got = inverse_transform(grid, F).values
    assert got.dtype == np.complex128
    assert np.array_equal(got, inverse_transform(grid, F.astype(complex)).values)


@PROPERTY
@given(grids, seeds, seeds, seeds)
def test_convolution_commutes_and_associates(grid, s1, s2, s3):
    f, g, h = (random_field(grid, s) for s in (s1, s2, s3))
    fg = convolve(f, g)
    scale = lp_norm(f, 1) * lp_norm(g, 1) * lp_norm(h, np.inf)
    assert np.abs(fg.values - convolve(g, f).values).max() <= (
        1e-12 * lp_norm(f, 1) * lp_norm(g, np.inf))
    left = convolve(fg, h).values
    right = convolve(f, convolve(g, h)).values
    assert np.abs(left - right).max() <= 1e-12 * scale


@PROPERTY
@given(grids, seeds, seeds)
def test_young_l1(grid, s1, s2):
    f, g = random_field(grid, s1), random_field(grid, s2)
    assert lp_norm(convolve(f, g), 1) <= lp_norm(f, 1) * lp_norm(g, 1) * (1 + 1e-12)


@PROPERTY
@given(st.floats(0.05, 50.0), st.sampled_from([1, 2]))
def test_partition_of_unity_any_sharpness(sharpness, dim):
    grid = make_grid(dim, 256 if dim == 1 else 64, 20.0)
    res = build_resolution(grid, bump_profile(sharpness))
    band = grid.radial_freq() <= res.band_radius()
    assert np.abs(sum(_embedded(grid, b) for b in res.blocks)[band] - 1.0).max() < 1e-14
    assert all(b.min() >= 0.0 for b in res.blocks)


@PROPERTY
@given(grids, seeds)
def test_gradient_l1_matches_per_axis_derivatives(grid, seed):
    f = random_field(grid, seed)
    sq = np.zeros(grid.shape)
    for axis in range(grid.dim):
        alpha = tuple(int(a == axis) for a in range(grid.dim))
        sq = sq + spectral_derivative(f, alpha).values.real ** 2
    reference = grid.cell_volume * np.sqrt(sq).sum()
    assert gradient_l1(f) == pytest.approx(reference, rel=1e-12)


@PROPERTY
@given(resolved_grids, seeds, st.floats(-1.0, 1.0), st.sampled_from([1.0, 2.0, 3.0, INF]))
def test_besov_norm_does_not_increase_with_q(grid, seed, s, p):
    res = build_resolution(grid)
    f = random_field(grid, seed)
    values = [besov_norm(f, res, SpaceParams("B", s, p, q)).value
              for q in (0.5, 1.0, 2.0, 4.0, INF)]
    for smaller_q, larger_q in zip(values, values[1:]):
        assert larger_q <= smaller_q * (1 + 1e-12)


# psi = |xi|^power: (stable, alpha) has power alpha, (gen-gw, m) has power 2m
exponents = st.one_of(
    # a subnormal alpha is excluded: 5e-324 is refused, its order alpha/2 being 0
    st.tuples(st.just("stable"),
              st.floats(0.0, 2.0, exclude_min=True, allow_subnormal=False)),
    st.tuples(st.just("gen-gw"), st.floats(0.5, 3.0)),
)


@PROPERTY
@given(exponents, st.sampled_from([1, 2]), st.floats(2.0, 20.0),
       st.floats(1.0, 8.0), st.floats(1.0, 8.0))
def test_chapman_kolmogorov_random_exponents(exponent, dim, half_width, a, b):
    kind, order = exponent
    grid = make_grid(dim, 64, half_width)
    if kind == "stable":
        spec, power = stable_exponent(order, dim), order
    else:
        spec, power = generalized_gauss_weierstrass(order, dim), 2.0 * order
    # smallest time whose spectral tail exp(-t psi) on the Nyquist faces is
    # 1e-12, the most spectral_kernel accepts; the margin absorbs roundoff
    t_min = 12.0 * np.log(10.0) / grid.nyquist**power * (1.0 + 1e-9)
    fam = KernelFamily(spec, grid)
    assert chapman_kolmogorov_residual(fam, a * t_min, b * t_min) <= 1e-8


# The real path (rfftn on the half lattice, no centering round trip) against
# an inline copy of the full-complex route every real field took before it.
real_grids = st.builds(
    make_grid,
    dim=st.sampled_from([1, 2, 3]),
    samples_per_axis=st.just(64),
    half_width=st.floats(1.0, 20.0),
)


def full_complex(x, m):
    """Centered complex fftn, the multiplier m, ifftn, centering undone,
    real part."""
    return np.fft.fftshift(np.fft.ifftn(m * np.fft.fftn(np.fft.ifftshift(x)))).real


def radial_full(grid, half):
    """A radial array on the full lattice from its half lattice [..., :N//2+1]:
    reflecting the last axis, index j -> N - j, leaves |xi| as it is."""
    j = np.arange(grid.samples_per_axis)
    return half[..., np.minimum(j, grid.samples_per_axis - j)]


def assert_close(got, want, scale):
    assert got.dtype == np.float64
    assert np.abs(got - want).max() <= 1e-13 * scale


@PROPERTY
@given(real_grids, seeds)
def test_real_block_synthesis_matches_full_complex(grid, seed):
    f = random_field(grid, seed)
    res = build_resolution(grid)
    blocks = list(block_spectra(res, f))
    assert len(blocks) == len(res.blocks)
    for b, phi in zip(blocks, res.blocks):
        want = full_complex(f.values, radial_full(grid, _embedded(grid, phi)))
        assert_close(b, want, np.abs(f.values).max())


@PROPERTY
@given(real_grids, seeds, st.floats(0.0, 4.0))
def test_real_hardy_and_bessel_match_full_complex(grid, seed, s):
    # the complex128 copy of a real field takes the full-lattice route
    f = random_field(grid, seed)
    c = SampledField(grid, f.values.astype(np.complex128))
    nodes = default_hardy_nodes(4)
    assert hardy_norm(f, nodes) == pytest.approx(hardy_norm(c, nodes), rel=1e-13)
    assert bessel_norm(f, s) == pytest.approx(bessel_norm(c, s), rel=1e-13)


@PROPERTY
@given(real_grids, seeds, seeds)
def test_real_convolve_matches_full_complex(grid, s1, s2):
    f, g = random_field(grid, s1), random_field(grid, s2)
    spectrum_g = grid.cell_volume * np.fft.fftn(np.fft.ifftshift(g.values))
    want = full_complex(f.values, spectrum_g)
    assert_close(convolve(f, g).values, want, np.abs(want).max())


@PROPERTY
@given(real_grids, st.floats(0.25, 2.0), st.floats(1.0, 8.0))
def test_real_spectral_kernel_matches_full_complex(grid, m, a):
    spec = generalized_gauss_weierstrass(m, grid.dim)
    t = a * 12.0 * np.log(10.0) / grid.nyquist ** (2.0 * m) * (1.0 + 1e-9)
    spectrum = np.exp(-t * radial_full(grid, grid.radial_freq()) ** (2.0 * m))
    want = np.fft.fftshift(np.fft.ifftn(spectrum)).real / grid.cell_volume
    assert_close(spectral_kernel(spec, t, grid).values, want, np.abs(want).max())


@PROPERTY
@given(real_grids, seeds, st.integers(0, 2), st.integers(1, 3))
def test_real_derivative_is_real_part_of_full_complex(grid, seed, axis, order):
    axis = axis % grid.dim
    f = random_field(grid, seed)
    alpha = tuple(order if a == axis else 0 for a in range(grid.dim))
    xi = grid.freq_mesh()[axis]
    want = full_complex(f.values, (1j * xi) ** order)
    assert_close(spectral_derivative(f, alpha).values, want, np.abs(want).max())


# p = 2 norms go by Parseval from the field's spectrum; this reference
# synthesizes every block on the full complex lattice and sums over space.
summabilities = st.one_of(st.floats(0.5, 8.0), st.just(INF))


@PROPERTY
@given(real_grids, seeds, st.booleans(), st.floats(-1.0, 2.0), summabilities)
def test_p2_norms_match_block_synthesis(grid, seed, complex_valued, s, q):
    f = random_field(grid, seed, complex_valued)
    res = build_resolution(grid)
    F = np.fft.fftn(f.values)
    weighted = [2.0 ** (k * s) * np.abs(np.fft.ifftn(radial_full(grid, _embedded(grid, phi)) * F))
                for k, phi in enumerate(res.blocks)]
    terms = np.array([np.sqrt(grid.cell_volume * np.sum(w * w)) for w in weighted])
    besov = besov_norm(f, res, SpaceParams("B", s, 2.0, q))
    want = terms.max() if q == INF else np.sum(terms**q) ** (1.0 / q)
    assert besov.value == pytest.approx(want, rel=1e-12)
    assert besov.block_terms == pytest.approx(tuple(terms), rel=1e-12)
    triebel = triebel_norm(f, res, SpaceParams("F", s, 2.0, 2.0))
    pointwise = np.sqrt(sum(w * w for w in weighted))
    assert triebel.value == pytest.approx(np.sqrt(grid.cell_volume * np.sum(pointwise**2)),
                                          rel=1e-12)
    assert triebel.block_terms == pytest.approx(tuple(terms), rel=1e-12)


# A CSV cell reads as %d for a range column and as %.17g for every other
# value, NaN, infinities, signed zeros and subnormals included.
@PROPERTY
@given(st.lists(st.floats(width=64), max_size=50), st.integers(-10**12, 10**12),
       st.sampled_from([1, -1, 7, -1000]))
@example([float("nan"), float("-inf"), float("inf"), -0.0, 0.0, 5e-324, -2.2e-308, 0.1], -4, 1)
def test_csv_cells_match_per_value_formatting(tmp_path_factory, values, start, step):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    index = range(start, start + step * len(values), step)
    grid_module._write_csv(str(path), ("i", "list", "array"),
                           (index, values, np.array(values[::-1], dtype=float)))
    want = "".join("%d,%.17g,%.17g\n" % row for row in zip(index, values, values[::-1]))
    assert path.read_bytes() == ("i,list,array\n" + want).encode()


# The transform pair writes into arrays it owns, and the inverse runs numpy's
# one-axis passes itself; a box spectrum stands for the half lattice that is
# zero off the box.  Every result must be numpy's rfftn or irfftn bit for bit.
@PROPERTY
@given(st.sampled_from([1, 2, 3]), st.sampled_from([64, 128]), st.floats(1.0, 20.0), seeds)
def test_pass_transforms_are_numpys_rfftn_and_irfftn(dim, N, L, seed):
    grid = make_grid(dim, 64 if dim == 3 else N, L)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(grid.shape)
    z = x + 1j * rng.standard_normal(grid.shape)
    real = np.fft.rfftn(x, axes=range(dim))
    pair = np.fft.rfftn(np.stack((z.real, z.imag)), axes=range(1, dim + 1))
    assert np.array_equal(grid_module._fft(x), real)
    assert np.array_equal(grid_module._fft(z), pair)

    def irfftn(spec):
        out = np.fft.irfftn(spec, s=grid.shape, axes=range(spec.ndim - dim, spec.ndim))
        return out if spec.ndim == dim else out[0] + 1j * out[1]

    def assert_inverse(spec, want):
        spec.setflags(write=False)
        kept = spec.copy()
        got = grid_module._ifft(grid, spec)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(spec, kept)
        # a spectrum the caller drops may hold the first pass: same bits
        got = grid_module._ifft(grid, kept, overwrite=True)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    res = build_resolution(grid)
    for F in (real, pair):
        assert_inverse(F, irfftn(F))
        for b in res.blocks:
            box = (...,) + grid_module._box(grid, b.shape[-1] - 1)
            assert_inverse(b * F[box], irfftn(_embedded(grid, b) * F))
