"""Band-limited fields held on their band's box: the same bits as on the
half lattice, with the memory of the box."""

import copy
import gc
import pickle
import re
import tracemalloc

import numpy as np
import pytest

from lplab import (
    INF,
    InequalityCase,
    KernelFamily,
    SpaceParams,
    apply_block,
    besov_norm,
    bessel_norm,
    build_resolution,
    check_inequality,
    convolve,
    forward_transform,
    gauss_weierstrass,
    gradient_l1,
    hardy_norm,
    lp_norm,
    make_grid,
    resolution_l1_bound,
    sobolev_w1m_norm,
    spectral_derivative,
    triebel_norm,
)
from lplab.grid import _box, _embedded, _field, _l2_norms, _lattice_spectrum, _multiplied, _product
from lplab.littlewood_paley import block_spectra
from lplab.verifier import _BUILDERS, CorpusSpec, generate_corpus

_GRIDS = pytest.mark.parametrize("grid,band", [
    (make_grid(1, 2048, 40.0), 16.0),
    (make_grid(2, 128, 8.0), 4.0),
    (make_grid(3, 64, 4.0), 4.0),
], ids=["1d", "2d", "3d"])


def _peak_above_held(fn):
    """The tracemalloc peak ``fn()`` reached above what was held before it ran."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _twin(f):
    """The field that holds ``f``'s spectrum on the half lattice."""
    return _field(f.grid, _embedded(f.grid, f.spectrum))


def test_corpus_builders_hold_no_half_lattice_array():
    # a 3-D N = 128 grid, whose complex half lattice takes 16.25 MiB: each
    # builder returns its spectrum on the 11 x 11 x 6 box of band 4 and
    # peaks at 0.03 to 0.10 MiB; built on the half lattice, they peaked at
    # 16.5 to 40.9 MiB
    grid = make_grid(3, 128, 4.0)
    box = _box(grid, 5)
    for family, build in sorted(_BUILDERS.items()):
        build(np.random.default_rng(1), grid, 4.0, box)  # fill any cache
        rng = np.random.default_rng(2)
        held = []
        assert _peak_above_held(lambda: held.append(build(rng, grid, 4.0, box))) <= 2**20
        assert held[0].shape == (11, 11, 6), family


def _fields(grid, band):
    """Boxed corpus fields, a complex one among them, each with its twin."""
    f, g, h = generate_corpus(CorpusSpec(seed=3, count=3, band_limit=band), grid)
    pair = _field(grid, np.stack((g.spectrum, h.spectrum)))
    return [(f, _twin(f)), (pair, _twin(pair))]


@_GRIDS
def test_boxed_field_transforms_as_its_twin(grid, band):
    res = build_resolution(grid)
    kernel = KernelFamily(gauss_weierstrass(grid.dim), grid).kernel(0.5)
    (f, tf), (z, tz) = _fields(grid, band)
    assert z.dtype == tz.dtype == np.complex128
    for a, ta in ((f, tf), (z, tz)):
        assert np.array_equal(a.values, ta.values)
        assert np.array_equal(forward_transform(a), forward_transform(ta))
        for other, t_other in ((f, tf), (z, tz), (kernel, kernel)):
            c = convolve(a, other)
            assert c.spectrum.shape[-1] == a.spectrum.shape[-1]  # on the smaller box
            assert np.array_equal(c.values, convolve(ta, t_other).values)
        alpha = (1,) + (0,) * (grid.dim - 1)
        d = spectral_derivative(a, alpha)
        assert np.array_equal(d.values, spectral_derivative(ta, alpha).values)
        for k in (0, res.k_max):
            b = apply_block(res, k, a)
            assert b.spectrum.shape[-1] <= a.spectrum.shape[-1]
            assert np.array_equal(b.values, apply_block(res, k, ta).values)


def test_an_operand_that_fits_neither_lattice_is_refused_by_its_shape():
    # 2-D N = 64, where a band-4 field is held on the 11 x 6 box: an (N, 1)
    # multiplier, which would broadcast over the half lattice, and a
    # box-shaped one whose full axis is 9 long, not 2J + 1 = 11
    grid = make_grid(2, 64, 4.0)
    f = generate_corpus(CorpusSpec(seed=3, count=1, band_limit=4.0), grid)[0]
    assert f.spectrum.shape == (11, 6)
    for a in (f, _twin(f)):
        for m in (np.ones((64, 1)), np.ones((9, 6))):
            refused = pytest.raises(ValueError, match=re.escape(f"{m.shape} fits neither"))
            with refused:
                _product(grid, m, a.spectrum)
            with refused:
                next(_multiplied(a, (m,)))
            with refused:
                next(_l2_norms(a, (m,)))


@pytest.mark.parametrize("boxed", [True, False], ids=["box", "half"])
def test_order_zero_symbol_is_no_one_point_box(boxed):
    # 2-D N = 64 with L = 2: pi / L >= 1.5, so the k = 0 block is held on the
    # 1 x 1 box, the shape an order-0 derivative symbol once had
    grid = make_grid(2, 64, 2.0)
    res = build_resolution(grid)
    assert res.blocks[0].shape == (1, 1)
    f = generate_corpus(CorpusSpec(seed=3, count=1, band_limit=4.0), grid)[0]
    f = f if boxed else _twin(f)
    assert np.array_equal(spectral_derivative(f, (0, 0)).values, f.values)
    assert sobolev_w1m_norm(f, 0) == lp_norm(f, 1)
    for k, b in enumerate(block_spectra(res, f)):
        assert np.array_equal(b, apply_block(res, k, f).values)


@_GRIDS
def test_every_norm_of_a_boxed_field_has_its_twins_bits(grid, band):
    res = build_resolution(grid)
    nodes = np.geomspace(1e-3, 0.999, 4)
    for a, ta in _fields(grid, band):
        for p in (1.0, 2.0, INF):
            assert lp_norm(a, p) == lp_norm(ta, p)
        for sp in (SpaceParams("B", 0.5, 1.0, INF), SpaceParams("B", 0.5, 2.0, 2.0),
                   SpaceParams("F", 0.5, 1.0, 2.0), SpaceParams("F", 0.5, 2.0, 2.0),
                   SpaceParams("F", 0.5, INF, 2.0)):
            norm = besov_norm if sp.scale == "B" else triebel_norm
            assert norm(a, res, sp) == norm(ta, res, sp)
        assert bessel_norm(a, 1.0) == bessel_norm(ta, 1.0)
        assert sobolev_w1m_norm(a, 1) == sobolev_w1m_norm(ta, 1)
        assert hardy_norm(a, nodes) == hardy_norm(ta, nodes)
        assert gradient_l1(a) == gradient_l1(ta)


def test_boxed_field_copies_and_pickles_on_its_box():
    grid = make_grid(2, 128, 8.0)
    f = generate_corpus(CorpusSpec(seed=1, count=1, band_limit=4.0), grid)[0]
    for held in ("spectrum", "both"):
        if held == "both":
            _ = f.values
        for h in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert h.spectrum.shape == f.spectrum.shape == (21, 11)
            assert np.array_equal(h.spectrum, f.spectrum)
            assert np.array_equal(h.values, f.values)


def test_field_takes_a_box_of_extent_below_half_n_only():
    grid = make_grid(2, 64, 4.0)
    for J in (0, 5, 31):
        assert _field(grid, np.zeros((2 * J + 1, J + 1))).values.shape == grid.shape
        assert _field(grid, np.zeros((2, 2 * J + 1, J + 1))).dtype == np.complex128
    # J = N/2 is no box, and a box's axes are 2J + 1 and J + 1 long
    for shape in ((65, 33), (11, 5), (12, 6), (2, 11)):
        with pytest.raises(ValueError, match="fits neither lattice"):
            _field(grid, np.zeros(shape))


def test_conv3_check_of_boxed_corpora_holds_no_lattice_sized_product():
    # the check of 20 pairs of 2-D corpus fields at N = 256: each field, each
    # convolution and each block's product are held on a box (1.57 MiB
    # measured); on the half lattice the check peaked 21.6 MiB
    grid = make_grid(2, 256, 8.0)
    res = build_resolution(grid)
    case = InequalityCase("conv3", p=1.0, p1=1.0, p2=1.0, scale="B", s=0.5, u=0.5,
                          q=1.0, q1=2.0, q2=2.0)

    def check():
        check_inequality(case, generate_corpus(CorpusSpec(0, 20, band_limit=4.0), grid),
                         generate_corpus(CorpusSpec(4, 20, band_limit=4.0), grid), res)

    check()  # fill any cache
    assert _peak_above_held(check) <= 3 * 2**20


@pytest.fixture(scope="module")
def kernel_3d():
    # the semigroup-3d kernel, holding only its spectrum
    return KernelFamily(gauss_weierstrass(3), make_grid(3, 64, 4.0)).kernel(0.05)


def test_hardy_norm_holds_one_synthesized_field_at_a_time(kernel_3d):
    nodes = np.geomspace(1e-3, 0.999, 4)
    hardy_norm(kernel_3d, nodes)  # fill any cache
    # the radii, one node's window and product, its samples and the running
    # maximum, each modulus taken in place (8.13 MiB measured); the last
    # field held while the next was synthesized, and a new array for each
    # modulus, peaked 10.13
    assert _peak_above_held(lambda: hardy_norm(kernel_3d, nodes)) <= 9 * 2**20


def test_sobolev_norm_holds_one_synthesized_field_at_a_time(kernel_3d):
    sobolev_w1m_norm(kernel_3d, 1)  # fill any cache
    # one derivative's product and samples and the running sum, each modulus
    # taken in place (6.07 MiB measured); the last derivative held while the
    # next was synthesized, and a new array for each modulus, peaked 8.07
    assert _peak_above_held(lambda: sobolev_w1m_norm(kernel_3d, 1)) <= 7 * 2**20


def test_block_results_are_held_on_the_blocks_box_with_the_same_bits():
    grid = make_grid(3, 64, 4.0)
    res = build_resolution(grid)
    kernel = KernelFamily(gauss_weierstrass(3), grid).kernel(0.05)
    for k, b in enumerate(res.blocks):
        block = apply_block(res, k, kernel)
        assert block.spectrum.shape == b.shape
        assert np.array_equal(block.values,
                              _field(grid, _embedded(grid, b) * kernel.spectrum).values)
    # each F^-1 phi_k on its box, against the half-lattice construction
    assert resolution_l1_bound(res) == max(
        lp_norm(_field(grid, _lattice_spectrum(grid, _embedded(grid, b))), 1)
        for b in res.blocks)
