import gc
import json
import tracemalloc

import numpy as np
import pytest

from lplab import (
    SampledField,
    apply_block,
    build_resolution,
    bump_profile,
    convolve,
    export_resolution,
    make_grid,
    squared_resolution,
    validate_resolution,
)
from lplab.grid import _embedded
from lplab.littlewood_paley import (DyadicResolution, TransitionProfile, _phi0,
                                    block_l2_norms, block_spectra)


def half_lattice_blocks(res):
    """Each block on the half lattice, zero off its box."""
    return [_embedded(res.grid, b) for b in res.blocks]


def band_limited(grid, seed, band):
    rng = np.random.default_rng(seed)
    x = grid.axis_coords()
    jmax = int(band * grid.half_width / np.pi)
    vals = np.zeros_like(x)
    for j in range(0, jmax + 1):
        a, b = rng.standard_normal(2)
        vals += a * np.cos(np.pi * j * x / grid.half_width)
        vals += b * np.sin(np.pi * j * x / grid.half_width)
    return SampledField(grid, vals)


def test_k_max_follows_nyquist(grid_1d, res_1d):
    # nyquist = pi*N/(2L) = 160.85 for (1, 4096, 40), so k_max = 6;
    # doubling N gives nyquist 321.70 and k_max = 7
    assert res_1d.k_max == int(np.floor(np.log2(grid_1d.nyquist))) - 1 == 6
    g8 = make_grid(1, 8192, 40.0)
    assert abs(g8.nyquist - 321.699) < 1e-3
    assert build_resolution(g8).k_max == 7


def test_partition_of_unity_on_band(grid_1d, res_1d):
    rho = grid_1d.radial_freq()
    total = sum(half_lattice_blocks(res_1d))
    band = rho <= res_1d.band_radius()
    assert np.abs(total[band] - 1.0).max() < 1e-14


def test_phi0_sandwich(grid_1d, res_1d):
    rho = grid_1d.radial_freq()
    phi0 = half_lattice_blocks(res_1d)[0]
    assert np.all(phi0[rho <= 1.0] == 1.0)
    assert np.all(phi0[rho >= 1.5] == 0.0)
    mid = (rho > 1.0) & (rho < 1.5)
    assert np.all((phi0[mid] >= 0.0) & (phi0[mid] <= 1.0))


def test_block_3_support(grid_1d, res_1d):
    rho = grid_1d.radial_freq()
    phi3 = half_lattice_blocks(res_1d)[3]
    outside = (rho < 4.0) | (rho >= 16.0)
    assert np.abs(phi3[outside]).max() == 0.0


def test_defining_difference_identity(grid_1d, res_1d):
    # phi_k == phi_0(2^-k xi) - phi_0(2^-(k-1) xi) evaluated independently
    rho = grid_1d.radial_freq()

    def phi0_at(r):
        out = np.where(r <= 1.0, 1.0, 0.0)
        mid = (r > 1.0) & (r < 1.5)
        out[mid] = res_1d.profile.ramp((1.5 - r[mid]) / 0.5)
        return out

    blocks = half_lattice_blocks(res_1d)
    for k in (1, 3, res_1d.k_max):
        direct = phi0_at(rho * 2.0**-k) - phi0_at(rho * 2.0 ** -(k - 1))
        assert np.abs(blocks[k] - direct).max() < 1e-15


def test_validate_default_resolution(res_1d):
    rep = validate_resolution(res_1d)
    assert abs(rep.partition_min - 1.0) < 1e-14
    assert abs(rep.partition_max - 1.0) < 1e-14
    assert rep.support_violations == 0
    assert np.isfinite(rep.derivative_proxy_1) and np.isfinite(rep.derivative_proxy_2)


def test_validate_squared_resolution(res_1d, tmp_path):
    sq = squared_resolution(res_1d)
    rep = validate_resolution(sq)
    assert 0.0 < rep.partition_min <= 1.0
    assert rep.partition_max <= 1.0 + 1e-14
    assert rep.support_violations == 0
    export_resolution(sq, str(tmp_path))
    meta = json.loads((tmp_path / "resolution.json").read_text())
    assert (meta["c"], meta["C"]) == (rep.partition_min, rep.partition_max)
    assert meta["admissible_general"] is True


def test_validate_counts_corrupted_block(grid_1d, res_1d):
    blocks = [b.copy() for b in res_1d.blocks]
    bad = blocks[3]
    # mass on the block's box but below the k = 3 annulus 4 <= |xi| < 16
    bad[np.abs(grid_1d.freq_axis()[: bad.size]) < 2.0] = 0.5
    corrupted = DyadicResolution(grid_1d, tuple(blocks), res_1d.profile)
    assert validate_resolution(corrupted).support_violations > 0


def test_apply_block_low_frequency_field(grid_1d, res_1d):
    f = band_limited(grid_1d, 1, band=1.0)
    scale = np.abs(f.values).max()
    b0 = apply_block(res_1d, 0, f)
    assert np.abs(b0.values - f.values).max() < 1e-12 * scale
    for k in range(2, res_1d.k_max + 1):
        assert np.abs(apply_block(res_1d, k, f).values).max() < 1e-12 * scale


def test_block_reconstruction(grid_1d, res_1d):
    f = band_limited(grid_1d, 2, band=res_1d.band_radius())
    total = sum(apply_block(res_1d, k, f).values for k in range(res_1d.k_max + 1))
    assert np.abs(total - f.values).max() < 1e-10 * np.abs(f.values).max()


def test_apply_block_linear(grid_1d, res_1d):
    f = band_limited(grid_1d, 3, band=8.0)
    g = band_limited(grid_1d, 4, band=8.0)
    combo = SampledField(grid_1d, 2.0 * f.values - 3.0 * g.values)
    for k in (0, 2, 4):
        direct = apply_block(res_1d, k, combo).values
        linear = 2.0 * apply_block(res_1d, k, f).values - 3.0 * apply_block(res_1d, k, g).values
        assert np.abs(direct - linear).max() < 1e-12 * max(np.abs(direct).max(), 1.0)


def test_apply_block_real_output(grid_1d, res_1d):
    f = band_limited(grid_1d, 5, band=16.0)
    out = apply_block(res_1d, 3, f)
    assert np.abs(out.values.imag).max() < 1e-10 * np.abs(out.values.real).max()


def test_blocks_refuse_mismatched_grid(res_1d):
    f = band_limited(make_grid(1, 2048, 40.0), 6, band=4.0)
    with pytest.raises(ValueError, match="does not match"):
        apply_block(res_1d, 0, f)
    with pytest.raises(ValueError, match="does not match"):
        next(block_spectra(res_1d, f))
    with pytest.raises(ValueError, match="does not match"):
        next(block_l2_norms(res_1d, f))


def test_apply_block_range_check(grid_1d, res_1d):
    f = band_limited(grid_1d, 6, band=4.0)
    with pytest.raises(ValueError):
        apply_block(res_1d, res_1d.k_max + 1, f)
    with pytest.raises(ValueError):
        apply_block(res_1d, -1, f)


def test_block_almost_orthogonality(grid_1d, res_1d):
    f = band_limited(grid_1d, 7, band=16.0)
    scale = np.abs(f.values).max()
    for j, k in [(0, 2), (1, 3), (2, 5), (0, 6)]:
        twice = apply_block(res_1d, j, apply_block(res_1d, k, f))
        assert np.abs(twice.values).max() < 1e-13 * scale
    # adjacent blocks genuinely overlap
    touching = apply_block(res_1d, 3, apply_block(res_1d, 2, f))
    assert np.abs(touching.values).max() > 1e-6 * scale


def test_blocks_commute_with_convolution(grid_1d, res_1d):
    # phi_k(D)(f*g) = (phi_k(D) f) * g
    f = band_limited(grid_1d, 8, band=16.0)
    g = band_limited(grid_1d, 9, band=16.0)
    conv = convolve(f, g)
    scale = np.abs(conv.values).max()
    for k in range(res_1d.k_max + 1):
        lhs = apply_block(res_1d, k, conv).values
        rhs = convolve(apply_block(res_1d, k, f), g).values
        assert np.abs(lhs - rhs).max() < 1e-10 * scale


def test_profile_contract():
    prof = bump_profile()
    assert prof.ramp(np.array([0.0]))[0] == 0.0
    assert prof.ramp(np.array([1.0]))[0] == 1.0
    t = np.linspace(0, 1, 1001)
    assert np.all(np.diff(prof.ramp(t)) >= -1e-12)
    with pytest.raises(ValueError, match="wiggle"):
        TransitionProfile("wiggle", lambda t: np.sin(6 * np.asarray(t)))
    with pytest.raises(ValueError, match="not monotone"):
        TransitionProfile("nan", lambda t: np.where((t > 0) & (t < 1), np.nan, t))
    with pytest.raises(ValueError):
        bump_profile(sharpness=-1.0)


def test_bump_profile_refuses_infinite_sharpness():
    with pytest.raises(ValueError, match="sharpness must be positive and finite, got inf"):
        bump_profile(float("inf"))


def test_nyquist_too_small_rejected():
    g = make_grid(1, 64, 30.0)  # nyquist = pi*64/60 < 4
    with pytest.raises(ValueError, match="nyquist"):
        build_resolution(g)


@pytest.mark.parametrize("dim, N, L", [(1, 4096, 40.0), (2, 128, 10.0), (3, 64, 4.0)])
def test_blocks_are_held_on_the_half_lattice(dim, N, L):
    # each block is real and even, so it is held where every spectrum lives,
    # on the box of the half lattice that holds |xi| < 1.5 * 2^k: frequencies
    # -J..J on each full axis and 0..J on the last, J the largest index with
    # pi J / L < 1.5 * 2^k
    grid = make_grid(dim, N, L)
    res = build_resolution(grid)
    for k, b in enumerate(res.blocks):
        J = b.shape[-1] - 1
        assert b.shape == (2 * J + 1,) * (dim - 1) + (J + 1,)
        assert np.pi * J / L < 1.5 * 2.0**k <= np.pi * (J + 1) / L
    if (dim, N, L) == (3, 64, 4.0):
        assert [b.shape[-1] - 1 for b in res.blocks] == [1, 3, 7, 15]
        assert sum(b.size for b in res.blocks) == 17390


@pytest.mark.parametrize("dim, N, L", [(1, 4096, 40.0), (1, 64, 1.0), (2, 128, 10.0),
                                       (2, 64, 2.0), (3, 64, 4.0), (3, 64, 13.0)])
def test_every_nonzero_of_a_block_lies_on_its_box(dim, N, L):
    # phi_k computed on the whole half lattice by its defining formula is
    # zero off the box it is held on, and equals the boxed block on it
    grid = make_grid(dim, N, L)
    res = build_resolution(grid)
    rho = grid.radial_freq()
    blocks = half_lattice_blocks(res)
    for k, b in enumerate(blocks):
        full = _phi0(rho * 2.0**-k, res.profile)
        if k:
            full = full - _phi0(rho * 2.0 ** -(k - 1), res.profile)
        assert np.array_equal(b, full)
        assert np.count_nonzero(full) == np.count_nonzero(res.blocks[k])


def test_resolution_refuses_a_block_held_on_no_box():
    grid = make_grid(2, 64, 4.0)
    res = build_resolution(grid)
    half = _embedded(grid, res.blocks[1])  # the half-lattice layout
    for b in (half, res.blocks[1][:, :-1], np.ones((65, 33)), np.ones(7)):
        with pytest.raises(ValueError, match="is held on no box"):
            DyadicResolution(grid, (res.blocks[0], b), res.profile)


def test_build_resolution_working_set():
    grid = make_grid(3, 64, 4.0)
    build_resolution(grid)  # fill any cache
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = build_resolution(grid)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the four boxed blocks and the largest box's |xi| and temporaries: 0.69
    # MiB measured; half-lattice blocks peaked at 7.65 MiB and full-lattice
    # ones at 14.8 MiB
    assert len(res.blocks) == 4
    half = 8 * 64 * 64 * 33
    assert peak <= half


def test_resolution_holds_its_blocks_on_their_boxes():
    grid = make_grid(3, 64, 4.0)
    build_resolution(grid)  # fill any cache
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = build_resolution(grid)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # 17,390 float64 values (0.13 MiB); on the half lattice the four blocks
    # held 4 x 135,168 (4.1 MiB)
    assert sum(b.nbytes for b in res.blocks) == 8 * 17390
    assert held < 0.5 * 2**20


def test_resolution_2d(grid_2d):
    res = build_resolution(grid_2d)
    rho = grid_2d.radial_freq()
    total = sum(half_lattice_blocks(res))
    band = rho <= res.band_radius()
    assert np.abs(total[band] - 1.0).max() < 1e-14
    rep = validate_resolution(res)
    assert rep.support_violations == 0


def test_export_resolution(tmp_path):
    g = make_grid(1, 64, 5.0)
    res = build_resolution(g)
    export_resolution(res, str(tmp_path))
    meta = json.loads((tmp_path / "resolution.json").read_text())
    assert meta["K_max"] == res.k_max
    assert meta["c"] == 1.0 and meta["C"] == 1.0
    assert meta["admissible_general"] is False
    # the blocks are held on their boxes and exported on the full lattice,
    # where index j and its mirror N - j hold one value
    j = np.arange(g.samples_per_axis)
    full = [b[np.minimum(j, g.samples_per_axis - j)] for b in half_lattice_blocks(res)]
    data = np.loadtxt(tmp_path / "block_0.csv", delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 1], full[0])
    flat = full[1].ravel()
    expected = "index,value\n" + "".join(f"{i},{flat[i]:.17g}\n" for i in range(flat.size))
    assert (tmp_path / "block_1.csv").read_bytes() == expected.encode()
