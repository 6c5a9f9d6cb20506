import gc
import itertools
import tracemalloc

import numpy as np
import pytest

from lplab import (
    INF,
    SampledField,
    SpaceParams,
    besov_norm,
    bessel_norm,
    build_resolution,
    gauss_weierstrass,
    gradient_l1,
    hardy_norm,
    lp_norm,
    make_grid,
    resolution_l1_bound,
    sample,
    sobolev_w1m_norm,
    space_norm,
    spectral_derivative,
    spectral_kernel,
    triebel_infty_norm,
    triebel_norm,
)
from lplab.grid import _jsonable
from lplab.littlewood_paley import DyadicResolution, block_spectra, bump_profile
from lplab.norms import _cube_means, default_hardy_nodes
from lplab.verifier import CorpusSpec, generate_corpus


def band_limited(grid, seed, band=1.0):
    rng = np.random.default_rng(seed)
    x = grid.axis_coords()
    jmax = max(int(band * grid.half_width / np.pi), 1)
    vals = np.zeros_like(x)
    for j in range(0, jmax + 1):
        a, b = rng.standard_normal(2)
        vals += a * np.cos(np.pi * j * x / grid.half_width)
        vals += b * np.sin(np.pi * j * x / grid.half_width)
    return SampledField(grid, vals)


# ---------------------------------------------------------------------------
# Lp


def test_lp_unit_gaussian_density(grid_1d):
    f = sample(lambda x: (4 * np.pi) ** -0.5 * np.exp(-(x**2) / 4.0), grid_1d)
    assert abs(lp_norm(f, 1) - 1.0) < 1e-12


def test_l2_of_gaussian_is_quarter_root_pi(grid_1d):
    f = sample(lambda x: np.exp(-(x**2) / 2.0), grid_1d)
    assert abs(lp_norm(f, 2) - np.pi**0.25) < 1e-12


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_l2_by_parseval_matches_the_direct_sum(grid_2d, complex_):
    # a field that holds only its samples, Nyquist content included
    rng = np.random.default_rng(3)
    v = rng.standard_normal(grid_2d.shape) + (1j * rng.standard_normal(grid_2d.shape)
                                               if complex_ else 0.0)
    direct = np.sqrt(grid_2d.cell_volume * np.sum(np.abs(v) ** 2))
    assert abs(lp_norm(SampledField(grid_2d, v), 2) - direct) <= 1e-14 * direct


def test_linf_of_cauchy_density_peak(grid_1d):
    f = sample(lambda x: (1.0 / np.pi) / (x**2 + 1.0), grid_1d)
    assert abs(lp_norm(f, INF) - 1.0 / np.pi) < 1e-12


def test_lp_rejects_p_below_one(grid_1d):
    f = sample(lambda x: np.exp(-(x**2)), grid_1d)
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


# On the N=1024, L=40 grid (k_max = 4) every weight 2^(ks) below is finite,
# and so is each weighted block of the t = 1/2 heat kernel; their squares
# are not.  Scaled by 1e250, the kernel's weighted block norms at s = 100
# leave float64 themselves.
@pytest.mark.parametrize("sp,scale", [
    (SpaceParams("F", 200.0, 1.0, 2.0), 1.0),
    (SpaceParams("B", 250.0, 1.0, 2.0), 1.0),
    (SpaceParams("F", 200.0, INF, 2.0), 1.0),
    (SpaceParams("B", 100.0, 1.0, INF), 1e250),
], ids=["F-p-1", "B-p-1", "F-p-inf", "B-weighted-term"])
def test_overflowing_weighted_terms_are_refused_by_name(sp, scale):
    g = make_grid(1, 1024, 40.0)
    kernel = spectral_kernel(gauss_weierstrass(1), 0.5, g)
    f = SampledField(g, scale * kernel.values)
    with pytest.raises(ValueError, match=f"overflows float64 at smoothness s = {sp.s}, "
                                         f"q = {sp.q}"):
        space_norm(f, build_resolution(g), sp)


# ---------------------------------------------------------------------------
# Besov


def test_besov_zero_field(grid_1d, res_1d):
    z = sample(lambda x: np.zeros_like(x), grid_1d)
    r = besov_norm(z, res_1d, SpaceParams("B", 1.0, 1.0, 2.0))
    assert r.value == 0.0 and all(t == 0.0 for t in r.block_terms)


def test_besov_single_block_field(grid_1d, res_1d):
    f = band_limited(grid_1d, 1, band=1.0)
    for s in (-1.0, 0.0, 2.5):
        for p in (1.0, 2.0, INF):
            r = besov_norm(f, res_1d, SpaceParams("B", s, p, 3.0))
            assert abs(r.value - lp_norm(f, p)) < 1e-12 * max(r.value, 1.0)


def test_besov_monotone_in_q(res_1d, corpus_small):
    for f in corpus_small[:8]:
        prev = None
        for q in (0.5, 1.0, 2.0, INF):
            v = besov_norm(f, res_1d, SpaceParams("B", 0.5, 1.0, q)).value
            if prev is not None:
                assert v <= prev * (1 + 1e-12)
            prev = v


def test_triebel_monotone_in_q(res_1d, corpus_small):
    for f in corpus_small[:6]:
        for p in (1.0, 2.0):
            prev = None
            for q in (1.0, 2.0, INF):
                v = space_norm(f, res_1d, SpaceParams("F", 0.5, p, q)).value
                if prev is not None:
                    assert v <= prev * (1 + 1e-12)
                prev = v


def test_cube_norm_near_monotone_in_q(res_1d, corpus_small):
    # The p = inf cube norm is NOT exactly decreasing in q: with a single
    # active scale the best cube contributes peak * theta^(1/q) for a
    # coverage fraction theta < 1, which grows with q.  The rise stays a
    # modest recorded factor; exact monotonicity holds for p < inf above.
    worst = 1.0
    for f in corpus_small[:8]:
        prev = None
        for q in (1.0, 2.0, 4.0, INF):
            v = space_norm(f, res_1d, SpaceParams("F", 0.5, INF, q)).value
            if prev is not None:
                worst = max(worst, v / prev)
            prev = v
    print(f"max q-step rise of the cube norm: {worst:.4f}")
    assert worst < 1.10


def test_norm_result_reproducible_and_serializable(res_1d, corpus_small):
    f = corpus_small[0]
    sp = SpaceParams("B", 0.7, 2.0, 1.5)
    r = besov_norm(f, res_1d, sp)
    terms = np.array(r.block_terms)
    assert abs((terms**sp.q).sum() ** (1 / sp.q) - r.value) < 1e-12 * r.value
    assert r.truncation_k == res_1d.k_max
    assert abs(r.tail_ratio - terms[-1] / r.value) < 1e-15
    d = r.to_json_dict()
    assert d["space"] == {"A": "B", "s": 0.7, "p": 2.0, "q": 1.5}


# ---------------------------------------------------------------------------
# Triebel-Lizorkin, p < inf


def test_triebel_equals_besov_when_p_equals_q(res_1d, corpus_small):
    for f in corpus_small[:6]:
        for pq in (1.0, 2.0):
            b = besov_norm(f, res_1d, SpaceParams("B", 0.5, pq, pq)).value
            t = triebel_norm(f, res_1d, SpaceParams("F", 0.5, pq, pq)).value
            assert abs(t - b) < 1e-12 * max(b, 1.0)


def test_f11_equals_b11(res_1d, corpus_small):
    for f in corpus_small:
        b = besov_norm(f, res_1d, SpaceParams("B", 0.5, 1.0, 1.0)).value
        t = triebel_norm(f, res_1d, SpaceParams("F", 0.5, 1.0, 1.0)).value
        assert abs(t - b) < 1e-12 * max(b, 1.0)


def test_triebel_single_block_any_q(grid_1d, res_1d):
    f = band_limited(grid_1d, 2, band=1.0)
    for q in (1.0, 2.0, INF):
        t = triebel_norm(f, res_1d, SpaceParams("F", 1.3, 2.0, q)).value
        assert abs(t - lp_norm(f, 2.0)) < 1e-12 * max(t, 1.0)


def test_triebel_routes_p_infinity(res_1d, corpus_small):
    f = corpus_small[0]
    via_f = triebel_norm(f, res_1d, SpaceParams("F", 0.5, INF, 2.0))
    direct = triebel_infty_norm(f, res_1d, 0.5, 2.0)
    assert via_f.value == direct.value


# ---------------------------------------------------------------------------
# Triebel-Lizorkin, p = inf (cube norm)


def test_triebel_infty_q_inf_is_besov_inf_inf(res_1d, corpus_small):
    for f in corpus_small[:6]:
        t = triebel_infty_norm(f, res_1d, 0.5, INF).value
        b = besov_norm(f, res_1d, SpaceParams("B", 0.5, INF, INF)).value
        assert t == b


def test_triebel_infty_zero_field(grid_1d, res_1d):
    z = sample(lambda x: np.zeros_like(x), grid_1d)
    assert triebel_infty_norm(z, res_1d, 0.5, 2.0).value == 0.0


def _tail_sums(f, res, s, q):
    weighted = [(2.0 ** (k * s) * np.abs(b)) ** q
                for k, b in enumerate(block_spectra(res, f))]
    tails = {}
    run = np.zeros(f.grid.shape)
    for k in range(res.k_max, -1, -1):
        run = run + weighted[k]
        tails[k] = run.copy()
    return tails


def test_shifted_cube_bound(grid_1d, res_1d):
    # the average of the tail sum over any shifted cube is bounded by 2^n
    # aligned-cube averages; on samples the cover carries a (1 + 2/K) count
    # correction with K = floor(side/h)
    s, q = 0.5, 2.0
    rng = np.random.default_rng(12)
    f = band_limited(grid_1d, 13, band=16.0)
    norm_q = triebel_infty_norm(f, res_1d, s, q).value ** q
    tails = _tail_sums(f, res_1d, s, q)
    x = grid_1d.axis_coords()
    for J in (0, 1, 2):
        side = 2.0**-J
        K = int(np.floor(side / grid_1d.spacing))
        factor = 2.0 ** grid_1d.dim * (1.0 + 2.0 / K)
        for _ in range(20):
            y = rng.uniform(-grid_1d.half_width, grid_1d.half_width - side)
            inside = (x >= y) & (x < y + side)
            assert inside.sum() > 0
            mean = tails[J][inside].mean()
            assert mean <= factor * norm_q + 1e-12


def test_cube_norm_2d_smoke(grid_2d):
    res = build_resolution(grid_2d)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(grid_2d.shape)
    from lplab import convolve  # mollify via self-convolution to tame spectrum

    f = convolve(SampledField(grid_2d, vals), SampledField(grid_2d, vals))
    r = triebel_infty_norm(f, res, 0.5, 2.0)
    assert r.value > 0 and np.isfinite(r.value)


def _brute_cube_means(values, grid, J):
    # one cube at a time, in lexicographic order of the cube indices
    side = 2.0**-J
    L = grid.half_width
    x = grid.axis_coords()
    axis_cubes = []
    for m in range(int(np.floor(-L / side)) - 1, int(np.ceil(L / side)) + 1):
        inside_box = m * side >= -L - 1e-12 and (m + 1) * side <= L + 1e-12
        members = np.flatnonzero((x >= m * side) & (x < (m + 1) * side))
        if inside_box and members.size:
            axis_cubes.append(members)
    return np.array([values[np.ix_(*cube)].mean()
                     for cube in itertools.product(axis_cubes, repeat=grid.dim)])


@pytest.mark.parametrize("dim, N, L, J_max", [
    (1, 1024, 10.7, 5),  # half-widths that are no multiple of a cube side,
    (2, 128, 5.3, 3),    # so partial cubes at the box edges are dropped
    (3, 64, 3.3, 2),
    (3, 64, 4.0, 2),     # cube faces on the box faces
])
def test_cube_means_match_a_per_cube_loop(dim, N, L, J_max):
    grid = make_grid(dim, N, L)
    # nonnegative, as the tail sums are, so no mean is a cancellation
    values = np.random.default_rng(dim).standard_exponential(grid.shape)
    for J in range(J_max + 1):
        got = _cube_means(values, grid, J)
        want = _brute_cube_means(values, grid, J)
        assert got.shape == want.shape and want.size > 0
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def _old_cube_means(values, grid, J):
    # full-lattice flat cube index and bincount, as before the separable sums
    side = 2.0**-J
    n = grid.dim
    ax = grid.axis_coords()
    idx = np.floor(ax / side).astype(np.int64)
    ok = (idx * side >= -grid.half_width - 1e-12) & (
        (idx + 1) * side <= grid.half_width + 1e-12
    )
    lo = idx.min()
    span = idx.max() - lo + 1
    flat_idx = np.zeros(grid.shape, dtype=np.int64)
    inside = np.ones(grid.shape, dtype=bool)
    for axis in range(n):
        shape = [1] * n
        shape[axis] = grid.samples_per_axis
        flat_idx = flat_idx * span + (idx - lo).reshape(shape)
        inside &= ok.reshape(shape)
    counts = np.bincount(flat_idx[inside], minlength=span**n)
    sums = np.bincount(flat_idx[inside], weights=values[inside], minlength=span**n)
    nonempty = counts > 0
    return sums[nonempty] / counts[nonempty]


def _old_triebel_infty_norm(f, res, s, q):
    # every weighted tail held at once, then summed in place from k_max down
    grid = res.grid
    j_cap = min(int(np.floor(np.log2(1.0 / grid.spacing))), res.k_max)
    tails = [(2.0 ** (k * s) * np.abs(b)) ** q for k, b in enumerate(block_spectra(res, f))]
    terms = [float(w.max()) ** (1.0 / q) for w in tails]
    for k in range(res.k_max - 1, -1, -1):
        tails[k] += tails[k + 1]
    best = 0.0
    for J in range(0, j_cap + 1):
        means = _old_cube_means(tails[J], grid, J)
        if means.size:
            best = max(best, float(means.max()))
    return best ** (1.0 / q), tuple(terms)


def test_triebel_infty_norm_matches_the_all_tails_construction(res_1d, corpus_small, grid_2d):
    g3 = make_grid(3, 64, 4.0)
    fields = [
        *corpus_small[:4],
        *generate_corpus(CorpusSpec(seed=3, count=2, band_limit=4.0), grid_2d),
        *generate_corpus(CorpusSpec(seed=3, count=2, band_limit=4.0), g3),
    ]
    resolutions = {grid: build_resolution(grid) for grid in (grid_2d, g3)}
    resolutions[res_1d.grid] = res_1d
    drift = 0.0
    for f, (s, q) in itertools.product(fields, [(0.5, 2.0), (-0.25, 1.0), (1.0, 0.5)]):
        res = resolutions[f.grid]
        got = triebel_infty_norm(f, res, s, q)
        value, terms = _old_triebel_infty_norm(f, res, s, q)
        assert got.block_terms == terms
        drift = max(drift, abs(got.value - value) / value)
    print(f"largest relative drift of the cube norm: {drift:.2e}")
    assert drift <= 1e-14


def test_triebel_infty_norm_holds_one_tail_at_a_time():
    grid = make_grid(3, 64, 4.0)
    res = build_resolution(grid)
    f = generate_corpus(CorpusSpec(seed=1, count=1, families=("mollified_step",),
                                   band_limit=4.0), grid)[0]
    _ = f.values, f.spectrum  # both kept on the field, as after a load
    triebel_infty_norm(f, res, 0.5, 2.0)  # fill any cache
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        triebel_infty_norm(f, res, 0.5, 2.0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the running tail and one block's synthesis, about 4 lattice arrays;
    # all k_max + 1 tails at once and the cube means' full-lattice index
    # copies peaked near 10
    lattice = 8 * 64**3
    assert peak <= 5 * lattice


# ---------------------------------------------------------------------------
# Bessel / Sobolev / Hardy


def test_bessel_s0_is_l1(res_1d, corpus_small):
    for f in corpus_small[:6]:
        assert abs(bessel_norm(f, 0.0) - lp_norm(f, 1)) < 1e-12


def test_sobolev_m0_unit_gaussian(grid_1d):
    f = sample(lambda x: (4 * np.pi) ** -0.5 * np.exp(-(x**2) / 4.0), grid_1d)
    assert abs(sobolev_w1m_norm(f, 0) - 1.0) < 1e-12


def test_sobolev_sees_no_derivative_of_the_nyquist_mode():
    # (-1)^j lives only at the Nyquist index, where an odd derivative is 0,
    # so the W^{1,1} norm is the L1 norm h N = 2L alone (it was 2L(1 + pi/h))
    g = make_grid(1, 64, 4.0)
    f = SampledField(g, (-1.0) ** np.arange(64))
    assert sobolev_w1m_norm(f, 1) == pytest.approx(8.0, rel=1e-12)


def test_bessel_h2_bound_for_heat_kernels(grid_1d):
    # || p_t | H^2_1 || <= || p_t ||_L1 + n (integral |grad p_{t/2}|)^2
    spec = gauss_weierstrass(1)
    for t in (0.5, 1.0, 2.0):
        p_t = spectral_kernel(spec, t, grid_1d)
        p_half = spectral_kernel(spec, t / 2.0, grid_1d)
        lhs = bessel_norm(p_t, 2.0)
        rhs = lp_norm(p_t, 1) + gradient_l1(p_half) ** 2
        assert lhs <= rhs + 1e-8


def test_hardy_zero_field(grid_1d):
    z = sample(lambda x: np.zeros_like(x), grid_1d)
    assert hardy_norm(z) == 0.0


def test_hardy_dominates_largest_node():
    g = make_grid(1, 1024, 20.0)
    f = sample(lambda x: np.exp(-(x**2) / 2.0), g)  # nonneg with nonneg spectrum
    nodes = default_hardy_nodes(16)
    from lplab import forward_transform, inverse_transform

    F = forward_transform(f)
    # |xi| on the full lattice from its half lattice: index j mirrors to N - j
    j = np.arange(g.samples_per_axis)
    rho2 = g.radial_freq()[np.minimum(j, g.samples_per_axis - j)] ** 2
    t = nodes[-1]
    single = inverse_transform(g, np.exp(-(t * t) * rho2) * F)
    assert hardy_norm(f, nodes) >= lp_norm(single, 1) - 1e-12


def test_hardy_validates_nodes(grid_1d):
    f = sample(lambda x: np.exp(-(x**2)), grid_1d)
    with pytest.raises(ValueError):
        hardy_norm(f, [])
    with pytest.raises(ValueError):
        hardy_norm(f, [0.5, 0.2])
    with pytest.raises(ValueError):
        hardy_norm(f, [0.0, 0.5])
    with pytest.raises(ValueError, match="within \\(0, 1\\), got"):
        hardy_norm(f, [0.1, np.nan, 0.5])


def test_hardy_controls_f01inf_stably():
    # || f | F^0_{1,inf} || <= C || f | h_1 ||, with C stable under node
    # refinement (the sup discretization is the only free choice)
    g = make_grid(1, 1024, 20.0)
    res = build_resolution(g)
    from lplab.verifier import CorpusSpec, generate_corpus

    corpus = generate_corpus(CorpusSpec(seed=21, count=12, band_limit=8.0), g)
    sp = SpaceParams("F", 0.0, 1.0, INF)

    def empirical_c(n_nodes):
        nodes = default_hardy_nodes(n_nodes)
        return max(
            triebel_norm(f, res, sp).value / hardy_norm(f, nodes) for f in corpus
        )

    c32, c64 = empirical_c(32), empirical_c(64)
    assert np.isfinite(c32)
    assert abs(c64 / c32 - 1.0) < 0.05


# ---------------------------------------------------------------------------
# Kernel-norm helper inequalities


def test_a1inf_below_b11(res_1d, corpus_small):
    # termwise max <= sum gives constant 1 for both scales
    for f in corpus_small[:8]:
        b11 = besov_norm(f, res_1d, SpaceParams("B", 0.5, 1.0, 1.0)).value
        binf = besov_norm(f, res_1d, SpaceParams("B", 0.5, 1.0, INF)).value
        finf = triebel_norm(f, res_1d, SpaceParams("F", 0.5, 1.0, INF)).value
        assert binf <= b11 * (1 + 1e-12)
        assert finf <= b11 * (1 + 1e-12)


def test_b01inf_below_multiplier_bound_times_l1(res_1d, corpus_small):
    c_bound = resolution_l1_bound(res_1d)
    assert np.isfinite(c_bound) and c_bound > 0
    for f in corpus_small:
        v = besov_norm(f, res_1d, SpaceParams("B", 0.0, 1.0, INF)).value
        assert v <= c_bound * lp_norm(f, 1) * (1 + 1e-12)


def test_interpolation_bound_b11_via_l1_and_h2(res_1d, corpus_small):
    # || f | B^s_{1,1} || <= C || f ||_L1^(1-s/2) || f | H^2_1 ||^(s/2)
    worst = 0.0
    for f in corpus_small[:10]:
        l1 = lp_norm(f, 1)
        h2 = bessel_norm(f, 2.0)
        for s in (0.5, 1.0, 1.5):
            b = besov_norm(f, res_1d, SpaceParams("B", s, 1.0, 1.0)).value
            worst = max(worst, b / (l1 ** (1 - s / 2) * h2 ** (s / 2)))
    print(f"empirical interpolation constant: {worst:.4f}")
    assert np.isfinite(worst)


def test_derivative_lift_bound(res_1d, corpus_small):
    # || f | B^s_{1,inf} || <= C sup_{|a|<=1} || d^a f | B^(s-1)_{1,inf} ||
    worst = 0.0
    for f in corpus_small[:10]:
        for s in (0.5, 1.0):
            lhs = besov_norm(f, res_1d, SpaceParams("B", s, 1.0, INF)).value
            rhs = max(
                besov_norm(g, res_1d, SpaceParams("B", s - 1.0, 1.0, INF)).value
                for g in (f, spectral_derivative(f, 1))
            )
            worst = max(worst, lhs / rhs)
    print(f"empirical derivative-lift constant: {worst:.4f}")
    assert np.isfinite(worst)


def test_space_params_validation():
    with pytest.raises(ValueError):
        SpaceParams("X", 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SpaceParams("B", 0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        SpaceParams("B", 0.0, 1.0, 0.0)
    assert SpaceParams("F", 0.0, 1.0, 0.5).theorem_eligible is False
    assert SpaceParams("B", 0.0, 1.0, 0.5).theorem_eligible is True


@pytest.mark.parametrize("call, named", [
    (lambda f, res: besov_norm(f, res, SpaceParams("F", 0.0, 1.0, 1.0)), "requires scale 'B'"),
    (lambda f, res: triebel_norm(f, res, SpaceParams("B", 0.0, 1.0, 1.0)), "requires scale 'F'"),
    (lambda f, res: triebel_infty_norm(f, res, 0.0, 0.0), "q must be > 0, got 0.0"),
    (lambda f, res: triebel_infty_norm(f, res, 0.0, -1.0), "q must be > 0, got -1.0"),
    (lambda f, res: triebel_infty_norm(f, res, 0.0, np.nan), "q must be > 0, got nan"),
    (lambda f, res: sobolev_w1m_norm(f, -1), "order m must be >= 0, got -1"),
    (lambda f, res: sobolev_w1m_norm(f, 1.5), "order m must be an integer, got 1.5"),
    (lambda f, res: sobolev_w1m_norm(f, True), "order m must be an integer, got True"),
], ids=["besov-F", "triebel-B", "cube-q-0", "cube-q-negative", "cube-q-nan", "sobolev-m",
        "sobolev-m-fractional", "sobolev-m-bool"])
def test_norms_refuse_invalid_arguments(res_1d, call, named):
    f = sample(lambda x: np.exp(-(x**2)), res_1d.grid)
    with pytest.raises(ValueError, match=named):
        call(f, res_1d)


def test_cube_norm_refuses_spacing_above_one():
    # build_resolution needs nyquist >= 4, that is spacing <= pi/4, so only a
    # hand-built resolution reaches this refusal; with no cube side 2^-J >= h
    # the norm would otherwise read 0
    g = make_grid(1, 64, 40.0)  # spacing 1.25
    res = DyadicResolution(g, (np.ones(g.shape),), bump_profile())
    f = sample(lambda x: np.exp(-(x**2) / 100.0), g)
    with pytest.raises(ValueError, match="spacing exceeds the unit cube"):
        triebel_infty_norm(f, res, 0.5, 2.0)


@pytest.mark.parametrize("s", [float("nan"), INF, -INF])
def test_space_params_refuses_non_finite_smoothness(s):
    with pytest.raises(ValueError, match="must be finite"):
        SpaceParams("B", s, 1.0, 1.0)
    f = sample(lambda x: np.exp(-(x**2)), make_grid(1, 64, 8.0))
    with pytest.raises(ValueError, match="must be finite"):
        bessel_norm(f, s)


def test_jsonable_maps_only_infinities():
    assert (_jsonable(INF), _jsonable(-INF), _jsonable(1.5)) == ("inf", "-inf", 1.5)
    assert np.isnan(_jsonable(float("nan")))  # left for the JSON writer to refuse


def test_space_norm_dispatch(res_1d, corpus_small):
    f = corpus_small[0]
    assert (space_norm(f, res_1d, SpaceParams("B", 0.5, 1.0, 2.0)).value
            == besov_norm(f, res_1d, SpaceParams("B", 0.5, 1.0, 2.0)).value)
    assert (space_norm(f, res_1d, SpaceParams("F", 0.5, INF, 2.0)).value
            == triebel_infty_norm(f, res_1d, 0.5, 2.0).value)
