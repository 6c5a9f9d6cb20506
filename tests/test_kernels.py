import gc
import tracemalloc

import numpy as np
import pytest

from lplab import (
    INF,
    KernelFamily,
    SampledField,
    SpaceParams,
    UnderResolvedError,
    apply_semigroup,
    besov_norm,
    cauchy_poisson,
    chapman_kolmogorov_residual,
    char_exponent,
    closed_form_kernel,
    convolve,
    gauss_weierstrass,
    generalized_gauss_weierstrass,
    gradient_l1,
    hartman_wintner_profile,
    integrate,
    lp_norm,
    make_grid,
    sample,
    spectral_derivative,
    spectral_kernel,
    stable_exponent,
)
from lplab.grid import _fwd_scale
from lplab.kernels import SemigroupSpec, kernel_diagnostics, symbol_values

INV_SQRT_PI = 0.5641895835477563  # integral of |d/dx p_1| for the heat kernel


def test_closed_form_gw_is_probability_density(grid_1d):
    p = closed_form_kernel(gauss_weierstrass(1), 1.0, grid_1d)
    assert abs(integrate(p) - 1.0) < 1e-12


def test_closed_form_gw_scaling(grid_1d):
    # p_t(x) = t^(-1/2) p_1(x / sqrt(t))
    t = 0.25
    p_t = closed_form_kernel(gauss_weierstrass(1), t, grid_1d)
    x = grid_1d.axis_coords()
    rescaled = t**-0.5 * (4 * np.pi) ** -0.5 * np.exp(-((x / np.sqrt(t)) ** 2) / 4.0)
    assert np.abs(p_t.values - rescaled).max() < 1e-12


def test_closed_form_cauchy_peak(grid_1d):
    p = closed_form_kernel(cauchy_poisson(), 1.0, grid_1d)
    mid = grid_1d.samples_per_axis // 2  # x = 0
    assert abs(p.values[mid].real - 1.0 / np.pi) < 1e-15


def test_closed_form_validation(grid_1d):
    with pytest.raises(ValueError):
        closed_form_kernel(gauss_weierstrass(1), 0.0, grid_1d)
    # an infinite t would give an all-zero field
    with pytest.raises(ValueError, match="time t must be positive and finite"):
        closed_form_kernel(gauss_weierstrass(1), np.inf, grid_1d)
    with pytest.raises(ValueError):
        closed_form_kernel(generalized_gauss_weierstrass(2.0), 1.0, grid_1d)
    with pytest.raises(ValueError):
        cauchy_poisson_2d = char_exponent(lambda x, y: np.abs(x), 2)
        closed_form_kernel(cauchy_poisson_2d, 1.0, grid_1d)


def test_cauchy_poisson_has_a_closed_form_in_1d_only():
    spec = cauchy_poisson(2)
    assert spec == stable_exponent(1.0, 2)
    with pytest.raises(ValueError, match="no closed form"):
        closed_form_kernel(spec, 2.0, make_grid(2, 64, 8.0))


def test_spectral_matches_closed_form_gw(grid_1d):
    spec = spectral_kernel(gauss_weierstrass(1), 1.0, grid_1d)
    closed = closed_form_kernel(gauss_weierstrass(1), 1.0, grid_1d)
    assert np.abs(spec.values - closed.values).max() < 1e-10


def test_spectral_cauchy_vs_closed_form():
    # The spectral kernel is the exact periodization, so against the raw
    # closed form the gap is the image sum ~ 0.36/L^2 ~ 1e-5 at L = 200,
    # while against the exact periodized Poisson kernel it is roundoff.
    g = make_grid(1, 2**15, 200.0)
    t = 1.0
    spec = spectral_kernel(cauchy_poisson(), t, g)
    closed = closed_form_kernel(cauchy_poisson(), t, g)
    assert np.abs(spec.values - closed.values).max() < 2e-5
    x = g.axis_coords()
    a = np.pi * t / g.half_width
    periodized = (1.0 / (2 * g.half_width)) * np.sinh(a) / (
        np.cosh(a) - np.cos(np.pi * x / g.half_width)
    )
    assert np.abs(spec.values - periodized).max() < 1e-12


def test_generalized_kernel_masses_scale_invariant(grid_1d):
    fam = KernelFamily(generalized_gauss_weierstrass(2.0), grid_1d)
    masses = [fam.l1_norm(t) for t in (0.5, 1.0, 2.0)]
    assert (max(masses) - min(masses)) / min(masses) < 1e-3
    assert masses[0] > 1.0  # signed kernel: total variation exceeds the mass
    assert abs(integrate(fam.kernel(1.0)) - 1.0) < 1e-6


def test_markovian_kernel_positivity(grid_1d):
    for spec in (gauss_weierstrass(1), cauchy_poisson()):
        p = spectral_kernel(spec, 1.0, grid_1d)
        vals = p.values.real
        assert vals.min() >= -1e-8 * vals.max()
        assert abs(integrate(p) - 1.0) < 1e-6


def test_gradient_l1_heat_kernel(grid_1d):
    p = spectral_kernel(gauss_weierstrass(1), 1.0, grid_1d)
    assert abs(gradient_l1(p) - INV_SQRT_PI) < 1e-4


def test_gradient_l1_scaling_relation():
    g = make_grid(1, 2**16, 40.0)
    fam = KernelFamily(gauss_weierstrass(1), g)
    base = gradient_l1(fam.kernel(1.0))
    for t in (0.25, 1.0, 4.0):
        scaled = gradient_l1(fam.kernel(t)) * np.sqrt(t)
        assert abs(scaled / base - 1.0) < 1e-6


def test_gradient_l1_cauchy_rate():
    g = make_grid(1, 2**15, 160.0)
    fam = KernelFamily(cauchy_poisson(), g)
    prods = [gradient_l1(fam.kernel(t)) * t for t in (0.5, 1.0, 2.0)]
    assert (max(prods) - min(prods)) / min(prods) < 1e-3
    assert abs(prods[1] - 2.0 / np.pi) < 1e-3  # analytic value of t * integral


def test_chapman_kolmogorov(grid_1d):
    fam = KernelFamily(gauss_weierstrass(1), grid_1d)
    assert chapman_kolmogorov_residual(fam, 0.5, 0.5) <= 1e-8
    fam2 = KernelFamily(generalized_gauss_weierstrass(2.0), grid_1d)
    assert chapman_kolmogorov_residual(fam2, 0.5, 0.5) <= 1e-8


def test_chapman_kolmogorov_negative_control(grid_1d):
    # kernels from different families do not form a semigroup
    p_t = spectral_kernel(gauss_weierstrass(1), 0.5, grid_1d)
    p_s = spectral_kernel(generalized_gauss_weierstrass(2.0), 0.5, grid_1d)
    p_ts = spectral_kernel(gauss_weierstrass(1), 1.0, grid_1d)
    mixed = convolve(p_t, p_s)
    residual = np.abs(p_ts.values - mixed.values).max() / np.abs(p_ts.values).max()
    assert residual > 1e-3


def test_chapman_kolmogorov_validates_times(grid_1d):
    fam = KernelFamily(gauss_weierstrass(1), grid_1d)
    with pytest.raises(ValueError):
        chapman_kolmogorov_residual(fam, -1.0, 0.5)


def test_under_resolved_kernel_rejected(grid_1d):
    with pytest.raises(UnderResolvedError, match="under-resolved"):
        spectral_kernel(gauss_weierstrass(1), 1e-4, grid_1d)


def test_anisotropic_under_resolution_rejected():
    # the slow direction is xi_2: its Nyquist face has tail exp(-0.05 nyq^2) = 0.28,
    # while the point (-nyquist, 0) alone would pass
    g = make_grid(2, 64, 20.0)
    aniso = char_exponent(lambda x, y: 10.0 * x**2 + 0.05 * y**2, 2)
    with pytest.raises(UnderResolvedError, match="2.8"):
        spectral_kernel(aniso, 1.0, g)
    swapped = char_exponent(lambda x, y: 0.05 * x**2 + 10.0 * y**2, 2)
    with pytest.raises(UnderResolvedError):
        spectral_kernel(swapped, 1.0, g)


def test_negative_symbol_rejected(grid_1d):
    bad = char_exponent(lambda x: -(x**2), 1)
    with pytest.raises(ValueError, match="Re psi"):
        spectral_kernel(bad, 1.0, grid_1d)
    nan = char_exponent(lambda x: np.where(np.abs(x) < 1, np.nan, x**2), 1)
    with pytest.raises(ValueError, match="Re psi < 0 or NaN"):
        spectral_kernel(nan, 1.0, grid_1d)


def test_non_hermitian_symbol_rejected():
    # i|xi| is even, so psi(-xi) != conj(psi(xi)) and the kernel is complex
    g = make_grid(1, 256, 20.0)
    skew = char_exponent(lambda x: x**2 + 1j * np.abs(x), 1)
    with pytest.raises(ValueError, match="Hermitian"):
        spectral_kernel(skew, 1.0, g)
    # an even imaginary part eps xi^2 leaves an anti-Hermitian part of about
    # eps / e in a spectrum of modulus 1: above the 1e-8 threshold at 1e-6
    slight = char_exponent(lambda x: x**2 + 1e-6j * x**2, 1)
    with pytest.raises(ValueError, match="Hermitian"):
        spectral_kernel(slight, 1.0, g)


def _full_lattice_kernel(spec, t, grid):
    """The real part of the complex synthesis of (2 pi)^(-n/2) e^(-t psi) on
    the full lattice, centered at x = 0: the reference a kernel held as the
    half spectrum of its Hermitian part must reproduce."""
    decay = np.exp(-t * symbol_values(spec, grid))
    norm = (2.0 * np.pi) ** (-grid.dim / 2.0) / _fwd_scale(grid)
    return (norm * np.fft.fftshift(np.fft.ifftn(decay))).real


@pytest.mark.parametrize("psi", [
    lambda x: x**2 + 1e-12j * x**2,  # anti-Hermitian part ~4e-13, below 1e-8
    lambda x: x**2 + 1j * x**3,      # Hermitian: an odd imaginary part
], ids=["even-imag-1e-12", "odd-imag"])
def test_hermitian_symbol_kernel_is_the_real_part_of_its_synthesis(psi):
    g = make_grid(1, 256, 20.0)
    spec = char_exponent(psi, 1)
    p = spectral_kernel(spec, 1.0, g)
    ref = _full_lattice_kernel(spec, 1.0, g)
    assert p.values.dtype == np.float64
    assert np.abs(p.values - ref).max() <= 1e-15 * np.abs(ref).max()


def test_semigroup_spec_refuses_invalid():
    assert cauchy_poisson() == SemigroupSpec(1, m=0.5)
    assert gauss_weierstrass(2) == SemigroupSpec(2, m=1.0)
    with pytest.raises(ValueError, match="exactly one"):
        SemigroupSpec(1)
    with pytest.raises(ValueError, match="exactly one"):
        SemigroupSpec(1, m=1.0, psi=lambda x: x**2)
    for m in (0.0, -0.5):
        with pytest.raises(ValueError, match="m must be > 0"):
            SemigroupSpec(1, m=m)
    for dim in (0, 4):
        with pytest.raises(ValueError, match="dim must be 1, 2 or 3"):
            SemigroupSpec(dim, m=1.0)
    # the positional call of the old (kind, dim) signature
    with pytest.raises(ValueError, match="dim must be 1, 2 or 3"):
        SemigroupSpec("cauchy_poisson", 1)


@pytest.mark.parametrize("t", [np.inf, np.nan])
def test_spectral_kernel_refuses_non_finite_time(grid_1d, t):
    for spec in (gauss_weierstrass(1), char_exponent(lambda x: x**2, 1)):
        with pytest.raises(ValueError, match="time t must be positive and finite"):
            spectral_kernel(spec, t, grid_1d)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_closed_form_keys_on_order(dim):
    t = 0.5
    # the kernel sums |x|^2 from one axis; the dense meshes give the same bits,
    # also at L = 5.7, where mirrored points' squares need not be equal
    for L in (8.0, 5.7):
        g = make_grid(dim, 64, L)
        gw = closed_form_kernel(stable_exponent(2.0, dim), t, g)
        r2 = sum(m**2 for m in g.coord_mesh())
        want = (4.0 * np.pi * t) ** (-dim / 2.0) * np.exp(-r2 / (4.0 * t))
        assert np.array_equal(gw.values, want)
        if dim == 1:
            cp = closed_form_kernel(stable_exponent(1.0, 1), t, g)
            x = g.coord_mesh()[0]
            assert np.array_equal(cp.values, (1.0 / np.pi) * t / (x**2 + t**2))
        else:
            with pytest.raises(ValueError, match="no closed form"):
                closed_form_kernel(stable_exponent(1.0, dim), t, g)


def test_hartman_wintner_quadratic(grid_1d):
    prof = hartman_wintner_profile(gauss_weierstrass(1), [100.0], grid_1d)
    r, ratio = prof[0]
    assert abs(ratio - 1e4 / np.log(100.0)) < 2e-3 * (1e4 / np.log(100.0))


def test_hartman_wintner_gamma_flat(grid_1d):
    gamma = char_exponent(lambda x: np.log1p(np.abs(x)), 1)
    prof = hartman_wintner_profile(gamma, [10.0, 40.0, 150.0], grid_1d)
    ratios = [r for _, r in prof]
    assert ratios[-1] < 2.0  # ratio tends to 1: the growth condition fails
    assert ratios[-1] <= ratios[0] + 0.1


def test_hartman_wintner_root_growth():
    g = make_grid(1, 2**17, 20.0)
    prof = hartman_wintner_profile(stable_exponent(0.5), [1e2, 1e3, 1e4], g)
    ratios = [r for _, r in prof]
    assert abs(ratios[-1] - 100.0 / np.log(1e4)) < 0.05
    assert ratios[0] < ratios[1] < ratios[2]


def test_hartman_wintner_validates_radii(grid_1d):
    with pytest.raises(ValueError):
        hartman_wintner_profile(gauss_weierstrass(1), [0.5], grid_1d)
    with pytest.raises(ValueError):
        hartman_wintner_profile(gauss_weierstrass(1), [1e6], grid_1d)
    with pytest.raises(ValueError, match="exceed 1, got \\[ 2. nan\\]"):
        hartman_wintner_profile(gauss_weierstrass(1), [2.0, np.nan], grid_1d)


def test_apply_semigroup_widens_gaussian(grid_1d):
    fam = KernelFamily(gauss_weierstrass(1), grid_1d)
    f = sample(lambda x: (2 * np.pi) ** -0.5 * np.exp(-(x**2) / 2.0), grid_1d)
    out = apply_semigroup(fam, 1.0, f)
    target = sample(lambda x: (6 * np.pi) ** -0.5 * np.exp(-(x**2) / 6.0), grid_1d)
    assert np.abs(out.values - target.values).max() < 1e-10


def test_apply_semigroup_strong_continuity_surrogate():
    g = make_grid(1, 8192, 40.0)
    fam = KernelFamily(gauss_weierstrass(1), g)
    from lplab.verifier import CorpusSpec, generate_corpus

    f = generate_corpus(CorpusSpec(seed=3, count=1, families=("mollified_step",),
                                   band_limit=16.0), g)[0]
    out = apply_semigroup(fam, 0.001, f)
    assert np.abs(out.values - f.values).max() <= 0.05 * np.abs(f.values).max()


def test_apply_semigroup_l1_contraction(grid_1d, corpus_small):
    fam = KernelFamily(generalized_gauss_weierstrass(2.0), grid_1d)
    for f in corpus_small[:5]:
        out = apply_semigroup(fam, 0.5, f)
        assert lp_norm(out, 1) <= fam.l1_norm(0.5) * lp_norm(f, 1) + 1e-12


def test_sub_markov_property(grid_1d):
    fam = KernelFamily(gauss_weierstrass(1), grid_1d)
    x = grid_1d.axis_coords()
    indicator = SampledField(grid_1d, ((x > -5) & (x < 5)).astype(float))
    out = apply_semigroup(fam, 0.5, indicator).values.real
    assert out.min() >= -1e-8 and out.max() <= 1.0 + 1e-8


@pytest.mark.parametrize("m", [1.0, 2.0])
def test_spectral_scaling_law(grid_1d, m):
    # p_t(x) = t^(-n/2m) p_1(t^(-1/2m) x) checked with a grid-aligned rescale
    c = 2  # t^(-1/2m) = 2 maps lattice points onto lattice points
    t = float(c) ** (-2.0 * m)
    p_t = spectral_kernel(generalized_gauss_weierstrass(m), t, grid_1d)
    p_1 = spectral_kernel(generalized_gauss_weierstrass(m), 1.0, grid_1d)
    N = grid_1d.samples_per_axis
    j = np.arange(N)
    inside = np.abs(c * (j - N // 2)) < N // 2  # c*x stays inside the box
    rescaled = c * p_1.values[c * (j[inside] - N // 2) + N // 2]
    assert np.abs(p_t.values[inside] - rescaled).max() < 1e-6
    # outside that window both kernels have decayed away
    assert np.abs(p_t.values[~inside]).max() < 1e-6


@pytest.mark.parametrize("m", [1.0, 2.0])
def test_self_regularizing_forward_in_time(grid_1d, res_1d, m):
    # || p_t | B^s_{p,q} || <= || p_(t-T) ||_L1 * || p_T | B^s_{p,q} ||
    fam = KernelFamily(generalized_gauss_weierstrass(m), grid_1d)
    t, T = 1.0, 0.5
    for sp in (SpaceParams("B", 0.5, 1.0, 2.0), SpaceParams("B", 1.0, 2.0, INF)):
        lhs = besov_norm(fam.kernel(t), res_1d, sp).value
        rhs = fam.l1_norm(t - T) * besov_norm(fam.kernel(T), res_1d, sp).value
        assert lhs <= rhs * (1 + 1e-10)


def test_iterated_norm_bound(grid_1d, res_1d):
    # || p_t | B^(sk)_{1,inf} || <= C^k || p_(t/k) | B^s_{1,inf} ||^k where C
    # is the empirical two-norm convolution constant measured on the very
    # convolution steps that build p_t out of p_(t/k)
    fam = KernelFamily(gauss_weierstrass(1), grid_1d)
    s = 0.5
    t = 1.0

    def bnorm(field, smooth):
        return besov_norm(field, res_1d, SpaceParams("B", smooth, 1.0, INF)).value

    for k in (2, 3):
        step = fam.kernel(t / k)
        c_steps = []
        acc = step
        for j in range(1, k):
            nxt = convolve(acc, step)
            c_steps.append(bnorm(nxt, s * (j + 1)) / (bnorm(acc, s * j) * bnorm(step, s)))
            acc = nxt
        # the k-step bound uses a uniform constant >= 1 raised to the k-th
        # power, which dominates the k-1 actual convolution steps
        c_emp = max(1.0, max(c_steps))
        lhs = bnorm(fam.kernel(t), s * k)
        rhs = c_emp ** k * bnorm(step, s) ** k
        print(f"k={k}: empirical step constant {max(c_steps):.4f}")
        assert np.isfinite(c_emp)
        assert lhs <= rhs * (1 + 1e-6)


def test_second_derivative_gradient_square_bound(grid_1d):
    # integral |d^2 p_t| <= (integral |d p_(t/2)|)^2
    fam = KernelFamily(gauss_weierstrass(1), grid_1d)
    for t in (0.5, 1.0, 2.0):
        d2 = spectral_derivative(fam.kernel(t), 2)
        lhs = lp_norm(d2, 1)
        rhs = gradient_l1(fam.kernel(t / 2.0)) ** 2
        assert lhs <= rhs + 1e-6


def test_kernel_family_diagnostics(grid_1d):
    fam = KernelFamily(gauss_weierstrass(1), grid_1d)
    d = kernel_diagnostics(fam.kernel(1.0), 1.0)
    assert set(d) == {"t", "mass", "l1_norm", "gradient_l1", "min_value"}
    assert abs(d["mass"] - 1.0) < 1e-6
    assert abs(d["gradient_l1"] - INV_SQRT_PI) < 1e-4


def test_two_dimensional_heat_kernel(grid_2d):
    # polar integration gives integral |grad p_1| = sqrt(pi)/2 in dim 2
    fam = KernelFamily(gauss_weierstrass(2), grid_2d)
    p1 = fam.kernel(1.0)
    assert abs(integrate(p1) - 1.0) < 1e-12
    assert abs(gradient_l1(p1) - np.sqrt(np.pi) / 2.0) < 1e-4
    assert chapman_kolmogorov_residual(fam, 0.5, 0.5) <= 1e-8


def test_spec_validation():
    with pytest.raises(ValueError):
        generalized_gauss_weierstrass(0.0)
    with pytest.raises(ValueError):
        stable_exponent(2.5)
    with pytest.raises(ValueError):
        stable_exponent(5e-324)  # its order alpha/2 underflows to 0
    with pytest.raises(ValueError):
        char_exponent(None, 1)
    with pytest.raises(ValueError):
        KernelFamily(gauss_weierstrass(2), make_grid(1, 256, 10.0))
    # dim follows the grid's rule: an integer, never a bool or a fraction
    for dim in (True, 1.5, "2"):
        with pytest.raises(ValueError, match="dim must be 1, 2 or 3"):
            SemigroupSpec(dim, m=1.0)
    assert SemigroupSpec(2.0, m=1.0) == gauss_weierstrass(2)
    for m in (INF, -INF, np.nan, True):
        with pytest.raises(ValueError, match="order m must be > 0 and finite"):
            SemigroupSpec(1, m=m)
    with pytest.raises(ValueError, match="order m must be > 0 and finite, got inf"):
        generalized_gauss_weierstrass(INF)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_isotropic_symbols_share_one_path(dim, alpha):
    g = make_grid(dim, 64, 5.0)
    rho = np.sqrt(sum(m.astype(float) ** 2 for m in g.freq_mesh()))
    assert np.array_equal(symbol_values(stable_exponent(alpha, dim), g), rho**alpha)
    assert np.array_equal(symbol_values(gauss_weierstrass(dim), g), rho**2)
    if dim == 1:
        assert np.array_equal(symbol_values(cauchy_poisson(), g), rho)


def test_gradient_l1_holds_one_derivative_at_a_time():
    grid = make_grid(3, 64, 4.0)
    p = spectral_kernel(gauss_weierstrass(3), 0.05, grid)
    gradient_l1(p)  # fill any cache
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        gradient_l1(p)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the 2 MiB sum of squares and one component's synthesis: its product,
    # which its first inverse pass overwrites, and its samples (6.07 MiB
    # measured); a first pass into a new half lattice peaked 8.13 MiB, and
    # keeping the last component while the next was synthesized 10.19 MiB
    assert peak <= 7 * 2**20
