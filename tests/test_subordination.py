import gc
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from lplab import (
    INF,
    BernsteinSpec,
    SubordinatorDensity,
    SpaceParams,
    bernstein_eval,
    besov_norm,
    build_resolution,
    cauchy_poisson,
    closed_form_kernel,
    integrate,
    log_bernstein,
    make_grid,
    power_bernstein,
    sample,
    spectral_kernel,
    stable_half_density,
    subordinate_kernel,
    subordinator_moment,
    user_bernstein,
    user_density,
)
from lplab.subordination import laplace_residuals


def half_stable_pdf(r, t):
    return t / (2.0 * math.sqrt(math.pi)) * r**-1.5 * math.exp(-t * t / (4.0 * r))


def moment_closed_form(u, t):
    # E(S_t^{-u/2}) = 2^u Gamma((u+1)/2) t^(-u) / sqrt(pi), obtained from the
    # substitution v = t^2/(4r); cross-checked below by direct quadrature
    return 2.0**u * math.gamma((u + 1) / 2.0) * t**-u / math.sqrt(math.pi)


def test_moment_closed_form_against_quadrature_oracle():
    for u in (0.5, 1.0, 2.0):
        for t in (0.5, 1.0, 2.0):
            val, err = quad(lambda r: r ** (-u / 2) * half_stable_pdf(r, t),
                            0.0, np.inf, limit=400)
            assert err < 1e-8 * max(val, 1.0)
            assert abs(val - moment_closed_form(u, t)) < 1e-9 * val


# ---------------------------------------------------------------------------
# Bernstein functions


def test_power_half_eval_and_inverse():
    g = power_bernstein(0.5)
    assert bernstein_eval(g, 4.0) == 2.0


def test_log_eval():
    g = log_bernstein()
    assert abs(bernstein_eval(g, math.e - 1.0) - 1.0) < 1e-15


def test_bernstein_vanishes_at_zero():
    for g in (power_bernstein(0.3), power_bernstein(1.0), log_bernstein(),
              user_bernstein(lambda lam: 1.0 - np.exp(-lam))):
        assert bernstein_eval(g, 0.0) == 0.0


def test_convex_function_rejected():
    with pytest.raises(ValueError, match="concave"):
        user_bernstein(lambda lam: lam**2)


def test_directly_built_spec_is_checked():
    with pytest.raises(ValueError, match="concave"):
        BernsteinSpec(lambda lam: lam**2)
    with pytest.raises(ValueError, match="g\\(0\\) = 0"):
        BernsteinSpec(lambda lam: lam + 1.0)
    # NaN values fail every check instead of passing it
    with pytest.raises(ValueError, match="g\\(0\\) = 0"), np.errstate(invalid="ignore"):
        user_bernstein(lambda lam: np.sqrt(lam - 1.0))
    with pytest.raises(ValueError, match="nondecreasing"):
        user_bernstein(lambda lam: np.where(lam < 1e3, np.sqrt(lam), np.nan))


@pytest.mark.parametrize("lam", [-1.0, [0.0, -1e-300], np.nan], ids=["negative", "one-negative", "nan"])
def test_bernstein_eval_refuses_negative_lambda(lam):
    with pytest.raises(ValueError, match="lambda must be >= 0"):
        bernstein_eval(power_bernstein(0.5), lam)


def test_power_exponent_validated():
    with pytest.raises(ValueError):
        power_bernstein(1.5)


# ---------------------------------------------------------------------------
# Stable subordinator density


def test_stable_half_density_laplace_identity():
    dens = stable_half_density(1.0)
    resid = laplace_residuals(dens)
    for lam, r in resid.items():
        assert r < 1e-5, f"lambda={lam}"
    assert abs(dens.mass() - 1.0) < 1e-6


def test_stable_half_density_unimodal():
    dens = stable_half_density(1.0)
    k = int(np.argmax(dens.density))
    assert 0 < k < dens.nodes.size - 1
    assert 0.05 < dens.nodes[k] < 1.0  # mode near t^2/6


def test_stable_half_density_bad_range_aborts():
    with pytest.raises(ValueError):
        stable_half_density(1.0, num_nodes=512, r_min=1e-4, r_max=1e2)
    with pytest.raises(ValueError, match="strictly increasing, got \\[nan"):
        stable_half_density(1.0, num_nodes=512, r_min=np.nan)


@pytest.mark.parametrize("kwargs,named", [
    ({"t": math.inf}, "t must be"),
    ({"t": 1.0, "r_max": math.inf}, "r_max"),
    ({"t": 1.0, "r_min": math.inf}, "r_min"),
], ids=["t", "r_max", "r_min"])
def test_stable_half_density_refuses_infinite_input(kwargs, named):
    with pytest.raises(ValueError, match=f"{named}.*inf"):
        stable_half_density(num_nodes=512, **kwargs)


def test_density_node_count_floor():
    with pytest.raises(ValueError):
        stable_half_density(1.0, num_nodes=64)


@pytest.mark.parametrize("t, bernstein, named", [
    (0.0, power_bernstein(0.5), "t must be positive"),
    (-1.0, power_bernstein(0.5), "t must be positive"),
    (np.nan, power_bernstein(0.5), "t must be positive"),
    # the alpha = 1/2 law carries unit mass but is not the gamma law's density
    (1.0, log_bernstein(), "Laplace identity residual"),
], ids=["t-zero", "t-negative", "t-nan", "wrong-law"])
def test_user_density_refuses_bad_law(t, bernstein, named):
    dens = stable_half_density(1.0, num_nodes=512)
    with pytest.raises(ValueError, match=named):
        user_density(t, dens.nodes, dens.density, bernstein)


def test_user_density_refuses_bad_nodes():
    g = power_bernstein(0.5)
    with pytest.raises(ValueError, match="strictly increasing"):
        user_density(1.0, [1.0], [1.0], g)
    with pytest.raises(ValueError, match="strictly increasing"):
        user_density(1.0, [1.0, 3.0, 2.0], [1.0, 1.0, 1.0], g)
    with pytest.raises(ValueError, match="strictly increasing"):
        user_density(1.0, [-1.0, 1.0, 2.0], [1.0, 1.0, 1.0], g)
    dens = stable_half_density(1.0, num_nodes=512)
    nodes, density = dens.nodes.copy(), dens.density.copy()
    nodes[100], density[100] = np.nan, np.nan
    with pytest.raises(ValueError, match="strictly increasing"):
        user_density(1.0, nodes, dens.density, g)
    with pytest.raises(ValueError, match="density is not finite"):
        user_density(1.0, dens.nodes, density, g)


def test_density_weights_are_derived_and_read_only():
    dens = stable_half_density(1.0, num_nodes=512)
    again = user_density(1.0, dens.nodes, dens.density, power_bernstein(0.5))
    assert np.array_equal(again.weights, dens.weights)
    with pytest.raises(ValueError):
        dens.weights[0] = 0.0
    with pytest.raises(TypeError):
        SubordinatorDensity(1.0, dens.nodes, dens.density, power_bernstein(0.5),
                            weights=dens.weights)
    with pytest.raises(ValueError, match="mass"):
        SubordinatorDensity(1.0, dens.nodes, 2.0 * dens.density, power_bernstein(0.5))


# ---------------------------------------------------------------------------
# Subordinate kernels


def test_subordinate_kernel_is_cauchy(grid_1d):
    dens = stable_half_density(1.0, num_nodes=4096)
    kern = subordinate_kernel(dens, grid_1d)
    cauchy = closed_form_kernel(cauchy_poisson(), 1.0, grid_1d)
    assert np.abs(kern.values - cauchy.values).max() < 1e-4


def test_subordinate_kernel_mass_reflects_tail():
    # quadrature weights carry unit mass; the box integral is short exactly
    # the Cauchy tail 1 - (2/pi) arctan(L)
    g = make_grid(1, 2048, 40.0)
    dens = stable_half_density(1.0)
    kern = subordinate_kernel(dens, g)
    assert abs(dens.mass() - 1.0) < 1e-6
    box_mass = (2.0 / np.pi) * np.arctan(g.half_width)
    assert abs(integrate(kern) - box_mass) < 1e-6


def test_subordinate_kernel_matches_spectral_route():
    g = make_grid(1, 2**14, 100.0)
    dens = stable_half_density(1.0)
    kern = subordinate_kernel(dens, g)
    spectral = spectral_kernel(cauchy_poisson(), 1.0, g)
    assert np.abs(kern.values - spectral.values).max() < 2e-4


def test_subordinate_kernel_warns_on_thin_nodes():
    g = make_grid(1, 1024, 20.0)
    dens = stable_half_density(1.0, num_nodes=2048, r_min=3e-4, r_max=1e13)
    with pytest.warns(UserWarning, match="cover"):
        subordinate_kernel(dens, g)


def test_subordinate_kernel_2d_closed_form(grid_2d):
    # subordinating the planar heat kernel with g = sqrt gives the kernel
    # (1/2pi) (t^2 + |x|^2)^(-3/2) t; checked at t = 1
    dens = stable_half_density(1.0, num_nodes=2048)
    kern = subordinate_kernel(dens, grid_2d)
    closed = sample(lambda x, y: (1 + x**2 + y**2) ** -1.5 / (2 * np.pi), grid_2d)
    assert np.abs(kern.values - closed.values).max() < 1e-12


def test_subordinate_kernel_3d_closed_form():
    # subordinating the 3-D heat kernel with g = sqrt gives the Poisson kernel
    # t / (pi^2 (t^2 + |x|^2)^2); checked at t = 1
    g = make_grid(3, 64, 8.0)
    kern = subordinate_kernel(stable_half_density(1.0, num_nodes=4096), g)
    closed = sample(lambda x, y, z: 1.0 / (np.pi**2 * (1 + x**2 + y**2 + z**2) ** 2), g)
    assert np.abs(kern.values - closed.values).max() < 1e-12


def _dense_subordinate_kernel(dens, grid):
    # one exponential per (node, grid point) pair, in the same node chunks
    r2 = sum(m**2 for m in grid.coord_mesh()).ravel()
    out = np.zeros(r2.size)
    coeff = dens.weights * dens.density
    step = max(1, 2**15 // np.unique(r2).size)
    with np.errstate(under="ignore"):
        for i in range(0, dens.nodes.size, step):
            r = dens.nodes[i:i + step, None]
            c = coeff[i:i + step, None] * (4.0 * np.pi * r) ** (-grid.dim / 2.0)
            out += np.einsum("ij->j", c * np.exp(-r2[None, :] / (4.0 * r)))
    return out.reshape(grid.shape)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_subordinate_kernel_radial_route_is_bitwise_dense(dim):
    # 512 nodes on 64^3 keep the dense reference affordable; its node chunks,
    # sized by the distinct radii, are the radial route's (17 nodes at L = 10).
    # At L = 5.7 and 8.3 the squares of mirrored points need not be equal, so
    # an axis holds more than N/2 + 1 distinct squares.
    stable = stable_half_density(1.0, num_nodes=512)
    nodes = np.geomspace(1e-8, 1e4, 512)
    gamma = user_density(1.0, nodes, np.exp(-nodes), log_bernstein())
    cases = {1: [(10.0, gamma), (10.0, stable)],
             2: [(10.0, gamma), (10.0, stable), (5.7, stable)],
             3: [(10.0, gamma), (10.0, stable), (8.0, stable), (8.3, stable)]}[dim]
    for L, dens in cases:
        g = make_grid(dim, 64, L)
        assert np.array_equal(subordinate_kernel(dens, g).values,
                              _dense_subordinate_kernel(dens, g))


def test_subordinate_kernel_holds_no_lattice_sized_temporary():
    g = make_grid(3, 64, 8.0)
    dens = stable_half_density(1.0, num_nodes=512)
    subordinate_kernel(dens, g)  # fill any cache
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kern = subordinate_kernel(dens, g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the 2 MiB gather, which the field takes over, and the sort of the 33^3
    # tuples of axis squares (about 2.8 MiB); the three dense |x|^2 meshes
    # and their sort peaked at 12.3 MiB
    assert kern.values.shape == g.shape
    assert peak <= 6 * 2**20


def test_subordinate_kernel_chunks_do_not_grow_with_the_lattice():
    # the README's 1-D `lplab subordinate --nodes 4096`: 2049 distinct radii,
    # 15 nodes at a time (0.64 MiB measured); chunks sized by the lattice,
    # 1024 nodes of 2049 radii, peaked 32.2 MiB for a 32 KiB field
    g = make_grid(1, 4096, 40.0)
    dens = stable_half_density(1.0, num_nodes=4096)
    subordinate_kernel(dens, g)  # fill any cache
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        subordinate_kernel(dens, g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_subordinate_kernel_field_is_its_gather():
    g = make_grid(3, 64, 8.0)
    dens = stable_half_density(1.0, num_nodes=512)
    subordinate_kernel(dens, g)  # fill any cache
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kern = subordinate_kernel(dens, g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # one 2 MiB field and the small arrays of the distinct radii (2.78 MiB
    # measured); a field that copied the gather held it twice, 4.56 MiB
    assert kern.dtype == np.float64 and not kern.values.flags.writeable
    assert peak <= 3 * 2**20


# ---------------------------------------------------------------------------
# Moment functional


def test_moment_total_mass():
    dens = stable_half_density(0.7)
    assert abs(subordinator_moment(dens, 0.0) - 1.0) < 1e-6


def test_moment_matches_closed_form():
    for t in (0.5, 1.0, 2.0):
        dens = stable_half_density(t)
        for u in (0.5, 1.0, 2.0):
            got = subordinator_moment(dens, u)
            want = moment_closed_form(u, t)
            assert abs(got / want - 1.0) < 1e-5


def test_moment_slope_is_minus_u():
    ts = (0.5, 1.0, 2.0)
    for u in (0.5, 1.0):
        vals = [subordinator_moment(stable_half_density(t), u) for t in ts]
        slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
        assert abs(slope + u) < 1e-3


def test_moment_consistent_with_inverse_bernstein_shape():
    # for g = sqrt(lambda), g^-1(y) = y^2, so g^-1(1/t)^(u/2) = t^-u, the
    # measured decay
    u = 1.0
    for t in (0.25, 0.5, 1.0):
        k_t = subordinator_moment(stable_half_density(t), u)
        shape = t**-u
        assert 0.4 < k_t / shape < 2.5  # same power law up to a constant


def test_moment_unresolved_singularity_raises():
    # Gamma subordinator at t = 1: density e^{-r}, Laplace transform
    # 1/(1+lambda) = e^{-log(1+lambda)}; r^{-1} moment diverges at r -> 0
    nodes = np.geomspace(1e-8, 1e4, 4096)
    dens = user_density(1.0, nodes, np.exp(-nodes), log_bernstein())
    assert abs(subordinator_moment(dens, 0.5) - math.gamma(0.75)) < 1e-4
    with pytest.raises(ValueError, match="edge"):
        subordinator_moment(dens, 2.0)
    with pytest.raises(ValueError, match="u must be finite and >= 0, got nan"):
        subordinator_moment(dens, np.nan)


# ---------------------------------------------------------------------------
# Smoothing bounds through subordination


def test_subordinate_norm_bounded_by_moment():
    # || p_t^(g) | B^u_{1,inf} || <= C_u (1 + K_t), with a stable ratio
    g = make_grid(1, 2048, 40.0)
    res = build_resolution(g)
    u = 0.5
    sp = SpaceParams("B", u, 1.0, INF)
    ratios = []
    for t in (0.25, 0.5, 1.0, 2.0):
        dens = stable_half_density(t)
        kern = subordinate_kernel(dens, g)
        k_t = subordinator_moment(dens, u)
        ratios.append(besov_norm(kern, res, sp).value / (1.0 + k_t))
    ratios = np.array(ratios)
    print(f"subordinate smoothing constants: {np.round(ratios, 4)}")
    assert np.all(np.isfinite(ratios))
    assert ratios.max() / ratios.min() < 2.0


def test_subordinate_norm_below_mixture_of_kernel_norms():
    # || p_t^(g) | B^u_{1,inf} || <= sum w rho(r) || q_r | B^u_{1,inf} ||
    g = make_grid(1, 2048, 40.0)
    res = build_resolution(g)
    u = 0.5
    sp = SpaceParams("B", u, 1.0, INF)
    dens = stable_half_density(1.0, num_nodes=512)
    kern = subordinate_kernel(dens, g)
    lhs = besov_norm(kern, res, sp).value
    x = g.axis_coords()
    rhs = 0.0
    for r, w, rho in zip(dens.nodes, dens.weights, dens.density):
        q_r = sample(lambda xx, r=r: (4 * np.pi * r) ** -0.5 * np.exp(-(xx**2) / (4 * r)), g)
        rhs += w * rho * besov_norm(q_r, res, sp).value
    assert lhs <= rhs * (1 + 1e-10)
