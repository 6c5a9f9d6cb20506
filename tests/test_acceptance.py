"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here.  Expected values come from closed forms
re-derived analytically and cross-checked against independent quadrature
(see test_subordination for the moment-functional oracle).
"""

import math
import time

import numpy as np
import pytest

from lplab import (
    INF,
    KernelFamily,
    SpaceParams,
    besov_norm,
    build_resolution,
    bump_profile,
    cauchy_poisson,
    chapman_kolmogorov_residual,
    check_inequality,
    closed_form_kernel,
    conv_eq23_case,
    fit_power_law,
    gauss_weierstrass,
    generalized_gauss_weierstrass,
    gradient_l1,
    lp_norm,
    make_grid,
    profile_equivalence,
    refined,
    resolution_l1_bound,
    spectral_derivative,
    stable_exponent,
    stable_half_density,
    subordinate_kernel,
    subordinator_moment,
)
from lplab.verifier import CorpusSpec, InequalityCase, generate_corpus

GRID = make_grid(1, 4096, 40.0)
RES = build_resolution(GRID)
INV_SQRT_PI = 0.5641895835477563


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, detail


def kernel_b_norm(fam, t, u, res):
    return besov_norm(fam.kernel(t), res, SpaceParams("B", u, 1.0, INF)).value


def test_c01_gradient_integral_heat_kernel():
    start = time.perf_counter()
    fam = KernelFamily(gauss_weierstrass(1), GRID)
    value = gradient_l1(fam.kernel(1.0))
    elapsed = time.perf_counter() - start
    err = abs(value - INV_SQRT_PI)
    report(1, err < 1e-4 and elapsed < 1.0,
           f"gradient_l1 = {value:.10f} vs 1/sqrt(pi) = {INV_SQRT_PI:.10f} "
           f"(err {err:.2e}, {elapsed * 1e3:.0f} ms)")


def test_c02_mass_invariance_in_time():
    worst = 0.0
    for m in (1.0, 1.5, 2.0, 3.0):
        fam = KernelFamily(generalized_gauss_weierstrass(m), GRID)
        masses = [fam.l1_norm(t) for t in (0.25, 0.5, 1.0, 2.0)]
        spread = (max(masses) - min(masses)) / min(masses)
        worst = max(worst, spread)
    report(2, worst < 1e-3, f"max relative L1-mass spread over m, t: {worst:.2e}")


def test_c03_gradient_rate():
    ts = [2.0**j for j in range(-6, 1)]
    rows = []
    for m in (1.0, 2.0, 3.0):
        fam = KernelFamily(generalized_gauss_weierstrass(m), GRID)
        fit = fit_power_law(ts, [gradient_l1(fam.kernel(t)) for t in ts])
        rows.append((m, fit.exponent, -1.0 / (2 * m)))
    ok = all(abs(got - want) < 0.02 for _, got, want in rows)
    detail = "; ".join(f"m={m:g}: {got:+.4f} (want {want:+.4f})" for m, got, want in rows)
    report(3, ok, detail)


def test_c04_kernel_norm_smoothing_rate():
    rows = []
    for m, u in ((1.0, 0.5), (1.0, 1.0), (2.0, 1.0)):
        fam = KernelFamily(generalized_gauss_weierstrass(m), GRID)
        # t chosen so t^(1/2m) is a power of two: the dyadic block sup slides
        # without wobble and the fit sees the asymptotic small-t regime
        ts = [(2.0**-j) ** (2 * m) for j in range(1, 5)]
        fit = fit_power_law(ts, [kernel_b_norm(fam, t, u, RES) for t in ts])
        rows.append((m, u, fit.exponent, -u / (2 * m)))
    ok = all(abs(got - want) < 0.05 for _, _, got, want in rows)
    detail = "; ".join(f"(m={m:g},u={u:g}): {got:+.4f} (want {want:+.4f})"
                       for m, u, got, want in rows)
    report(4, ok, detail)


def test_c05_stable_kernel_norm_rate():
    rows = []
    cases = [
        (0.75, make_grid(1, 2**17, 20.0), range(2, 7)),
        (1.5, make_grid(1, 8192, 40.0), range(1, 6)),
    ]
    for alpha, grid, js in cases:
        res = build_resolution(grid)
        fam = KernelFamily(stable_exponent(alpha), grid)
        u = alpha / 2.0
        ts = [2.0 ** (-alpha * j) for j in js]  # t^(1/alpha) dyadic
        fit = fit_power_law(ts, [kernel_b_norm(fam, t, u, res) for t in ts])
        rows.append((alpha, fit.exponent))
    ok = all(abs(got + 0.5) < 0.05 for _, got in rows)
    detail = "; ".join(f"alpha={a:g}: {got:+.4f} (want -0.5)" for a, got in rows)
    report(5, ok, detail)


def test_c06_chapman_kolmogorov():
    r1 = chapman_kolmogorov_residual(KernelFamily(gauss_weierstrass(1), GRID), 0.5, 0.5)
    r2 = chapman_kolmogorov_residual(
        KernelFamily(generalized_gauss_weierstrass(2.0), GRID), 0.5, 0.5)
    report(6, r1 <= 1e-8 and r2 <= 1e-8,
           f"residuals: m=1 {r1:.2e}, m=2 {r2:.2e} (tol 1e-8)")


CONV1_B_CONFIGS = [
    dict(s=0.5, p1=2.0, p2=2.0, p=INF, q=2.0),
    dict(s=0.0, p1=1.0, p2=1.0, p=1.0, q=1.0),
    dict(s=1.0, p1=1.0, p2=2.0, p=2.0, q=INF),
    dict(s=-0.5, p1=2.0, p2=1.0, p=2.0, q=1.0),
    dict(s=0.5, p1=1.0, p2=INF, p=INF, q=0.5),   # quasi-norm q < 1 (B only)
    dict(s=1.5, p1=1.5, p2=3.0, p=INF, q=3.0),
]

CONV1_F_CONFIGS = [
    dict(s=0.5, p1=1.0, p2=1.0, p=1.0, q=2.0),
    dict(s=0.0, p1=1.0, p2=2.0, p=2.0, q=1.0),
    dict(s=1.0, p1=2.0, p2=1.0, p=2.0, q=INF),
    dict(s=-0.5, p1=1.0, p2=1.0, p=1.0, q=1.0),
    dict(s=0.5, p1=1.5, p2=2.0, p=6.0, q=1.5),
    dict(s=1.5, p1=1.0, p2=3.0, p=3.0, q=3.0),
]


def _corpora_50(grid):
    return (generate_corpus(CorpusSpec(seed=7, count=50, band_limit=16.0), grid),
            generate_corpus(CorpusSpec(seed=11, count=50, band_limit=16.0), grid))


@pytest.fixture(scope="module")
def corpora_4096():
    return _corpora_50(GRID)


def test_c07_conv1_besov_constant_one(corpora_4096):
    worst = 0.0
    for cfg in CONV1_B_CONFIGS:
        case = InequalityCase("conv1", scale="B", **cfg)
        rep = check_inequality(case, corpora_4096[0], corpora_4096[1], RES)
        worst = max(worst, rep.max_ratio)
        assert rep.skipped == 0
    report(7, worst <= 1.0 + 1e-6,
           f"max ratio over 6 configs x 50 pairs: {worst:.12f} (claim 1 + 1e-6)")


def test_c08_conv1_triebel_constant_one(corpora_4096):
    worst = 0.0
    for cfg in CONV1_F_CONFIGS:
        case = InequalityCase("conv1", scale="F", **cfg)
        rep = check_inequality(case, corpora_4096[0], corpora_4096[1], RES)
        worst = max(worst, rep.max_ratio)
        assert rep.skipped == 0
    report(8, worst <= 1.0 + 1e-4,
           f"max ratio over 6 configs x 50 pairs: {worst:.12f} (claim 1 + 1e-4)")


CONV3_CONFIGS = [
    InequalityCase("conv3", scale="B", s=0.5, u=0.5, p=1.0, p1=1.0, p2=1.0,
                   q=1.0, q1=2.0, q2=2.0),
    InequalityCase("conv3", scale="B", s=0.5, u=1.0, p=INF, p1=2.0, p2=2.0,
                   q=1.0, q1=2.0, q2=2.0),
    InequalityCase("conv3", scale="F", s=0.5, u=0.5, p=2.0, p1=1.0, p2=2.0,
                   q=2.0, q1=2.0, q2=2.0),
    conv_eq23_case("B", s=0.5, u=0.5, p=2.0, q=2.0),
]


def test_c09_conv3_empirical_constant_stability():
    grid = make_grid(1, 2048, 40.0)
    spec_f = CorpusSpec(seed=7, count=50, band_limit=16.0)
    spec_g = CorpusSpec(seed=11, count=50, band_limit=16.0)
    rows = []
    for case in CONV3_CONFIGS:
        rep = refined(lambda g: check_inequality(case, generate_corpus(spec_f, g),
                                                 generate_corpus(spec_g, g),
                                                 build_resolution(g)), grid)
        rows.append((case.name, case.scale, rep.empirical_C, rep.refinement_delta))
        assert rep.verdict
    ok = all(math.isfinite(c) and d <= 0.05 for _, _, c, d in rows)
    detail = "; ".join(f"{n}/{sc}: C={c:.3f} delta={d:.4f}" for n, sc, c, d in rows)
    report(9, ok, detail + " (stability tol 5%, N=2048 vs 4096)")


def test_c10_subordination_identity():
    dens = stable_half_density(1.0, num_nodes=4096)
    kern = subordinate_kernel(dens, GRID)
    cauchy = closed_form_kernel(cauchy_poisson(), 1.0, GRID)
    err = np.abs(kern.values - cauchy.values).max()
    report(10, err <= 1e-4,
           f"sup |subordinate - Cauchy closed form| = {err:.2e} "
           f"(tol 1e-4, {dens.nodes.size} nodes)")


def test_c11_moment_functional():
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        dens = stable_half_density(t)
        for u in (0.5, 1.0, 2.0):
            got = subordinator_moment(dens, u)
            want = 2.0**u * math.gamma((u + 1) / 2.0) * t**-u / math.sqrt(math.pi)
            worst = max(worst, abs(got / want - 1.0))
    report(11, worst < 1e-5, f"max relative moment error: {worst:.2e} (tol 1e-5)")


def test_c12_b01inf_multiplier_bound(corpora_4096):
    c_bound = resolution_l1_bound(RES)
    violations = 0
    margin = 0.0
    for f in corpora_4096[0] + corpora_4096[1]:
        ratio = besov_norm(f, RES, SpaceParams("B", 0.0, 1.0, INF)).value / lp_norm(f, 1)
        margin = max(margin, ratio / c_bound)
        if ratio > c_bound * (1 + 1e-12):
            violations += 1
    report(12, violations == 0,
           f"C = max_k ||F^-1 phi_k||_L1 = {c_bound:.4f}; violations {violations}/100 "
           f"(worst ratio/C = {margin:.3f})")


def test_c13_profile_equivalence_stability():
    spec = CorpusSpec(seed=13, count=40, band_limit=16.0)
    sp = SpaceParams("B", 0.5, 1.0, 1.0)
    pa, pb = bump_profile(1.0), bump_profile(2.0, name="steep")
    rep = refined(lambda g: profile_equivalence(generate_corpus(spec, g), g, pa, pb, sp),
                  make_grid(1, 2048, 40.0))
    # each ratio is a two-sided factor max(r, 1/r), so r lies in [1/c, c]
    assert len(rep.ratios) == 40 and min(rep.ratios) >= 1.0
    c0, delta = rep.details["coarse_empirical_C"], rep.refinement_delta
    report(13, delta < 0.05 and rep.verdict,
           f"equivalence constants c: N=2048 -> {c0:.5f}, N=4096 -> {rep.empirical_C:.5f} "
           f"(delta {delta:.4f}, tol 5%)")


def test_c14_second_derivative_bound():
    fam = KernelFamily(gauss_weierstrass(1), GRID)
    rows = []
    for t in (0.5, 1.0, 2.0):
        lhs = lp_norm(spectral_derivative(fam.kernel(t), 2), 1)
        rhs = gradient_l1(fam.kernel(t / 2.0)) ** 2
        rows.append((t, lhs, rhs))
    ok = all(lhs <= rhs + 1e-6 for _, lhs, rhs in rows)
    detail = "; ".join(f"t={t:g}: {lhs:.6f} <= {rhs:.6f}" for t, lhs, rhs in rows)
    report(14, ok, detail + " (tol 1e-6)")
