import numpy as np
import pytest

from lplab import (
    INF,
    KernelFamily,
    SpaceParams,
    apply_block,
    besov_norm,
    build_resolution,
    bump_profile,
    char_exponent,
    check_inequality,
    check_with_refinement,
    conv_eq23_case,
    fit_power_law,
    gauss_weierstrass,
    generalized_gauss_weierstrass,
    gradient_l1,
    lp_norm,
    make_grid,
    profile_equivalence,
    sample,
    smoothing_sweep,
    stable_exponent,
    theorem_semi11_bound_check,
)
from lplab.verifier import CorpusSpec, InequalityCase, VerificationReport, generate_corpus


@pytest.fixture(scope="module")
def grid_v():
    return make_grid(1, 2048, 40.0)


@pytest.fixture(scope="module")
def res_v(grid_v):
    return build_resolution(grid_v)


@pytest.fixture(scope="module")
def corpora(grid_v):
    spec_f = CorpusSpec(seed=7, count=20, band_limit=16.0)
    spec_g = CorpusSpec(seed=11, count=20, band_limit=16.0)
    return generate_corpus(spec_f, grid_v), generate_corpus(spec_g, grid_v)


# ---------------------------------------------------------------------------
# Corpus


def test_corpus_deterministic(grid_v):
    spec = CorpusSpec(seed=7, count=10, band_limit=16.0)
    a = generate_corpus(spec, grid_v)
    b = generate_corpus(spec, grid_v)
    assert len(a) == len(b) == 10
    for fa, fb in zip(a, b):
        assert fa.values.tobytes() == fb.values.tobytes()


def test_corpus_fields_are_normalized_real_and_band_limited(grid_v, res_v, corpora):
    band = 16.0
    for f in corpora[0]:
        assert np.abs(f.values.imag).max() == 0.0
        assert abs(lp_norm(f, 1) - 1.0) < 1e-12
        for k in range(res_v.k_max + 1):
            if 2.0 ** (k - 1) > band:
                assert np.abs(apply_block(res_v, k, f).values).max() < 1e-13


def test_corpus_band_limit_validated(grid_v):
    with pytest.raises(ValueError, match="band_limit"):
        generate_corpus(CorpusSpec(seed=1, count=2, band_limit=64.0), grid_v)
    with pytest.raises(ValueError):
        CorpusSpec(seed=1, count=2, families=("nope",))


def test_mollified_step_block_decay(grid_v, res_v):
    # jump-type fields have || phi_k(D) f ||_L1 ~ 2^-k through the band;
    # the besov block terms must match a direct per-block computation
    corpus = generate_corpus(
        CorpusSpec(seed=5, count=4, families=("mollified_step",), band_limit=16.0),
        grid_v,
    )
    slopes = []
    for f in corpus:
        r = besov_norm(f, res_v, SpaceParams("B", 0.0, 1.0, INF))
        direct = [lp_norm(apply_block(res_v, k, f), 1) for k in range(res_v.k_max + 1)]
        assert np.abs(np.array(r.block_terms) - np.array(direct)).max() < 1e-12
        ks = np.arange(1, 5)
        slopes.append(np.polyfit(ks, np.log2([r.block_terms[k] for k in ks]), 1)[0])
    mean_slope = float(np.mean(slopes))
    print(f"mollified-step block decay slope: {mean_slope:+.3f}")
    assert -1.35 < mean_slope < -0.65


def test_refined_corpus_represents_same_fields(grid_v):
    # same seed, doubled N: values at shared lattice points nearly agree,
    # so refinement deltas measure the norms, not the corpus
    spec = CorpusSpec(seed=9, count=8, band_limit=16.0)
    coarse = generate_corpus(spec, grid_v)
    fine = generate_corpus(spec, make_grid(1, 2 * grid_v.samples_per_axis, 40.0))
    for fc, ff in zip(coarse, fine):
        diff = np.abs(ff.values[::2] - fc.values).max()
        assert diff < 2e-3 * np.abs(fc.values).max()


# ---------------------------------------------------------------------------
# Inequality checks


def test_young_equality_for_densities(grid_v, res_v):
    f = sample(lambda x: (4 * np.pi) ** -0.5 * np.exp(-(x**2) / 4.0), grid_v)
    case = InequalityCase("young", p=1.0, p1=1.0, p2=1.0)
    report = check_inequality(case, [f], [f], res_v)
    assert abs(report.max_ratio - 1.0) < 1e-12
    assert report.verdict


def test_conv1_b_scale_constant_one(res_v, corpora):
    case = InequalityCase("conv1", p=INF, p1=2.0, p2=2.0, scale="B", s=0.5, q=2.0)
    report = check_inequality(case, corpora[0], corpora[1], res_v)
    assert report.constant_claim == 1.0
    assert report.max_ratio <= 1.0 + 1e-6
    assert report.verdict and report.skipped == 0


def test_conv1_f_scale(res_v, corpora):
    case = InequalityCase("conv1", p=2.0, p1=1.0, p2=2.0, scale="F", s=0.5, q=2.0)
    report = check_inequality(case, corpora[0][:10], corpora[1][:10], res_v)
    assert report.max_ratio <= 1.0 + 1e-4
    assert report.verdict


def test_conv1_f_scale_p_infty_lower_bound(res_v, corpora):
    # p = inf routes the left side through the cube norm, which approximates
    # from below, so the constant-1 claim still holds (necessary condition)
    case = InequalityCase("conv1", p=INF, p1=2.0, p2=2.0, scale="F", s=0.5, q=2.0)
    report = check_inequality(case, corpora[0][:6], corpora[1][:6], res_v)
    assert report.max_ratio <= 1.0 + 1e-4


def test_conv3_empirical_constant_refinement_stable():
    grid = make_grid(1, 1024, 40.0)
    case = InequalityCase("conv3", p=1.0, p1=1.0, p2=1.0, scale="B",
                          s=0.5, u=0.5, q=1.0, q1=2.0, q2=2.0)
    spec_f = CorpusSpec(seed=7, count=12, band_limit=8.0)
    spec_g = CorpusSpec(seed=11, count=12, band_limit=8.0)
    report = check_with_refinement(case, spec_f, spec_g, grid)
    assert np.isfinite(report.empirical_C)
    assert report.refinement_delta <= 0.05
    assert report.verdict


def test_conv3_monotone_in_left_q(res_v, corpora):
    # enlarging q on the left shrinks the left norm, so the constant drops
    base = dict(p=1.0, p1=1.0, p2=1.0, scale="B", s=0.5, u=0.5, q1=2.0, q2=2.0)
    c_q1 = check_inequality(InequalityCase("conv3", q=1.0, **base),
                            corpora[0][:10], corpora[1][:10], res_v).empirical_C
    c_q2 = check_inequality(InequalityCase("conv3", q=2.0, **base),
                            corpora[0][:10], corpora[1][:10], res_v).empirical_C
    assert c_q2 <= c_q1 * (1 + 1e-12)


def test_conv_eq23_case_construction(res_v, corpora):
    case = conv_eq23_case("B", s=0.5, u=0.5, p=2.0, q=2.0)
    assert case.p1 == case.p and case.q1 == case.q
    assert case.p2 == 1.0 and case.q2 == INF
    report = check_inequality(case, corpora[0][:10], corpora[1][:10], res_v)
    assert np.isfinite(report.empirical_C) and report.verdict


def test_conv1_p1_infinity_engages_2n_claim(res_v, corpora):
    # p1 = inf forces p = inf, p2 = 1 and the claimed constant becomes 2^n
    case = InequalityCase("conv1", p=INF, p1=INF, p2=1.0, scale="B", s=0.5, q=2.0)
    assert case.effective_claim(1) == 2.0
    assert case.effective_claim(2) == 4.0
    report = check_inequality(case, corpora[0][:8], corpora[1][:8], res_v)
    assert report.max_ratio <= 2.0 * (1 + 1e-6) and report.verdict
    case_f = InequalityCase("conv1", p=INF, p1=INF, p2=1.0, scale="F", s=0.5, q=2.0)
    report_f = check_inequality(case_f, corpora[0][:4], corpora[1][:4], res_v)
    assert report_f.max_ratio <= 2.0 * (1 + 1e-4)


def test_inequalities_2d_smoke(grid_2d):
    res = build_resolution(grid_2d)
    spec_f = CorpusSpec(seed=3, count=6, band_limit=4.0)
    spec_g = CorpusSpec(seed=4, count=6, band_limit=4.0)
    fs, gs = generate_corpus(spec_f, grid_2d), generate_corpus(spec_g, grid_2d)
    young = check_inequality(InequalityCase("young", p=2.0, p1=1.0, p2=2.0), fs, gs, res)
    assert young.max_ratio <= 1.0 + 1e-9
    conv1 = check_inequality(
        InequalityCase("conv1", p=1.0, p1=1.0, p2=1.0, scale="B", s=0.5, q=2.0),
        fs, gs, res)
    assert conv1.max_ratio <= 1.0 + 1e-6 and conv1.verdict
    conv3 = check_inequality(
        InequalityCase("conv3", p=1.0, p1=1.0, p2=1.0, scale="B", s=0.5, u=0.5,
                       q=1.0, q1=2.0, q2=2.0), fs, gs, res)
    assert np.isfinite(conv3.empirical_C) and conv3.verdict


def test_semi11_2d_smoke(grid_2d):
    res = build_resolution(grid_2d)
    fam = KernelFamily(gauss_weierstrass(2), grid_2d)
    report = theorem_semi11_bound_check(fam, 1.0, [0.5, 1.0], res)
    assert report.verdict and np.isfinite(report.empirical_C)


def test_case_validation():
    with pytest.raises(ValueError, match="integrability"):
        InequalityCase("conv1", p=2.0, p1=2.0, p2=2.0)
    with pytest.raises(ValueError, match="summability"):
        InequalityCase("conv3", p=1.0, p1=1.0, p2=1.0, q=0.5, q1=2.0, q2=2.0)
    with pytest.raises(ValueError, match="F-scale"):
        InequalityCase("conv1", p=1.0, p1=1.0, p2=1.0, scale="F", q=0.5)
    with pytest.raises(ValueError, match="F-scale"):
        InequalityCase("conv3", p=1.0, p1=1.0, p2=1.0, scale="F", q=1.0, q1=0.5, q2=2.0)
    with pytest.raises(ValueError, match="scale must be"):
        InequalityCase("conv1", p=2.0, p1=2.0, p2=1.0, scale="Q")
    # B-scale quasi-norm q < 1 is allowed, and Young's inequality uses no q
    InequalityCase("conv1", p=1.0, p1=1.0, p2=1.0, scale="B", q=0.5)
    InequalityCase("young", p=1.0, p1=1.0, p2=1.0, scale="F", q=0.5)


@pytest.mark.parametrize("exponents", [
    {"p": 0.5, "p1": 1.0, "p2": 2.0},
    {"p": 1.0, "p1": 0.0, "p2": 1.0},
    {"p": 1.0, "p1": 1.0, "p2": -1.0},
    {"p": 1.0, "p1": 1.0, "p2": 1.0, "q": 0.0},
    {"p": 1.0, "p1": 1.0, "p2": 1.0, "q1": -2.0},
    {"p": 1.0, "p1": 1.0, "p2": 1.0, "q2": 0.0},
    {"p": float("nan"), "p1": 1.0, "p2": 1.0},
    {"p": 1.0, "p1": 1.0, "p2": 1.0, "q1": float("nan")},
])
def test_case_refuses_out_of_range_exponents(exponents):
    # checked before the relations, which would divide by a zero exponent
    for name in ("young", "conv3"):
        with pytest.raises(ValueError, match="exponents need"):
            InequalityCase(name, **exponents)


@pytest.mark.parametrize("smoothness", [{"s": float("nan")}, {"s": INF}, {"u": -INF},
                                        {"u": float("nan")}])
def test_case_refuses_non_finite_smoothness(smoothness):
    with pytest.raises(ValueError, match="must be finite"):
        InequalityCase("conv3", p=1.0, p1=1.0, p2=1.0, **smoothness)


def test_report_serialization(res_v, corpora):
    case = InequalityCase("conv1", p=1.0, p1=1.0, p2=1.0, scale="B", s=0.0, q=1.0)
    report = check_inequality(case, corpora[0][:4], corpora[1][:4], res_v)
    d = report.to_json_dict()
    assert d["verdict"] == "pass"
    assert d["case"]["q"] == 1.0 and d["case"]["q1"] == "inf"
    assert len(report.ratios) + d["skipped"] == 4


def test_report_derives_its_summaries():
    case = InequalityCase("conv3", p=1.0, p1=1.0, p2=1.0)
    rep = VerificationReport(case=case, ratios=(0.5, 2.0), skipped=1, tolerance=1e-6,
                             constant_claim=None, refinement_delta=None, details={})
    assert rep.max_ratio == rep.empirical_C == 2.0 and rep.verdict
    d = rep.to_json_dict()
    assert d["max_ratio"] == d["empirical_C"] == 2.0 and d["n_pairs"] == 3
    # without a claim, an attached refinement delta must stay within 5%
    rep.refinement_delta = 0.05
    assert rep.verdict
    rep.refinement_delta = 0.06
    assert not rep.verdict
    # with a claim, the delta is not read
    rep.constant_claim = 2.0
    assert rep.verdict
    rep.constant_claim = 1.9
    assert not rep.verdict
    rep.ratios = ()
    assert rep.max_ratio == rep.empirical_C == 0.0 and rep.verdict


def test_degenerate_rhs_skipped(grid_v, res_v):
    zero = sample(lambda x: np.zeros_like(x), grid_v)
    f = sample(lambda x: (4 * np.pi) ** -0.5 * np.exp(-(x**2) / 4.0), grid_v)
    case = InequalityCase("young", p=1.0, p1=1.0, p2=1.0)
    report = check_inequality(case, [f], [zero], res_v)
    assert report.skipped == 1 and len(report.ratios) == 0


# ---------------------------------------------------------------------------
# Power-law fitting


def test_fit_exact_power_law():
    ts = np.array([0.1, 0.2, 0.4, 0.8, 1.6])
    fit = fit_power_law(ts, ts**-0.75)
    assert abs(fit.exponent + 0.75) < 1e-12
    assert abs(fit.r_squared - 1.0) < 1e-12


def test_fit_recovers_intercept():
    ts = np.array([0.5, 1.0, 2.0, 4.0])
    fit = fit_power_law(ts, 3.0 * ts**2)
    assert abs(fit.exponent - 2.0) < 1e-12
    assert abs(fit.intercept - np.log(3.0)) < 1e-12


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0, 3.0, 4.0], [1.0, -2.0, 3.0, 4.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            fit_power_law([1.0, 2.0, 3.0, 4.0], [1.0, bad, 3.0, 4.0])
        with pytest.raises(ValueError, match="finite"):
            fit_power_law([1.0, 2.0, 3.0, bad], [1.0, 2.0, 3.0, 4.0])


def test_gradient_rate_biharmonic(grid_1d):
    fam = KernelFamily(generalized_gauss_weierstrass(2.0), grid_1d)
    ts = [2.0**j for j in range(-6, 1)]
    fit = fit_power_law(ts, [gradient_l1(fam.kernel(t)) for t in ts])
    assert abs(fit.exponent + 0.25) < 0.02


# ---------------------------------------------------------------------------
# Sweeps and kernel-norm bounds


def test_smoothing_sweep_heat_kernel_rate(grid_1d, res_1d):
    fam = KernelFamily(gauss_weierstrass(1), grid_1d)
    f = generate_corpus(CorpusSpec(seed=5, count=1, families=("mollified_step",),
                                   band_limit=16.0), grid_1d)[0]
    ts = [4.0**-j for j in range(1, 5)]
    sweep = smoothing_sweep(fam, f, SpaceParams("B", 0.0, 1.0, INF), 1.0, ts, res_1d)
    assert -0.55 < sweep.kernel_fit.exponent < -0.45


def test_smoothing_sweep_contraction_flat_at_u0(grid_1d, res_1d):
    fam = KernelFamily(gauss_weierstrass(1), grid_1d)
    f = generate_corpus(CorpusSpec(seed=5, count=1, families=("mollified_step",),
                                   band_limit=16.0), grid_1d)[0]
    sp = SpaceParams("B", 0.5, 1.0, INF)
    ts = [4.0**-j for j in range(0, 4)]
    sweep = smoothing_sweep(fam, f, sp, 0.0, ts, res_1d)
    assert -0.05 < sweep.applied_fit.exponent < 0.05
    f_norm = besov_norm(f, res_1d, sp).value
    for t, v in zip(sweep.ts, sweep.applied_norms):
        assert v <= fam.l1_norm(t) * f_norm * (1 + 1e-10)


@pytest.mark.parametrize("u", [-0.5, float("nan"), INF])
def test_smoothing_sweep_refuses_bad_order(u):
    # refused before the family or field is read
    with pytest.raises(ValueError, match="finite and >= 0"):
        smoothing_sweep(None, None, SpaceParams("B", 0.0, 1.0, INF), u, [1.0], None)


def test_smoothing_sweep_stable_rate():
    grid = make_grid(1, 8192, 40.0)
    res = build_resolution(grid)
    fam = KernelFamily(stable_exponent(1.5), grid)
    f = generate_corpus(CorpusSpec(seed=5, count=1, families=("mollified_step",),
                                   band_limit=16.0), grid)[0]
    ts = [2.0 ** (-1.5 * j) for j in range(1, 6)]
    sweep = smoothing_sweep(fam, f, SpaceParams("B", 0.0, 1.0, INF), 0.75, ts, res)
    assert abs(sweep.kernel_fit.exponent + 0.5) < 0.05


def test_semi11_bound_heat_kernel(grid_1d, res_1d):
    fam = KernelFamily(gauss_weierstrass(1), grid_1d)
    ts = [4.0**-j for j in range(0, 4)]
    report = theorem_semi11_bound_check(fam, 1.0, ts, res_1d)
    assert np.isfinite(report.empirical_C) and report.verdict
    assert report.details["window_monotone"]
    # N-doubling stability of the empirical constant
    g2 = make_grid(1, 8192, 40.0)
    report2 = theorem_semi11_bound_check(KernelFamily(gauss_weierstrass(1), g2),
                                         1.0, ts, build_resolution(g2))
    assert abs(report2.empirical_C / report.empirical_C - 1.0) < 0.05


def test_semi11_rates_match_at_u_half(grid_1d, res_1d):
    fam = KernelFamily(gauss_weierstrass(1), grid_1d)
    report = theorem_semi11_bound_check(fam, 0.5, [4.0**-j for j in range(1, 5)], res_1d)
    rows = report.details["rows"]
    ts = [r["t"] for r in rows]
    lhs_fit = fit_power_law(ts, [r["lhs"] for r in rows])
    rhs_fit = fit_power_law(ts, [r["rhs_sup"] for r in rows])
    assert abs(rhs_fit.exponent + 0.25) < 0.05
    assert abs(lhs_fit.exponent - rhs_fit.exponent) < 0.05


def test_semi11_case_reports_the_order(grid_1d, res_1d):
    fam = KernelFamily(stable_exponent(1.0), grid_1d)
    report = theorem_semi11_bound_check(fam, 1.0, [1.0], res_1d)
    assert report.to_json_dict()["case"] == {"name": "semi11", "u": 1.0, "m": 0.5}
    psi = KernelFamily(char_exponent(lambda x: x**2, 1), grid_1d)
    assert theorem_semi11_bound_check(psi, 1.0, [1.0], res_1d).case["m"] is None
    with pytest.raises(ValueError, match="nonempty"):
        theorem_semi11_bound_check(fam, 1.0, [], res_1d)


def test_semi11_report_has_no_tolerance(grid_1d, res_1d):
    # no constant is claimed, so the verdict reads no tolerance and none is stored
    fam = KernelFamily(gauss_weierstrass(1), grid_1d)
    report = theorem_semi11_bound_check(fam, 1.0, [1.0], res_1d)
    assert report.tolerance is None and report.to_json_dict()["tolerance"] is None


def test_semi11_signed_kernel(grid_1d, res_1d):
    fam = KernelFamily(generalized_gauss_weierstrass(2.0), grid_1d)
    report = theorem_semi11_bound_check(fam, 1.0, [0.25, 0.5, 1.0], res_1d)
    assert report.verdict
    assert fam.l1_norm(1.0) > 1.0  # signed kernel mass enters the bound


# ---------------------------------------------------------------------------
# Norm equivalence across transition profiles


def test_profile_equivalence_stable_under_refinement():
    spec = CorpusSpec(seed=13, count=12, band_limit=8.0)
    sp = SpaceParams("B", 0.5, 1.0, 1.0)
    pa, pb = bump_profile(1.0), bump_profile(2.0, name="steep")
    cs = []
    for n in (1024, 2048):
        grid = make_grid(1, n, 40.0)
        ratios, c = profile_equivalence(generate_corpus(spec, grid), grid, pa, pb, sp)
        assert np.all(ratios >= 1.0 / c - 1e-12) and np.all(ratios <= c + 1e-12)
        cs.append(c)
    assert abs(cs[1] / cs[0] - 1.0) < 0.05
