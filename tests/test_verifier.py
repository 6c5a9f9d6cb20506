import gc
import subprocess
import sys
import tracemalloc
from dataclasses import asdict

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
    conv_eq23_case,
    fit_power_law,
    gauss_weierstrass,
    generalized_gauss_weierstrass,
    gradient_l1,
    inverse_transform,
    lp_norm,
    make_grid,
    profile_equivalence,
    refined,
    sample,
    smoothing_sweep,
    stable_exponent,
    theorem_semi11_bound_check,
)
from lplab.grid import _box, _embedded
from lplab.verifier import (_BUILDERS, CorpusSpec, InequalityCase, VerificationReport,
                            generate_corpus)


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


def test_corpus_fields_hold_only_their_half_spectrum():
    g = make_grid(2, 128, 8.0)
    spec = CorpusSpec(seed=3, count=8, band_limit=4.0)
    generate_corpus(CorpusSpec(seed=4, count=1, band_limit=4.0), g)  # fill any cache
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fields = generate_corpus(spec, g)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # no field keeps its samples: each is read from the spectrum when needed
    half_spectrum = 16 * 128 * (128 // 2 + 1)
    assert held <= 1.05 * spec.count * half_spectrum
    assert len(fields) == spec.count


@pytest.mark.parametrize("family", sorted(_BUILDERS))
def test_corpus_field_is_built_on_its_box_and_peaks_at_its_l1_synthesis(family):
    # semigroup-3d's grid and band.  The builder returns its field's spectrum
    # on the 11 x 11 x 6 box, and the build peaks at the L1 normalization's
    # samples and their modulus (4.02 MiB measured), so one more full-lattice
    # complex spectrum (4 MiB) anywhere in it fails the bound
    g = make_grid(3, 64, 4.0)
    box = _box(g, 5)
    assert _BUILDERS[family](np.random.default_rng(2), g, 4.0, box).shape == (11, 11, 6)
    generate_corpus(CorpusSpec(seed=1, count=1, families=(family,), band_limit=4.0), g)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        generate_corpus(CorpusSpec(seed=3, count=1, families=(family,), band_limit=4.0), g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 2**20


def _python_lines(code):
    """The stdout lines of ``code`` run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_corpus_leaves_hashlib_openssl_backed():
    # the corpus imports numpy.random with OpenSSL's _hashlib blocked; a
    # later import of hashlib or hmac is the usual OpenSSL-backed one
    lines = _python_lines(
        "import sys\n"
        "from lplab import make_grid\n"
        "from lplab.verifier import CorpusSpec, generate_corpus\n"
        "before = set(sys.modules)\n"
        "generate_corpus(CorpusSpec(seed=1, count=4, band_limit=8.0), make_grid(1, 1024, 40.0))\n"
        "print(sorted({'hashlib', '_hashlib', 'hmac'} & (set(sys.modules) - before)))\n"
        "import hashlib, hmac\n"
        "print('_hashlib' in sys.modules, hasattr(hashlib, 'pbkdf2_hmac'),\n"
        "      hmac.compare_digest is sys.modules['_hashlib'].compare_digest)\n")
    assert lines == ["[]", "True True True"]


def test_corpus_rng_changes_no_module_once_openssl_is_loaded():
    # with _hashlib loaded first, numpy.random is imported the plain way:
    # every module already loaded stays, and hashlib and hmac stay loaded
    lines = _python_lines(
        "import sys, _hashlib\n"
        "from lplab.verifier import _rng\n"
        "before = dict(sys.modules)\n"
        "_rng(0)\n"
        "print(all(sys.modules.get(k) is v for k, v in before.items()),\n"
        "      {'numpy.random', 'hashlib', 'hmac'} <= set(sys.modules),\n"
        "      sys.modules['hmac'].compare_digest is _hashlib.compare_digest)\n")
    assert lines == ["True True True"]


def test_corpus_rng_draws_are_default_rngs():
    # in a fresh interpreter, where _rng imports numpy.random itself
    draws = "print(g.standard_normal(64).tobytes().hex(), g.integers(0, 2**62, 8).tobytes().hex())"
    lines = _python_lines(f"from lplab.verifier import _rng\ng = _rng(5)\n{draws}")
    g = np.random.default_rng(5)
    assert lines == [f"{g.standard_normal(64).tobytes().hex()} "
                     f"{g.integers(0, 2**62, 8).tobytes().hex()}"]


def test_corpus_band_limit_validated(grid_v):
    with pytest.raises(ValueError, match="band_limit"):
        generate_corpus(CorpusSpec(seed=1, count=2, band_limit=64.0), grid_v)
    with pytest.raises(ValueError):
        CorpusSpec(seed=1, count=2, families=("nope",))
    with pytest.raises(ValueError, match="families"):
        CorpusSpec(seed=1, count=2, families=(), band_limit=4.0)
    with pytest.raises(ValueError, match="count must be >= 1, got 0"):
        CorpusSpec(seed=1, count=0)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        CorpusSpec(seed=-1, count=2)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got True"):
        CorpusSpec(seed=True, count=2)


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


def _old_corpus_field(raw, grid, band):
    """An earlier corpus field from its raw real samples: band-projected
    through an rfftn pair, then L1-normalized."""
    vals = np.fft.irfftn(np.fft.rfftn(raw) * (grid.radial_freq() <= band), s=grid.shape,
                         axes=range(grid.dim))
    return vals / (grid.cell_volume * np.abs(vals).sum())


def _old_band_limited_random(rng, grid, band):
    """The earlier construction of a band_limited_random corpus field: the
    real part of a full complex synthesis."""
    N, n = grid.samples_per_axis, grid.dim
    dxi = np.pi / grid.half_width
    jb = int(np.floor(band / dxi))
    side = 2 * jb + 1
    coeffs = rng.standard_normal((side,) * n) + 1j * rng.standard_normal((side,) * n)
    offs = np.arange(-jb, jb + 1)
    r2 = sum(o.astype(float) ** 2 for o in np.meshgrid(*([offs] * n), indexing="ij",
                                                       sparse=True))
    spec = np.zeros(grid.shape, dtype=np.complex128)
    spec[np.ix_(*([offs % N] * n))] = coeffs * (np.sqrt(r2) * dxi <= band)
    return _old_corpus_field(inverse_transform(grid, spec).values.real, grid, band)


# The earlier dense-mesh constructions of the separable families: each is
# evaluated on the full coordinate mesh, with the same draws from ``rng``.


def _old_gaussian_mix(rng, grid, band):
    L = grid.half_width
    k = int(rng.integers(1, 5))
    centers = rng.uniform(-L / 4, L / 4, size=(k, grid.dim))
    sigmas = rng.uniform(L / 40, L / 10, size=k)
    weights = rng.uniform(0.3, 1.0, size=k)
    mesh = grid.coord_mesh()
    out = np.zeros(grid.shape)
    for i in range(k):
        r2 = sum((m - centers[i, a]) ** 2 for a, m in enumerate(mesh))
        out += weights[i] * np.exp(-r2 / (2.0 * sigmas[i] ** 2))
    return _old_corpus_field(out, grid, band)


def _old_mollified_step(rng, grid, band):
    L = grid.half_width
    lo = rng.uniform(-L / 2, 0.0, size=grid.dim)
    width = rng.uniform(L / 8, L / 2, size=grid.dim)
    sigma = 1.0 / band
    out = np.ones(grid.shape)
    for a, m in enumerate(grid.coord_mesh()):
        out = out * 0.5 * (np.tanh((m - lo[a]) / sigma)
                           - np.tanh((m - lo[a] - width[a]) / sigma))
    return _old_corpus_field(out, grid, band)


def _old_oscillatory_packet(rng, grid, band):
    L = grid.half_width
    direction = rng.standard_normal(grid.dim)
    direction /= np.linalg.norm(direction)
    omega = rng.uniform(band / 4, 3 * band / 4) * direction
    phase = rng.uniform(0, 2 * np.pi)
    center = rng.uniform(-L / 4, L / 4, size=grid.dim)
    sigma = rng.uniform(L / 10, L / 4)
    mesh = grid.coord_mesh()
    carrier = sum(omega[a] * m for a, m in enumerate(mesh))
    r2 = sum((m - center[a]) ** 2 for a, m in enumerate(mesh))
    return _old_corpus_field(np.cos(carrier + phase) * np.exp(-r2 / (2.0 * sigma * sigma)),
                             grid, band)


_OLD_BUILDERS = {
    "gaussian_mix": _old_gaussian_mix,
    "band_limited_random": _old_band_limited_random,
    "mollified_step": _old_mollified_step,
    "oscillatory_packet": _old_oscillatory_packet,
}

_REFERENCE_GRIDS = pytest.mark.parametrize("grid,band", [
    (make_grid(1, 2048, 40.0), 16.0),
    (make_grid(2, 128, 8.0), 4.0),
    (make_grid(3, 64, 4.0), 4.0),
], ids=["1d", "2d", "3d"])


def _assert_matches_old_construction(grid, band, families):
    seed, count = 13, 3 * len(families)
    corpus = generate_corpus(CorpusSpec(seed=seed, count=count, families=families,
                                        band_limit=band), grid)
    rng = np.random.default_rng(seed)
    J = int(np.floor(band * grid.half_width / np.pi))
    for i, f in enumerate(corpus):
        # each field is held on the box that holds its band
        assert f.spectrum.shape == (2 * J + 1,) * (grid.dim - 1) + (J + 1,)
        old = _OLD_BUILDERS[families[i % len(families)]](rng, grid, band)
        assert np.abs(f.values - old).max() <= 1e-13 * np.abs(old).max()
        # the spectrum the field keeps, on its box, is the one of its samples
        F = np.fft.rfftn(f.values)
        assert np.abs(_embedded(grid, f.spectrum) - F).max() <= 1e-13 * np.abs(F).max()


@_REFERENCE_GRIDS
def test_band_limited_random_matches_full_lattice_construction(grid, band):
    _assert_matches_old_construction(grid, band, ("band_limited_random",))


@_REFERENCE_GRIDS
def test_separable_families_match_dense_mesh_construction(grid, band):
    # the families interleaved, so each builder draws its own share of rng
    _assert_matches_old_construction(grid, band,
                                     ("gaussian_mix", "mollified_step", "oscillatory_packet"))


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
    report = refined(lambda g: check_inequality(case, generate_corpus(spec_f, g),
                                                generate_corpus(spec_g, g),
                                                build_resolution(g)), grid)
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


@pytest.mark.parametrize("u", [0.0, -1.0, float("nan")])
def test_semi11_refuses_non_positive_order(u):
    # refused before the family is read
    with pytest.raises(ValueError, match="u must be > 0"):
        theorem_semi11_bound_check(None, u, [1.0], None)


def test_case_validation():
    with pytest.raises(ValueError, match="unknown case name 'conv2'"):
        InequalityCase("conv2", p=1.0, p1=1.0, p2=1.0)
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


def test_ratios_csv_bytes_keep_row_format(tmp_path):
    ratios = (0.5, 1.0 / 3.0, 1e-300, 2.0**60, float("inf"))
    rep = VerificationReport(case=InequalityCase("young", p=1.0, p1=1.0, p2=1.0),
                             ratios=ratios, skipped=0, tolerance=1e-9, constant_claim=None,
                             refinement_delta=None, details={})
    rep.write_ratios_csv(str(tmp_path / "r.csv"))
    expected = "pair,ratio\n" + "".join(f"{i},{r:.17g}\n" for i, r in enumerate(ratios))
    assert (tmp_path / "r.csv").read_bytes() == expected.encode()
    assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]


def test_report_derives_its_summaries():
    case = asdict(InequalityCase("conv3", p=1.0, p1=1.0, p2=1.0))
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
    for ts in ([1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 2.0, 3.0, 3.0]):
        with pytest.raises(ValueError, match="4 distinct times"):
            fit_power_law(ts, [1.0] * len(ts))
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


def test_smoothing_sweep_keeps_no_kernel():
    g = make_grid(2, 128, 8.0)
    res = build_resolution(g)
    f = generate_corpus(CorpusSpec(seed=5, count=1, families=("mollified_step",),
                                   band_limit=4.0), g)[0]
    sp = SpaceParams("F", 0.0, 2.0, 2.0)
    ts = [2.0**j for j in range(-4, 2)]
    smoothing_sweep(KernelFamily(gauss_weierstrass(2), g), f, sp, 1.0, ts, res)  # fill any cache
    fam = KernelFamily(gauss_weierstrass(2), g)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sweep = smoothing_sweep(fam, f, sp, 1.0, ts, res)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # each kernel is dropped after its time: keeping them held one half
    # spectrum per time
    half_spectrum = 16 * 128 * (128 // 2 + 1)
    assert held < half_spectrum
    assert len(sweep.kernel_norms) == len(ts)


@pytest.mark.parametrize("u", [-0.5, float("nan"), INF])
def test_smoothing_sweep_refuses_bad_order(u):
    # refused before the family or field is read
    with pytest.raises(ValueError, match="finite and >= 0"):
        smoothing_sweep(None, None, SpaceParams("B", 0.0, 1.0, INF), u, [1.0], None)


def test_smoothing_sweep_refuses_repeated_times():
    # refused before any norm is computed, so the family and field are not read
    with pytest.raises(ValueError, match="4 distinct times"):
        smoothing_sweep(None, None, SpaceParams("B", 0.0, 1.0, INF), 1.0, [1.0, 2.0] * 2, None)


def test_smoothing_sweep_stable_rate():
    grid = make_grid(1, 8192, 40.0)
    res = build_resolution(grid)
    fam = KernelFamily(stable_exponent(1.5), grid)
    f = generate_corpus(CorpusSpec(seed=5, count=1, families=("mollified_step",),
                                   band_limit=16.0), grid)[0]
    ts = [2.0 ** (-1.5 * j) for j in range(1, 6)]
    sweep = smoothing_sweep(fam, f, SpaceParams("B", 0.0, 1.0, INF), 0.75, ts, res)
    assert abs(sweep.kernel_fit.exponent + 0.5) < 0.05


def test_semi11_bound_heat_kernel(grid_1d):
    ts = [4.0**-j for j in range(0, 4)]
    # N-doubling stability of the empirical constant, N = 4096 -> 8192
    report = refined(lambda g: theorem_semi11_bound_check(
        KernelFamily(gauss_weierstrass(1), g), 1.0, ts, build_resolution(g)), grid_1d)
    assert np.isfinite(report.empirical_C) and report.verdict
    assert report.details["window_monotone"]
    assert report.refinement_delta < 0.05


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


@pytest.mark.parametrize("claim,tolerance,recorded", [
    (None, None, None), (None, 1e-3, None), (50.0, None, 1e-6), (50.0, 1e-3, 1e-3),
], ids=["no-claim", "no-claim-given-tolerance", "claim", "claim-and-tolerance"])
def test_conv3_report_records_a_tolerance_only_with_a_claim(corpus_small, res_1d, claim,
                                                            tolerance, recorded):
    # the verdict reads the tolerance only against a claimed constant
    cases = (InequalityCase("conv3", p=1.0, p1=1.0, p2=1.0, s=0.5, u=0.5, q=1.0, q1=2.0,
                            q2=2.0, constant_claim=claim, tolerance=tolerance),
             conv_eq23_case("B", 0.5, 0.5, 2.0, 2.0, constant_claim=claim,
                            tolerance=tolerance))
    for case in cases:
        report = check_inequality(case, corpus_small[:2], corpus_small[2:4], res_1d)
        assert report.tolerance == recorded
        assert report.to_json_dict()["tolerance"] == recorded


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
    report = refined(lambda g: profile_equivalence(generate_corpus(spec, g), g, pa, pb, sp),
                     make_grid(1, 1024, 40.0))
    assert len(report.ratios) == 12 and min(report.ratios) >= 1.0  # two-sided factors
    assert report.refinement_delta < 0.05 and report.verdict


def test_profile_equivalence_factor_is_two_sided(grid_v, res_v, corpora):
    # the profiles' order does not move the factors, and the record names both
    sp = SpaceParams("B", 0.5, 1.0, 1.0)
    pa, pb = bump_profile(1.0), bump_profile(2.0, name="steep")
    ab = profile_equivalence(corpora[0][:4], grid_v, pa, pb, sp)
    ba = profile_equivalence(corpora[0][:4], grid_v, pb, pa, sp)
    res_b = build_resolution(grid_v, pb)
    quotients = [besov_norm(f, res_v, sp).value / besov_norm(f, res_b, sp).value
                 for f in corpora[0][:4]]
    assert ab.ratios == tuple(max(r, 1.0 / r) for r in quotients)
    assert np.allclose(ab.ratios, ba.ratios, rtol=1e-14, atol=0.0)
    assert ab.to_json_dict()["case"] == {"name": "profile_equivalence",
                                         "profiles": [pa.name, "steep"],
                                         "scale": "B", "s": 0.5, "p": 1.0, "q": 1.0}


def test_profile_equivalence_refuses_an_empty_corpus(grid_v):
    sp = SpaceParams("B", 0.5, 1.0, 1.0)
    with pytest.raises(ValueError, match="nonempty corpus"):
        profile_equivalence([], grid_v, bump_profile(1.0), bump_profile(2.0), sp)


def test_refined_runs_the_check_at_n_and_2n_once_each():
    seen = []

    def check(g):
        seen.append((g.dim, g.samples_per_axis, g.half_width))
        return VerificationReport(case={"name": "probe"},
                                  ratios=(2.0 if len(seen) == 1 else 2.1,))

    report = refined(check, make_grid(2, 64, 3.0))
    assert seen == [(2, 64, 3.0), (2, 128, 3.0)]
    assert report.empirical_C == 2.1 and report.details == {
        "coarse_empirical_C": 2.0, "stability_tol": 0.05}
    assert report.refinement_delta == pytest.approx(0.05, rel=1e-12)
    # a coarse constant of 0 (every pair skipped) attaches a zero delta
    assert refined(lambda g: VerificationReport(case={}, ratios=()),
                   make_grid(1, 64, 3.0)).refinement_delta == 0.0
