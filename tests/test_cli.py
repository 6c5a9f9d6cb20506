import gc
import hashlib
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from lplab import load_field, lp_norm
from lplab.cli import main
from lplab.grid import _canonical
from lplab.kernels import _TAIL_TOL, KernelFamily
from lplab.subordination import _EDGE_TOL, _LAPLACE_TOL, _MASS_TOL
from lplab.verifier import _RHS_FLOOR, _STABILITY_TOL


def run_cli(args):
    return main([str(a) for a in args])


def test_kernel_command_diagnostics(tmp_path):
    out = tmp_path / "gw"
    code = run_cli(["kernel", "--family", "gw", "--t", 1, "--dim", 1,
                    "--N", 4096, "--L", 40, "--out", out])
    assert code == 0
    diag = json.loads((tmp_path / "gw.json").read_text())
    assert abs(diag["gradient_l1"] - 0.56419) < 1e-4
    assert abs(diag["mass"] - 1.0) < 1e-6
    field = load_field(str(out) + ".field")
    assert field.grid.samples_per_axis == 4096
    assert abs(lp_norm(field, 1) - diag["l1_norm"]) < 1e-12
    manifest = json.loads((tmp_path / "gw.manifest.json").read_text())
    assert "config_hash" in manifest and "versions" in manifest


def test_kernel_under_resolved_exit_code(tmp_path):
    code = run_cli(["kernel", "--family", "gw", "--t", 1e-6,
                    "--N", 1024, "--L", 40, "--out", tmp_path / "k"])
    assert code == 3


def test_kernel_validation_exit_code(tmp_path):
    code = run_cli(["kernel", "--family", "gw", "--t", -1.0,
                    "--N", 1024, "--L", 40, "--out", tmp_path / "k"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["kernel", "--family", "gw", "--t", "inf", "--N", 1024, "--L", 40],
    ["sweep", "smoothing", "--t", "1,2,4,inf"],
], ids=["kernel", "sweep"])
def test_cli_refuses_infinite_time(tmp_path, capsys, argv):
    assert run_cli(argv + ["--out", tmp_path / "x"]) == 2
    assert "time t must be positive and finite" in _validation_error(capsys)
    assert not (tmp_path / "x.json").exists()


def test_norm_command_round_trips_field(tmp_path):
    kout = tmp_path / "k"
    assert run_cli(["kernel", "--family", "gw", "--t", 1, "--N", 1024,
                    "--L", 40, "--out", kout]) == 0
    nout = tmp_path / "n"
    code = run_cli(["norm", "--input", str(kout) + ".field", "--space", "B",
                    "--s", 0.5, "--p", 1, "--q", "inf", "--out", nout])
    assert code == 0
    result = json.loads((tmp_path / "n.json").read_text())
    assert result["space"] == {"A": "B", "s": 0.5, "p": 1.0, "q": "inf"}
    assert result["value"] > 0


def test_norm_refuses_wrong_data_size(tmp_path, capsys):
    kout = str(tmp_path / "k")
    assert run_cli(["kernel", "--family", "gw", "--t", 1, "--N", 1024,
                    "--L", 40, "--out", kout]) == 0
    data = tmp_path / "k.field.bin"
    raw = data.read_bytes()
    # one complex sample short, and three stray bytes after the last sample
    for cut in (raw[:-16], raw + b"abc"):
        data.write_bytes(cut)
        capsys.readouterr()
        assert run_cli(["norm", "--input", kout + ".field", "--out", tmp_path / "n"]) == 2
        assert f"holds {len(cut)} bytes, not the {len(raw)}" in _validation_error(capsys)
    # a CSV cut down to index,re, and one that holds only its header line
    cout = str(tmp_path / "c")
    assert run_cli(["kernel", "--family", "gw", "--t", 1, "--N", 64, "--L", 8,
                    "--format", "csv", "--out", cout]) == 0
    data = tmp_path / "c.field.csv"
    rows = data.read_text().splitlines()
    for text in ("".join(r.rsplit(",", 1)[0] + "\n" for r in rows), rows[0] + "\n"):
        data.write_text(text)
        capsys.readouterr()
        assert run_cli(["norm", "--input", cout + ".field", "--out", tmp_path / "n"]) == 2
        assert "three columns" in _validation_error(capsys)
    assert not (tmp_path / "n.json").exists()


def test_norm_refuses_csv_rows_out_of_order(tmp_path, capsys):
    kout = str(tmp_path / "k")
    assert run_cli(["kernel", "--family", "gw", "--t", 1, "--N", 64, "--L", 8,
                    "--format", "csv", "--out", kout]) == 0
    data = tmp_path / "k.field.csv"
    rows = data.read_text().splitlines(keepends=True)
    rows[5], rows[6] = rows[6], rows[5]
    data.write_text("".join(rows))
    capsys.readouterr()
    assert run_cli(["norm", "--input", kout + ".field", "--out", tmp_path / "n"]) == 2
    assert "index column" in _validation_error(capsys)
    assert not (tmp_path / "n.json").exists()


def test_norm_refuses_frequency_sidecar(tmp_path):
    kout = str(tmp_path / "k")
    assert run_cli(["kernel", "--family", "gw", "--t", 1, "--N", 1024,
                    "--L", 40, "--out", kout]) == 0
    sidecar = tmp_path / "k.field.json"
    meta = json.loads(sidecar.read_text())
    assert meta["domain_tag"] == "space"
    meta["domain_tag"] = "frequency"
    sidecar.write_text(json.dumps(meta))
    assert run_cli(["norm", "--input", kout + ".field", "--out", tmp_path / "n"]) == 2
    del meta["domain_tag"]
    sidecar.write_text(json.dumps(meta))
    assert run_cli(["norm", "--input", kout + ".field", "--out", tmp_path / "n"]) == 2
    assert not (tmp_path / "n.json").exists()


def test_verify_young_deterministic(tmp_path):
    args = ["verify", "young", "--seed", 7, "--count", 8, "--N", 1024]
    assert run_cli(args + ["--out", tmp_path / "a"]) == 0
    assert run_cli(args + ["--out", tmp_path / "b"]) == 0
    for suffix in (".report.json", ".ratios.csv", ".manifest.json"):
        a = (tmp_path / ("a" + suffix)).read_bytes()
        b = (tmp_path / ("b" + suffix)).read_bytes()
        assert a == b
    report = json.loads((tmp_path / "a.report.json").read_text())
    assert report["verdict"] == "pass"
    assert report["max_ratio"] <= 1.0 + 1e-9


def test_verify_conv1_passes(tmp_path):
    code = run_cli(["verify", "conv1", "--count", 10, "--N", 1024,
                    "--band", 8, "--out", tmp_path / "c1"])
    assert code == 0
    report = json.loads((tmp_path / "c1.report.json").read_text())
    assert report["constant_claim"] == 1.0
    assert report["max_ratio"] <= 1.0 + 1e-6


def test_verify_config_file_and_failure_exit(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid": {"dim": 1, "N": 1024, "L": 40.0},
        "count": 6,
        "case": {"constant_claim": 0.5},  # unattainable: Young ratio is 1
    }))
    code = run_cli(["verify", "young", "--config", cfg, "--out", tmp_path / "f"])
    assert code == 4
    report = json.loads((tmp_path / "f.report.json").read_text())
    assert report["verdict"] == "fail"


def test_verify_bad_exponents_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"case": {"p1": 2.0, "p2": 2.0, "p": 2.0}}))
    code = run_cli(["verify", "young", "--config", cfg, "--N", 1024,
                    "--out", tmp_path / "x"])
    assert code == 2


def test_verify_refine_attaches_delta(tmp_path):
    code = run_cli(["verify", "conv3", "--count", 8, "--N", 1024, "--band", 8,
                    "--refine", "--out", tmp_path / "r"])
    assert code == 0
    report = json.loads((tmp_path / "r.report.json").read_text())
    assert report["refinement_delta"] is not None
    assert report["refinement_delta"] <= 0.05
    # conv3 claims no constant, so no tolerance is read or recorded
    manifest = json.loads((tmp_path / "r.manifest.json").read_text())
    assert report["tolerance"] is None
    assert manifest["tolerances"]["ratio_tolerance"] is None


def test_sweep_smoothing_biharmonic(tmp_path):
    out = tmp_path / "sw"
    code = run_cli(["sweep", "smoothing", "--family", "gen-gw", "--m", 2,
                    "--u", 1, "--t", "2^-6..2^0", "--out", out])
    assert code == 0
    payload = json.loads((tmp_path / "sw.json").read_text())
    assert abs(payload["kernel_fit"]["exponent"] + 0.25) < 0.05
    rows = (tmp_path / "sw.curve.csv").read_text().strip().splitlines()
    assert rows[0] == "t,applied_norm,kernel_norm"
    assert len(rows) == 8  # header + 7 octave-spaced times
    # 17 significant digits: the JSON payload's floats, written back, are the rows
    curves = zip(payload["ts"], payload["applied_norms"], payload["kernel_norms"])
    expected = "t,applied_norm,kernel_norm\n" + "".join(
        f"{t:.17g},{a:.17g},{k:.17g}\n" for t, a, k in curves)
    assert (tmp_path / "sw.curve.csv").read_bytes() == expected.encode()


def test_sweep_preflight_under_resolution(tmp_path):
    code = run_cli(["sweep", "smoothing", "--family", "gw", "--t", "2^-20..2^0",
                    "--N", 1024, "--out", tmp_path / "sw"])
    assert code == 3


def test_subordinate_command(tmp_path):
    out = tmp_path / "sub"
    code = run_cli(["subordinate", "--alpha", 0.5, "--t", 1, "--u", 1,
                    "--nodes", 2048, "--N", 1024, "--L", 40, "--out", out])
    assert code == 0
    payload = json.loads((tmp_path / "sub.json").read_text())
    assert abs(payload["K_t"] - 2.0 / np.sqrt(np.pi)) < 1e-5
    assert abs(payload["quadrature_mass"] - 1.0) < 1e-6
    assert max(payload["laplace_check_residuals"].values()) < 1e-5


def test_subordinate_rejects_other_alpha(tmp_path):
    code = run_cli(["subordinate", "--alpha", 0.7, "--out", tmp_path / "s"])
    assert code == 2


def test_subordinate_refuses_nan_alpha(tmp_path, capsys):
    assert run_cli(["subordinate", "--alpha", "nan", "--out", tmp_path / "s"]) == 2
    assert "alpha" in _validation_error(capsys)
    assert not list(tmp_path.glob("s.*"))


@pytest.mark.parametrize("u", ["nan", "inf", "-1"])
def test_subordinate_refuses_bad_order_before_writing(tmp_path, capsys, u):
    assert run_cli(["subordinate", "--u", u, "--nodes", 512, "--N", 1024,
                    "--out", tmp_path / "s"]) == 2
    assert "u must be finite and >= 0" in _validation_error(capsys)
    assert not list(tmp_path.glob("s.*"))


@pytest.mark.parametrize("argv", [
    ["kernel", "--family", "gen-gw", "--t", 1, "--N", 1024],
    ["sweep", "smoothing", "--family", "gen-gw", "--N", 1024, "--band", 4],
], ids=["kernel", "sweep"])
@pytest.mark.parametrize("m", ["inf", "nan"])
def test_cli_refuses_non_finite_order_before_writing(tmp_path, capsys, argv, m):
    assert run_cli(argv + ["--m", m, "--out", tmp_path / "x"]) == 2
    assert "order m must be > 0 and finite" in _validation_error(capsys)
    assert not list(tmp_path.glob("x.*"))


def test_sweep_refuses_repeated_times(tmp_path, capsys):
    assert run_cli(["sweep", "smoothing", "--t", "1,1,1,1", "--N", 1024, "--band", 4,
                    "--out", tmp_path / "sw"]) == 2
    assert "4 distinct times" in _validation_error(capsys)
    assert not list(tmp_path.glob("sw.*"))


def test_report_aggregation(tmp_path):
    assert run_cli(["verify", "young", "--count", 4, "--N", 1024,
                    "--out", tmp_path / "ok"]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"count": 4, "case": {"constant_claim": 0.5}}))
    assert run_cli(["verify", "young", "--config", cfg, "--N", 1024,
                    "--out", tmp_path / "bad"]) == 4

    code = run_cli(["report", tmp_path / "ok.report.json", "--out", tmp_path / "sum"])
    assert code == 0
    code = run_cli(["report", tmp_path / "ok.report.json",
                    tmp_path / "bad.report.json", "--out", tmp_path / "sum2"])
    assert code == 4
    summary = json.loads((tmp_path / "sum2.json").read_text())
    assert summary["all_pass"] is False and summary["count"] == 2


def test_console_script_installed(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "lplab.cli", "kernel", "--family", "gw", "--t", "1",
         "--N", "1024", "--L", "40", "--out", str(tmp_path / "k")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "gradient_l1" in proc.stdout


def test_cli_loads_no_openssl(tmp_path):
    # hashlib loads OpenSSL's libcrypto, a few MB of every command's peak;
    # sweep and verify import numpy.random, which reaches it through
    # `secrets`.  Only modules the import and the runs add count, so a site
    # hook that loaded them first does not fail this
    out = tmp_path / "k"
    commands = [
        ["kernel", "--family", "gw", "--t", "1", "--N", "1024", "--L", "40", "--out", str(out)],
        ["sweep", "smoothing", "--N", "1024", "--band", "8", "--t", "2^-2..2^1",
         "--out", str(tmp_path / "s")],
        ["verify", "young", "--count", "2", "--out", str(tmp_path / "v")],
    ]
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import lplab.cli\n"
            "added = lambda: sorted({'hashlib', '_hashlib'} & (set(sys.modules) - before))\n"
            "print('added', added())\n"
            f"for argv in {commands!r}:\n"
            "    print('added', lplab.cli.main(argv), added())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = [line for line in proc.stdout.splitlines() if line.startswith("added ")]
    assert added == ["added []"] + ["added 0 []"] * len(commands)
    # the interpreter's built-in SHA-256 wrote hashlib's digest of the canonical run
    manifest = json.loads((tmp_path / "k.manifest.json").read_text())
    run = {"command": manifest["command"], "config": manifest["config"]}
    assert manifest["config_hash"] == hashlib.sha256(_canonical(run).encode()).hexdigest()
    # the README's recipe for the same digest
    assert _canonical(run) == json.dumps(run, sort_keys=True)


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


_SEMIGROUP_3D_GRID = ["--dim", 3, "--N", 64, "--L", 4]


def test_kernel_command_takes_the_gradient_before_the_samples(tmp_path):
    argv = ["kernel", "--family", "gw", "--t", 0.05, *_SEMIGROUP_3D_GRID,
            "--format", "csv", "--out", tmp_path / "gw"]
    assert run_cli(argv) == 0  # fill any cache
    peak = _peak_above_held(lambda: run_cli(argv))
    # gradient_l1's components while the kernel holds only its spectrum
    # (8.2 MiB measured); taken after integrate kept the 2 MiB samples, 10.2
    assert peak <= 9 * 2**20


def test_sweep_command_holds_one_block_at_a_time(tmp_path, monkeypatch):
    # one time at a time: with LPLAB_THREADS=2 two times run at once
    monkeypatch.setenv("LPLAB_THREADS", "1")
    argv = ["sweep", "smoothing", "--family", "gw", *_SEMIGROUP_3D_GRID, "--band", 4,
            "--t", "2^-4..2^1", "--space", "F", "--p", 2, "--q", 2, "--out", tmp_path / "s"]
    assert run_cli(argv) == 0  # fill any cache
    peak = _peak_above_held(lambda: run_cli(argv))
    # a kernel norm's blocks, each modulus taken in place and dropped before
    # the next block, no kernel held through P_t f's norm, and the corpus
    # field and P_t f held on the band's box (5.55 MiB measured); with both
    # on the half lattice the sweep peaked 7.6, and with a new modulus per
    # block and the last block held while the next was synthesized, 9.6
    assert peak <= 6.25 * 2**20


def test_time_list_parsing():
    from lplab.cli import _parse_t_list

    assert _parse_t_list("2^-2..2^0") == [0.25, 0.5, 1.0]
    assert _parse_t_list("0.5, 1, 2") == [0.5, 1.0, 2.0]
    with pytest.raises(ValueError):
        _parse_t_list(" , ")


def test_kernel_csv_format(tmp_path):
    out = tmp_path / "k"
    assert run_cli(["kernel", "--family", "gw", "--t", 1, "--N", 1024,
                    "--L", 40, "--out", out, "--format", "csv"]) == 0
    field = load_field(str(out) + ".field")
    assert field.grid.samples_per_axis == 1024


def test_cauchy_family_takes_dim(tmp_path):
    # Cauchy-Poisson is the stable semigroup of index 1, in any dimension
    grid = ["--t", 2, "--dim", 2, "--N", 256, "--L", 20]
    assert run_cli(["kernel", "--family", "cauchy", *grid, "--out", tmp_path / "c"]) == 0
    assert run_cli(["kernel", "--family", "stable", "--alpha", 1, *grid,
                    "--out", tmp_path / "s"]) == 0
    for suffix in (".json", ".field.json", ".field.bin"):
        assert (tmp_path / ("c" + suffix)).read_bytes() == (tmp_path / ("s" + suffix)).read_bytes()


def test_threads_env_does_not_change_results(tmp_path, monkeypatch):
    args = ["verify", "conv1", "--count", 6, "--N", 1024, "--band", 8]
    assert run_cli(args + ["--out", tmp_path / "serial"]) == 0
    monkeypatch.setenv("LPLAB_THREADS", "4")
    assert run_cli(args + ["--out", tmp_path / "parallel"]) == 0
    a = (tmp_path / "serial.report.json").read_bytes()
    b = (tmp_path / "parallel.report.json").read_bytes()
    assert a == b


def test_threads_env_does_not_change_a_3d_sweep(tmp_path, monkeypatch):
    # worker threads share the corpus field and the kernel cache, whose
    # spectra and samples are filled on first read
    args = ["sweep", "smoothing", "--dim", 3, "--N", 64, "--L", 4, "--band", 4,
            "--t", "2^-4..2^1", "--space", "F", "--p", 2, "--q", 2]
    assert run_cli(args + ["--out", tmp_path / "serial"]) == 0
    monkeypatch.setenv("LPLAB_THREADS", "4")
    assert run_cli(args + ["--out", tmp_path / "parallel"]) == 0
    for suffix in (".json", ".curve.csv"):
        a = (tmp_path / ("serial" + suffix)).read_bytes()
        assert a == (tmp_path / ("parallel" + suffix)).read_bytes()


def _validation_error(capsys) -> str:
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["kind"] == "validation"
    return err["error"]


_DROP = object()


@pytest.mark.parametrize("key,value,named", [
    ("dim", _DROP, "'dim'"), ("N", _DROP, "'N'"), ("L", _DROP, "'L'"),
    ("format", _DROP, "'format'"), ("L", None, "'L'"), ("format", "npy", "'npy'"),
    (None, [], "domain_tag"),
    # make_grid would read each of these as some other grid value
    ("dim", 1.9, "'dim'"), ("dim", True, "'dim'"), ("N", 64.7, "'N'"), ("N", "64", "'N'"),
    ("L", "2", "'L'"), ("L", True, "'L'"),
], ids=["no-dim", "no-N", "no-L", "no-format", "null-L", "format-npy", "not-object",
        "fractional-dim", "bool-dim", "fractional-N", "string-N", "string-L", "bool-L"])
def test_norm_refuses_broken_sidecar(tmp_path, capsys, key, value, named):
    kout = str(tmp_path / "k")
    assert run_cli(["kernel", "--family", "gw", "--t", 1, "--N", 64,
                    "--L", 8, "--out", kout]) == 0
    sidecar = tmp_path / "k.field.json"
    meta = json.loads(sidecar.read_text())
    if key is None:
        meta = value
    elif value is _DROP:
        del meta[key]
    else:
        meta[key] = value
    sidecar.write_text(json.dumps(meta))
    capsys.readouterr()
    assert run_cli(["norm", "--input", kout + ".field", "--out", tmp_path / "n"]) == 2
    message = _validation_error(capsys)
    assert "sidecar" in message and named in message
    assert not (tmp_path / "n.json").exists()


@pytest.mark.parametrize("config", [
    [1, 2],
    {"grid": [1, 1024, 40.0]},
    {"case": "young"},
], ids=["top-level", "grid", "case"])
def test_verify_refuses_config_that_is_not_an_object(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(["verify", "young", "--config", cfg, "--N", 1024,
                    "--out", tmp_path / "x"]) == 2
    assert "not a JSON object" in _validation_error(capsys)
    assert not (tmp_path / "x.report.json").exists()


@pytest.mark.parametrize("case,config,key", [
    ("young", {"count": "6"}, "count"),
    ("young", {"seed_f": 1.5}, "seed_f"),
    ("young", {"seed_g": True}, "seed_g"),
    ("young", {"band_limit": None}, "band_limit"),
    ("young", {"refine": "no"}, "refine"),
    ("young", {"grid": {"dim": 1.0}}, "dim"),
    ("young", {"grid": {"N": "1024"}}, "N"),
    ("young", {"grid": {"L": False}}, "L"),
    ("young", {"case": {"p": [1]}}, "p"),
    ("young", {"case": {"constant_claim": "a"}}, "constant_claim"),
    ("young", {"case": {"tolerance": "x", "constant_claim": 1}}, "tolerance"),
    ("conv1", {"case": {"s": "x"}}, "s"),
    ("conv1", {"case": {"q": True}}, "q"),
    ("conv1", {"case": {"scale": None}}, "scale"),
], ids=["count", "seed_f", "seed_g", "band_limit", "refine", "dim", "N", "L",
        "case-p-list", "case-claim-string", "case-tolerance-string", "case-s-string",
        "case-q-bool", "case-scale-null"])
def test_verify_refuses_config_value_of_wrong_type(tmp_path, capsys, case, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(["verify", case, "--config", cfg, "--N", 1024,
                    "--out", tmp_path / "x"]) == 2
    assert f"config '{key}' must be" in _validation_error(capsys)
    assert not (tmp_path / "x.report.json").exists()


@pytest.mark.parametrize("case,config,unknown", [
    ("young", {"seed": 3}, "seed"),
    ("young", {"grid": {"M": 3}}, "M"),
    ("young", {"case": {"bogus": 1}}, "bogus"),
    ("conv-eq23", {"case": {"p1": 5, "q2": 1}}, "p1"),
    ("young", {"case": {"s": 1}}, "s"),
    ("conv1", {"case": {"q2": 1}}, "q2"),
], ids=["seed", "grid-M", "case-bogus", "conv-eq23-p1-q2", "young-s", "conv1-q2"])
def test_verify_refuses_unknown_config_key(tmp_path, capsys, case, config, unknown):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(["verify", case, "--config", cfg, "--N", 1024,
                    "--out", tmp_path / "x"]) == 2
    message = _validation_error(capsys)
    assert "unknown keys" in message and repr(unknown) in message
    assert not (tmp_path / "x.report.json").exists()


@pytest.mark.parametrize("argv,config,named", [
    (["verify", "young", "--seed", -5, "--count", 2], None, "got -5"),
    (["verify", "young", "--count", 2], {"seed_g": -1}, "got -1"),
    # refused before the sweep's resolvability pre-flight and resolution build
    (["sweep", "smoothing", "--t", "2^-2..2^1", "--N", 1024, "--band", 8, "--seed", -1],
     None, "got -1"),
], ids=["verify-seed", "verify-config-seed_g", "sweep-seed"])
def test_cli_refuses_negative_corpus_seed(tmp_path, capsys, monkeypatch, argv, config, named):
    def no_kernel(*args):
        raise AssertionError("a kernel was built before the seed was checked")

    monkeypatch.setattr(KernelFamily, "kernel", no_kernel)
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", cfg]
    assert run_cli(argv + ["--out", tmp_path / "x"]) == 2
    assert f"seed must be a non-negative integer, {named}" in _validation_error(capsys)
    assert not list(tmp_path.glob("x.*"))


def test_verify_config_reads_typed_case_entries(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"count": 2, "case": {"p1": 1, "p2": "inf", "q": "2^1",
                                                    "s": None}}))
    assert run_cli(["verify", "conv1", "--config", cfg, "--N", 1024,
                    "--out", tmp_path / "x"]) == 0
    case = json.loads((tmp_path / "x.report.json").read_text())["case"]
    # exponent strings are parsed, and null keeps the default s = 0.5
    assert (case["p2"], case["q"], case["s"]) == ("inf", 2.0, 0.5)


def test_report_refuses_artifact_that_is_not_an_object(tmp_path, capsys):
    artifact = tmp_path / "a.report.json"
    artifact.write_text("[]\n")
    assert run_cli(["report", artifact, "--out", tmp_path / "sum"]) == 2
    assert "not a JSON object" in _validation_error(capsys)
    assert not (tmp_path / "sum.json").exists()


@pytest.mark.parametrize("case,params", [("young", {"p": 0}), ("conv3", {"q": 0})])
def test_verify_refuses_out_of_range_exponents(tmp_path, capsys, case, params):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"case": params}))
    assert run_cli(["verify", case, "--config", cfg, "--N", 1024,
                    "--out", tmp_path / "x"]) == 2
    assert "exponents need" in _validation_error(capsys)


@pytest.fixture
def small_field(tmp_path):
    out = tmp_path / "small"
    assert run_cli(["kernel", "--t", 1, "--N", 64, "--L", 8, "--out", out]) == 0
    return str(out) + ".field"


def _manifest_bytes(tmp_path, argv, out) -> bytes:
    assert run_cli([*argv, "--out", tmp_path / out]) == 0
    return (tmp_path / (out + ".manifest.json")).read_bytes()


def test_manifest_tolerances_are_the_enforced_constants(tmp_path):
    kernel = json.loads(_manifest_bytes(tmp_path, ["kernel", "--t", 1, "--N", 1024], "k"))
    assert kernel["tolerances"] == {"spectral_tail": _TAIL_TOL}
    sub = json.loads(_manifest_bytes(tmp_path, ["subordinate", "--nodes", 2048,
                                                "--N", 1024, "--L", 40], "s"))
    assert sub["tolerances"] == {"mass": _MASS_TOL, "laplace": _LAPLACE_TOL,
                                 "moment_edge": _EDGE_TOL}
    verify = json.loads(_manifest_bytes(tmp_path, ["verify", "young", "--count", 2,
                                                   "--N", 1024], "v"))
    report = json.loads((tmp_path / "v.report.json").read_text())
    assert verify["tolerances"] == {"ratio_tolerance": report["tolerance"],
                                    "rhs_floor": _RHS_FLOOR}


@pytest.fixture(scope="module")
def conv3_runs(tmp_path_factory):
    """The report and manifest of one verify conv3 command, with and without
    --refine."""
    d = tmp_path_factory.mktemp("conv3")
    argv = ["verify", "conv3", "--count", 8, "--N", 1024, "--band", 8]
    runs = {}
    for name, extra in (("plain", []), ("refined", ["--refine"])):
        assert run_cli([*argv, *extra, "--out", d / name]) == 0
        runs[name] = tuple(json.loads((d / (name + suffix)).read_text())
                           for suffix in (".report.json", ".manifest.json"))
    return runs


def test_verify_refine_manifest_records_the_stability_tolerance(conv3_runs):
    # a refined run's verdict reads the stability tolerance, so its manifest
    # records it; a plain run's verdict does not
    plain, refined = conv3_runs["plain"][1], conv3_runs["refined"][1]
    assert plain["tolerances"] == {"ratio_tolerance": None, "rhs_floor": _RHS_FLOOR}
    assert refined["tolerances"] == {"ratio_tolerance": None, "rhs_floor": _RHS_FLOOR,
                                     "stability_tol": _STABILITY_TOL}


def test_verify_refine_coarse_constant_is_the_plain_runs(conv3_runs):
    # both paths run one check, so the refined run's coarse constant is, bit
    # for bit, the empirical constant of the same command without --refine
    plain, refined = conv3_runs["plain"][0], conv3_runs["refined"][0]
    assert refined["details"]["coarse_empirical_C"] == plain["empirical_C"]
    assert refined["details"]["N"] == 2 * plain["details"]["N"]


_FIELD = object()


@pytest.mark.parametrize("argv,changed", [
    (["norm", "--input", _FIELD], ["--profile-sharpness", 3]),
    (["sweep", "smoothing", "--N", 1024, "--t", "2^-3..2^0", "--band", 4], ["--band", 8]),
    (["kernel", "--t", 1, "--N", 64, "--L", 8], ["--format", "csv"]),
    (["subordinate", "--nodes", 512, "--N", 64, "--L", 8], ["--format", "csv"]),
], ids=["norm-profile-sharpness", "sweep-band", "kernel-format", "subordinate-format"])
def test_manifest_records_every_option_but_out(tmp_path, small_field, argv, changed):
    argv = [small_field if a is _FIELD else a for a in argv]
    first = _manifest_bytes(tmp_path, argv, "a")
    assert _manifest_bytes(tmp_path, argv, "b") == first
    # a later repeat of an option overrides the earlier one
    other = json.loads(_manifest_bytes(tmp_path, argv + changed, "c"))
    assert other["config_hash"] != json.loads(first)["config_hash"]


def test_verify_manifest_records_config_content_not_path(tmp_path):
    content = {"count": 2, "case": {"s": 0.25}}
    argv = ["verify", "conv1", "--N", 1024]
    manifests = []
    for name in ("x", "y"):
        (tmp_path / name).mkdir()
        cfg = tmp_path / name / "cfg.json"
        cfg.write_text(json.dumps(content))
        manifests.append(_manifest_bytes(tmp_path, argv + ["--config", cfg], name))
    assert manifests[0] == manifests[1]
    assert json.loads(manifests[0])["config"]["config"] == content
    without = json.loads(_manifest_bytes(tmp_path, argv + ["--count", 2], "z"))
    assert without["config"]["config"] == {}


def test_verify_case_spellings_share_a_manifest(tmp_path):
    argv = ["--N", 64, "--L", 8, "--band", 2, "--count", 2]
    assert (_manifest_bytes(tmp_path, ["verify", "conv-eq23", *argv], "a")
            == _manifest_bytes(tmp_path, ["verify", "conv_eq23", *argv], "b"))


def test_report_writes_a_manifest(tmp_path):
    artifact = tmp_path / "a.report.json"
    artifact.write_text(json.dumps({"verdict": "pass", "case": {"name": "young"}}))
    manifest = json.loads(_manifest_bytes(tmp_path, ["report", artifact], "sum"))
    assert manifest["command"] == "report"
    assert manifest["config"] == {"artifacts": [str(artifact)]}


@pytest.mark.parametrize("argv", [
    ["norm", "--input", _FIELD, "--s", "nan"],
    ["norm", "--input", _FIELD, "--s", "inf"],
    ["sweep", "smoothing", "--u", "nan"],
    ["sweep", "smoothing", "--s", "nan"],
], ids=["norm-s-nan", "norm-s-inf", "sweep-u-nan", "sweep-s-nan"])
def test_cli_refuses_non_finite_smoothness(tmp_path, capsys, small_field, argv):
    argv = [small_field if a is _FIELD else a for a in argv]
    assert run_cli(argv + ["--out", tmp_path / "x"]) == 2
    assert "must be finite" in _validation_error(capsys)
    assert not (tmp_path / "x.json").exists()


# 2^(ks) leaves the float64 range once ks passes 1024: at k = 3 for s = 400 on
# the N=1024, L=40 grid (k_max = 4), and at k = 1 for u = 1e308.  At s = 200
# and 250 every weight and every weighted block of the t = 1/2 kernel is
# finite, but the blocks' squares are not.  Every warning is an error, so
# none may precede the refusal.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["norm", "--input", _FIELD, "--s", "400"],
    ["norm", "--input", _FIELD, "--s", "400", "--space", "F", "--p", "inf", "--q", "2"],
    ["sweep", "smoothing", "--u", "1e308", "--N", "4096", "--band", "4", "--t", "2^-2..2^1"],
    ["norm", "--input", _FIELD, "--s", "200", "--space", "F", "--p", "1", "--q", "2"],
    ["norm", "--input", _FIELD, "--s", "250", "--space", "B", "--p", "1", "--q", "2"],
    ["norm", "--input", _FIELD, "--s", "200", "--space", "F", "--p", "inf", "--q", "2"],
], ids=["norm-B", "norm-F-p-inf", "sweep-u", "norm-F-p-1-q-power", "norm-B-q-power",
        "norm-F-p-inf-q-power"])
def test_cli_refuses_overflowing_block_weight(tmp_path, capsys, argv):
    wide = tmp_path / "wide"
    assert run_cli(["kernel", "--t", 0.5, "--N", 1024, "--L", 40, "--out", wide]) == 0
    argv = [str(wide) + ".field" if a is _FIELD else a for a in argv]
    assert run_cli(argv + ["--out", tmp_path / "x"]) == 2
    assert "overflows float64" in _validation_error(capsys)
    assert not list(tmp_path.glob("x.*"))


def test_verify_refuses_non_finite_config_smoothness(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"case": {"s": NaN}}')  # Python's json reads the NaN token
    assert run_cli(["verify", "conv1", "--config", cfg, "--N", 1024,
                    "--out", tmp_path / "x"]) == 2
    assert "must be finite" in _validation_error(capsys)
    assert not (tmp_path / "x.report.json").exists()


@pytest.mark.parametrize("argv,config,named", [
    (["--band", "nan"], None, "band_limit"),
    ([], '{"band_limit": NaN}', "band_limit"),
    ([], '{"grid": {"L": Infinity}}', "half_width"),
], ids=["band-nan", "config-band-limit-nan", "config-L-inf"])
def test_verify_refuses_nan_band_limit_and_infinite_half_width(tmp_path, capsys, argv,
                                                               config, named):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)  # Python's json reads the NaN and Infinity tokens
        argv = argv + ["--config", cfg]
    assert run_cli(["verify", "young", "--N", 1024, *argv, "--out", tmp_path / "x"]) == 2
    assert named in _validation_error(capsys)
    assert not (tmp_path / "x.report.json").exists()


@pytest.mark.parametrize("config,named", [
    ('{"case": {"constant_claim": Infinity}}', "constant_claim"),
    ('{"case": {"constant_claim": -1}}', "constant_claim"),
    ('{"case": {"tolerance": -2}}', "tolerance"),
], ids=["claim-inf", "claim-negative", "tolerance-negative"])
def test_verify_refuses_a_claim_no_ratio_could_meet(tmp_path, capsys, config, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)  # Python's json reads the Infinity token
    assert run_cli(["verify", "young", "--config", cfg, "--N", 1024,
                    "--out", tmp_path / "x"]) == 2
    assert named in _validation_error(capsys)
    assert not list(tmp_path.glob("x.*"))


def test_verify_infinite_config_exponent_is_recorded_as_its_string(tmp_path):
    # the Infinity token and the "inf" string are one run, with one manifest
    outputs = []
    for name, q in (("token", "Infinity"), ("string", '"inf"')):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(f'{{"case": {{"q": {q}}}}}')
        (tmp_path / name).mkdir()
        out = tmp_path / name / "x"
        assert run_cli(["verify", "conv1", "--config", cfg, "--N", 1024, "--count", 4,
                        "--out", out]) == 0
        outputs.append([(tmp_path / name / f"x.{ext}").read_bytes()
                        for ext in ("report.json", "manifest.json", "ratios.csv")])
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][1])["config"]["config"] == {"case": {"q": "inf"}}


def test_artifacts_are_strict_json(tmp_path, capsys):
    # the gw family never reads --m, so its NaN reaches only the manifest
    assert run_cli(["kernel", "--m", "nan", "--t", 1, "--N", 64, "--L", 8,
                    "--out", tmp_path / "k"]) == 2
    assert "not JSON compliant" in _validation_error(capsys)
    assert sorted(p.name for p in tmp_path.glob("k.*")) == ["k.field.bin", "k.field.json"]
