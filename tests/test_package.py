"""What importing the package and running a command execute.

``import lplab`` executes ``grid`` only; every other submodule is registered
lazily and executes on its first attribute access, so each command executes
only the modules it runs.  A module that has not executed is still in
``sys.modules`` (the benchmark's tracer reads it there) but is not yet a
plain module: ``type(module) is types.ModuleType`` triggers no load.  Each
check runs in a fresh interpreter, since this one has executed them all."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from lplab import make_grid, sample, save_field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = ("grid", "cli", "littlewood_paley", "norms", "kernels", "subordination", "verifier")

# the package's public names as the submodule each was imported from
PUBLIC = {
    "grid": ("Grid", "SampledField", "convolve", "forward_transform", "integrate",
             "inverse_transform", "load_field", "make_grid", "sample", "save_field",
             "spectral_derivative"),
    "littlewood_paley": ("DyadicResolution", "TransitionProfile", "apply_block",
                         "build_resolution", "bump_profile", "export_resolution",
                         "squared_resolution", "validate_resolution"),
    "norms": ("INF", "NormResult", "SpaceParams", "besov_norm", "bessel_norm", "hardy_norm",
              "lp_norm", "resolution_l1_bound", "sobolev_w1m_norm", "space_norm",
              "triebel_infty_norm", "triebel_norm"),
    "kernels": ("KernelFamily", "SemigroupSpec", "UnderResolvedError", "apply_semigroup",
                "cauchy_poisson", "chapman_kolmogorov_residual", "char_exponent",
                "closed_form_kernel", "gauss_weierstrass", "generalized_gauss_weierstrass",
                "gradient_l1", "hartman_wintner_profile", "spectral_kernel",
                "stable_exponent"),
    "subordination": ("BernsteinSpec", "SubordinatorDensity", "bernstein_eval",
                      "laplace_residuals", "log_bernstein", "power_bernstein",
                      "stable_half_density", "subordinate_kernel", "subordinator_moment",
                      "user_bernstein", "user_density"),
    "verifier": ("CorpusSpec", "InequalityCase", "PowerLawFit", "SmoothingSweep",
                 "VerificationReport", "check_inequality", "conv_eq23_case", "fit_power_law",
                 "generate_corpus", "profile_equivalence", "refined", "smoothing_sweep",
                 "theorem_semi11_bound_check"),
}

_PRELUDE = f"""
import json, sys, types
import lplab.cli

def executed():
    return sorted(m for m in {MODULES!r}
                  if type(sys.modules["lplab." + m]) is types.ModuleType)
"""


def _run(code: str) -> list:
    """Run ``_PRELUDE + code`` in a fresh serial interpreter; each line it
    prints is one JSON value."""
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, LPLAB_THREADS="1",
               PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run([sys.executable, "-c", _PRELUDE + code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_import_registers_every_module_and_executes_grid_only():
    registered, executed, futures = _run(
        f"print(json.dumps(all('lplab.' + m in sys.modules for m in {MODULES!r})))\n"
        "print(json.dumps(executed()))\n"
        "print(json.dumps('concurrent.futures' in sys.modules))\n")
    assert registered is True
    assert executed == ["cli", "grid"]
    # the verifier's thread pool is imported only when a pool is started
    assert futures is False


@pytest.mark.parametrize("argv,runs", [
    (["subordinate", "--dim", "1", "--N", "1024", "--nodes", "512"], ["subordination"]),
    (["kernel", "--t", "1", "--N", "1024"], ["kernels", "littlewood_paley", "norms"]),
    (["norm", "--input", "{field}"], ["littlewood_paley", "norms"]),
], ids=["subordinate", "kernel", "norm"])
def test_each_command_executes_only_the_modules_it_runs(tmp_path, argv, runs):
    # the norm's input is written here, so that its run executes no kernel
    field = str(tmp_path / "f.field")
    save_field(sample(lambda x: np.exp(-x * x), make_grid(1, 1024, 40.0)), field)
    argv = [a.format(field=field) for a in argv] + ["--out", str(tmp_path / "x")]
    # the command prints its payload first
    *_, code, executed = _run(f"print(json.dumps(lplab.cli.main({argv!r})))\n"
                          "print(json.dumps(executed()))\n")
    assert code == 0
    assert executed == sorted(["cli", "grid", *runs])


def test_public_names_resolve_on_first_use_to_the_submodules_objects():
    resolved, executed, listed, starred, unknown = _run(f"""
public = {PUBLIC!r}
resolved = {{}}
for module, names in public.items():
    for name in names:
        cached = name in vars(lplab)
        value = getattr(lplab, name)
        resolved[name] = [cached, value is getattr(sys.modules["lplab." + module], name),
                          vars(lplab).get(name) is value]
print(json.dumps(resolved))
print(json.dumps(executed()))
print(json.dumps(sorted(set(sum(public.values(), ())) - set(dir(lplab)))))
star = {{}}
exec("from lplab import *", star)
print(json.dumps(sorted(n for names in public.values() for n in names
                        if star.get(n) is not getattr(lplab, n))))
try:
    lplab.no_such_name
except AttributeError as exc:
    print(json.dumps(str(exc)))
""")
    # no name was bound before its first use, each is its submodule's own
    # object, and the package keeps it once resolved
    assert {name: r for name, r in resolved.items() if r != [False, True, True]} == {}
    assert executed == sorted(MODULES)
    assert listed == [] and starred == []
    assert unknown == "module 'lplab' has no attribute 'no_such_name'"


def test_threads_resolving_one_name_first_all_get_it():
    # more threads than cores ask for a name of the unexecuted verifier at
    # once; on Python 3.10 and 3.11 a loser of an unlocked race would read
    # the module while the winner still executes it
    before, got, alive = _run("""
import threading
before = type(sys.modules["lplab.verifier"]) is types.ModuleType
threads = 4
start = threading.Barrier(threads)
got = []

def resolve():
    start.wait()
    try:
        got.append(lplab.smoothing_sweep is sys.modules["lplab.verifier"].smoothing_sweep)
    except AttributeError as exc:
        got.append(str(exc))

interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    workers = [threading.Thread(target=resolve, daemon=True) for _ in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=60)
finally:
    sys.setswitchinterval(interval)
print(json.dumps(before))
print(json.dumps(got))
print(json.dumps([w.is_alive() for w in workers]))
""")
    assert before is False
    assert alive == [False] * 4
    assert got == [True] * 4
