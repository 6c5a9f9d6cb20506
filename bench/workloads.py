"""The benchmark's workloads: the lplab CLI commands each one runs, the
outputs each command is gated on, and the work a run completes.

A workload run is a list of steps. Each step is one ``lplab`` command line
plus a function that reads back the command's key outputs. The gate
compares those outputs with closed-form values and with values recorded at
the commit named in ``reference.json`` (see ``record_reference.py``).

Corpus seeds are drawn from a pool of ``POOL`` seeds, one per reference
record: the benchmark's ``--seed`` n selects corpus seed ``n % POOL``, so
every seed the benchmark is given has recorded outputs to gate against.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

POOL = 32
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Tolerances of the gate. They are no looser than the package's own checks
# (1e-6 on ratios and masses, 1e-5 on Laplace residuals and moments) and
# about four orders above the roundoff these reductions show (~1e-13), so a
# later change that only reorders floating-point work still passes.
REL_TOL = 1e-9
ABS_TOL = 1e-9
# key -> (absolute, relative) tolerance; keys not listed must match exactly.
TOLERANCES = {
    "empirical_C": (0.0, REL_TOL),
    "refinement_delta": (ABS_TOL, 0.0),
    "mass": (ABS_TOL, 0.0),
    "gradient_l1": (0.0, REL_TOL),
    "norm": (0.0, REL_TOL),
    "applied_fit_exponent": (ABS_TOL, 0.0),
    "applied_fit_intercept": (ABS_TOL, 0.0),
    "kernel_fit_exponent": (ABS_TOL, 0.0),
    "K_t": (0.0, REL_TOL),
    "laplace_residual_max": (1e-5, 0.0),  # the package's Laplace tolerance
    "quadrature_mass": (1e-6, 0.0),       # the package's mass tolerance
}


@dataclass(frozen=True)
class Step:
    """One CLI command and a reader of its key outputs."""

    argv: list
    observe: Callable[[], dict]


@dataclass(frozen=True)
class Workload:
    name: str
    # (corpus seed, run directory) -> the run's steps, in order
    steps: Callable[[int, str], list]
    # per step: expected values known in closed form
    analytic: tuple
    # work finished by one run, in ``work_unit``
    work_per_run: float
    work_unit: str
    # the largest array a command holds, as (label, bytes)
    largest_array: tuple


def _read(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# verify-2d: the README's headline verification path on a 2-D grid.
# BENCHMARK.json lists only the two 3-D workloads: the time budget of a full
# set of runs allows long enough runs to average out a shared host's noise
# for two workloads, not three. Run this one with ``--workload verify-2d``.

_V_COUNT = 20


def _verify_2d(seed: int, d: str) -> list:
    out = os.path.join(d, "c3")
    argv = ["verify", "conv3", "--refine", "--dim", "2", "--N", "128", "--L", "8",
            "--band", "4", "--count", str(_V_COUNT), "--seed", str(seed), "--out", out]

    def observe():
        rep = _read(out + ".report.json")
        return {"verdict": rep["verdict"], "n_pairs": rep["n_pairs"],
                "empirical_C": rep["empirical_C"],
                "refinement_delta": rep["refinement_delta"]}

    return [Step(argv, observe)]


# ---------------------------------------------------------------------------
# semigroup-3d: kernel -> CSV -> norm, then a smoothing sweep, on a 3-D grid.

_S_GRID = ["--dim", "3", "--N", "64", "--L", "4"]
_S_TIMES = [2.0**j for j in range(-4, 2)]


def _semigroup_3d(seed: int, d: str) -> list:
    kout, nout, sout = (os.path.join(d, x) for x in ("gw", "norm", "sweep"))
    kernel = ["kernel", "--family", "gw", "--t", "0.05", *_S_GRID,
              "--format", "csv", "--out", kout]
    norm = ["norm", "--input", kout + ".field", "--space", "F", "--s", "0.5",
            "--p", "inf", "--q", "2", "--out", nout]
    sweep = ["sweep", "smoothing", "--family", "gw", *_S_GRID, "--band", "4",
             "--t", "2^-4..2^1", "--space", "F", "--p", "2", "--q", "2",
             "--seed", str(seed), "--out", sout]

    def observe_kernel():
        diag = _read(kout + ".json")
        return {"mass": diag["mass"], "gradient_l1": diag["gradient_l1"]}

    def observe_norm():
        res = _read(nout + ".json")
        return {"reduction": res["reduction"], "norm": res["value"]}

    def observe_sweep():
        sw = _read(sout + ".json")
        # the exponents do not see a constant factor; the intercept does
        return {"ts": sw["ts"],
                "applied_fit_exponent": sw["applied_fit"]["exponent"],
                "applied_fit_intercept": sw["applied_fit"]["intercept"],
                "kernel_fit_exponent": sw["kernel_fit"]["exponent"]}

    return [Step(kernel, observe_kernel), Step(norm, observe_norm),
            Step(sweep, observe_sweep)]


# ---------------------------------------------------------------------------
# subordinate-3d: the alpha = 1/2 subordinate heat kernel on a 3-D grid.

_B_NODES = 512
_B_POINTS = 64**3


def _subordinate_3d(seed: int, d: str) -> list:
    out = os.path.join(d, "sub")
    argv = ["subordinate", "--alpha", "0.5", "--t", "1", "--u", "1",
            "--nodes", str(_B_NODES), "--dim", "3", "--N", "64", "--L", "8",
            "--out", out]

    def observe():
        res = _read(out + ".json")
        return {"K_t": res["K_t"], "quadrature_mass": res["quadrature_mass"],
                "laplace_residual_max": max(res["laplace_check_residuals"].values()),
                "field_bytes": os.path.getsize(out + ".field.bin")}

    return [Step(argv, observe)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-2d", _verify_2d,
                 ({"verdict": "pass", "n_pairs": _V_COUNT},),
                 work_per_run=2 * _V_COUNT, work_unit="inequality pairs",
                 largest_array=("256^2 complex128", 256**2 * 16)),
        Workload("semigroup-3d", _semigroup_3d,
                 ({"mass": 1.0}, {"reduction": "cube_sup"}, {"ts": _S_TIMES}),
                 # one norm from `norm`, two per sweep time from `sweep`
                 work_per_run=1 + 2 * len(_S_TIMES), work_unit="norm values",
                 largest_array=("64^3 complex128", 64**3 * 16)),
        Workload("subordinate-3d", _subordinate_3d,
                 ({"K_t": 2.0 / math.sqrt(math.pi), "quadrature_mass": 1.0,
                   "laplace_residual_max": 0.0, "field_bytes": _B_POINTS * 16},),
                 work_per_run=_B_NODES * _B_POINTS, work_unit="node x grid points",
                 # subordinate_kernel evaluates 2^22 // points nodes at a time
                 largest_array=("16 x 64^3 float64", (2**22 // _B_POINTS) * _B_POINTS * 8)),
    )
}


def corpus_seed(seed: int) -> int:
    return seed % POOL


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def expected(w: Workload, seed: int, reference: dict) -> list:
    """Per step, the values the gate requires for corpus seed ``seed``.

    A workload without a section in the reference has only closed-form
    expectations."""
    section = reference["workloads"].get(w.name)
    recorded = section[str(seed)] if section is not None else [{} for _ in w.analytic]
    return [{**rec, **ana} for rec, ana in zip(recorded, w.analytic)]


def _matches(key, got, want) -> bool:
    if key not in TOLERANCES:
        return got == want
    atol, rtol = TOLERANCES[key]
    return (isinstance(got, (int, float)) and math.isfinite(got)
            and abs(got - want) <= atol + rtol * abs(want))


def check_step(step: Step, want: dict) -> list:
    """Problems with one step's outputs (empty when it passes the gate)."""
    try:
        got = step.observe()
    except (OSError, KeyError, ValueError) as exc:
        return [f"{step.argv[0]}: outputs unreadable: {exc!r}"]
    return [f"{step.argv[0]}: {key} = {got.get(key)!r}, expected {value!r}"
            for key, value in want.items() if not _matches(key, got.get(key), value)]
