"""Command-line entry point: kernel/norm/verify/sweep/subordinate/report.

Every run writes machine-readable artifacts (JSON reports, CSV curves) plus
a manifest with the config hash, package versions and the tolerances in
force, so runs are reproducible and self-describing.  The manifest's config
is read off the parser: every parsed option except ``--out``, with verify's
``--config`` path replaced by the file's content.  Identical configs produce
byte-identical outputs.

Exit codes: 0 pass, 2 validation error, 3 under-resolution, 4 verdict fail.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .grid import (UnderResolvedError, _canonical, _field, _jsonable, _write_csv, _write_json,
                   integrate, load_field, make_grid, save_field)

# Each command imports the modules it runs, so that it executes no other.

EXIT_PASS = 0
EXIT_VALIDATION = 2
EXIT_UNDER_RESOLVED = 3
EXIT_FAIL = 4


def _json_object(obj, what: str, keys=None) -> dict:
    """``obj`` if it is a JSON object whose keys all lie in ``keys``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} is not a JSON object")
    unknown = sorted(set(obj) - set(keys)) if keys is not None else []
    if unknown:
        raise ValueError(f"{what} has unknown keys {unknown}; allowed: {list(keys)}")
    return obj


def _read_config(path) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        return _json_object(json.load(fh), f"config {path}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_EXPONENTS = ("p", "p1", "p2", "q", "q1", "q2")
_INTEGER = ("an integer", lambda v: _is_number(v) and isinstance(v, int))
_NUMBER = ("a number", _is_number)
# what each verify config value must be; a bool is neither a number nor a string
_CONFIG_TYPES = {
    **dict.fromkeys(("count", "seed_f", "seed_g", "dim", "N"), _INTEGER),
    **dict.fromkeys(("band_limit", "L", "s", "u", "constant_claim", "tolerance"), _NUMBER),
    **dict.fromkeys(_EXPONENTS, ("a number or an exponent string",
                                 lambda v: _is_number(v) or isinstance(v, str))),
    "refine": ("true or false", lambda v: isinstance(v, bool)),
    "scale": ("a string", lambda v: isinstance(v, str)),
}
# null keeps the default only for the values whose default may itself be unset
_NULL_KEEPS_DEFAULT = ("s", "u", "constant_claim", "tolerance")


def _config_value(cfg: dict, key: str, default):
    if key not in cfg or (cfg[key] is None and key in _NULL_KEEPS_DEFAULT):
        return default
    value = cfg[key]
    want, ok = _CONFIG_TYPES[key]
    if not ok(value):
        raise ValueError(f"config {key!r} must be {want}, got {value!r}")
    return _parse_ext(value) if key in _EXPONENTS and isinstance(value, str) else value


def _parse_ext(value: str) -> float:
    """Parse a float that may be 'inf' or '2^k'."""
    v = value.strip().lower()
    if v in ("inf", "infinity", "oo"):
        return math.inf
    m = re.fullmatch(r"2\^(-?\d+(?:\.\d+)?)", v)
    if m:
        return 2.0 ** float(m.group(1))
    return float(v)


def _parse_t_list(spec: str) -> list:
    """Accept '2^a..2^b' (octave-spaced) or a comma-separated list."""
    m = re.fullmatch(r"2\^(-?\d+)\.\.2\^(-?\d+)", spec.strip())
    if m:
        a, b = int(m.group(1)), int(m.group(2))
        lo, hi = min(a, b), max(a, b)
        return [2.0**j for j in range(lo, hi + 1)]
    ts = [_parse_ext(tok) for tok in spec.split(",") if tok.strip()]
    if not ts:
        raise ValueError(f"empty time list {spec!r}")
    return ts


def _family_spec(args):
    from .kernels import (cauchy_poisson, gauss_weierstrass, generalized_gauss_weierstrass,
                          stable_exponent)

    fam = args.family
    if fam == "gw":
        return gauss_weierstrass(args.dim)
    if fam == "gen-gw":
        return generalized_gauss_weierstrass(args.m, args.dim)
    if fam == "cauchy":
        return cauchy_poisson(args.dim)
    return stable_exponent(args.alpha, args.dim)


def _add_grid_args(p, n_default=4096, l_default=40.0, dim_default=1):
    p.add_argument("--dim", type=int, default=dim_default)
    p.add_argument("--N", type=int, default=n_default)
    p.add_argument("--L", type=float, default=l_default)


# Each command writes its own non-JSON artifacts and returns (payload,
# tolerances, exit code); ``main`` writes the payload, the manifest and stdout.


def _cmd_kernel(args):
    from .kernels import _TAIL_TOL, KernelFamily, kernel_diagnostics

    spec = _family_spec(args)
    grid = make_grid(args.dim, args.N, args.L)
    p = KernelFamily(spec, grid).kernel(args.t)
    diag = kernel_diagnostics(p, args.t)
    save_field(p, args.out + ".field", fmt=args.format)
    return diag, {"spectral_tail": _TAIL_TOL}, EXIT_PASS


def _cmd_norm(args):
    from .littlewood_paley import build_resolution, bump_profile
    from .norms import SpaceParams, space_norm

    fld = load_field(args.input)
    # the norm reads the spectrum only, so the samples are not kept beside it
    fld = _field(fld.grid, fld.spectrum)
    res = build_resolution(fld.grid, bump_profile(args.profile_sharpness))
    sp = SpaceParams(args.space, args.s, _parse_ext(args.p), _parse_ext(args.q))
    return space_norm(fld, res, sp).to_json_dict(), {}, EXIT_PASS


_VERIFY_DEFAULTS = {
    "young": {"p": 1.0, "p1": 1.0, "p2": 1.0},
    "conv1": {"scale": "B", "s": 0.5, "p": math.inf, "p1": 2.0, "p2": 2.0, "q": 2.0},
    "conv3": {"scale": "B", "s": 0.5, "u": 0.5, "p": 1.0, "p1": 1.0, "p2": 1.0,
              "q": 1.0, "q1": 2.0, "q2": 2.0},
    "conv_eq23": {"scale": "B", "s": 0.5, "u": 0.5, "p": 2.0, "q": 2.0},
}


def _build_case(name: str, params):
    from .verifier import InequalityCase, conv_eq23_case

    defaults = _VERIFY_DEFAULTS[name]
    # a case takes the keys it reads: those with a default, plus the claim
    keys = [*defaults, "constant_claim", "tolerance"]
    params = _json_object(params, "config 'case'", keys)
    given = {k: _config_value(params, k, defaults.get(k)) for k in keys}
    given = {k: v for k, v in given.items() if v is not None}
    if name == "conv_eq23":
        return conv_eq23_case(**given)
    return InequalityCase(name, **given)


def _cmd_verify(args):
    from .littlewood_paley import build_resolution
    from .verifier import _RHS_FLOOR, CorpusSpec, check_inequality, generate_corpus, refined

    cfg = _json_object(args.config, "config", ("grid", "count", "seed_f", "seed_g",
                                               "band_limit", "refine", "case"))
    grid_cfg = _json_object(cfg.get("grid", {}), "config 'grid'", ("dim", "N", "L"))
    grid = make_grid(_config_value(grid_cfg, "dim", args.dim),
                     _config_value(grid_cfg, "N", args.N),
                     _config_value(grid_cfg, "L", args.L))
    seed_f = _config_value(cfg, "seed_f", args.seed)
    seed_g = _config_value(cfg, "seed_g", args.seed + 4)
    count = _config_value(cfg, "count", args.count)
    band = _config_value(cfg, "band_limit", args.band)
    case = _build_case(args.case, cfg.get("case", {}))
    spec_f = CorpusSpec(seed=seed_f, count=count, band_limit=band)
    spec_g = CorpusSpec(seed=seed_g, count=count, band_limit=band)

    def check(g):
        res = build_resolution(g)
        return check_inequality(case, generate_corpus(spec_f, g), generate_corpus(spec_g, g), res)

    refine = _config_value(cfg, "refine", args.refine)
    report = refined(check, grid) if refine else check(grid)
    report.write_ratios_csv(args.out + ".ratios.csv")
    tolerances = {"ratio_tolerance": report.tolerance, "rhs_floor": _RHS_FLOOR}
    if refine:
        tolerances["stability_tol"] = report.details["stability_tol"]
    return report.to_json_dict(), tolerances, EXIT_PASS if report.verdict else EXIT_FAIL


def _cmd_sweep(args):
    from .kernels import _TAIL_TOL, KernelFamily
    from .littlewood_paley import build_resolution
    from .norms import SpaceParams
    from .verifier import CorpusSpec, generate_corpus, smoothing_sweep

    spec = _family_spec(args)
    grid = make_grid(args.dim, args.N, args.L)
    ts = _parse_t_list(args.t)
    # the corpus recipe is checked before any kernel or resolution is built
    corpus_spec = CorpusSpec(seed=args.seed, count=1, families=("mollified_step",),
                             band_limit=args.band)
    fam = KernelFamily(spec, grid)
    fam.kernel(min(ts))  # resolvability pre-flight at the smallest t
    res = build_resolution(grid)
    corpus = generate_corpus(corpus_spec, grid)
    base = SpaceParams(args.space, args.s, _parse_ext(args.p), _parse_ext(args.q))
    sweep = smoothing_sweep(fam, corpus[0], base, args.u, ts, res)
    _write_csv(args.out + ".curve.csv", ("t", "applied_norm", "kernel_norm"),
               (sweep.ts, sweep.applied_norms, sweep.kernel_norms))
    return asdict(sweep), {"spectral_tail": _TAIL_TOL}, EXIT_PASS


def _cmd_subordinate(args):
    from .subordination import (_EDGE_TOL, _LAPLACE_TOL, _MASS_TOL, laplace_residuals,
                                stable_half_density, subordinate_kernel, subordinator_moment)

    if not abs(args.alpha - 0.5) <= 1e-12:  # written so that a NaN fails too
        raise ValueError(
            "only the alpha = 1/2 stable subordinator has a built-in density; "
            "supply other laws programmatically via lplab.subordination.user_density"
        )
    grid = make_grid(args.dim, args.N, args.L)
    dens = stable_half_density(args.t, num_nodes=args.nodes)
    kernel = subordinate_kernel(dens, grid)
    # every value is computed, and so every refusal made, before a file is written
    payload = {
        "t": args.t,
        "mass": integrate(kernel),
        "quadrature_mass": dens.mass(),
        "K_t": subordinator_moment(dens, args.u),
        "u": args.u,
        "laplace_check_residuals": laplace_residuals(dens),
    }
    save_field(kernel, args.out + ".field", fmt=args.format)
    tolerances = {"mass": _MASS_TOL, "laplace": _LAPLACE_TOL, "moment_edge": _EDGE_TOL}
    return payload, tolerances, EXIT_PASS


def _cmd_report(args):
    rows, all_pass = [], True
    for path in args.artifacts:
        with open(path) as fh:
            data = _json_object(json.load(fh), f"artifact {path}")
        verdict = data.get("verdict")
        if verdict is not None:
            all_pass = all_pass and verdict == "pass"
        rows.append({"path": path, "verdict": verdict,
                     "case": data.get("case", {}).get("name") if isinstance(
                         data.get("case"), dict) else None})
    summary = {"reports": rows, "all_pass": all_pass, "count": len(rows)}
    return summary, {}, EXIT_PASS if all_pass else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lplab",
        description="Littlewood-Paley norms, convolution-semigroup kernels, "
                    "and inequality verification on periodic grids.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    shared_family = dict(choices=("gw", "gen-gw", "cauchy", "stable"), default="gw")

    k = sub.add_parser("kernel", help="synthesize a semigroup kernel")
    k.add_argument("--family", **shared_family)
    k.add_argument("--m", type=float, default=1.0)
    k.add_argument("--alpha", type=float, default=1.0)
    k.add_argument("--t", type=float, required=True)
    _add_grid_args(k)
    k.add_argument("--out", default="kernel_out")
    k.add_argument("--format", choices=("binary", "csv"), default="binary")
    k.set_defaults(fn=_cmd_kernel)

    n = sub.add_parser("norm", help="compute a function-space norm of a stored field")
    n.add_argument("--input", required=True, help="field basepath written by save_field")
    n.add_argument("--space", choices=("B", "F"), default="B")
    n.add_argument("--s", type=float, default=0.0)
    n.add_argument("--p", default="1")
    n.add_argument("--q", default="inf")
    n.add_argument("--profile-sharpness", type=float, default=1.0)
    n.add_argument("--out", default="norm_out")
    n.set_defaults(fn=_cmd_norm)

    v = sub.add_parser("verify", help="check a convolution inequality on a corpus")
    # one spelling per case, so that both spellings of a run share a config hash
    v.add_argument("case", type=lambda name: name.replace("-", "_"),
                   choices=("young", "conv1", "conv3", "conv_eq23"))
    v.add_argument("--config", help="JSON config overriding the defaults")
    v.add_argument("--seed", type=int, default=7)
    v.add_argument("--count", type=int, default=20)
    v.add_argument("--band", type=float, default=8.0)  # = 2^(k_max-1) at N=1024
    v.add_argument("--refine", action="store_true")
    _add_grid_args(v, n_default=1024)
    v.add_argument("--out", default="verify_out")
    v.set_defaults(fn=_cmd_verify)

    s = sub.add_parser("sweep", help="norm curves over a time sweep, with power-law fits")
    s.add_argument("kind", choices=("smoothing",))
    s.add_argument("--family", **shared_family)
    s.add_argument("--m", type=float, default=1.0)
    s.add_argument("--alpha", type=float, default=1.0)
    s.add_argument("--u", type=float, default=1.0)
    s.add_argument("--t", default="2^-6..2^0")
    s.add_argument("--seed", type=int, default=7)
    s.add_argument("--band", type=float, default=16.0)
    s.add_argument("--space", choices=("B", "F"), default="B")
    s.add_argument("--s", type=float, default=0.0)
    s.add_argument("--p", default="1")
    s.add_argument("--q", default="inf")
    _add_grid_args(s)
    s.add_argument("--out", default="sweep_out")
    s.set_defaults(fn=_cmd_sweep)

    b = sub.add_parser("subordinate", help="subordinate heat kernel and moment functional")
    b.add_argument("--alpha", type=float, default=0.5)
    b.add_argument("--t", type=float, default=1.0)
    b.add_argument("--u", type=float, default=1.0)
    b.add_argument("--nodes", type=int, default=4096)
    _add_grid_args(b)
    b.add_argument("--out", default="subordinate_out")
    b.add_argument("--format", choices=("binary", "csv"), default="binary")
    b.set_defaults(fn=_cmd_subordinate)

    r = sub.add_parser("report", help="aggregate verification artifacts")
    r.add_argument("artifacts", nargs="+")
    r.add_argument("--out", default="summary")
    r.set_defaults(fn=_cmd_report)

    return ap


# written to <out>.json unless named here
_PAYLOAD_SUFFIX = {"verify": ".report.json"}


def _sha256_hex(data: bytes) -> str:
    """The SHA-256 hex digest of ``data``, from the interpreter's built-in
    SHA-256: hashlib is pretty heavy to load (OpenSSL's libcrypto, a few MB
    of a process's peak), so it is only the last fallback."""
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10-3.11
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def main(argv=None) -> int:
    """Run one command, then write its payload JSON, its manifest and the
    payload on stdout.  The manifest's config is every parsed option except
    ``--out``; verify's ``--config`` is recorded as the file's content ({}
    without one), since the content, not the path, moves the numbers."""
    args = build_parser().parse_args(argv)
    try:
        if "config" in vars(args):
            args.config = _read_config(args.config)
        payload, tolerances, code = args.fn(args)
        # an infinite config value is recorded as reports record it
        run = {"command": args.command,
               "config": _jsonable({k: v for k, v in vars(args).items()
                                    if k not in ("command", "fn", "out")})}
        manifest = {**run, "config_hash": _sha256_hex(_canonical(run).encode()),
                    "tolerances": tolerances,
                    "versions": {"lplab": __version__, "numpy": np.__version__,
                                 "python": ".".join(map(str, sys.version_info[:3]))}}
        _write_json(args.out + _PAYLOAD_SUFFIX.get(args.command, ".json"), payload)
        _write_json(args.out + ".manifest.json", manifest)
        print(_canonical(payload))
        return code
    except UnderResolvedError as exc:
        print(_canonical({"error": str(exc), "kind": "under_resolution"}),
              file=sys.stderr)
        return EXIT_UNDER_RESOLVED
    except (ValueError, OSError) as exc:
        print(_canonical({"error": str(exc), "kind": "validation"}), file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
