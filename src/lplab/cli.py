"""Command-line entry point: kernel/norm/verify/sweep/subordinate/report.

Every run writes machine-readable artifacts (JSON reports, CSV curves) plus
a manifest with the config hash, package versions and the tolerances in
force, so runs are reproducible and self-describing.  Identical configs
produce byte-identical outputs.

Exit codes: 0 pass, 2 validation error, 3 under-resolution, 4 verdict fail.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .grid import make_grid, integrate, save_field, load_field
from .kernels import (
    KernelFamily,
    UnderResolvedError,
    cauchy_poisson,
    gauss_weierstrass,
    generalized_gauss_weierstrass,
    stable_exponent,
)
from .littlewood_paley import build_resolution, bump_profile
from .norms import INF, SpaceParams, _jsonable, space_norm
from .subordination import (
    laplace_residuals,
    stable_half_density,
    subordinate_kernel,
    subordinator_moment,
)
from .verifier import (
    CorpusSpec,
    InequalityCase,
    check_inequality,
    check_with_refinement,
    conv_eq23_case,
    generate_corpus,
    smoothing_sweep,
)

EXIT_PASS = 0
EXIT_VALIDATION = 2
EXIT_UNDER_RESOLVED = 3
EXIT_FAIL = 4


def _enc(x):
    # json.dumps calls this only for what it cannot encode itself, such as
    # np.int64; np.float64 is a float subclass and never gets here
    return _jsonable(x.item()) if isinstance(x, np.generic) else x


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, default=_enc)


def _write_json(path: str, obj) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(_canonical(obj))
        fh.write("\n")
    os.replace(tmp, path)


def _json_object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} is not a JSON object")
    return obj


# the JSON type each verify config value must have; bool counts as neither an
# integer nor a number
_CONFIG_TYPES = {"count": int, "seed_f": int, "seed_g": int, "dim": int, "N": int,
                 "band_limit": float, "L": float, "refine": bool}
_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false"}


def _config_value(cfg: dict, key: str, default):
    value = cfg.get(key, default)
    want = _CONFIG_TYPES[key]
    if want is bool:
        ok = isinstance(value, bool)
    else:
        ok = isinstance(value, (int, want)) and not isinstance(value, bool)
    if not ok:
        raise ValueError(f"config {key!r} must be {_TYPE_NAMES[want]}, got {value!r}")
    return value


def _write_manifest(out: str, command: str, config: dict, tolerances: dict) -> None:
    payload = _canonical({"command": command, "config": config})
    manifest = {
        "command": command,
        "config": config,
        "config_hash": hashlib.sha256(payload.encode()).hexdigest(),
        "tolerances": tolerances,
        "versions": {"lplab": __version__, "numpy": np.__version__,
                     "python": ".".join(map(str, sys.version_info[:3]))},
    }
    _write_json(out + ".manifest.json", manifest)


def _parse_ext(value: str) -> float:
    """Parse a float that may be 'inf' or '2^k'."""
    v = value.strip().lower()
    if v in ("inf", "infinity", "oo"):
        return INF
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
    fam = args.family
    if fam == "gw":
        return gauss_weierstrass(args.dim)
    if fam == "gen-gw":
        return generalized_gauss_weierstrass(args.m, args.dim)
    if fam == "cauchy":
        return cauchy_poisson()
    return stable_exponent(args.alpha, args.dim)


def _add_grid_args(p, n_default=4096, l_default=40.0, dim_default=1):
    p.add_argument("--dim", type=int, default=dim_default)
    p.add_argument("--N", type=int, default=n_default)
    p.add_argument("--L", type=float, default=l_default)


def _cmd_kernel(args) -> int:
    spec = _family_spec(args)
    grid = make_grid(args.dim, args.N, args.L)
    fam = KernelFamily(spec, grid)
    diag = fam.diagnostics(args.t)
    save_field(fam.kernel(args.t), args.out + ".field", fmt=args.format)
    config = {"family": args.family, "m": args.m, "alpha": args.alpha, "t": args.t,
              "grid": {"dim": args.dim, "N": args.N, "L": args.L}}
    _write_json(args.out + ".json", diag)
    _write_manifest(args.out, "kernel", config, {"spectral_tail": 1e-12})
    print(_canonical(diag))
    return EXIT_PASS


def _cmd_norm(args) -> int:
    fld = load_field(args.input)
    res = build_resolution(fld.grid, bump_profile(args.profile_sharpness))
    sp = SpaceParams(args.space, args.s, _parse_ext(args.p), _parse_ext(args.q))
    result = space_norm(fld, res, sp)
    payload = result.to_json_dict()
    _write_json(args.out + ".json", payload)
    config = {"input": args.input, "space": args.space, "s": args.s,
              "p": args.p, "q": args.q}
    _write_manifest(args.out, "norm", config, {})
    print(_canonical(payload))
    return EXIT_PASS


_VERIFY_DEFAULTS = {
    "young": {"p": 1.0, "p1": 1.0, "p2": 1.0},
    "conv1": {"scale": "B", "s": 0.5, "p": INF, "p1": 2.0, "p2": 2.0, "q": 2.0},
    "conv3": {"scale": "B", "s": 0.5, "u": 0.5, "p": 1.0, "p1": 1.0, "p2": 1.0,
              "q": 1.0, "q1": 2.0, "q2": 2.0},
    "conv_eq23": {"scale": "B", "s": 0.5, "u": 0.5, "p": 2.0, "q": 2.0},
}


def _build_case(name: str, params: dict) -> InequalityCase:
    merged = dict(_VERIFY_DEFAULTS[name])
    merged.update({k: v for k, v in params.items() if v is not None})
    for key in ("p", "p1", "p2", "q", "q1", "q2"):
        if key in merged and isinstance(merged[key], str):
            merged[key] = _parse_ext(merged[key])
    if name == "conv_eq23":
        return conv_eq23_case(merged.get("scale", "B"), merged.get("s", 0.0),
                              merged.get("u", 0.0), merged["p"], merged["q"],
                              merged.get("constant_claim"), merged.get("tolerance"))
    allowed = ("scale", "s", "u", "p", "p1", "p2", "q", "q1", "q2",
               "constant_claim", "tolerance")
    return InequalityCase(name, **{k: merged[k] for k in allowed if k in merged})


def _cmd_verify(args) -> int:
    name = args.case.replace("-", "_")
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = _json_object(json.load(fh), f"config {args.config}")
    grid_cfg = _json_object(cfg.get("grid", {}), "config 'grid'")
    grid = make_grid(_config_value(grid_cfg, "dim", args.dim),
                     _config_value(grid_cfg, "N", args.N),
                     _config_value(grid_cfg, "L", args.L))
    seed_f = _config_value(cfg, "seed_f", args.seed)
    seed_g = _config_value(cfg, "seed_g", args.seed + 4)
    count = _config_value(cfg, "count", args.count)
    band = _config_value(cfg, "band_limit", args.band)
    case = _build_case(name, _json_object(cfg.get("case", {}), "config 'case'"))
    spec_f = CorpusSpec(seed=seed_f, count=count, band_limit=band)
    spec_g = CorpusSpec(seed=seed_g, count=count, band_limit=band)
    if _config_value(cfg, "refine", args.refine):
        report = check_with_refinement(case, spec_f, spec_g, grid)
    else:
        res = build_resolution(grid)
        report = check_inequality(case, generate_corpus(spec_f, grid),
                                  generate_corpus(spec_g, grid), res)
    payload = report.to_json_dict()
    _write_json(args.out + ".report.json", payload)
    report.write_ratios_csv(args.out + ".ratios.csv")
    config = {"case": name, "grid": {"dim": grid.dim, "N": grid.samples_per_axis,
                                     "L": grid.half_width},
              "seed_f": seed_f, "seed_g": seed_g, "count": count, "band_limit": band,
              "exponents": payload["case"]}
    _write_manifest(args.out, "verify", config,
                    {"ratio_tolerance": report.tolerance, "rhs_floor": 1e-12})
    print(_canonical(payload))
    return EXIT_PASS if report.verdict else EXIT_FAIL


def _cmd_sweep(args) -> int:
    spec = _family_spec(args)
    grid = make_grid(args.dim, args.N, args.L)
    ts = _parse_t_list(args.t)
    fam = KernelFamily(spec, grid)
    fam.kernel(min(ts))  # resolvability pre-flight at the smallest t
    res = build_resolution(grid)
    corpus = generate_corpus(
        CorpusSpec(seed=args.seed, count=1, families=("mollified_step",),
                   band_limit=args.band), grid)
    base = SpaceParams(args.space, args.s, _parse_ext(args.p), _parse_ext(args.q))
    sweep = smoothing_sweep(fam, corpus[0], base, args.u, ts, res)
    payload = asdict(sweep)
    with open(args.out + ".curve.csv", "w") as fh:
        fh.write("t,applied_norm,kernel_norm\n")
        for t, a, k in zip(sweep.ts, sweep.applied_norms, sweep.kernel_norms):
            fh.write(f"{t:.17g},{a:.17g},{k:.17g}\n")
    _write_json(args.out + ".json", payload)
    config = {"kind": args.kind, "family": args.family, "m": args.m,
              "alpha": args.alpha, "u": args.u, "t": args.t, "seed": args.seed,
              "grid": {"dim": args.dim, "N": args.N, "L": args.L},
              "space": {"A": args.space, "s": args.s, "p": args.p, "q": args.q}}
    _write_manifest(args.out, "sweep", config, {"spectral_tail": 1e-12})
    print(_canonical(payload))
    return EXIT_PASS


def _cmd_subordinate(args) -> int:
    if abs(args.alpha - 0.5) > 1e-12:
        raise ValueError(
            "only the alpha = 1/2 stable subordinator has a built-in density; "
            "supply other laws programmatically via lplab.subordination.user_density"
        )
    grid = make_grid(args.dim, args.N, args.L)
    dens = stable_half_density(args.t, num_nodes=args.nodes)
    kernel = subordinate_kernel(dens, grid)
    save_field(kernel, args.out + ".field", fmt=args.format)
    payload = {
        "t": args.t,
        "mass": integrate(kernel),
        "quadrature_mass": dens.mass(),
        "K_t": subordinator_moment(dens, args.u),
        "u": args.u,
        "laplace_check_residuals": laplace_residuals(dens),
    }
    _write_json(args.out + ".json", payload)
    config = {"alpha": args.alpha, "t": args.t, "u": args.u, "nodes": args.nodes,
              "grid": {"dim": args.dim, "N": args.N, "L": args.L}}
    _write_manifest(args.out, "subordinate", config,
                    {"mass": 1e-6, "laplace": 1e-5, "moment_edge": 1e-6})
    print(_canonical(payload))
    return EXIT_PASS


def _cmd_report(args) -> int:
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
    _write_json(args.out + ".json", summary)
    print(_canonical(summary))
    return EXIT_PASS if all_pass else EXIT_FAIL


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
    v.add_argument("case", choices=("young", "conv1", "conv3", "conv-eq23", "conv_eq23"))
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


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except UnderResolvedError as exc:
        print(_canonical({"error": str(exc), "kind": "under_resolution"}),
              file=sys.stderr)
        return EXIT_UNDER_RESOLVED
    except (ValueError, OSError) as exc:
        print(_canonical({"error": str(exc), "kind": "validation"}), file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
