#!/usr/bin/env python3
"""lplab benchmark: real CLI workloads, end-to-end timings and a traced
per-layer run.

Usage, from the root of a checkout:

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` each workload runs as real ``python3 -m lplab.cli``
processes in a closed loop with one client (a command starts only after the
previous one exits) for ``--seconds`` seconds, after one discarded warm-up
run. It reports the end-to-end metrics named in BENCHMARK.json. With
``--trace 1`` the same commands run in-process through ``lplab.cli.main``,
alternating untraced runs with runs traced by ``tracing.Tracer``; it
reports the per-layer metrics and the tracing overhead.

Every command's exit code and key outputs pass through the gate in
``workloads.py``; the warm-up run uses a second seed, so two seeds are
gated on every invocation. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The package is imported from this checkout's ``src/`` only; the benchmark
stops with exit code 2 when that is missing or another copy is imported.
Scratch files go to ``.bench_tmp/`` in the checkout, which is removed per
run except for the span log of traced runs.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_tmp")
THREAD_VARS = ("LPLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# What the traced run must confirm about each workload's stated reason.
PREDICTIONS = {
    "verify-2d": {"kernels.spectral_kernel.calls": 0},
    "subordinate-3d": {"grid.fft.calls": 0},
}
MIN_SELF_TIME_SHARE = 0.97


class SetupError(Exception):
    """The checkout cannot be benchmarked (exit code 2, no result)."""


# ---------------------------------------------------------------------------
# Provenance and machine


def expected_package() -> str:
    path = os.path.join(SRC, "lplab", "__init__.py")
    if not os.path.isfile(path):
        raise SetupError(f"no lplab package at {path}")
    return os.path.realpath(path)


def check_package(found: str) -> None:
    if os.path.realpath(found) != expected_package():
        raise SetupError(f"lplab imported from {found}, not from {SRC}")


def git(*args):
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "lplab", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def machine() -> dict:
    caches = {}
    for d in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(d, "level")) as a, open(os.path.join(d, "type")) as b, \
                    open(os.path.join(d, "size")) as c:
                level, kind, size = a.read().strip(), b.read().strip(), c.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    model = platform.processor() or None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        model = next((ln.split(":", 1)[1].strip() for ln in fh
                      if ln.startswith("model name")), model)
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "cpu_model": model, "caches": caches,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


# ---------------------------------------------------------------------------
# Running commands


def child_env() -> dict:
    # Children cache bytecode as a user's runs would, whatever the caller set.
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(args, cwd: str, env: dict, stderr) -> tuple:
    """Run one interpreter to completion: (exit code, peak RSS in MB).

    The peak RSS comes from wait4 on this child alone; RUSAGE_CHILDREN would
    keep the largest value of any child ever waited for.
    """
    proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                            stdout=subprocess.DEVNULL, stderr=stderr)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def process_run(steps, run_dir: str, env: dict) -> dict:
    """One workload run as CLI processes, each started after the last exits."""
    err_path = os.path.join(run_dir, "stderr.txt")
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        done = [spawn(["-m", "lplab.cli", *s.argv], run_dir, env, err) for s in steps]
        wall = time.perf_counter() - start
    with open(err_path, errors="replace") as fh:
        log = fh.read()
    return {"codes": [c for c, _ in done], "wall": wall, "rss": max(r for _, r in done),
            "log": log}


def cli_main(main, argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def inprocess_run(steps, main, tracer=None) -> dict:
    """One workload run through ``lplab.cli.main`` in this process."""
    sink = io.StringIO()
    codes = []
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        for s in steps:
            codes.append(tracer.call("cli.main", cli_main, main, s.argv) if tracer
                         else cli_main(main, s.argv))
        wall = time.perf_counter() - start
    return {"codes": codes, "wall": wall, "log": sink.getvalue()}


class Gate:
    """Runs a workload in fresh directories and gates every command, counting
    attempted and failed commands across all runs."""

    def __init__(self, w, reference: dict, work: str):
        self.w, self.reference, self.work = w, reference, work
        self.attempted = self.failed = 0
        self.problems = []

    def run(self, seed: int, execute) -> dict:
        """``execute(steps, run_dir)`` runs the steps; the outputs are gated
        before the run directory is removed. Adds ``ok`` to the result."""
        run_dir = tempfile.mkdtemp(dir=self.work)
        try:
            steps = self.w.steps(seed, run_dir)
            run = execute(steps, run_dir)
            run["ok"] = self._check(seed, steps, run)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        return run

    def _check(self, seed: int, steps, run: dict) -> bool:
        ok = True
        for step, code, want in zip(steps, run["codes"],
                                    wl.expected(self.w, seed, self.reference)):
            problems = wl.check_step(step, want)
            if code != 0:
                problems.insert(0, f"{step.argv[0]}: exit code {code}: "
                                   f"{run['log'].strip()[-300:]}")
            self.attempted += 1
            if problems:
                self.failed += 1
                ok = False
                self.problems.extend(f"seed {seed}: {p}" for p in problems)
        return ok


# ---------------------------------------------------------------------------
# Statistics


def quartiles(xs) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def tail_percentile(xs):
    """Highest of a few standard percentiles with at least ten samples above
    it, by nearest rank, as (percentile, value); None below 20 samples."""
    n = len(xs)
    for p in (99.9, 99.0, 95.0, 90.0, 50.0):
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p, sorted(xs)[math.ceil(p / 100.0 * n) - 1]
    return None


# ---------------------------------------------------------------------------
# The two modes


def lap_fits(deadline: float, laps: list) -> bool:
    """Whether a lap as long as the median lap so far ends by the deadline,
    so that a run measures for about ``--seconds`` and never a lap beyond."""
    return time.perf_counter() + statistics.median(laps) <= deadline


def measure_end_to_end(w, seed: int, seconds: float, work: str, reference: dict):
    env = child_env()
    gate = Gate(w, reference, work)

    def execute(steps, run_dir):
        return process_run(steps, run_dir, env)

    out = subprocess.run([sys.executable, "-c", "import lplab.cli; print(lplab.__file__)"],
                         cwd=work, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        raise SetupError(f"cannot import lplab.cli: {out.stderr.strip()}")
    lplab_file = out.stdout.strip()
    check_package(lplab_file)

    gate.run(wl.corpus_seed(seed + 1), execute)  # warm-up, second seed

    # A fresh `import lplab.cli` interpreter is timed after each measured
    # run, so set-up is sampled over the same interval as the runs.
    runs, setup, laps = [], [], []
    deadline = time.perf_counter() + seconds
    while not runs or lap_fits(deadline, laps):
        lap = time.perf_counter()
        runs.append(gate.run(wl.corpus_seed(seed), execute))
        start = time.perf_counter()
        code, _ = spawn(["-c", "import lplab.cli"], work, env, subprocess.DEVNULL)
        setup.append(time.perf_counter() - start)
        if code != 0:
            raise SetupError("import lplab.cli failed")
        laps.append(time.perf_counter() - lap)

    walls = [r["wall"] for r in runs]
    wall = statistics.median(walls)
    values = {
        "wall_s": wall,
        "setup_s": len(w.analytic) * statistics.median(setup),
        "work_per_s": w.work_per_run * sum(r["ok"] for r in runs) / len(runs) / wall,
        "peak_rss_mb": max(r["rss"] for r in runs),
    }
    q1, _, q3 = quartiles(walls)
    tail = tail_percentile(walls)
    notes = [
        f"wall_s: median {wall:.4f} s, quartiles {q1:.4f} .. {q3:.4f} s, "
        f"samples {len(walls)}, tail "
        + (f"p{tail[0]:g} {tail[1]:.4f} s" if tail else "none (needs 20+ samples)")
        + "; runs " + " ".join(f"{x:.3f}" for x in walls),
        f"setup_s: {len(w.analytic)} command(s) x median of {len(setup)} fresh "
        f"`import lplab.cli` interpreters ({statistics.median(setup):.4f} s each)",
        f"work_per_s: {w.work_per_run:g} {w.work_unit} per run / median wall_s",
        f"peak_rss_mb: max over {sum(len(r['codes']) for r in runs)} processes",
        f"failed_ops_frac: {gate.failed}/{gate.attempted} commands",
    ]
    samples = {"wall_s": len(walls), "setup_s": len(setup),
               "work_per_s": len(walls), "peak_rss_mb": len(walls)}
    return gate, values, samples, notes, lplab_file


def measure_traced(w, seed: int, seconds: float, work: str, reference: dict):
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import lplab.cli
    from tracing import Tracer, layer_metrics

    check_package(lplab.__file__)
    gate = Gate(w, reference, work)
    main = lplab.cli.main
    tracer = Tracer()

    def execute_traced(steps, _):
        tracer.start_run()
        tracer.install()
        try:
            return inprocess_run(steps, main, tracer)
        finally:
            tracer.uninstall()

    def execute(steps, _):
        return inprocess_run(steps, main)

    gate.run(wl.corpus_seed(seed + 1), execute)  # warm-up, second seed
    plain, traced, exact, times, laps = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or lap_fits(deadline, laps):
        lap = time.perf_counter()
        plain.append(gate.run(wl.corpus_seed(seed), execute)["wall"])
        run = gate.run(wl.corpus_seed(seed), execute_traced)
        traced.append(run["wall"])
        counts, secs = layer_metrics(tracer.run_spans(tracer.run_id), tracer.counts)
        secs["trace.self_time_share"] = secs["trace.self_s"] / run["wall"]
        exact.append(counts)
        times.append(secs)
        laps.append(time.perf_counter() - lap)

    spans_path = os.path.join(SCRATCH, f"{w.name}.seed{seed}.spans.jsonl")
    tracer.write_spans(spans_path)
    values = dict(exact[0])
    for key in times[0]:
        values[key] = statistics.median(t[key] for t in times)
    values["trace.wall_s"] = statistics.median(traced)
    values["trace.untraced_wall_s"] = statistics.median(plain)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]

    problems = [f"traced run {i + 1} counts differ from run 1: "
                + ", ".join(k for k in e if e[k] != exact[0][k])
                for i, e in enumerate(exact) if e != exact[0]]
    for key, want in PREDICTIONS.get(w.name, {}).items():
        if values[key] != want:
            problems.append(f"prediction {key} = {want} failed: got {values[key]}")
    if values["trace.self_time_share"] < MIN_SELF_TIME_SHARE:
        problems.append(f"span self times cover {values['trace.self_time_share']:.3f} "
                        f"of traced wall time (< {MIN_SELF_TIME_SHARE})")
    gate.problems.extend(problems)
    notes = [f"traced runs {len(traced)}, untraced in-process runs {len(plain)}; "
             f"spans written to {os.path.relpath(spans_path, ROOT)}",
             f"tracing overhead: {values['trace.overhead_s']:+.4f} s per run "
             f"(traced {values['trace.wall_s']:.4f} s - untraced "
             f"{values['trace.untraced_wall_s']:.4f} s)"]
    samples = {k: len(traced) for k in values}
    return gate, values, samples, notes, lplab.__file__


# ---------------------------------------------------------------------------


def benchmark_workload(name: str, seed: int, seconds: float, trace: bool,
                       spec: dict, reference: dict, caches: dict) -> dict:
    w = wl.WORKLOADS[name]
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH)
    try:
        measure = measure_traced if trace else measure_end_to_end
        gate, values, samples, notes, lplab_file = measure(w, seed, seconds, work, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    label, nbytes = w.largest_array
    print(f"# workload {name}: seed {seed} -> corpus seeds {wl.corpus_seed(seed)} "
          f"(measured) and {wl.corpus_seed(seed + 1)} (warm-up)")
    print(f"#   largest array {label} = {nbytes / 2**20:.2f} MiB; caches {caches}")
    for note in notes:
        print(f"#   {note}")
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<44} {value:>16.6g} {m['unit']:<6} n={samples[m['name']]}")
    for p in gate.problems:
        print(f"  FAILED {p}")
    return {"correct": not gate.problems, "attempted": gate.attempted,
            "failed": gate.failed, "metrics": metrics, "lplab_file": lplab_file}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=("all", *wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Pinned before numpy is imported here or in any child.
    os.environ.update({v: "1" for v in THREAD_VARS})

    try:
        expected_package()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        reference = wl.load_reference()
        os.makedirs(SCRATCH, exist_ok=True)
        status_before = git("status", "--porcelain")
        host = machine()
        print("# machine " + json.dumps(host, sort_keys=True))
        seconds = args.seconds or spec["run_seconds"]
        names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
        results = {n: benchmark_workload(n, args.seed, seconds, bool(args.trace),
                                         spec, reference, host["caches"]) for n in names}
    except SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    clean = git("status", "--porcelain") == status_before
    print("# code " + json.dumps({"lplab_file": results[names[0]]["lplab_file"],
                                  "commit": git("rev-parse", "HEAD"),
                                  "src_sha256": source_digest(),
                                  "git_status_unchanged": clean}, sort_keys=True))
    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": clean and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
