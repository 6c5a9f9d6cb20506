"""In-process span tracing of lplab, installed from outside the package.

``Tracer.install`` replaces every module-level binding of each traced lplab
function with a wrapper that records a span (name, start, end, parent, run
id). ``from .grid import forward_transform`` binds the function into the
importing module too, so each binding is found by identity and wrapped.
The ``numpy.fft`` entry points are wrapped as attributes of ``numpy.fft``,
which the package looks up at call time, so FFT counts stay valid whatever
transform the package calls. ``Tracer.uninstall`` restores the originals.

Spans stay in memory; ``layer_metrics`` turns them into the per-layer
metrics. A span's self time is its duration minus that of its direct
children, which never overlap because the benchmark runs single-threaded.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

_FFTS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
         "fftn", "ifftn", "rfftn", "irfftn")
_SHIFTS = ("fftshift", "ifftshift")

# (module, function) pairs traced as spans named "<module>.<function>".
_LAYER_FUNCS = (
    ("grid", ("forward_transform", "inverse_transform", "convolve",
              "save_field", "load_field")),
    ("littlewood_paley", ("build_resolution",)),
    ("norms", ("besov_norm", "triebel_norm", "triebel_infty_norm")),
    ("kernels", ("spectral_kernel", "gradient_l1")),
    ("subordination", ("stable_half_density", "subordinate_kernel")),
    ("verifier", ("generate_corpus", "check_inequality", "smoothing_sweep")),
)
_MODULES = ("lplab", "lplab.cli") + tuple(f"lplab.{m}" for m, _ in _LAYER_FUNCS)


def _io_bytes(basepath: str) -> int:
    return sum(os.path.getsize(basepath + ext) for ext in (".bin", ".csv", ".json")
               if os.path.exists(basepath + ext))


class Tracer:
    """Span and counter recorder for single-threaded, in-process runs."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, run id]
        self.counts = Counter()
        self.run_id = 0
        self._stack = []
        self._restore = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), math.nan, parent, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def start_run(self) -> None:
        """Begin a new run: later spans carry the next run id, and counters
        restart from zero."""
        self.run_id += 1
        self.counts = Counter()

    # -- installation -----------------------------------------------------

    def _wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        return traced

    def _wrap_generator(self, name, fn):
        # A generator's work happens in next(), so each next() is a span.
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = self.call(name, next, it)
                except StopIteration:
                    return
                self.counts[name + ".blocks"] += 1
                yield item
        return traced

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import lplab.kernels
        import lplab.littlewood_paley

        def fft_after(args, out):
            a = np.asarray(args[0])
            self.counts["grid.fft.points"] += max(a.size, out.size)
            self.counts["grid.fft.bytes_computed"] += a.nbytes + out.nbytes

        for attr in _FFTS:
            self._set(np.fft, attr, self._wrap("grid.fft", getattr(np.fft, attr), fft_after))
        for attr in _SHIFTS:
            self._set(np.fft, attr, self._wrap("grid.shift", getattr(np.fft, attr)))

        def save_after(args, _):
            self.counts["grid.io.bytes"] += _io_bytes(args[1])

        def load_after(args, _):
            self.counts["grid.io.bytes"] += _io_bytes(args[0])

        def pairs_after(_, report):
            self.counts["verifier.pairs"] += len(report.ratios)
            self.counts["verifier.pairs_skipped"] += report.skipped

        def nodes_after(args, _):
            dens, grid = args
            self.counts["subordination.node_points"] += (
                dens.nodes.size * int(np.prod(grid.shape)))

        after = {"save_field": save_after, "load_field": load_after,
                 "check_inequality": pairs_after, "subordinate_kernel": nodes_after}
        wrappers = {}
        for module, names in _LAYER_FUNCS:
            mod = sys.modules[f"lplab.{module}"]
            for fn_name in names:
                fn = getattr(mod, fn_name)
                wrappers[id(fn)] = (fn, self._wrap(f"{module}.{fn_name}", fn,
                                                   after.get(fn_name)))
        gen = lplab.littlewood_paley.block_spectra
        wrappers[id(gen)] = (gen, self._wrap_generator("littlewood_paley.block_spectra", gen))
        for mod_name in _MODULES:
            mod = sys.modules[mod_name]
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])
        family = lplab.kernels.KernelFamily
        self._set(family, "kernel", self._wrap("kernels.family_kernel", family.kernel))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- output -----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")

    def run_spans(self, run_id: int) -> list:
        """Spans of one run as (name, duration, self time, child names)."""
        index = {i: j for j, i in enumerate(
            i for i, s in enumerate(self.spans) if s[4] == run_id)}
        rows = [[s[0], s[2] - s[1], s[2] - s[1], []] for s in self.spans if s[4] == run_id]
        for i, j in index.items():
            parent = self.spans[i][3]
            if parent in index:
                rows[index[parent]][2] -= rows[j][1]
                rows[index[parent]][3].append(rows[j][0])
        return rows


def layer_metrics(rows: list, counts: Counter) -> tuple:
    """Per-layer metrics of one traced run, from its spans and counters, as
    (counts, which must repeat exactly, and times in seconds)."""
    calls, total, own = Counter(), defaultdict(float), defaultdict(float)
    hits = 0
    for name, duration, self_time, children in rows:
        calls[name] += 1
        total[name] += duration
        own[name] += self_time
        if name == "kernels.family_kernel" and "kernels.spectral_kernel" not in children:
            hits += 1
    family_calls = calls["kernels.family_kernel"]
    exact = {
        "grid.fft.calls": calls["grid.fft"],
        "grid.fft.points": counts["grid.fft.points"],
        "grid.fft.bytes_computed": counts["grid.fft.bytes_computed"],
        "grid.shift.calls": calls["grid.shift"],
        "grid.forward_transform.calls": calls["grid.forward_transform"],
        "grid.inverse_transform.calls": calls["grid.inverse_transform"],
        "grid.convolve.calls": calls["grid.convolve"],
        "grid.io.bytes": counts["grid.io.bytes"],
        "littlewood_paley.build_resolution.calls": calls["littlewood_paley.build_resolution"],
        "littlewood_paley.block_spectra.blocks": counts["littlewood_paley.block_spectra.blocks"],
        "norms.besov_norm.calls": calls["norms.besov_norm"],
        "norms.triebel_norm.calls": calls["norms.triebel_norm"],
        "kernels.spectral_kernel.calls": calls["kernels.spectral_kernel"],
        "kernels.family_kernel.calls": family_calls,
        "kernels.cache_hit_ratio": hits / family_calls if family_calls else 0.0,
        "subordination.node_points": counts["subordination.node_points"],
        "verifier.generate_corpus.calls": calls["verifier.generate_corpus"],
        "verifier.pairs": counts["verifier.pairs"],
        "verifier.pairs_skipped": counts["verifier.pairs_skipped"],
        "trace.spans": len(rows),
    }
    times = {
        "grid.fft.s": total["grid.fft"],
        "grid.shift.s": total["grid.shift"],
        "grid.convolve.self_s": own["grid.convolve"],
        "grid.save_field.s": total["grid.save_field"],
        "grid.load_field.s": total["grid.load_field"],
        "littlewood_paley.build_resolution.s": total["littlewood_paley.build_resolution"],
        "littlewood_paley.block_spectra.self_s": own["littlewood_paley.block_spectra"],
        "norms.besov_norm.self_s": own["norms.besov_norm"],
        # triebel_norm hands p = inf to triebel_infty_norm; both count here
        "norms.triebel_norm.self_s": own["norms.triebel_norm"] + own["norms.triebel_infty_norm"],
        "kernels.spectral_kernel.s": total["kernels.spectral_kernel"],
        "kernels.gradient_l1.s": total["kernels.gradient_l1"],
        "subordination.stable_half_density.s": total["subordination.stable_half_density"],
        "subordination.subordinate_kernel.s": total["subordination.subordinate_kernel"],
        "verifier.generate_corpus.s": total["verifier.generate_corpus"],
        "verifier.check_inequality.self_s": own["verifier.check_inequality"],
        "verifier.smoothing_sweep.self_s": own["verifier.smoothing_sweep"],
        "cli.main.self_s": own["cli.main"],
        "trace.self_s": sum(self_time for _, _, self_time, _ in rows),
    }
    return exact, times
