"""Spans around the calls into each symcs layer, and the per-layer figures.

The tracer replaces public functions at the names their callers look up
(``symcs.experiments.basis_pursuit`` rather than ``symcs.solver.basis_pursuit``,
because ``experiments`` binds the name at import) with wrappers that record a
span: layer name, start, end and the enclosing span.  Spans stay in memory and
are written once, by :meth:`Tracer.write`.  A layer's self time is its spans'
durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import json
import resource
import statistics
import time
from contextlib import contextmanager

import symcs.cli
import symcs.concentration
import symcs.ensembles
import symcs.experiments
import symcs.imageio
import symcs.rip
import symcs.rng
import symcs.solver

# (layer metric, unit); every traced run prints all of them.
LAYER_METRICS = (
    ("solver.us_per_iter", "us"),
    ("solver.solve_s", "s"),
    ("solver.calls", "count"),
    ("solver.iterations", "count"),
    ("solver.capped", "count"),
    ("linalg.shrink_s", "s"),
    ("linalg.jacobi_s", "s"),
    ("linalg.gram_s", "s"),
    ("rip.self_s", "s"),
    ("rip.supports", "count"),
    ("ensembles.gen_s", "s"),
    ("ensembles.gen_calls", "count"),
    ("ensembles.rss_rise_mb", "MB"),
    ("rng.draws", "count"),
    ("rng.self_s", "s"),
    ("concentration.tails_s", "s"),
    ("concentration.enum_s", "s"),
    ("concentration.tail_trials", "count"),
    ("experiments.plant_s", "s"),
    ("experiments.self_s", "s"),
    ("experiments.trials", "count"),
    ("imageio.parse_s", "s"),
    ("imageio.self_s", "s"),
    ("cli.self_s", "s"),
)

# Time metrics: the self time of one layer's spans.  The others are counters.
_SELF_TIMES = {
    "solver.solve_s": "solver",
    "linalg.shrink_s": "linalg.shrink",
    "linalg.jacobi_s": "linalg.jacobi",
    "linalg.gram_s": "linalg.gram",
    "rip.self_s": "rip",
    "ensembles.gen_s": "ensembles",
    "rng.self_s": "rng",
    "concentration.tails_s": "concentration.tails",
    "concentration.enum_s": "concentration.enum",
    "experiments.plant_s": "experiments.plant",
    "experiments.self_s": "experiments",
    "imageio.parse_s": "imageio.parse",
    "imageio.self_s": "imageio",
    "cli.self_s": "cli",
}

# Each group of metrics comes from the spans of one marker layer.  A workload
# that never enters the marker layer reports the group from the layer probe.
_GROUPS = {
    "solver": ("solver.", "linalg.shrink_s"),
    "rip": ("rip.", "linalg.jacobi_s", "linalg.gram_s"),
    "concentration.tails": ("concentration.tails_s", "concentration.tail_trials"),
    "concentration.enum": ("concentration.enum_s",),
    "experiments": ("experiments.",),
    "imageio": ("imageio.",),
    "ensembles": ("ensembles.",),
    "rng": ("rng.",),
    "cli": ("cli.",),
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Span recorder for the traced passes of one run."""

    def __init__(self):
        self.spans = []  # [layer, start, end, parent index or -1]
        self.roots = []  # (name, first span index, end index)
        self._stack = []
        self._counts = {}  # root index -> {counter: value}
        self._installed = []

    # -- recording -------------------------------------------------------
    def _open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value) -> None:
        counts = self._counts.setdefault(self._stack[0], {})
        counts[key] = counts.get(key, 0) + value

    @contextmanager
    def root(self, name: str):
        """Trace one pass (or the probe): wrappers are in place only inside it.

        Yields the root's index, which :meth:`layer_figures` takes.
        """
        if self._stack:
            raise RuntimeError("trace roots do not nest")
        index = self._open(name)
        self._install()
        try:
            yield index
        finally:
            self._remove()
            self._close(index)
            self.roots.append((name, index, len(self.spans)))

    # -- wrappers --------------------------------------------------------
    def _wrap(self, owner, attr: str, layer: str, after=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            before = peak_rss_mb() if layer == "ensembles" else 0.0
            index = tracer._open(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                after(tracer, args, result, before)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def _install(self) -> None:
        ex, im, conc, rip = symcs.experiments, symcs.imageio, symcs.concentration, symcs.rip

        def solved(tracer, args, result, before):
            tracer.count("solver.calls", 1)
            tracer.count("solver.iterations", result.iterations)
            tracer.count("solver.capped", int(result.status == "max-iterations"))

        def generated(tracer, args, result, before):
            tracer.count("ensembles.gen_calls", 1)
            tracer.count("ensembles.rss_rise_mb", peak_rss_mb() - before)

        def drew(tracer, args, result, before):
            tracer.count("rng.draws", int(args[1]))

        def scanned(tracer, args, result, before):
            tracer.count("rip.supports", result.supports_checked)

        def tailed(tracer, args, result, before):
            tracer.count("concentration.tail_trials", result[0].trials)

        def trialled(tracer, args, result, before):
            tracer.count("experiments.trials", 1)

        self._wrap(symcs.cli, "main", "cli")
        for owner in (ex, im):
            self._wrap(owner, "basis_pursuit", "solver", solved)
        self._wrap(ex, "bpdn", "solver", solved)
        self._wrap(symcs.solver, "soft_threshold", "linalg.shrink")
        for owner in (ex, im, symcs.ensembles):
            self._wrap(owner, "gen_measurement", "ensembles", generated)
        self._wrap(conc, "gen_symmetric_sign_matrix", "ensembles", generated)
        self._wrap(symcs.rng.Stream, "raw", "rng", drew)
        self._wrap(rip, "delta_k_bruteforce", "rip", scanned)
        self._wrap(rip, "gram_on_support", "linalg.gram")
        self._wrap(rip, "sym_eigen_extremes", "linalg.jacobi")
        self._wrap(conc, "empirical_tails", "concentration.tails", tailed)
        self._wrap(conc, "mgf_lhs_exact", "concentration.enum")
        self._wrap(conc, "mgf_rhs_exact", "concentration.enum")
        self._wrap(ex, "sweep", "experiments")
        self._wrap(ex, "run_trial", "experiments", trialled)
        self._wrap(ex, "plant_signal", "experiments.plant")
        for name in ("image_recover", "fixture_image", "write_pgm"):
            self._wrap(im, name, "imageio")
        self._wrap(im, "parse_pgm", "imageio.parse")

    def _remove(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- figures ---------------------------------------------------------
    def layer_figures(self, root_index: int) -> dict:
        """Self time per layer and counters for one root, keyed by metric name."""
        _, first, end = next(r for r in self.roots if r[1] == root_index)
        covered = {}
        for layer, start, stop, parent in self.spans[first + 1 : end]:
            covered[parent] = covered.get(parent, 0.0) + (stop - start)
        self_time = {}
        for index in range(first + 1, end):
            layer, start, stop, _ = self.spans[index]
            own = (stop - start) - covered.get(index, 0.0)
            self_time[layer] = self_time.get(layer, 0.0) + own
        counts = self._counts.get(root_index, {})
        figures = {name: counts.get(name, 0) for name, _ in LAYER_METRICS}
        for name, layer in _SELF_TIMES.items():
            figures[name] = self_time.get(layer, 0.0)
        iterations = counts.get("solver.iterations", 0)
        inclusive_solver = figures["solver.solve_s"] + figures["linalg.shrink_s"]
        figures["solver.us_per_iter"] = 1e6 * inclusive_solver / iterations if iterations else 0.0
        figures["_layers"] = set(self_time)
        return figures

    def per_layer(self, pass_roots, probe_root) -> dict:
        """Median over the traced passes; groups a pass never entered use the probe."""
        passes = [self.layer_figures(index) for index in pass_roots]
        probe = self.layer_figures(probe_root)
        entered = set.union(*(figures["_layers"] for figures in passes))
        out = {}
        for name, unit in LAYER_METRICS:
            marker = next(m for m, prefixes in _GROUPS.items() if name.startswith(prefixes))
            if marker in entered:
                value = statistics.median(figures[name] for figures in passes)
            else:
                value = probe[name]
            out[name] = (value, unit)
        return out

    def write(self, path) -> None:
        """All spans, once: times in ns from the first span, layers by index."""
        names = sorted({span[0] for span in self.spans})
        code = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [code[layer], round((start - origin) * 1e9), round((stop - origin) * 1e9), parent]
            for layer, start, stop, parent in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"layers": names, "fields": ["layer", "start_ns", "end_ns", "parent"],
                       "roots": self.roots, "spans": rows}, handle)
