"""One benchmark run: set-up probes, warm-up, timed passes, checks, result.

With ``trace`` off the run reports the end-to-end metrics.  With it on, the
run alternates traced and untraced passes over the same inputs, reports the
per-layer figures of the traced ones, and ``trace.overhead_s``: the median
traced pass minus the median untraced pass.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import workloads
from spans import Tracer, peak_rss_mb

SETUP_REPEATS = 5  # fresh processes per run; set-up reports their median
RUNS_DIR = ".perfbench_runs"


def environment(root: Path) -> dict:
    """What the figures depend on besides the code: versions, BLAS, CPUs."""
    revision = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "revision": revision,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def setup_probe(name: str, seed: int, root: Path, workdir: Path) -> None:
    """Child side of a set-up sample: build the inputs, then say so."""
    workloads.build(name, seed, workdir, root)
    print("ready", flush=True)


def measure_setup(name: str, seed: int, root: Path, rundir: Path) -> list:
    """Seconds from spawning a fresh process to its inputs being ready."""
    samples = []
    for i in range(SETUP_REPEATS):
        command = [sys.executable, str(Path(__file__).with_name("run.py")),
                   "--workload", name, "--seed", str(seed), "--seconds", "1",
                   "--trace", "0", "--setup-probe", str(rundir / f"setup{i}")]
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited {code} after {line!r}")
        samples.append(elapsed)
    return samples


def timed_pass(workload, keep: bool) -> workloads.Pass:
    """One pass; unless ``keep``, only a digest of its outputs stays, so that
    later passes do not raise the memory peak."""
    start = time.perf_counter()
    one = workload.run_pass()
    one.wall = time.perf_counter() - start
    one.digest = one.fingerprint()
    if not keep:
        one.solves.clear()
        for call in one.calls:
            call.files.clear()
    return one


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    rundir = root / RUNS_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        return _run(name, seed, seconds, trace, root, rundir)
    finally:
        for child in rundir.iterdir():
            if child.is_dir():
                shutil.rmtree(child)


def _run(name, seed, seconds, trace, root, rundir) -> dict:
    setup = [] if trace else measure_setup(name, seed, root, rundir)
    workload = workloads.build(name, seed, rundir / "work", root)
    workload.warmup()
    tracer = Tracer() if trace else None
    traced, untraced = [], []
    start = time.perf_counter()
    while True:
        if trace:
            # traced first, so the first one sees the memory high-water mark
            # the warm-up left and ensembles.rss_rise_mb measures generation
            with tracer.root("pass") as index:
                one = timed_pass(workload, keep=not traced)
            one.root = index
            traced.append(one)
        untraced.append(timed_pass(workload, keep=not (traced or untraced)))
        if len(untraced) == 1:
            # after one pass, so the figure does not depend on the pass count
            peak_rss = peak_rss_mb()
        if time.perf_counter() - start >= seconds:
            break
    passes = traced + untraced

    try:
        verdict = workload.check(passes[0])
    except Exception:
        verdict = workloads.Verdict(pass_problems=[traceback.format_exc()])
    differing = sum(one.digest != passes[0].digest for one in passes[1:])
    if differing:
        verdict.pass_problems.append(
            f"{differing} of {len(passes) - 1} later passes differ from the first"
            + (" (traced and untraced passes included)" if trace else ""))

    record = {"workload": name, "seed": seed, "trace": int(trace), "unit": workload.unit,
              "environment": environment(root),
              "pass_wall_s": [one.wall for one in untraced],
              "first_pass_calls": [[" ".join(c.argv[:3]), c.seconds, c.stdout[:200]]
                                   for c in passes[0].calls[:12]],
              "solver_iterations": sum(s.result.iterations for s in passes[0].solves if s.result),
              "problems": verdict.problems, "pass_problems": verdict.pass_problems}
    if trace:
        with tracer.root("probe") as probe:
            workloads.layer_probe(rundir / "work")
        figures = tracer.per_layer([one.root for one in traced], probe)
        overhead = (statistics.median(one.wall for one in traced)
                    - statistics.median(one.wall for one in untraced))
        metrics = dict(figures, **{"trace.overhead_s": (overhead, "s")})
        record["traced_pass_wall_s"] = [one.wall for one in traced]
        tracer.write(rundir / "spans.json")
    else:
        units = [sum(c.seconds for c in one.calls if workload.is_unit(c)) for one in untraced]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(record["pass_wall_s"]), "s"),
            "unit_p50_ms": (1e3 * statistics.median(units), "ms"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
        record.update(setup_s=setup, unit_s=units)

    result = {
        "correct": not verdict.pass_problems,
        "attempted": verdict.per_pass * len(passes),
        "failed": verdict.failed * len(passes),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    record["result"] = result
    (rundir / "record.json").write_text(json.dumps(record, indent=1, default=str))
    return result
