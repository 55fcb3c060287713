"""The benchmark's hooks still fit the library they wrap.

``perfbench/spans.py`` replaces public symcs functions by name with timing
wrappers, and ``perfbench/workloads.py`` records every solve a sweep makes by
wrapping ``experiments.basis_pursuit`` and ``experiments.bpdn`` with
positional signatures.  A library change that renames a wrapped name, or
calls a solver another way, would only surface when the benchmark runs.
These tests load both files unchanged by path and exercise their hooks once.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import symcs.experiments
import symcs.solver
from symcs.ensembles import ENSEMBLES
from symcs.experiments import ExperimentSpec
from symcs.rng import derive_seed

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_trace_hooks_resolve_every_wrapped_name():
    spans = load("perfbench_spans", PERFBENCH / "spans.py")
    original = symcs.experiments.sweep
    tracer = spans.Tracer()
    with tracer.root("probe") as index:
        assert symcs.experiments.sweep is not original
    assert symcs.experiments.sweep is original
    figures = tracer.layer_figures(index)
    assert {name for name, _ in spans.LAYER_METRICS} <= set(figures)


def test_capture_records_one_solve_per_trial_in_trial_order():
    workloads = load("perfbench_workloads", PERFBENCH / "workloads.py")
    sigmas = (0.0, 0.3)
    spec = ExperimentSpec(
        dimension=16, axis="sigma", axis_values=sigmas, fixed={"n": 8, "k": 2},
        trials=3, ensembles=("gaussian", "partial-symmetric-bernoulli"), master_seed=5,
    )
    solves = []
    with workloads._Capture(solves):
        result = symcs.experiments.sweep(spec)
    assert symcs.experiments.basis_pursuit is symcs.solver.basis_pursuit
    assert symcs.experiments.bpdn is symcs.solver.bpdn
    expected = [
        (ensemble, derive_seed(derive_seed(5, [ENSEMBLES.index(ensemble), axis, t]), [0]),
         sigmas[axis] > 0.0)
        for ensemble in spec.ensembles
        for axis in range(len(sigmas))
        for t in range(spec.trials)
    ]
    assert [(s.ensemble, s.seed, s.epsilon > 0.0) for s in solves] == expected
    assert [s.error for s in solves] == [""] * len(expected)
    # each cell's figures come from the solves the capture recorded
    for cell, row in enumerate(result.rows):
        cell_solves = solves[cell * spec.trials:(cell + 1) * spec.trials]
        assert row.mean_iterations == np.mean([s.result.iterations for s in cell_solves])
