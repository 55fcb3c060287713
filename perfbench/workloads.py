"""The four workloads: inputs made from the seed, one pass of user-level calls,
and the checks on every output.

A pass calls ``symcs.cli.main`` with the argument lists a user would type.
Every pass of a run repeats the same inputs, so later passes (and traced
passes) must reproduce the first pass's outputs bit for bit.  Checks run after
the timed passes and compare each output with a computation made here, apart
from the program, or with a property the method must have.  An operation is
one user-level call, or one trial inside a sweep; it fails when it raises or
fails its check.  Stopping at the iteration cap, or missing the success
tolerance, is an outcome of the method, not a failure.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import combinations, product
from pathlib import Path

import numpy as np

from symcs import cli, concentration, ensembles, experiments, imageio, rip
from symcs.rng import derive_seed

N, ROWS = 256, 100  # the planted-recovery shape of acceptance checks 3 and 7-9
FEAS_TOL = 1e-6  # the solvers' own feasibility tolerance, relative to max(1, |y|)


def sub_seed(seed: int, *labels) -> int:
    """A 63-bit input seed from the run seed and labels; independent of symcs."""
    digest = hashlib.blake2b(repr((seed,) + labels).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


@dataclass
class Call:
    """One user-level call: arguments, exit code, stdout, written files, time."""

    argv: list
    code: int = 0
    stdout: str = ""
    files: dict = field(default_factory=dict)
    seconds: float = 0.0
    error: str = ""

    def fingerprint(self, digest) -> None:
        digest.update(repr((self.argv, self.code, self.stdout, self.error)).encode())
        for name in sorted(self.files):
            digest.update(name.encode())
            digest.update(self.files[name] or b"")


def run_cli(argv, outputs=()) -> Call:
    """Run ``symcs`` in process; only ``cli.main`` is inside the timed span."""
    call = Call(argv=[str(a) for a in argv])
    sink, errors = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(errors):
            call.code = cli.main(call.argv)
    except SystemExit as exc:
        call.code = exc.code
    except Exception as exc:  # an operation that raises is counted as failed
        call.error = f"{type(exc).__name__}: {exc}"
    call.seconds = time.perf_counter() - start
    call.stdout = sink.getvalue()
    for path in outputs:
        path = Path(path)
        call.files[path.name] = path.read_bytes() if path.exists() else None
    return call


@dataclass
class Pass:
    calls: list
    solves: list = field(default_factory=list)
    wall: float = 0.0
    digest: str = ""  # fingerprint(), to compare passes
    root: int = -1  # the tracer's root span, for a traced pass

    def fingerprint(self) -> str:
        """Digest of every output: stdout, written files, each solver result."""
        digest = hashlib.sha256()
        for call in self.calls:
            call.fingerprint(digest)
        for s in self.solves:
            digest.update(repr((s.ensemble, s.seed, s.epsilon, s.error)).encode())
            digest.update(s.y.tobytes())
            if s.result is not None:
                digest.update(s.result.solution.tobytes())
                digest.update(repr((s.result.iterations, s.result.status)).encode())
        return digest.hexdigest()


@dataclass
class Verdict:
    """Operations attempted and failed per pass, and problems found."""

    per_pass: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # wrong outputs of failed operations
    pass_problems: list = field(default_factory=list)  # failures of whole-pass checks

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)


def _json(call: Call):
    try:
        return json.loads(call.stdout)
    except ValueError:
        return None


class Workload:
    """Base: ``unit`` describes the calls that make up a pass's unit.

    ``unit_p50_ms`` is the median over a run's passes of their total time.  A
    single call of a few seconds spread by 17-31% between runs of the same
    code; several seconds of calls together average the machine's drift."""

    name = ""
    unit = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def warmup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def is_unit(self, call: Call) -> bool:
        raise NotImplementedError

    def check(self, first: Pass) -> Verdict:
        raise NotImplementedError

    def checked(self, verdict: Verdict, what: str, check, *args) -> None:
        """Run one operation's check; a check that raises on the output fails it."""
        try:
            problem = check(*args)
        except Exception as exc:
            problem = f"output breaks the check: {type(exc).__name__}: {exc}"
        if problem:
            verdict.fail(f"{what}: {problem}")


# --- sweeps -------------------------------------------------------------


@dataclass
class Solve:
    ensemble: str
    seed: int
    y: np.ndarray
    epsilon: float
    result: object = None
    error: str = ""
    rel_err: float = math.nan  # set by the checks


class _Capture:
    """Records each solve a sweep makes, at the names ``run_trial`` calls.

    The record holds the matrix descriptor, the measurements and the result;
    the checks regenerate the matrix from the descriptor afterwards.
    """

    def __init__(self, solves: list):
        self.solves = solves
        self.saved = []

    def __enter__(self):
        for name in ("basis_pursuit", "bpdn"):
            original = getattr(experiments, name)
            self.saved.append((name, original))
            setattr(experiments, name, self._wrap(original, name == "bpdn"))
        return self

    def __exit__(self, *exc):
        for name, original in reversed(self.saved):
            setattr(experiments, name, original)
        self.saved.clear()

    def _wrap(self, original, noisy: bool):
        def captured(matrix, y, *rest):
            solve = Solve(matrix.ensemble, matrix.seed, y, float(rest[0]) if noisy else 0.0)
            self.solves.append(solve)
            try:
                solve.result = original(matrix, y, *rest)
            except Exception as exc:
                solve.error = f"{type(exc).__name__}: {exc}"
                raise
            return solve.result

        return captured


def _parse_csv(text: str):
    lines = text.strip().split("\n")
    header = "ensemble,axis,axis_value,trials,successes,success_rate,mean_rel_err,mean_iterations"
    if not lines or lines[0] != header:
        return None
    rows = []
    for line in lines[1:]:
        ens, axis, value, trials, successes, rate, err, iters = line.split(",")
        rows.append({"ensemble": ens, "axis": axis, "axis_value": float(value),
                     "trials": int(trials), "successes": int(successes),
                     "success_rate": float(rate), "mean_rel_err": float(err),
                     "mean_iterations": float(iters)})
    return rows


class _Sweep(Workload):
    """Runs each spec through ``symcs sweep``; the unit is the whole pass."""

    unit = "every symcs sweep call of the pass"

    specs: tuple = ()  # (label, spec dict without masterSeed)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.spec_paths = []
        self.spec_data = []
        for label, spec in self.specs:
            data = dict(spec, masterSeed=sub_seed(seed, self.name, label))
            path = self.workdir / f"{label}.json"
            path.write_text(json.dumps(data, sort_keys=True, indent=2))
            self.spec_paths.append(path)
            self.spec_data.append(data)

    def is_unit(self, call: Call) -> bool:
        return True

    def _outs(self, path: Path):
        csv_path, json_path = path.with_suffix(".csv"), path.with_suffix(".out.json")
        return ["--out-csv", str(csv_path), "--out-json", str(json_path)], (csv_path, json_path)

    def warmup(self) -> None:
        tiny = dict(self.specs[0][1], N=64, trials=2, masterSeed=sub_seed(self.seed, "warmup"))
        tiny["fixed"] = {key: min(value, 32) if key == "n" else value
                         for key, value in tiny["fixed"].items()}
        if tiny["axis"] == "k":
            tiny["axisValues"] = [4]
        path = self.workdir / "warmup.json"
        path.write_text(json.dumps(tiny))
        args, outs = self._outs(path)
        run_cli(["sweep", "--spec", path] + args, outs)

    def run_pass(self) -> Pass:
        one = Pass(calls=[])
        with _Capture(one.solves):
            for path in self.spec_paths:
                args, outs = self._outs(path)
                one.calls.append(run_cli(["sweep", "--spec", path] + args, outs))
        return one

    def trials(self):
        """Every trial the specs define, in the order ``sweep`` runs them."""
        for spec_index, data in enumerate(self.spec_data):
            for ens in data["ensembleList"]:
                for axis_index, value in enumerate(data["axisValues"]):
                    k = value if data["axis"] == "k" else data["fixed"]["k"]
                    for t in range(data["trials"]):
                        seed = derive_seed(data["masterSeed"],
                                           [ensembles.ENSEMBLES.index(ens), axis_index, t])
                        yield {"spec": spec_index, "ensemble": ens, "axis_index": axis_index,
                               "value": value, "k": int(k), "t": t, "seed": seed}

    def check(self, first: Pass) -> Verdict:
        verdict = Verdict()
        outcomes = []  # (trial, rel_err, iterations) of every trial that passed its check
        trials = list(self.trials())
        verdict.per_pass = len(trials)
        if len(first.solves) != len(trials):
            verdict.pass_problems.append(
                f"{len(first.solves)} solves recorded for {len(trials)} trials")
        for trial, solve in zip(trials, first.solves):
            failed = verdict.failed
            self.checked(verdict, f"{trial['ensemble']} {trial['value']} trial {trial['t']}",
                         self.check_trial, trial, solve)
            if verdict.failed == failed:
                outcomes.append((trial, solve.rel_err, solve.result.iterations))
        for _ in range(len(first.solves), len(trials)):
            verdict.fail("trial missing")
        for call in first.calls:
            if call.code != 0 or call.error:
                verdict.pass_problems.append(f"sweep exited {call.code} {call.error}")
        if not verdict.pass_problems and verdict.failed == 0:
            self.check_tables(first, outcomes, verdict)
        return verdict

    def check_trial(self, trial, solve: Solve) -> str:
        if solve.error:
            return f"raised {solve.error}"
        mseed = derive_seed(trial["seed"], [0])
        if (solve.ensemble, solve.seed) != (trial["ensemble"], mseed):
            return f"solved {solve.ensemble}/{solve.seed}, expected {trial['ensemble']}/{mseed}"
        a = ensembles.gen_measurement(trial["ensemble"], ROWS, N, mseed).entries
        x0 = experiments.plant_signal(N, trial["k"], "pm1", derive_seed(trial["seed"], [1])).vector
        x, y = solve.result.solution, solve.y
        ynorm = max(1.0, float(np.linalg.norm(y)))
        noise = float(np.linalg.norm(y - a @ x0))
        if abs(noise - solve.epsilon) > 1e-9 * ynorm:
            return f"measurement misfit {noise!r} against ball radius {solve.epsilon!r}"
        residual = float(np.linalg.norm(a @ x - y))
        if residual > solve.epsilon + FEAS_TOL * ynorm:
            return f"infeasible: |Ax-y| = {residual:.3e}, radius {solve.epsilon:.3e}"
        solve.rel_err = float(np.linalg.norm(x - x0) / np.linalg.norm(x0))
        return self.check_solution(trial, solve, a, x0)

    def check_solution(self, trial, solve: Solve, a, x0) -> str:
        return ""

    def check_tables(self, first: Pass, outcomes, verdict: Verdict) -> None:
        """The CSV and JSON equal the counts recomputed trial by trial."""
        cells = {}
        for trial, rel, iterations in outcomes:
            cells.setdefault((trial["spec"], trial["ensemble"], trial["axis_index"]), []).append(
                (rel, iterations))
        self.cells = cells
        for spec_index, call in enumerate(first.calls):
            csv_name = self.spec_paths[spec_index].with_suffix(".csv").name
            rows = _parse_csv((call.files.get(csv_name) or b"").decode())
            keys = [key for key in cells if key[0] == spec_index]
            if rows is None or len(rows) != len(keys):
                verdict.pass_problems.append(f"{csv_name}: wrong header or row count")
                continue
            for row, key in zip(rows, keys):
                rels = [rel for rel, _ in cells[key]]
                iters = [it for _, it in cells[key]]
                successes = sum(rel <= 1e-3 for rel in rels)
                expect = {"ensemble": key[1], "trials": len(rels), "successes": successes,
                          "success_rate": successes / len(rels),
                          "mean_iterations": float(np.mean(iters))}
                for name, value in expect.items():
                    if row[name] != value:
                        verdict.pass_problems.append(f"{csv_name} {key}: {name} {row[name]} != {value}")
                if not math.isclose(row["mean_rel_err"], float(np.mean(rels)), rel_tol=1e-9, abs_tol=1e-15):
                    verdict.pass_problems.append(f"{csv_name} {key}: mean_rel_err {row['mean_rel_err']}")
        self.check_properties(first, verdict)

    def check_properties(self, first: Pass, verdict: Verdict) -> None:
        pass

    def rates(self, spec_index):
        return {key[1:]: sum(rel <= 1e-3 for rel, _ in v) / len(v)
                for key, v in self.cells.items() if key[0] == spec_index}


class SweepK(_Sweep):
    """Noiseless planted recovery across the phase transition (check 8)."""

    name = "sweep-k"
    TRIALS = 50
    LP_TOL = {"converged": 1e-6, "max-iterations": 1e-2}
    specs = (
        ("sparsity", {"N": N, "axis": "k", "axisValues": [5, 15, 25, 35, 45],
                      "fixed": {"n": ROWS}, "trials": TRIALS,
                      "ensembleList": ["partial-symmetric-bernoulli"],
                      "solver": {"maxIterations": 2500}}),
        ("ensembles", {"N": N, "axis": "k", "axisValues": [20], "fixed": {"n": ROWS},
                       "trials": TRIALS, "ensembleList": list(ensembles.ENSEMBLES),
                       "solver": {"maxIterations": 2500}}),
    )

    def check_solution(self, trial, solve: Solve, a, x0) -> str:
        # An independent LP solve on a fixed sample: the first trial of each cell.
        if trial["t"] != 0:
            return ""
        from scipy.optimize import linprog

        lp = linprog(np.ones(2 * N), A_eq=np.hstack([a, -a]), b_eq=solve.y,
                     bounds=(0, None), method="highs")
        if lp.status != 0:
            return f"reference LP failed: {lp.message}"
        objective = float(np.abs(solve.result.solution).sum())
        gap = (objective - lp.fun) / max(1.0, lp.fun)
        tol = self.LP_TOL.get(solve.result.status, 0.0)
        if not -self.LP_TOL["converged"] <= gap <= tol:
            return f"l1 objective {objective!r} vs LP {lp.fun!r} ({solve.result.status})"
        return ""

    def check_properties(self, first: Pass, verdict: Verdict) -> None:
        slack = 2.0 / self.TRIALS
        by_k = [rate for _, rate in sorted(self.rates(0).items())]
        k_values = self.spec_data[0]["axisValues"]
        by_ens = self.rates(1)
        low = [rate for k, rate in zip(k_values, by_k) if k <= 20]
        low.append(by_ens[("partial-symmetric-bernoulli", 0)])
        if min(low) < 0.95:
            verdict.pass_problems.append(f"symmetric cells with k <= 20 below 0.95: {low}")
        if any(b > a + slack for a, b in zip(by_k, by_k[1:])):
            verdict.pass_problems.append(f"success rises with k: {by_k}")
        if max(by_ens.values()) - min(by_ens.values()) > 0.1:
            verdict.pass_problems.append(f"ensembles disagree at k=20: {by_ens}")


class SweepNoise(_Sweep):
    """The sigma axis of check 9: the only workload on ``bpdn``."""

    name = "sweep-noise"
    TRIALS = 100
    specs = (
        ("sigma", {"N": N, "axis": "sigma", "axisValues": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
                   "fixed": {"n": ROWS, "k": 20}, "trials": TRIALS,
                   "ensembleList": ["partial-symmetric-bernoulli"]}),
    )

    def check_solution(self, trial, solve: Solve, a, x0) -> str:
        # The planted signal is feasible, so the minimum is at most its l1 norm.
        objective = float(np.abs(solve.result.solution).sum())
        planted = float(np.abs(x0).sum())
        if objective > planted * (1.0 + FEAS_TOL):
            return f"l1 objective {objective!r} above the planted {planted!r}"
        return ""

    def check_properties(self, first: Pass, verdict: Verdict) -> None:
        report = json.loads(first.calls[0].files[self.spec_paths[0].with_suffix(".out.json").name])
        means, errors = [], []
        for row, (key, cell) in zip(report["rows"], sorted(self.cells.items())):
            snrs = [-20.0 * math.log10(rel) for rel, _ in cell if rel > 0.0]
            exact = len(cell) - len(snrs)
            # an all-exact cell reports the marker and stands above every other
            mean = float(np.mean(snrs)) if snrs else math.inf
            means.append(mean)
            errors.append(float(np.std(snrs, ddof=1)) / math.sqrt(len(snrs)) if len(snrs) > 1 else 0.0)
            reported = math.inf if row["mean_snr_db"] == experiments.EXACT_SNR else row["mean_snr_db"]
            if row["exact_count"] != exact or not math.isclose(reported, mean, rel_tol=1e-9):
                verdict.pass_problems.append(f"sigma {row['axis_value']}: JSON snr {row['mean_snr_db']}"
                                             f"/{row['exact_count']} vs {mean}/{exact}")
        for i in range(len(means) - 1):
            if means[i + 1] > means[i] + 2.0 * math.hypot(errors[i], errors[i + 1]):
                verdict.pass_problems.append(f"mean SNR rises with sigma: {means}")


# --- image --------------------------------------------------------------


def parse_pgm_p2(data: bytes) -> np.ndarray:
    """Minimal ASCII PGM reader for the committed fixtures and canonical output."""
    tokens = [t for line in data.decode("ascii").splitlines()
              for t in line.split("#", 1)[0].split()]
    if tokens[0] != "P2":
        raise ValueError(f"not a P2 file: {tokens[0]!r}")
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    pixels = np.array([int(t) for t in tokens[4:]], dtype=np.int64)
    if pixels.size != width * height or pixels.max(initial=0) > maxval:
        raise ValueError("raster does not match its header")
    return pixels.reshape(height, width)


class Image(Workload):
    """``image-demo`` on the committed fixtures (check 10); units are 64x64 calls."""

    name = "image"
    unit = "image-demo on sparse64 at n=2400"
    # (fixture, rows, nonzero pixels, recoveries per pass)
    FIXTURES = (("sparse32", 600, 185, 2), ("sparse64", 2400, 739, 1))

    def __init__(self, seed, workdir, root: Path):
        super().__init__(seed, workdir)
        data = root / "src" / "symcs" / "data"
        self.reference = {name: parse_pgm_p2((data / f"{name}.pgm").read_bytes())
                          for name, *_ in self.FIXTURES}
        self.parsed = {name: imageio.fixture_image(name) for name, *_ in self.FIXTURES}
        self.jobs = [(name, rows, sub_seed(seed, name, i))
                     for name, rows, _, count in self.FIXTURES for i in range(count)]

    def is_unit(self, call: Call) -> bool:
        return call.argv[2] == "sparse64"

    def _call(self, name, rows, seed, out):
        return run_cli(["image-demo", "--fixture", name, "-n", rows, "--seed", seed, "--out", out],
                       [out])

    def warmup(self) -> None:
        self._call("sparse32", 600, sub_seed(self.seed, "warmup"), self.workdir / "warmup.pgm")

    def run_pass(self) -> Pass:
        return Pass(calls=[self._call(name, rows, seed, self.workdir / f"{name}-{i}.pgm")
                           for i, (name, rows, seed) in enumerate(self.jobs)])

    def check(self, first: Pass) -> Verdict:
        verdict = Verdict(per_pass=len(self.jobs))
        for name, _, nonzeros, _ in self.FIXTURES:
            reference = self.reference[name]
            if int(np.count_nonzero(reference)) != nonzeros:
                verdict.pass_problems.append(f"{name}: {np.count_nonzero(reference)} nonzeros")
            if not np.array_equal(self.parsed[name].pixels, reference):
                verdict.pass_problems.append(f"{name}: symcs parses other pixels")
        for call, (name, rows, seed) in zip(first.calls, self.jobs):
            self.checked(verdict, f"{name} seed {seed}", self.check_call, call, name, rows)
        return verdict

    def check_call(self, call: Call, name: str, rows: int) -> str:
        if call.code != 0 or call.error:
            return f"exit {call.code} {call.error}"
        reference = self.reference[name]
        report = _json(call)
        if report is None or (report["height"], report["width"], report["rows"]) != (
                *reference.shape, rows):
            return f"report {call.stdout!r}"
        written = parse_pgm_p2(next(iter(call.files.values())))
        if written.shape != reference.shape:
            return f"wrote shape {written.shape}"
        ref = reference.astype(np.float64)
        err = float(np.linalg.norm(written - ref) / np.linalg.norm(ref))
        return f"written image rel_err {err:.3e} > 0.1" if err > 0.1 else ""


# --- diagnostics --------------------------------------------------------


def _sym_sign_matrices(dim: int) -> np.ndarray:
    cells = [(i, j) for i in range(dim) for j in range(i, dim)]
    mats = np.empty((1 << len(cells), dim, dim))
    for code, signs in enumerate(product((1.0, -1.0), repeat=len(cells))):
        for (i, j), s in zip(cells, signs):
            mats[code, i, j] = mats[code, j, i] = s
    return mats


def _sign_rows(dim: int) -> np.ndarray:
    return np.array(list(product((1.0, -1.0), repeat=dim)))


class Diagnostics(Workload):
    """Isometry constants, energy tails and the exact MGF grid; no solver."""

    name = "diagnostics"
    unit = "rip-scan at order 4 on the four 12x24 draws"
    RIP = (12, 24, (3, 4), 4)  # rows, columns, orders, draws
    TAILS = (256, 100, 0.5, 2000)  # N, n, eps, trials: check 3's shape
    H_VALUES = (0.5, 1.0, 2.0)  # check 1's grid: dims 1-4, rows <= dim, 20 directions

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rows, cols, orders, draws = self.RIP
        self.rip_jobs = [(sub_seed(seed, "rip", draw), order)
                         for draw in range(draws) for order in orders]
        self.rip_argv = [["rip-scan", "-n", rows, "-N", cols, "--order", order, "--seed", draw_seed]
                         for draw_seed, order in self.rip_jobs]
        n_dim, n_rows, eps, trials = self.TAILS
        self.tails_argv = ["check-tails", "-N", n_dim, "-n", n_rows, "--eps", eps,
                           "--trials", trials, "--seed", sub_seed(seed, "tails")]
        self.cells = []
        for dim in range(1, 5):
            for r in range(1, dim + 1):
                for h in self.H_VALUES:
                    for rep in range(20):
                        self.cells.append((dim, r, h, "random", sub_seed(seed, "mgf", dim, r, h, rep)))
                    self.cells.append((dim, r, h, "axis", 0))

    def is_unit(self, call: Call) -> bool:
        return call.argv[0] == "rip-scan" and call.argv[6] == str(self.RIP[2][-1])

    def _mgf_argv(self, dim, r, h, alpha, seed):
        return ["check-lemma21", "-N", dim, "-n", r, "--h", h, "--alpha", alpha, "--seed", seed]

    def warmup(self) -> None:
        rows, cols, _, _ = self.RIP
        run_cli(["rip-scan", "-n", rows, "-N", cols, "--order", 2, "--seed", self.rip_jobs[0][0]])
        short = list(self.tails_argv)
        short[short.index("--trials") + 1] = 50
        run_cli(short)
        run_cli(self._mgf_argv(*self.cells[-1]))

    def run_pass(self) -> Pass:
        calls = [run_cli(argv) for argv in self.rip_argv]
        calls.append(run_cli(self.tails_argv))
        calls.extend(run_cli(self._mgf_argv(*cell)) for cell in self.cells)
        return Pass(calls=calls)

    def check(self, first: Pass) -> Verdict:
        verdict = Verdict(per_pass=len(first.calls))
        rows, cols, _, _ = self.RIP
        for call, (draw_seed, order) in zip(first.calls, self.rip_jobs):
            matrix = ensembles.gen_measurement("partial-symmetric-bernoulli", rows, cols, draw_seed)
            self.checked(verdict, f"rip-scan order {order} seed {draw_seed}", self.check_rip,
                         call, matrix, order)
        rest = first.calls[len(self.rip_jobs):]
        self.checked(verdict, "check-tails", self.check_tails, rest[0])
        tables = {}
        for call, cell in zip(rest[1:], self.cells):
            self.checked(verdict, f"check-lemma21 {cell}", self.check_mgf, call, cell, tables)
        return verdict

    @staticmethod
    def deviations(matrix, order: int):
        """Worst eigenvalue deviation from 1 of every support Gram, by eigvalsh."""
        supports = np.array(list(combinations(range(matrix.dimension), order)))
        cols = matrix.signs.astype(np.float64)[:, supports]  # (n, supports, order)
        grams = np.einsum("nsi,nsj->sij", cols, cols) / matrix.rows
        eig = np.linalg.eigvalsh(grams)
        return supports, np.maximum(eig[:, -1] - 1.0, 1.0 - eig[:, 0])

    def check_rip(self, call: Call, matrix, order: int) -> str:
        report = _json(call)
        if call.code != 0 or call.error or report is None:
            return f"exit {call.code} {call.error} {call.stdout!r}"
        supports, dev = self.deviations(matrix, order)
        delta = max(float(dev.max()), 0.0)
        worst = dev[[tuple(s) for s in supports.tolist()].index(tuple(report["worstSupport"]))]
        if abs(report["delta"] - delta) > 1e-12 or abs(worst - report["delta"]) > 1e-12:
            return f"delta {report['delta']!r}, eigvalsh gives {delta!r} (worst support {worst!r})"
        if report["supportsChecked"] != len(supports):
            return f"{report['supportsChecked']} supports checked of {len(supports)}"
        if report["recoveryCondition"] != (delta < math.sqrt(2.0) - 1.0):
            return "recovery condition disagrees with delta"
        if order == self.RIP[2][0]:  # once per draw
            coherence = rip.delta2_coherence(matrix)
            _, dev2 = self.deviations(matrix, 2)
            if abs(coherence - float(dev2.max())) > 1e-12:
                return f"delta2_coherence {coherence!r}, eigvalsh gives {float(dev2.max())!r}"
        return ""

    def check_tails(self, call: Call) -> str:
        report = _json(call)
        if call.code != 0 or call.error or report is None:
            return f"exit {call.code} {call.error} {call.stdout!r}"
        _, n_rows, eps, trials = self.TAILS
        bound = math.exp(-(n_rows / 2.0) * (eps**2 / 2.0 - eps**3 / 3.0))
        limit = bound + 3.0 * math.sqrt(bound * (1.0 - bound) / trials)
        if not math.isclose(report["bound"], bound, rel_tol=1e-12):
            return f"bound {report['bound']!r}, expected {bound!r}"
        if max(report["upperFreq"], report["lowerFreq"]) > limit:
            return f"tail frequencies {report['upperFreq']}, {report['lowerFreq']} above {limit}"
        return ""

    def check_mgf(self, call: Call, cell, tables) -> str:
        dim, r, h, kind, seed = cell
        report = _json(call)
        if call.error or report is None:
            return f"exit {call.code} {call.error} {call.stdout!r}"
        if call.code != (0 if report["factorizes"] else 2) or report["factorizes"] != (
                abs(report["relGap"]) <= 1e-12):
            return f"exit {call.code} with {report}"
        if dim not in tables:
            tables[dim] = (_sym_sign_matrices(dim), _sign_rows(dim))
        mats, sign_rows = tables[dim]
        if kind == "axis":
            alpha = np.eye(dim)[0]
        else:
            alpha = concentration.random_unit_vector(dim, seed)
        q = mats[:, :r, :] @ alpha / math.sqrt(dim)
        lhs = float(np.mean(np.exp(h * np.sum(q * q, axis=1))))
        q_row = sign_rows @ alpha / math.sqrt(dim)
        rhs = float(np.mean(np.exp(h * q_row * q_row))) ** r
        upper = float(np.mean(np.exp(r * h * q_row * q_row)))
        if not (math.isclose(report["lhs"], lhs, rel_tol=1e-12)
                and math.isclose(report["rhs"], rhs, rel_tol=1e-12)):
            return f"lhs/rhs {report['lhs']!r}/{report['rhs']!r}, enumeration {lhs!r}/{rhs!r}"
        if r <= 2 or kind == "axis":
            if abs(report["lhs"] - report["rhs"]) > 1e-10 * report["rhs"]:
                return f"row product fails where it must hold: {report}"
        elif report["lhs"] < report["rhs"] * (1.0 - 1e-12):
            return f"coupled transform below the row product: {report}"
        if report["lhs"] > upper * (1.0 + 1e-12):
            return f"coupled transform above the Hoelder bound {upper!r}: {report}"
        return ""


def build(name: str, seed: int, workdir: Path, root: Path) -> Workload:
    """The workload's inputs: the part of set-up that follows the imports."""
    if name == "image":
        return Image(seed, workdir, root)
    return {"sweep-k": SweepK, "sweep-noise": SweepNoise, "diagnostics": Diagnostics}[name](
        seed, workdir)


def layer_probe(workdir: Path) -> None:
    """One small fixed call into every traced layer.

    Its figures stand in for the layers a workload never enters, so those
    read a measured time rather than a constant 0.
    """
    spec = {"N": 32, "axis": "sigma", "axisValues": [0.0, 0.1], "fixed": {"n": 16, "k": 2},
            "trials": 1, "ensembleList": ["partial-symmetric-bernoulli"], "masterSeed": 1}
    path = Path(workdir) / "probe.json"
    path.write_text(json.dumps(spec))
    run_cli(["sweep", "--spec", path])
    run_cli(["rip-scan", "-n", 6, "-N", 12, "--order", 2, "--seed", 1])
    run_cli(["check-tails", "-N", 16, "-n", 4, "--eps", 0.5, "--trials", 20, "--seed", 1])
    run_cli(["check-lemma21", "-N", 2, "-n", 2, "--alpha", "random", "--seed", 1])
    tiny = np.zeros((4, 4), dtype=np.uint8)
    tiny[1, 2], tiny[3, 0] = 200, 90
    imageio.write_pgm(imageio.image_recover(imageio.GrayImage(pixels=tiny), 8, 1).image,
                      Path(workdir) / "probe.pgm")
    imageio.fixture_image("sparse32")

