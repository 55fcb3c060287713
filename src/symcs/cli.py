"""Command line interface.

Exit codes: 0 on success, 1 for usage errors (bad flags or arguments), 2 for
bad file contents and runtime failures, which includes a diagnostic check
that ran cleanly and found its property violated.  All stdout output is
byte-deterministic for fixed inputs at a fixed BLAS thread count; progress
and status notes go to stderr.

Seeds resolve in order: an explicit ``--seed`` flag, then the ``CS_SEED``
environment variable, then 0.  ``CS_SEED`` is read on each call.

``main`` builds its argument parser once per process, on its first call, and
reuses it: in-process callers such as scripts, tests and benchmarks pay for the
parser tree once, not per call, and importing the module builds nothing.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import concentration, ensembles, experiments, imageio, rip, solver

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _resolve_seed(value) -> int:
    if value is not None:
        return value
    raw = os.environ.get("CS_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        print(f"error: CS_SEED is not an integer: {raw!r}", file=sys.stderr)
        raise SystemExit(1)


def _add_seed(parser) -> None:
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="integer seed (default: CS_SEED environment variable, then 0)",
    )


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="symcs", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-matrix", help="generate a measurement matrix")
    p.add_argument("--ensemble", choices=ensembles.ENSEMBLES, required=True)
    p.add_argument("-n", "--rows", type=int, required=True)
    p.add_argument("-N", "--dimension", type=int, required=True)
    p.add_argument("--entries", metavar="PATH", help="also write the entries as CSV")
    _add_seed(p)

    p = sub.add_parser("recover", help="l1 recovery from a descriptor and measurements")
    p.add_argument("--descriptor", metavar="PATH", required=True,
                   help="matrix descriptor JSON, as printed by gen-matrix")
    p.add_argument("--measurements", metavar="PATH", required=True,
                   help="measurement vector, one value per line")
    p.add_argument("--epsilon", type=float, default=0.0,
                   help="residual ball radius; 0 solves the equality problem")
    p.add_argument("--out", metavar="PATH", help="write the solution here instead of stdout")

    p = sub.add_parser("rip-scan", help="exact isometry constant by support enumeration")
    p.add_argument("--ensemble", choices=ensembles.ENSEMBLES,
                   default="partial-symmetric-bernoulli")
    p.add_argument("-n", "--rows", type=int, required=True)
    p.add_argument("-N", "--dimension", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    _add_seed(p)

    p = sub.add_parser(
        "check-lemma21",
        help="compare the coupled and factorized transforms by exact enumeration",
    )
    p.add_argument("-N", "--dimension", type=int, required=True)
    p.add_argument("-n", "--rows", type=int, required=True)
    p.add_argument("--h", type=float, default=1.0)
    p.add_argument("--alpha", choices=("uniform", "axis", "random"), default="uniform")
    _add_seed(p)

    p = sub.add_parser("check-tails", help="Monte Carlo tail frequencies vs the bound")
    p.add_argument("-N", "--dimension", type=int, required=True)
    p.add_argument("-n", "--rows", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    _add_seed(p)

    p = sub.add_parser("jl-size", help="row count preserving pairwise distances")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--points", type=int, required=True)

    p = sub.add_parser("sweep", help="run an experiment spec")
    p.add_argument("--spec", metavar="PATH", required=True)
    p.add_argument("--out-csv", metavar="PATH")
    p.add_argument("--out-json", metavar="PATH")

    p = sub.add_parser("image-demo", help="sparse image recovery demo")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--fixture", choices=("sparse32", "sparse64"))
    group.add_argument("--input", metavar="PATH", help="PGM image to recover")
    p.add_argument("-n", "--rows", type=int, required=True)
    p.add_argument("--ensemble", choices=ensembles.ENSEMBLES,
                   default="partial-symmetric-bernoulli")
    p.add_argument("--out", metavar="PATH", help="write the recovered PGM here")
    _add_seed(p)

    return parser


def _cmd_gen_matrix(args) -> int:
    matrix = ensembles.gen_measurement(
        args.ensemble, args.rows, args.dimension, _resolve_seed(args.seed)
    )
    print(matrix.descriptor_json())
    if args.entries:
        with open(args.entries, "w") as handle:
            ensembles.entries_csv(matrix, handle)
    return 0


def _cmd_recover(args) -> int:
    matrix = ensembles.descriptor_from_json(Path(args.descriptor).read_text())
    lines = Path(args.measurements).read_text().split()
    y = np.array([float(v) for v in lines])
    result = solver.bpdn(matrix, y, args.epsilon)
    print(
        f"status={result.status} iterations={result.iterations} "
        f"objective={result.objective!r}",
        file=sys.stderr,
    )
    text = "\n".join(repr(float(v)) for v in result.solution) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0 if result.status != "infeasible-detected" else 2


def _cmd_rip_scan(args) -> int:
    matrix = ensembles.gen_measurement(
        args.ensemble, args.rows, args.dimension, _resolve_seed(args.seed)
    )
    estimate = rip.delta_k_bruteforce(matrix, args.order)
    print(
        json.dumps(
            {
                "order": estimate.order,
                "delta": estimate.delta,
                "worstSupport": list(estimate.worst_support),
                "supportsChecked": estimate.supports_checked,
                "recoveryCondition": rip.recovery_condition(estimate.delta),
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_check_lemma21(args) -> int:
    dim = args.dimension
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    if args.alpha == "uniform":
        alpha = np.full(dim, dim ** -0.5)
    elif args.alpha == "axis":
        alpha = np.zeros(dim)
        alpha[0] = 1.0
    else:
        alpha = concentration.random_unit_vector(dim, _resolve_seed(args.seed))
    # a large |h| overflows the exponentials or underflows them to 0
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = concentration.mgf_lhs_exact(dim, args.rows, alpha, args.h)
        rhs = concentration.mgf_rhs_exact(dim, args.rows, alpha, args.h)
    if not (0.0 < lhs < math.inf and 0.0 < rhs < math.inf):
        raise ValueError(f"no relative gap at h={args.h}: the transforms are {lhs} and {rhs}")
    gap = (lhs - rhs) / rhs
    factorizes = abs(gap) <= 1e-12
    print(
        json.dumps(
            {"lhs": lhs, "rhs": rhs, "relGap": gap, "factorizes": factorizes},
            sort_keys=True,
        )
    )
    return 0 if factorizes else 2


def _cmd_check_tails(args) -> int:
    (report,) = concentration.empirical_tails(
        args.dimension, args.rows, [args.eps], args.trials, _resolve_seed(args.seed)
    )
    passed = (
        report.upper_freq <= report.bound + report.slack_3se
        and report.lower_freq <= report.bound + report.slack_3se
    )
    print(
        json.dumps(
            {
                "upperFreq": report.upper_freq,
                "lowerFreq": report.lower_freq,
                "bound": report.bound,
                "slack": report.slack_3se,
                "meanEnergy": report.mean_energy,
                "passed": passed,
            },
            sort_keys=True,
        )
    )
    return 0 if passed else 2


def _cmd_jl_size(args) -> int:
    print(concentration.jl_min_measurements(args.eps, args.beta, args.points))
    return 0


def _cmd_sweep(args) -> int:
    spec = experiments.ExperimentSpec.from_json(Path(args.spec).read_text())
    result = experiments.sweep(spec)
    text = experiments.results_csv(result)
    if args.out_csv:
        Path(args.out_csv).write_text(text)
    else:
        sys.stdout.write(text)
    if args.out_json:
        Path(args.out_json).write_text(experiments.results_json(result))
    return 0


def _cmd_image_demo(args) -> int:
    if args.fixture:
        image = imageio.fixture_image(args.fixture)
    else:
        image = imageio.read_pgm(args.input)
    recovery = imageio.image_recover(
        image, args.rows, _resolve_seed(args.seed), args.ensemble
    )
    if args.out:
        imageio.write_pgm(recovery.image, args.out)
    print(
        json.dumps(
            {
                "width": image.width,
                "height": image.height,
                "rows": args.rows,
                "mse": recovery.mse,
                "relErr": recovery.rel_err,
                "snrDb": recovery.snr_db,
                "iterations": recovery.iterations,
                "status": recovery.status,
                "exactImage": recovery.image == image,
            },
            sort_keys=True,
        )
    )
    return 0


_COMMANDS = {
    "gen-matrix": _cmd_gen_matrix,
    "recover": _cmd_recover,
    "rip-scan": _cmd_rip_scan,
    "check-lemma21": _cmd_check_lemma21,
    "check-tails": _cmd_check_tails,
    "jl-size": _cmd_jl_size,
    "sweep": _cmd_sweep,
    "image-demo": _cmd_image_demo,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
