"""Benchmark for symcs: four workloads timed end to end, per-layer figures
from a separate traced run.  Run it from the root of a checkout:

    python3 perfbench/run.py --workload sweep-k --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit.  See README.md in this directory.
"""

import os

# One BLAS thread, set before numpy loads: two threads on two vCPUs doubled
# the spread of a recovery's time and made sizes like 100x256 slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep-k", "sweep-noise", "image", "diagnostics")


def _print_result(name: str, result: dict) -> None:
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for key, metric in result["metrics"].items():
        print(f"{name}: {key} = {metric['value']!r} {metric['unit']}")


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {done.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep starting passes until this long has been measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "symcs" / "__init__.py").is_file():
        print(f"perfbench: no symcs sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import symcs

    if Path(symcs.__file__).resolve().parent != src / "symcs":
        print(f"perfbench: imported symcs from {symcs.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    import harness

    if args.setup_probe:
        harness.setup_probe(args.workload, args.seed, ROOT, Path(args.setup_probe))
        return 0
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    _print_result(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
