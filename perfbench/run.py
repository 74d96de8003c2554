"""Closed-loop serving benchmark: one workload, one seed, one mode.

    python3 perfbench/run.py --workload decode_b8 --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped but one
clock pair per admission; ``--trace 1`` is a separate run that reports the
per-layer metrics from spans.  Both run the correctness gate outside the
timed region.  The last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it stamp the
environment and print the human-readable report.
"""

import os
import sys

# Pin BLAS/OpenMP to one thread before NumPy loads: BLAS threading alone
# swings a 512x2048 GEMV by 17x on a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_checkout() -> None:
    """Put this checkout's ``src`` and root first on the import path, and
    refuse to run against any other copy of ``repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'repro'} not found; run from a "
                         f"full checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}")


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10, check=True).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if len(out) != 2 or Path(out[0]).resolve() != ROOT:
        return "unknown"
    return out[1]


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "numpy": np.__version__, "python": platform.python_version(),
            "git_sha": _git_sha(), "seed": seed}


def main(argv=None) -> int:
    _import_checkout()
    from perfbench.harness import traced_run, untraced_run
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    print("env " + json.dumps(environment(args.seed)))
    run = traced_run if args.trace else untraced_run
    result = run(args.workload, args.seed, args.seconds)
    print(f"workload {args.workload} ({'traced' if args.trace else 'untraced'})")
    for line in result.report:
        print("  " + line)
    for name, metric in result.metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    gate = result.gate
    print(f"  requests sent {gate.attempted}, succeeded "
          f"{gate.attempted - gate.failed}, failed {gate.failed}")
    for problem in gate.problems:
        print(f"  GATE FAILED: {problem}")
    print(json.dumps({"correct": gate.correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": result.metrics}))
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
