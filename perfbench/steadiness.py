"""Run-to-run spread of the end-to-end metrics, and schedule repeatability.

    python3 perfbench/steadiness.py --seeds 1-10

Makes two sets of untraced runs of every workload in ``BENCHMARK.json``,
each set one run per seed, one run at a time, alternating the workloads so
each sees the same drift in machine speed.  For every workload and metric
it prints each set's median and quartile spread (the distance between the
first and third quartile as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them), the second median
against the first, and the metric's bound.  Both runs of one seed must
print the same schedule; a mismatch fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEDULE_PREFIX = "schedule "


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run(workload: str, seed: int, seconds: int) -> tuple[dict, str]:
    """One untraced run: its metric values and its schedule line."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if out.returncode or not result.get("correct"):
        raise SystemExit(f"{workload} seed {seed} failed:\n"
                         f"{out.stdout}{out.stderr}")
    schedule = [line.strip() for line in lines
                if line.strip().startswith(SCHEDULE_PREFIX)]
    return ({k: v["value"] for k, v in result["metrics"].items()},
            schedule[0])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="first-last")
    args = parser.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    seeds = range(first, last + 1)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    # values[set][workload][metric] -> one value per seed
    values = [{w: {} for w in workloads} for _ in range(2)]
    schedules: dict[tuple[str, int], str] = {}
    for n, sets in enumerate(values):
        for seed in seeds:
            for workload in workloads:
                metrics, schedule = run(workload, seed, bench["run_seconds"])
                if schedules.setdefault((workload, seed), schedule) != schedule:
                    raise SystemExit(f"{workload} seed {seed}: schedule "
                                     f"differs between runs")
                for name, value in metrics.items():
                    sets[workload].setdefault(name, []).append(value)
                print(f"set {n + 1} {workload} seed {seed}: " + ", ".join(
                    f"{k}={v:.4g}" for k, v in metrics.items()), flush=True)

    print(f"\nboth runs of each seed printed the same schedule "
          f"({len(schedules)} workload-seed pairs)")
    for workload in workloads:
        print(f"\n{workload}\n{'metric':<24}{'median 1':>12}{'spread 1':>10}"
              f"{'median 2':>12}{'spread 2':>10}{'2 vs 1':>9}{'bound':>7}")
        for name, bound in bounds.items():
            a, b = values[0][workload][name], values[1][workload][name]
            ma, mb = statistics.median(a), statistics.median(b)
            print(f"{name:<24}{ma:>12.5g}{spread(a):>10.2%}{mb:>12.5g}"
                  f"{spread(b):>10.2%}{mb / ma - 1:>+9.2%}{bound:>7.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
