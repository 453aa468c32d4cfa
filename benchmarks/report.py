"""Run every workload once and print each end-to-end metric by name and unit.

    python3 benchmarks/report.py [--seed 1] [--seconds 45] [--trace] [--smoke]

Besides the metrics of the result line it prints, per workload, the median
latency of each CLI subcommand (``bounds_s``, ``smooth_s``, ...) with its
sample count and tail percentile, and ``failed_frac``.  With ``--trace`` it
also prints the per-layer metrics and shares of a traced run.  Exits 1 if
any output check failed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def run_workload(name, args, trace):
    cmd = [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []),
                          capture_output=True, text=True, check=True)
    details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return details, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    all_correct = True
    for name in workloads.WORKLOADS:
        details, result = run_workload(name, args, 0)
        all_correct &= result["correct"]
        print(f"== {name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}")
        print(f"  {'failed_frac':40s} {details['failed_frac']:14.6g} ratio")
        for cmd, stats in details["per_command"].items():
            tail = ", ".join(f"{k} {v:.6g}" for k, v in stats.items()
                             if k.startswith("p"))
            print(f"  {cmd.replace('-', '_') + '_s':40s} {stats['median_s']:14.6g} s"
                  f"  (n={stats['n']}{', ' + tail if tail else ''})")
        for failure in details["failures"]:
            print(f"  FAILED {failure}")
        if args.trace:
            details, result = run_workload(name, args, 1)
            all_correct &= result["correct"]
            for metric, m in result["metrics"].items():
                value = "missing" if m["value"] is None else f"{m['value']:.6g}"
                print(f"  {metric:40s} {value:>14s} {m['unit']}")
            for layer, share in details["shares"].items():
                print(f"  share {layer:34s} {share:14.3f}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
