"""One-off scan of single layers at T = 10^4, 10^5 and 10^6.

    python3 benchmarks/layer_scan.py [--sizes 10000,100000,1000000] [--reps 5]

Times ``simulate``, ``_forward_filter``, ``smooth``, ``ewac_objective``,
``ewac_bounds`` (unmasked and under the cs mask) and
``inhomogeneous_bounds`` on the canonical model at eta 0.5, reports the
median of ``--reps`` calls for each, and writes them beside the baseline
recorded in ROADMAP.md.  It is not part of the repeated benchmark: one
smooth at 10^6 periods takes about 17 s.
"""

import argparse
import json
import os
import statistics
import time
from pathlib import Path

import run  # pins BLAS threads before numpy loads

HERE = Path(__file__).resolve().parent

# ROADMAP.md baseline, seconds; layers without a size were timed once.
ROADMAP = {
    "simulate": {"10000": 0.025, "100000": 0.095, "1000000": 0.95},
    "_forward_filter": {"10000": 0.094, "100000": 0.63, "1000000": 7.1},
    "smooth": {"10000": 0.22, "100000": 1.78, "1000000": 17.0},
    "ewac_objective": {"10000": 0.0006, "100000": 0.0022, "1000000": 0.021},
    "ewac_bounds.none": {"any": 0.0047},
    "ewac_bounds.cs": {"any": 0.0020},
    "inhomogeneous_bounds": {"any": 0.00006},
}


def median_time(fn, reps):
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return {"median_s": statistics.median(samples), "samples_s": samples}


def scan(sizes, reps, seed=7):
    ce = run.load_program()
    from casino_ewac import hmm

    model = ce.canonical_model(0.5)
    mask = ce.cs_mask(model.emission)
    results = {name: {} for name in ROADMAP}
    for t in sizes:
        _, obs = ce.simulate(model, t, seed)
        delta = ce.smooth(model, obs)
        objective = ce.ewac_objective(model, obs, delta)
        o = obs - 1
        calls = {
            "simulate": lambda: ce.simulate(model, t, seed),
            "_forward_filter": lambda: hmm._forward_filter(model, o),
            "smooth": lambda: ce.smooth(model, obs),
            "ewac_objective": lambda: ce.ewac_objective(model, obs, delta),
            "ewac_bounds.none": lambda: ce.ewac_bounds(objective),
            "ewac_bounds.cs": lambda: ce.ewac_bounds(objective, mask, tag="cs"),
            "inhomogeneous_bounds": lambda: ce.inhomogeneous_bounds(objective),
        }
        for name, fn in calls.items():
            results[name][str(t)] = median_time(fn, reps)
            print(f"{name:22s} T={t:>8d}  {results[name][str(t)]['median_s']:.6f} s",
                  flush=True)
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", default="10000,100000,1000000")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--out", default=str(HERE / "results" / "layer_scan.json"))
    args = parser.parse_args(argv)
    sizes = [int(v) for v in args.sizes.split(",")]
    load_avg = os.getloadavg()
    results = scan(sizes, args.reps)
    report = {"reps": args.reps, "eta": 0.5, "layers": results,
              "roadmap_baseline_s": ROADMAP,
              "environment": run.environment(load_avg)}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"{'layer':22s} {'T':>8s} {'median s':>10s} {'ROADMAP s':>10s}")
    for name, by_size in results.items():
        for t, row in by_size.items():
            base = ROADMAP[name].get(t, ROADMAP[name].get("any"))
            base = "-" if base is None else f"{base:.6f}"
            print(f"{name:22s} {t:>8s} {row['median_s']:10.6f} {base:>10s}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
