"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 kvbench/spread.py --seeds 1-10 [--workloads finetune_kv,...]
                              [--seconds 10] [--label NAME]

Runs `kvbench/run.py` once per workload and seed, one run at a time, and
prints for each metric its median and the distance between the first and
third quartiles (statistics.quantiles, n=4) as a share of the median, next to
the metric's bound from BENCHMARK.json. The runs are saved to
`kvbench/out/spread-<label>.json`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--label", default="latest")
    args = p.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    # seeds outermost, so that each workload's runs are spread over the
    # whole measurement and not bunched into one stretch of host load
    for seed in args.seeds:
        for workload in args.workloads.split(","):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(args.seconds),
                                      "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=600, check=False)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed} failed:\n{out.stderr}")
            result = json.loads(lines[-1])
            runs.append({"workload": workload, "seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"spread-{args.label}.json"), "w") as fh:
        json.dump(runs, fh, indent=1)

    print(f"{'workload':14s} {'metric':32s} {'median':>12s} {'iqr/med':>8s} {'bound':>6s}")
    for workload in args.workloads.split(","):
        mine = [r for r in runs if r["workload"] == workload]
        for name in mine[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in mine if name in r["metrics"]]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds.get(name)
            print(f"{workload:14s} {name:32s} {med:12.6g} {spread:8.3f} "
                  f"{'' if bound is None else bound:>6}")
        shares = {r["failed"] / r["attempted"] for r in mine}
        print(f"{workload:14s} {'failed share':32s} {sorted(shares)}")


if __name__ == "__main__":
    main()
