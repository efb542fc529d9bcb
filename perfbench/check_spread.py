#!/usr/bin/env python3
"""Steadiness check: run one workload with several seeds and compare each
end-to-end metric's quartile spread with its bound in BENCHMARK.json.

    python3 perfbench/check_spread.py --workload serve --runs 10

A metric passes when its spread (inter-quartile distance over the median
of the runs) is within its bound; every metric is judged, `setup_s` too.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--log-dir", help="keep each run's standard error "
                        "here, as WORKLOAD-SEED.log")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
        if args.log_dir:
            os.makedirs(args.log_dir, exist_ok=True)
            with open(os.path.join(args.log_dir, "%s-%d.log" % (
                    args.workload, seed)), "w") as f:
                f.write(out.stderr)
        if out.returncode != 0:
            sys.exit("seed %d failed:\n%s" % (seed, out.stderr[-3000:]))
        result = json.loads(out.stdout.strip().splitlines()[-1])
        stolen = re.findall(r"([\d.]+)% of the machine stolen", out.stderr)
        print("seed %d: correct=%s attempted=%d failed=%d, %% stolen: %s" % (
            seed, result["correct"], result["attempted"], result["failed"],
            " ".join(stolen)))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    steady = True
    for metric in bench["end_to_end"]:
        v = values[metric["name"]]
        s = stats.spread(v)
        ok = s <= metric["bound"]
        steady = steady and ok
        print("%-14s median %-12.6g spread %.3f bound %.2f %s  [%s]" % (
            metric["name"], statistics.median(v), s, metric["bound"],
            "ok" if ok else "OVER", " ".join("%.4g" % x for x in v)))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
