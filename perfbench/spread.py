#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics of one workload.

Runs ``run.py`` once per seed and prints, for each end-to-end metric,
the median over the runs and the spread: the distance between the first
and third quartiles as a share of the median. Metrics whose spread is
more than a third of their bound in ``BENCHMARK.json`` are flagged;
``setup_s`` is only compared run set against run set, so it is listed
but not flagged.

    python3 perfbench/spread.py --workload tiny_attack --seeds 1-10 --seconds 35
"""

import argparse
import json
import os
import subprocess
import sys

import benchlib as bl

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    """``"1-10"`` or ``"3,5,8"``."""
    if "-" in text:
        first, last = (int(x) for x in text.split("-", 1))
        return list(range(first, last + 1))
    return [int(x) for x in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}

    values = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE)
        lines = done.stdout.decode().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: run failed (exit {done.returncode})")
            return 1
        result = json.loads(lines[-1])
        digest = next(line.split()[-1] for line in lines if line.startswith("digest "))
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} digest={digest[:12]} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, xs in values.items():
        spread = bl.spread(xs)
        flag = ""
        if name != "setup_s" and spread > bounds[name] / 3:
            flag = "  <-- above a third of the bound"
        print(f"{name}: median {bl.median(xs):.6g} spread {spread:.4f} "
              f"(bound {bounds[name]}){flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
