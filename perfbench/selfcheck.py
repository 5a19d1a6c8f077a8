#!/usr/bin/env python3
"""Sensitivity self-check: the benchmark's gate must fail on a real regression.

    python3 perfbench/selfcheck.py [--seed 7] [--seconds 55]

Runs paper-p1 twice, once at the paper's simulated broker RTT (25 us) and
once with it raised to 35 us through Broker::set_rtt_us. Apex Beam writes
record by record and pays the RTT once per output record, so apex_beam_rps
must drop by more than its bound in BENCHMARK.json. Flink native batches its
sink writes, so flink_native_rps must not. Exits non-zero if either fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(seed, seconds, rtt_us):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", "paper-p1", "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0",
               "--broker-rtt-us", str(rtt_us)]
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.exit(f"selfcheck: run at rtt {rtt_us} us failed")
    report = json.loads(lines[-1])
    return {name: m["value"] for name, m in report["metrics"].items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=55)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}

    base = run(args.seed, args.seconds, 25)
    slow = run(args.seed, args.seconds, 35)
    ok = True
    for metric, must_regress in (("apex_beam_rps", True),
                                 ("flink_native_rps", False)):
        drop = 1.0 - slow[metric] / base[metric]
        bound = bounds[metric]
        passed = drop > bound if must_regress else drop <= bound
        ok = ok and passed
        print(f"{metric}: {base[metric]:.6g} -> {slow[metric]:.6g} rec/s, "
              f"drop {drop:+.1%}, bound {bound:.0%}, "
              f"{'must exceed' if must_regress else 'must stay within'}: "
              f"{'ok' if passed else 'FAILED'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
