#!/usr/bin/env python3
"""Tiny-size smoke run of every workload, untraced and traced.

    python3 perfbench/smoke.py

Each workload runs at smoke sizes (store-cold: one pass; serve-warm: four
requests; train-incr: three deltas) and must report ok_frac = 1.0 and a
well-formed result line. Exits 1 on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("store-cold", "serve-warm", "train-incr")


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for w in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
            lines = done.stdout.strip().splitlines()
            try:
                line = json.loads(lines[-1])
                names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
                stats.check_result_line(line, names)
                good = done.returncode == 0 and line["correct"] and line["failed"] == 0
                if trace == 0:
                    good = good and line["metrics"]["ok_frac"]["value"] == 1.0
                else:
                    good = good and line["metrics"]["trace.replay_digest_match"]["value"] == 1.0
            except (IndexError, ValueError, KeyError) as e:
                print(f"{w} trace {trace}: bad output ({e})")
                good = False
            print(f"{w} trace {trace}: {'ok' if good else 'FAILED'}")
            if not good:
                print("\n".join(lines[-20:]))
            ok = ok and good
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
