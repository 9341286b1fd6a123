#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload store-cold --seed 0 --seconds 15 --trace 0

Builds the measuring program (perfbench/pb.exe) and the calibrod daemon
from source with dune, runs one workload, checks its outputs, and prints
every metric by name with its unit. The last stdout line is the JSON
result: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones from a replay of the workload's units.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("store-cold", "serve-warm", "train-incr")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 165
PB = os.path.join("_build", "default", "perfbench", "pb.exe")
CALIBROD = os.path.join("_build", "default", "bin", "calibrod.exe")
RUN_DIR = ".perfbench-run"


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def child_env():
    # An ambient on-disk cache would silently turn store-cold warm and be
    # picked up by calibrod too.
    env = dict(os.environ)
    env.pop("CALIBRO_CACHE_DIR", None)
    return env


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("no repository sources next to the benchmark (dune-project, lib/)")
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    cmd += ["build", "--root", ".", "./perfbench/pb.exe", "./bin/calibrod.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if done.returncode != 0:
        die(f"build failed with exit code {done.returncode}")


def run_pb(args):
    cmd = [os.path.join(ROOT, PB), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--calibrod", CALIBROD,
           "--digests", os.path.join("bench", "digests.txt"),
           "--run-dir", RUN_DIR]
    if args.tiny:
        cmd.append("--tiny")
    # Its own session, so a timeout can take down calibrod children too.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        timed_out = False
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    if timed_out:
        out, _ = proc.communicate()
    # pb removes its daemon directories itself; these are left only if it
    # was killed. Other runs' directories are not touched.
    run_dir = os.path.join(ROOT, RUN_DIR)
    if os.path.isdir(run_dir):
        for name in os.listdir(run_dir):
            if name.startswith(f"{proc.pid}-"):
                shutil.rmtree(os.path.join(run_dir, name), ignore_errors=True)
        try:
            os.rmdir(run_dir)
        except OSError:
            pass
    lines = [l for l in out.splitlines() if l.strip()]
    for l in lines[:-1]:
        print(l)
    raw = None
    if lines and not timed_out:
        try:
            raw = json.loads(lines[-1])
        except ValueError:
            raw = None
    return raw, proc.returncode, timed_out


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 0


def end_to_end(raw):
    """Every end-to-end metric with its sample count and, for the tail,
    the percentile it reports."""
    units = raw["unit_s"]
    exact, measured = raw["exact"], raw["measured"]
    attempted, failed = raw["attempted"], raw["failed"]
    n = len(units)
    tail_v, tail_p, _ = stats.tail(units) if units else (0.0, 0.0, 0)
    rows = {
        "setup_s": (stats.median(raw["setup_s"]), f"median of {len(raw['setup_s'])} set-ups"),
        "latency_p50_s": (stats.median(units) if units else 0.0, f"n={n}"),
        "latency_tail_s": (tail_v, f"p{tail_p:g}, n={n}"),
        "throughput_per_s": (n / sum(units) if units else 0.0, f"n={n}"),
        "text_bytes": (exact.get("text_bytes", 0), "exact"),
        "cycle_ratio": (exact["cycles"] / exact["baseline_cycles"]
                        if exact.get("baseline_cycles") else 0.0,
                        f"exact: {exact.get('cycles', 0)} / {exact.get('baseline_cycles', 0)} cycles"),
        "resident_code_bytes": (exact.get("resident_code_bytes", 0), "exact"),
        "peak_rss_mb": (measured.get("peak_rss_mb", 0.0), "VmHWM"),
        "ok_frac": ((attempted - failed) / attempted, f"{attempted - failed}/{attempted} units"),
    }
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke sizes: one pass, four requests, three deltas")
    args = ap.parse_args()

    started = time.monotonic()
    spec = bench_spec()
    build()
    raw, code, timed_out = run_pb(args)
    if raw is None:
        why = "timed out" if timed_out else f"exited with code {code} and no result"
        die(f"{args.workload}: measuring program {why}")

    env = raw["env"]
    print(f"env: chash={env['chash_backend']} nproc={nproc()} "
          f"recommended_domains={env['recommended_domains']} ocaml={env['ocaml']} "
          f"CALIBRO_CACHE_DIR={'unset' if not env['calibro_cache_dir'] else 'SET'} "
          f"(was {'set' if os.environ.get('CALIBRO_CACHE_DIR') else 'unset'} for the caller)")
    for f in raw["failures"]:
        print(f"failed: workload {args.workload} unit {f['unit']}: {f['what']}")

    if args.trace == 0:
        names = [m["name"] for m in spec["end_to_end"]]
        rows = end_to_end(raw)
        print(f"detail: {json.dumps(raw['exact'], sort_keys=True)}")
        print(f"measured: {json.dumps(raw['measured'], sort_keys=True)}")
    else:
        names = [m["name"] for m in spec["per_layer"]]
        layers = raw["layers"]
        rows = {k: (layers.get(k), "replay") for k in names}
        missing = [k for k, (v, _) in rows.items() if v is None]
        if missing:
            die("per-layer metrics missing from the replay: " + ", ".join(missing))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    print(f"== {args.workload} seed {args.seed} trace {args.trace} "
          f"({time.monotonic() - started:.1f} s) ==")
    for k in names:
        v, note = rows[k]
        print(f"  {args.workload:<11} {k:<28} {v:>16.6g} {units[k]:<8} {note}")

    correct = code == 0 and raw["failed"] == 0
    line = stats.result_line(correct, raw["attempted"], raw["failed"],
                             {k: (rows[k][0], units[k]) for k in names})
    stats.check_result_line(line, names)
    print(json.dumps(line))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
