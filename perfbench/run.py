#!/usr/bin/env python3
"""Compile-and-serve benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/main.exe with
dune, then runs the workload as two processes, each measuring for half of
--seconds: the compile part writes the winner, the serve part loads it.
Prints the merged result object as the last line; the line before it is
run context: host facts recorded next to the metrics (not as metrics) so a
drifting set of runs can be diagnosed, and every sample behind each
median.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
OUT_DIR = ".perfbench_out"
PART_TIMEOUT_S = 80


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def steal_ticks():
    """Cumulative steal time of all CPUs, in USER_HZ ticks."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0


def calibration_spin_s():
    """Wall time of a fixed arithmetic loop: the host's speed right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i
    return time.perf_counter() - t0


def source_revision():
    """The git revision when the checkout is a repository, else a digest
    of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha1()
    for top in ("lib", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(root, name)
                    digest.update(path.encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def run_part(part, args, winner):
    """Run one part in its own process; return its (context, result)."""
    proc = subprocess.Popen(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds / 2), "--trace", str(args.trace),
         "--part", part, "--winner", winner],
        stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=PART_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s part timed out" % part)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(out)
        fail("%s part failed (exit %d)" % (part, proc.returncode))
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a source checkout (dune-project and lib/ not found)")
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        fail("neither dune nor opam found on PATH")
    # No shared build cache: the benchmark writes only inside the checkout.
    build = subprocess.run(dune + ["build", "--root", ".", "./perfbench/main.exe"],
                           stdout=sys.stderr, stderr=sys.stderr,
                           env=dict(os.environ, DUNE_CACHE="disabled"))
    if build.returncode != 0:
        fail("build failed")

    os.makedirs(OUT_DIR, exist_ok=True)
    winner = os.path.join(OUT_DIR, "%s-%d.winner.json" % (args.workload, os.getpid()))
    spin_before = calibration_spin_s()
    steal_before = steal_ticks()
    t0 = time.time()
    try:
        # The compile part writes the winner; the serve part loads it in a
        # fresh process, as [homc serve] would.
        parts = [run_part(part, args, winner) for part in ("compile", "serve")]
    finally:
        if os.path.exists(winner):
            os.remove(winner)
    wall = time.time() - t0
    steal = steal_ticks() - steal_before
    spin_after = calibration_spin_s()

    context = {"workload": args.workload, "seed": args.seed}
    metrics = {}
    for part_context, result in parts:
        context[part_context.pop("part")] = part_context
        for name, m in result["metrics"].items():
            if name in metrics:
                # peak resident set of either process; per-layer self
                # times of the two processes add up
                old = metrics[name]["value"]
                m = dict(m, value=max(old, m["value"]) if name == "peak_rss_mb"
                         else old + m["value"])
            metrics[name] = m
    context.update({
        "nproc": os.cpu_count(),
        "revision": source_revision(),
        "steal_ticks": steal,
        "calibration_spin_s": [spin_before, spin_after],
        "run_wall_s": wall,
    })
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": all(r["correct"] for _, r in parts),
        "attempted": sum(r["attempted"] for _, r in parts),
        "failed": sum(r["failed"] for _, r in parts),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
