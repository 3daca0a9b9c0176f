#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload ftd_small --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds, in
Release, the libraries under src/, the ftd daemon and the ftbench harness
into .bench_build/cmake; later runs only rebuild what changed. ftbench
prints an identity line, notes and one line per metric; this script
passes those through and prints, as the last line, the result object
with exactly the metrics BENCHMARK.json lists for the mode (end_to_end
with --trace 0, per_layer with --trace 1). A per-layer metric whose layer
does no work on the workload reads 0. Exits non-zero, printing no result
line, when the build fails or a listed end-to-end metric is missing.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
WORK = os.path.join(ROOT, ".bench_build", "run")
DEADLINE_S = 170  # a run must end within 180 s once built


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home and home[0].split("=", 1)[1].strip() != os.path.join(ROOT, "perfbench"):
            subprocess.run(["cmake", "-E", "rm", "-rf", BUILD], check=False)
    if not os.path.exists(cache):
        r = subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout)
            die("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    r = subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "ftbench", "ftd"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-20000:])
        die("build failed")


def git_sha():
    r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def source_digest():
    """Digest of the built sources, for checkouts without git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def listed_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["ftd_small", "ftd_heavy", "scale_contended"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        die("--seed must be >= 0 and --seconds in [1, 60]")

    build()
    started = time.monotonic()
    os.makedirs(WORK, exist_ok=True)
    cmd = [os.path.join(BUILD, "ftbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--ftd", os.path.join(BUILD, "ft_src", "ftd"),
           "--work-dir", WORK, "--git-sha", git_sha(),
           "--src-digest", source_digest()]
    # Own process group, so a timeout also takes down the spawned daemon.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("ftbench did not finish within %d s" % DEADLINE_S, 3)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()

    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        die("ftbench printed no result (exit %d)" % proc.returncode, 4)

    got = result.get("metrics", {})
    metrics = {}
    for m in listed_metrics(args.trace):
        entry = got.get(m["name"])
        value = entry.get("value") if entry else None
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            if not args.trace:
                die("end-to-end metric %s missing or not finite" % m["name"], 4)
            value = 0.0
            print("metric %s = 0 %s (layer does no work here)" % (m["name"], m["unit"]))
        elif entry.get("unit") != m["unit"]:
            die("metric %s is in %s, BENCHMARK.json says %s"
                % (m["name"], entry.get("unit"), m["unit"]), 4)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print("note wall time %.1f s" % (time.monotonic() - started))
    print(json.dumps({"correct": bool(result.get("correct")),
                      "attempted": int(result.get("attempted", 0)),
                      "failed": int(result.get("failed", 0)),
                      "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
