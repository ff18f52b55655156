#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --emit-spec    # rewrite BENCHMARK.json
    python3 perfbench/run.py --selftest     # helper tests + smoke runs

The first call configures perfbench/ (which builds the serving stack from
src/ and tools/) into .bench_build/ and compiles it; later calls rebuild
only what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's result line. A traced run also writes its
sampled spans as Chrome trace-event JSON to
.bench_build/trace-<workload>-seed<N>.json.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_SECONDS = 20
# A run must end within 180 s; the binary itself needs run_seconds plus
# a few seconds of set-up, warm-up and output checks.
RUN_TIMEOUT_S = 170
# Parallel compile jobs: the codegen tier's translation units need over
# 1 GiB of memory each.
MAX_JOBS = 4


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(target):
    """Configure (once) and build @target; returns the binary path."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            # A failed configure must not leave a cache that a later
            # call would mistake for a configured tree.
            shutil.rmtree(BUILD, ignore_errors=True)
            return None
    jobs = str(min(os.cpu_count() or 1, MAX_JOBS))
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD, target)


def source_digest():
    """SHA-256 over every source file the benchmark builds from, so runs
    from a checkout without git history still name their code."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def emit_spec(binary):
    out = subprocess.run([binary, "--spec"], capture_output=True, text=True,
                         check=True)
    spec = json.loads(out.stdout)
    doc = {"command": ["python3", "perfbench/run.py"],
           "paths": ["perfbench"],
           "run_seconds": RUN_SECONDS}
    doc.update(spec)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    log("wrote BENCHMARK.json")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--emit-spec", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        if binary is None:
            return 1
        return subprocess.run([binary]).returncode

    binary = build("perfbench")
    if binary is None:
        log("build failed")
        return 1
    if args.emit_spec:
        emit_spec(binary)
        return 0
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD, f"trace-{args.workload}-seed{args.seed}.json")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1


if __name__ == "__main__":
    sys.exit(main())
