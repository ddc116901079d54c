#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources, then runs one workload.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload embed_read|serve_mixed|lsm_mixed|all \
      --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/
perfbench) and is reused by later runs; the traced run writes its spans to
.../perfbench-traces. Build output goes to standard error, so the last line
of standard output is the benchmark's JSON result. The exit code is
non-zero when the build fails, the run fails or any answer was wrong.
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
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_digest():
    """A digest of every source the binary is built from, so results can be
    tied to the exact code even in a checkout that is not a git repo."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def commit_id():
    """The git commit when the checkout is a repository, and always the
    source digest."""
    head = "nogit"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                head = out.stdout.strip()[:12]
        except (OSError, subprocess.SubprocessError):
            pass
    return f"{head}+src:{source_digest()}"


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path
    or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources (src/) not found next to perfbench/")
        return None
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    compile_ = ["cmake", "--build", build_dir, "-j", jobs,
                "--target", "perfbench"]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            log("configure failed")
            return None
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["embed_read", "serve_mixed", "lsm_mixed", "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = os.path.join(ROOT, target)
    build_dir = os.path.join(base, "perfbench")
    binary = build(build_dir)
    if binary is None:
        return 1
    trace_dir = os.path.join(base, "perfbench-traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id(), "--out", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = isinstance(result, dict) and set(result) == RESULT_KEYS
    except (ValueError, IndexError):
        ok = False
    if not ok:
        sys.stdout.write(proc.stdout)
        log(f"no result line (exit code {proc.returncode})")
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        log(f"{result['failed']} of {result['attempted']} operations failed")
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
