#!/usr/bin/env python3
"""Build (on first use) and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: longctx-decode, wire-chat, lowbit-decode.

The benchmark is compiled from source into .bench_build/perfbench (a
Release build of the library plus the benchmark binary, see perfbench/CMakeLists.txt).
Build output goes to stderr; stdout is the binary's, whose last line is
the JSON result. Span files of traced runs land in
.bench_build/perfbench/traces. Exits non-zero, printing no result, when
the sources are missing, the build fails or the run does not finish in
time.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally (a no-op when current)."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def source_digest():
    """SHA-1 over the library sources, so records name the code they ran."""
    h = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("no library sources next to", HERE)
        return 1
    if not build():
        log("build failed")
        return 1
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    env = dict(os.environ)
    env["PERFBENCH_COMMIT"] = commit()
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    cmd = [BINARY] + sys.argv[1:] + ["--out-dir", traces]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("run exceeded", RUN_TIMEOUT_S, "s")
        return 1


if __name__ == "__main__":
    sys.exit(main())
