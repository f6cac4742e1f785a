#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <wire-small|wire-batch|tenant-day> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark package is built in release
mode into $CARGO_TARGET_DIR (default: .bench_build at the repository root);
cargo's output goes to stderr, so the last line of stdout is the result
JSON the benchmark prints. The exit code is the benchmark's, or non-zero
with no result when the build fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark itself stops after its run plus the settlements p99 needs;
# this only bounds a wedged run.
RUN_TIMEOUT_S = 170
# What the binary is built from, for the source digest in provenance.
SOURCE_PARTS = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]


def source_digest():
    """SHA-256 over the sources the benchmark builds, in path order."""
    h = hashlib.sha256()
    paths = []
    for part in SOURCE_PARTS:
        top = os.path.join(ROOT, part)
        if os.path.isfile(top):
            paths.append(top)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            paths.extend(os.path.join(dirpath, f) for f in filenames)
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD's commit id, or a note when the checkout is not a repository."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none (git unavailable)"
    return out.stdout.strip() if out.returncode == 0 else "none (not a git checkout)"


def main():
    env = dict(os.environ)
    target_dir = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    binary = os.path.join(target_dir, "release", "ecovisor-perfbench")
    env["PERFBENCH_GIT_COMMIT"] = git_commit()
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
