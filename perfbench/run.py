#!/usr/bin/env python3
"""Build and run the tinysdr benchmark from the repository root.

    python3 perfbench/run.py --workload phy_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --capacity

The benchmark is its own Cargo package (perfbench/Cargo.toml) built
against the repository's crates by path. CARGO_TARGET_DIR defaults to
.bench_build in the repository root. The binary's standard output
passes through unchanged: a stamp line, then the JSON result line.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# what the stamp's source digest covers when there is no git revision
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "src", "perfbench"]
SKIP_DIRS = {"target", ".bench_build", ".bench_run", "__pycache__"}


def command_output(args):
    try:
        out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, check=False)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else None


def source_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def main():
    for needed in ("Cargo.toml", "crates"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found next to perfbench/; run from a full checkout",
                  file=sys.stderr)
            return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env["PERFBENCH_RUSTC"] = command_output(["rustc", "-V"]) or "unknown"
    env["PERFBENCH_GIT_REV"] = command_output(["git", "rev-parse", "HEAD"]) or "none"
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    exe = os.path.join(ROOT, target, "release", "tinysdr-perfbench")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
