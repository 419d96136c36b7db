#!/usr/bin/env python3
"""Builds and runs the private-inference benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <paf_relu|lenet_roundtrip|serve_open> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (which builds the library
through the repository's own CMakeLists.txt) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only re-check the build. Build
output goes to stderr. The benchmark's stdout passes through unchanged: its
last line is the result JSON. Run records, spans and the per-request count
ledger land in <build dir>/results. The exit code is the benchmark's, and
nonzero on any failed check; it is 2 when the library sources are missing
or the build fails.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def source_digest():
    """Digest of everything the binary is built from, for the run record."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in files:
            if f.is_file() and "__pycache__" not in f.parts:
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print(f"perfbench: no library sources under {ROOT}", file=sys.stderr)
        return 2
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    try:
        build(build_dir)
    except SystemExit as e:
        print(e, file=sys.stderr)
        return 2
    results = build_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    cmd = [str(build_dir / "perfbench"), *sys.argv[1:],
           "--source-id", source_digest(), "--commit", git_commit(),
           "--out-dir", str(results)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
