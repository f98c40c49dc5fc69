#!/usr/bin/env python3
"""Builds sb_perfbench from source and runs one Switchboard workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload busy_window --seed 1 --seconds 20 --trace 0

--workload   busy_window | flash_crowd
--seed       workload seed (default 1; seed 7919 is held out for gain checks)
--seconds    measurement time (default 20); every workload also runs a
             minimum number of pipeline cycles (see README.md)
--trace      0 = end-to-end metrics from an untraced run (default),
             1 = per-layer metrics from a traced run

The build goes to $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset, relative to the repository root. Build output
goes to stderr; stdout carries the provenance line and, as its last line,
the result JSON. An unknown workload or flag exits 2 with a usage message.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("busy_window", "flash_crowd")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


def source_id(root: Path) -> str:
    """Git commit of the tree, or a digest of the sources when not a repo."""
    try:
        sha = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=30,
        ).stdout.strip()
        if sha:
            return sha
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((root / base).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cpp", ".txt", ".py"):
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def build(root: Path) -> Path:
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    # Compiler temporaries stay inside the build tree.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        subprocess.run(configure, check=True, env=env, stdout=sys.stderr,
                       stderr=sys.stderr)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "sb_perfbench",
                    "-j", jobs], check=True, env=env, stdout=sys.stderr,
                   stderr=sys.stderr)
    return build_dir / "sb_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Switchboard end-to-end benchmark "
                    f"(default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()  # exits 2 with usage on a bad flag
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = Path(__file__).resolve().parent.parent
    try:
        binary = build(root)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([
        str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
        f"--seconds={args.seconds}", f"--trace={args.trace}",
        f"--source={source_id(root)}",
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
