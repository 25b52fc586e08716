#!/usr/bin/env python3
"""Build perfbench from the checkout it sits in, then run one workload.

Run from the checkout root:

    python3 perfbench/run.py --workload paper --seed 0 --seconds 30 --trace 0

The first run configures and builds (Release, LTO) under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only check the build is current. The last line of stdout is the result
JSON; build output and progress go to stderr. `--test` builds and runs the
benchmark's own tests instead.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir: Path, target: str) -> Path:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"perfbench: {ROOT} holds no sfab checkout (CMakeLists.txt, src/)")
        sys.exit(2)
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit(1)
    jobs = str(len(os.sched_getaffinity(0)))
    step = ["cmake", "--build", str(build_dir), "--target", target, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        sys.exit(1)
    return build_dir / target


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["paper", "replicates", "sharded"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.test and args.workload is None:
        parser.error("--workload is required")

    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_root / "perfbench"
    if args.test:
        return subprocess.run([str(build(build_dir, "perfbench_test"))]).returncode

    exe = build(build_dir, "perfbench")
    command = [str(exe), "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--root", str(ROOT),
               "--work", str(build_root / "perfbench-work")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
