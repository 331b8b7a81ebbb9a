#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The perfbench program and the dapsp library it links are built with CMake under
$CARGO_TARGET_DIR (default .bench_build) on first use; later runs only check
that the build is current. Build output goes to stderr, so the last line of
stdout is the program's JSON result. Exits non-zero, printing no result, when
the library sources are not next to this directory.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    if not (HERE.parent / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: library sources (src/) not found next to "
                 f"{HERE.name}/; run from the root of a full checkout")
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "4"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "perfbench"


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        exe = build(target / "perfbench")
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            FileNotFoundError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    args = [str(exe), *sys.argv[1:], "--work-dir", str(target / "work")]
    try:
        return subprocess.run(args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
