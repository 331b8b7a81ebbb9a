#!/usr/bin/env python3
"""Layering guard: the layers below src/core never include a core/ header.

src/congest (the round engine), src/util, src/graph and src/seq know nothing
about the algorithms, the service or the query tier built on them. Any
#include of a core/ header from a file under those directories fails.

Usage: python3 scripts/check_layering.py [SRC_DIR]
SRC_DIR defaults to the src/ directory next to this script's parent.
Exits 0 when clean, 1 with one line per offending include.
"""
import pathlib
import re
import sys

LOWER_LAYERS = ("congest", "util", "graph", "seq")
CORE_INCLUDE = re.compile(r'^\s*#\s*include\s*[<"](?:\.\./)*core/')


def main() -> int:
    src = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else
                       pathlib.Path(__file__).resolve().parent.parent / "src")
    checked = 0
    bad = []
    for layer in LOWER_LAYERS:
        root = src / layer
        if not root.is_dir():
            print(f"check_layering: missing directory {root}")
            return 1
        for path in sorted(root.rglob("*")):
            if path.suffix not in (".h", ".cc"):
                continue
            checked += 1
            lines = path.read_text(encoding="utf-8").splitlines()
            for no, line in enumerate(lines, 1):
                if CORE_INCLUDE.match(line):
                    bad.append(f"{path.relative_to(src)}:{no}: {line.strip()}")
    for b in bad:
        print(f"layering violation: {b}")
    if bad:
        return 1
    print(f"check_layering: {checked} files under "
          f"{', '.join(LOWER_LAYERS)} include no core/ header")
    return 0


if __name__ == "__main__":
    sys.exit(main())
