#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload star-f1c --seed 1 --seconds 30 --trace 0

The arguments go to perfbench/main.exe unchanged (see README.md).  The
build output goes to stderr, so the last line of stdout is the
benchmark's JSON result.  The build stays inside the checkout: dune's
shared cache is off.
"""

import os
import subprocess
import sys

NEEDED = ["dune-project", "lib", os.path.join("perfbench", "dune")]


def main():
    missing = [p for p in NEEDED if not os.path.exists(p)]
    if missing:
        print("perfbench: not the root of a source checkout (missing %s)" % ", ".join(missing),
              file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache", "disabled", "--display", "quiet",
         "./perfbench/main.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed (exit %d)" % build.returncode, file=sys.stderr)
        return 1
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
