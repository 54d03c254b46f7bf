#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

usage: python3 relinkbench/run.py --workload NAME [--seed N] [--seconds S]
                                  [--trace 0|1]

The repository root is the directory above this file. dune builds only
main.exe and the libraries it links, without the shared dune cache, so
the build reads and writes inside the checkout; its messages go to
standard error, leaving standard output to the benchmark.
"""

import os
import subprocess
import sys

root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
build = subprocess.run(
    ["dune", "build", "--root", root, "--cache=disabled", "--display", "quiet",
     "./relinkbench/main.exe"],
    cwd=root, stdout=sys.stderr)
if build.returncode != 0:
    sys.exit(build.returncode)
exe = os.path.join(root, "_build", "default", "relinkbench", "main.exe")
os.chdir(root)
os.execv(exe, [exe] + sys.argv[1:])
