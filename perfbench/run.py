#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune from the sources of the checkout
this file sits in, then runs it with the same arguments. The last line
of standard output is the JSON result; the exit code is non-zero when
the build fails or any check of the run fails.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A run measures for --seconds and then finishes its last round; this
# caps a stuck one.
RUN_TIMEOUT_S = 170


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def build():
    """Build the benchmark; its path, or None after saying why not."""
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("perfbench: the simulator sources are not beside the benchmark",
              file=sys.stderr)
        return None
    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return None
    # No shared build cache: the build stays inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    built = subprocess.run(
        dune + ["build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        return None
    return os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def run(exe, args):
    sys.stdout.flush()
    try:
        return subprocess.run([exe] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


def main(argv):
    exe = build()
    if exe is None:
        return 2
    return run(exe, argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
