#!/usr/bin/env python3
"""Build the campaign benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 campaignbench/run.py --workload capacity-cold --seed 1 --seconds 10 --trace 0

The Go toolchain's caches, the binary and all scratch files live under the
build directory ($CARGO_TARGET_DIR, default .bench_build), so a run reads
and writes only inside the checkout. The last line of standard output is
the result object; see BENCHMARK.json for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["capacity-cold", "appstudy-cold", "resume-remote"]
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--quick", action="store_true",
                    help="capacity-cold at GridQuick: the ungated reference run")
    args = ap.parse_args()

    go = shutil.which("go")
    if go is None:
        sys.exit("campaignbench: no go toolchain on PATH")
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tmp = os.path.join(build, "tmp")
    home = os.path.join(build, "home")
    for d in (tmp, home):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=os.path.join(build, "gocache"),
               GOPATH=os.path.join(build, "gopath"),
               GOTMPDIR=tmp, TMPDIR=tmp,
               HOME=home, XDG_CONFIG_HOME=home, XDG_CACHE_HOME=home,
               GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", GOWORK="off")
    binary = os.path.join(build, "campaignbench")
    try:
        subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                       check=True, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        sys.exit(f"campaignbench: build failed: {e}")

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-dir", os.path.join(build, f"run-{os.getpid()}"), "-go", go]
    timeout = RUN_TIMEOUT_S
    if args.quick:
        cmd.append("-quick")
        timeout = None  # minutes of simulation, never part of a gated run
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        sys.exit(f"campaignbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(rc)


if __name__ == "__main__":
    main()
