#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload wi_uni|rw_sk \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the server
(bin/c4_sim.exe) and the benchmark program (perfbench/c4_perfbench.exe)
with dune, then runs the program, whose last stdout line is the JSON
result, holding the metrics BENCHMARK.json declares for the mode. The
program and every server it starts run in their own process group,
which is SIGKILLed and waited for before this script exits. Scratch
state lives under .perfbench_run/ in the checkout: a per-run directory
(removed after the run) and the Chrome trace of the last traced run of
each workload (trace-<workload>.json).

Exits 2 without a result when the checkout lacks the sources or the
build fails; otherwise with the program's code (0 only when every output
check passed).
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ["wi_uni", "rw_sk"]
REQUIRED = [
    "BENCHMARK.json",
    "dune-project",
    "lib",
    "bin/c4_sim.ml",
    "perfbench/dune",
    "perfbench/c4_perfbench.ml",
    "perfbench/src/dune",
]
SERVER = "_build/default/bin/c4_sim.exe"
BENCH = "_build/default/perfbench/c4_perfbench.exe"
RUN_DIR = ".perfbench_run"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def dune_cmd():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    die("dune not found on PATH")


def source_sha256():
    """Hash of every source file the build reads, for the fingerprint."""
    h = hashlib.sha256()
    for top in ["dune-project", "dune", "lib", "bin", "perfbench"]:
        paths = []
        if os.path.isfile(top):
            paths = [top]
        else:
            for d, dirs, files in os.walk(top):
                dirs[:] = sorted(x for x in dirs if not x.startswith(("_", ".")))
                paths += [os.path.join(d, f) for f in files]
        for p in sorted(paths):
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_rev():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def stop_group(pgid):
    """SIGKILL the process group and wait (briefly) until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 5
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        die("not a source checkout (missing: %s)" % ", ".join(missing))

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        built = subprocess.run(
            dune_cmd() + ["build", "--root", ".", "--profile", "release",
                          "./bin/c4_sim.exe", "./perfbench/c4_perfbench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        die("build timed out")
    if built.returncode != 0 or not (os.path.exists(SERVER) and os.path.exists(BENCH)):
        die("build failed")

    workdir = os.path.join(RUN_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env["C4_GIT_REV"] = git_rev()
    env["PERFBENCH_SOURCE_SHA256"] = source_sha256()
    proc = subprocess.Popen(
        [BENCH, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--benchmark", "BENCHMARK.json", "--server", SERVER, "--workdir", workdir,
         "--trace-out", os.path.join(RUN_DIR, f"trace-{args.workload}.json")],
        env=env, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = 1
    finally:
        stop_group(proc.pid)
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
