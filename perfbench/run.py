#!/usr/bin/env python3
"""Build and run VINI's end-to-end benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload deter_table2 --seed 1 --seconds 30 --trace 0

It builds perfbench/main.exe with dune (the first run in a fresh checkout
compiles the whole tree), runs it once, and passes its standard output
through.  The last line is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it are the
run manifest and a readable table.  --trace 1 makes the traced run, which
reports the per-layer metrics and writes its spans under .perfbench/.

Exits non-zero without a result when the checkout cannot be built or the
run fails.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["deter_table2", "ospf_reconverge", "backbone200_tenants"]
BUILD_TIMEOUT_S = 700
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    for cand in sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune"))):
        if os.access(cand, os.X_OK):
            return cand
    return None


def source_digest():
    """sha256 over every file under lib/, paths included, in sorted order."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk("lib"):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(path.encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_rev():
    if not os.path.exists(".git") or shutil.which("git") is None:
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def run(cmd, env, timeout):
    """Run to completion; on timeout kill it and wait until it has ended."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out, err


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("run from the root of a VINI checkout (%s is missing)" % needed, 2)
    dune = find_dune()
    if dune is None:
        fail("dune not found", 2)

    env = dict(os.environ)
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    # Keep every build artefact inside the checkout's _build.
    env["DUNE_CACHE"] = "disabled"
    code, out, err = run([dune, "build", "--root", ".", "./perfbench/main.exe"],
                         env, BUILD_TIMEOUT_S)
    if code != 0:
        sys.stderr.write(out + err)
        fail("build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rev", git_rev(), "--src-sha256", source_digest()]
    # The program stops starting operations after --seconds; the margin
    # covers set-up, the unmeasured repeats and the last operation.
    code, out, err = run(cmd, env, 3 * args.seconds + 60)
    sys.stderr.write(err)
    if code != 0:
        fail("benchmark exited with %d" % code)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
