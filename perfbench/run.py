#!/usr/bin/env python3
"""Build the simulator's benchmark from source and run one workload.

    python3 perfbench/run.py --workload replay-eng --seed 61 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The benchmark is an OCaml executable (perfbench/bench.ml) built with dune
against the libraries under lib/.  This script builds it, runs it from the
repository root, and passes its output and exit code through: the last line
of standard output is the result object.  --self-test runs every workload of
BENCHMARK.json at a small size on its default and held-out seeds, in both
modes, and checks that every listed metric is emitted, finite and carries
its unit.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("the simulator sources (dune-project, lib/) are not beside the benchmark")
    # The shared dune cache lives outside the checkout; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
                           cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def revision():
    """The git revision, or a hash of the sources when not in a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha1()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(d, f)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return "src-sha1:" + h.hexdigest()[:16]


def run_bench(args, capture=False):
    cmd = [EXE] + args + ["--rev", revision()]
    if capture:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    return subprocess.run(cmd, cwd=ROOT)


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    modes = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    runs = 0
    for w in spec["workloads"]:
        for seed in ("default", "held-out"):
            for trace, listed in modes.items():
                args = ["--workload", w["name"], "--seed", seed, "--seconds", "1",
                        "--trace", str(trace), "--scale", "small"]
                r = run_bench(args, capture=True)
                runs += 1
                where = "%s seed=%s trace=%d" % (w["name"], seed, trace)
                lines = r.stdout.strip().splitlines()
                if r.returncode != 0 or not lines:
                    problems.append("%s: exit %d\n%s%s" % (where, r.returncode,
                                                          r.stdout[-2000:], r.stderr[-2000:]))
                    continue
                try:
                    result = json.loads(lines[-1])
                except ValueError:
                    problems.append("%s: last line is not JSON" % where)
                    continue
                if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append("%s: result keys %s" % (where, sorted(result)))
                    continue
                if result["correct"] is not True or result["attempted"] < 1 \
                        or result["failed"] != 0:
                    problems.append("%s: correct=%s attempted=%s failed=%s" % (
                        where, result["correct"], result["attempted"], result["failed"]))
                got = result["metrics"]
                if sorted(got) != sorted(m["name"] for m in listed):
                    problems.append("%s: metric names differ from BENCHMARK.json" % where)
                for m in listed:
                    v = got.get(m["name"])
                    if not isinstance(v, dict) or v.get("unit") != m["unit"]:
                        problems.append("%s: %s missing or wrong unit" % (where, m["name"]))
                    elif not isinstance(v.get("value"), (int, float)) \
                            or not math.isfinite(v["value"]):
                        problems.append("%s: %s is not a finite number" % (where, m["name"]))
                    elif trace == 0 and v["value"] == 0:
                        problems.append("%s: %s reads 0" % (where, m["name"]))
    r = run_bench(["--workload", "no-such-workload"], capture=True)
    runs += 1
    if r.returncode == 0:
        problems.append("an unknown workload exited 0")
    for p in problems:
        print("SELF-TEST FAILED: " + p)
    print("self-test: %d runs, %d problems" % (runs, len(problems)))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", default="default")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--scale", default="full", choices=["full", "small"])
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    build()
    if a.self_test:
        sys.exit(self_test())
    if not a.workload:
        ap.error("--workload is required")
    r = run_bench(["--workload", a.workload, "--seed", a.seed, "--seconds", a.seconds,
                   "--trace", a.trace, "--scale", a.scale])
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
