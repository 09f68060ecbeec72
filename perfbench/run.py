#!/usr/bin/env python3
"""Build the OraP benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke     # toy-size run of every workload and trace mode
    python3 perfbench/run.py --record    # re-record the table reference rows

Workloads: attack-proof, attack-dip-loop, table1, table2 (see BENCHMARK.json).
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records provenance
(cores, nproc, OCaml version, source revision, seed, jobs).  The table
grids run on 2 workers; the benchmark refuses them on fewer usable cores.

End-to-end times are scaled to a reference host's speed: the benchmark
times a fixed piece of work that uses none of the library around every
set-up series and every item, so a run that lands while other tenants of a
shared host slow it down reports what it would have on the reference host
(see perfbench/calib.ml).  Per-layer times are raw.

The executable is built with dune into .bench_build/ at the repository root,
with dune's shared cache disabled, so a run writes nothing outside the
repository.  --smoke checks that every metric named in BENCHMARK.json is
printed with its unit, for every workload, at toy sizes.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: the benchmark builds the library from "
                 "the repository's sources")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache=disabled", "--display", "quiet",
           "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail("build failed")


def source_revision():
    """The git commit when ROOT is a work tree, else a digest of the sources."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run_bench(args):
    try:
        return subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S}s", 3)


def common_args():
    return ["--nproc", str(len(os.sched_getaffinity(0))),
            "--commit", source_revision(),
            "--reference-dir", os.path.join(HERE, "reference"),
            "--counts-dir", os.path.join(ROOT, BUILD_DIR, "counts")]


def last_result(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def smoke():
    """Toy-size run of every workload in both trace modes; checks that the
    printed metrics are exactly those of BENCHMARK.json, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            where = f"{w['name']} --trace {trace}"
            r = run_bench(["--workload", w["name"], "--seed", "1",
                           "--seconds", "1", "--trace", str(trace), "--toy"]
                          + common_args())
            res = last_result(r.stdout) if r.returncode == 0 else None
            if res is None or set(res) != RESULT_KEYS:
                problems.append(f"{where}: no result line (exit {r.returncode})")
                continue
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            for name, unit in expected[trace].items():
                if name not in got:
                    problems.append(f"{where}: metric {name} missing")
                elif got[name] != unit:
                    problems.append(f"{where}: {name} in {got[name]}, not {unit}")
            for name in sorted(set(got) - set(expected[trace])):
                problems.append(f"{where}: metric {name} not in BENCHMARK.json")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{where}: correct={res['correct']} "
                                f"attempted={res['attempted']} failed={res['failed']}")
            print(f"smoke: {where}: {len(got)} metrics, "
                  f"attempted {res['attempted']}, correct {res['correct']}")
    for p in problems:
        print(f"smoke: FAIL {p}")
    if problems:
        sys.exit(1)
    print("smoke: OK")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--record", action="store_true")
    a = p.parse_args()
    if not (a.smoke or a.record or a.workload):
        p.error("--workload is required")
    build()
    if a.smoke:
        smoke()
        return
    if a.record:
        r = subprocess.run([EXE, "--record"] + common_args(), cwd=ROOT)
        sys.exit(r.returncode)
    r = run_bench(["--workload", a.workload, "--seed", str(a.seed),
                   "--seconds", str(a.seconds), "--trace", str(a.trace)]
                  + common_args())
    if r.returncode != 0:
        fail(f"benchmark exited with {r.returncode}", r.returncode)
    sys.stdout.write(r.stdout)


if __name__ == "__main__":
    main()
