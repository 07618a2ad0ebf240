#!/usr/bin/env python3
"""Run one lazyhb benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tree-sc --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Every call configures and builds
perfbench_driver (Release) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset; only the first call
compiles everything. Build output goes to stderr.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
environment (build type, compiler, nproc, commit, seed). The exit status
is 0 only when every cell passed the correctness gate.

--write-reference regenerates reference.json from the current build at the
reference seed, for every workload. See README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SOURCE_DIR = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
REFERENCE_SEED = 42
WORKLOADS = ("random-sc", "tree-sc", "tso")
# Set-up is a few milliseconds; probing it this many times before and as
# many after the measured campaigns, and reporting the median of all, keeps
# one slow process start, or one slow stretch of a shared host, from moving
# it.
SETUP_PROBES = 12
# A safety net well inside the 180 s one benchmark run may take.
DRIVER_TIMEOUT_S = 150


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "perfbench"


def build():
    """Configure and build the driver; returns its path or None."""
    out = build_dir()
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "--target", "perfbench_driver",
              "-j", str(os.cpu_count() or 1)]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build step failed:", " ".join(step))
            return None
    return out / "perfbench_driver"


def run_driver(driver, workload, seed, seconds, trace, reference=REFERENCE, extra=()):
    """Run the driver once; returns (exit code, parsed last stdout line or None)."""
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--reference", str(reference), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out:", " ".join(cmd))
        return 1, None
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def setup_samples(driver, workload, seed):
    """Probes of process start to the first cell's start, in seconds."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic_ns()
        code, line = run_driver(driver, workload, seed, 1, 0, extra=["--setup-probe"])
        if code != 0 or line is None:
            log("perfbench: set-up probe failed")
            return None
        samples.append((line["first_cell_monotonic_ns"] - start) * 1e-9)
    return samples


def commit():
    """The git commit of the checkout, or 'unknown' outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(SOURCE_DIR.parent))
    try:
        proc = subprocess.run(["git", "-C", str(SOURCE_DIR), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the library sources, naming the code without git."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "include", "src"):
        path = SOURCE_DIR / top
        files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
        for f in files:
            digest.update(str(f.relative_to(SOURCE_DIR)).encode())
            digest.update(f.read_bytes())
    return digest.hexdigest()[:16]


def write_reference(driver):
    doc = {"schema": "lazyhb-perfbench-reference", "version": 1,
           "seed": REFERENCE_SEED, "workloads": {}}
    out = build_dir()
    # Gate against an empty reference: every cell "fails" for want of
    # reference counts, but the counts are still written.
    empty = out / "empty-reference.json"
    empty.write_text(json.dumps(doc))
    for workload in WORKLOADS:
        counts = out / f"counts-{workload}.json"
        run_driver(driver, workload, REFERENCE_SEED, 1, 0, reference=empty,
                   extra=["--write-counts", str(counts)])
        block = json.loads(counts.read_text())
        doc["workloads"][workload] = {"schedule_limit": block["schedule_limit"],
                                      "cells": block["cells"]}
        log(f"perfbench: {workload}: {len(block['cells'])} cells")
    # One cell per line, so a changed count shows as a one-line diff.
    blocks = []
    for name, block in doc["workloads"].items():
        cells = ",\n".join(json.dumps(c, separators=(",", ":")) for c in block["cells"])
        blocks.append(f'"{name}": {{"schedule_limit": {block["schedule_limit"]}, '
                      f'"cells": [\n{cells}]}}')
    head = json.dumps({k: v for k, v in doc.items() if k != "workloads"})[:-1]
    REFERENCE.write_text(head + ', "workloads": {\n' + ",\n".join(blocks) + "}}\n")
    log(f"perfbench: wrote {REFERENCE}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")

    driver = build()
    if driver is None:
        return 1
    if args.write_reference:
        write_reference(driver)
        return 0

    probes = args.trace == 0
    before = setup_samples(driver, args.workload, args.seed) if probes else []
    if before is None:
        return 1
    code, result = run_driver(driver, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        log("perfbench: the driver printed no result")
        return 1
    after = setup_samples(driver, args.workload, args.seed) if probes else []
    if after is None:
        return 1

    metrics = dict(result["metrics"])
    if probes:
        metrics["setup_s"] = {"value": statistics.median(before + after), "unit": "s"}
    env = {key: result[key] for key in
           ("workload", "seed", "trace", "build_type", "compiler", "nproc",
            "snapshot_budget_bytes", "repetitions", "rep_walls_s", "digest_seeded",
            "digest_fixed")}
    env["commit"] = commit()
    env["source_digest"] = source_digest()
    print(json.dumps({"env": env}))
    correct = code == 0 and result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
