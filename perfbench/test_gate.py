#!/usr/bin/env python3
"""Check that the benchmark's correctness gate trips on a wrong count.

    python3 perfbench/test_gate.py

Run from the root of a source checkout; builds the driver as run.py does.
Runs the tso workload (the smallest) for one second at a time:

1. against reference.json at the reference seed: every cell passes;
2. against a copy in which one dfs cell's schedule count is off by one:
   exactly that cell fails, and the driver exits 1;
3. against a copy in which one random cell's count is off by one, at
   another seed: every cell passes, because random cells are checked
   against the reference only at the reference seed.

Exits 0 when all three hold.
"""

import json
import sys

import run


def altered_reference(explorer):
    """Copy of the reference with one `explorer` cell's schedules + 1."""
    doc = json.loads(run.REFERENCE.read_text())
    cell = next(c for c in doc["workloads"]["tso"]["cells"] if c["explorer"] == explorer)
    cell["counts"]["schedules"] += 1
    path = run.build_dir() / f"altered-{explorer}-reference.json"
    path.write_text(json.dumps(doc))
    return path, f"{cell['program']} x {explorer}"


def check(label, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {label}")
    return ok


def main():
    driver = run.build()
    if driver is None:
        return 1
    seed = run.REFERENCE_SEED
    results = []

    code, line = run.run_driver(driver, "tso", seed, 1, 0)
    results.append(check("unaltered reference: every cell passes",
                         code == 0 and line is not None and line["failed"] == 0))

    path, cell = altered_reference("dfs")
    code, line = run.run_driver(driver, "tso", seed, 1, 0, reference=path)
    tripped = (code == 1 and line is not None and line["failed"] == line["repetitions"] and
               all(f.startswith(cell + ": counts differ") for f in line["failures"]))
    results.append(check(f"altered {cell} schedules: that cell fails every repetition",
                         tripped))

    path, cell = altered_reference("random")
    code, line = run.run_driver(driver, "tso", seed + 1, 1, 0, reference=path)
    results.append(check(f"altered {cell} at another seed: invariants only, passes",
                         code == 0 and line is not None and line["failed"] == 0))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
