#!/usr/bin/env python3
"""Rerun every workload at a second seed and show which counts it moves.

    python3 perfbench/second_seed.py --seed 20261017

A performance claim must also hold on a seed that was not used while the
change was written. Pick a fresh --seed for each claim and measure both
commits with `run.py --seed <it>`. This script checks that the seed does
what the benchmark says it does: it runs each workload for one second at
the reference seed and at --seed, passes both through the correctness gate,
and compares the count digests the driver reports:

* the cells of random walks (random-sc, and the random cells of tso) must
  change with the seed;
* every other cell (tree-sc, the tree cells of tso) must not.

Run from the root of a source checkout. Exits 0 when all of this holds.
"""

import argparse
import sys

import run


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    if args.seed == run.REFERENCE_SEED:
        parser.error(f"--seed must differ from the reference seed {run.REFERENCE_SEED}")

    driver = run.build()
    if driver is None:
        return 1
    ok = True
    print(f"{'workload':<12} {'gate':<6} {'random cells':<22} {'other cells':<22}")
    for workload in run.WORKLOADS:
        lines = []
        for seed in (run.REFERENCE_SEED, args.seed):
            code, line = run.run_driver(driver, workload, seed, 1, 0)
            if code != 0 or line is None:
                ok = False
            lines.append(line or {})
        ref, other = lines
        has_random = workload in ("random-sc", "tso")
        has_tree = workload != "random-sc"
        seeded_moved = ref.get("digest_seeded") != other.get("digest_seeded")
        fixed_moved = ref.get("digest_fixed") != other.get("digest_fixed")
        gate = "ok" if all(l.get("failed") == 0 for l in lines) else "FAILED"
        row_ok = (gate == "ok" and seeded_moved == has_random and
                  (not fixed_moved or not has_tree))
        ok = ok and row_ok
        print(f"{workload:<12} {gate:<6} "
              f"{('changed' if seeded_moved else 'unchanged') if has_random else 'none':<22} "
              f"{('changed' if fixed_moved else 'unchanged') if has_tree else 'none':<22}"
              f"{'' if row_ok else '  <- unexpected'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
