#!/usr/bin/env python3
"""Compare two lazyhb-bench-report JSONs.

The determinism contract of `lazyhb bench` is that every per-cell *count* is
a pure function of (corpus, explorer list, budget, seed) — independent of
--jobs, hardware and, crucially, of performance refactors. This tool is how
that contract is enforced: it exits non-zero if any count differs between
two reports, and reports the per-explorer eventsPerSecond deltas (geometric
mean over cells) so perf PRs have a standard scoreboard. Cells pair up by
(program, explorer); a paired cell whose `program_id` differs between the
two reports fails the comparison too, since the reports then number the
corpus differently.

Schema v3 reports additionally carry incremental-replay fields: per-cell
`events_elided` / `events_replayed` and `executed_events_per_second`. The
scoreboard then shows two views: `events_per_second` (logical exploration
throughput — what incremental replay improves) and
`executed_events_per_second` (per-executed-event hardware cost — immune to
elision inflating the numerator). For pre-v3 baselines the two coincide,
so both views stay comparable across schema versions.

Schema v4 reports carry intra-scenario parallelism: `config.workers` is
mandatory (a v4 report without it is rejected — a report must never hide
the parallelism it ran with), and parallel cells carry a `parallel` block.
The count contract is unchanged — counts are byte-identical at any
--workers, so a v4 candidate still count-compares against any older
baseline — and the scoreboard gains a `--workers` column so speedup rows
are attributed to the worker count that produced them.

Schema v5 reports come from resumable/shardable campaigns: cells may carry
`timed_out` / `error` / `attempts` / `from_checkpoint`, the config may carry
a `shard` block, and a report produced by `lazyhb merge` carries a top-level
`merge` provenance block. Timed-out and failed cells are *excluded* from the
count comparison (their counts are wall-clock-dependent prefixes, not
violations of the determinism contract) and noted instead; clean cells —
including checkpointed and merged ones — compare exactly as before. When a
`merge` block is present its provenance is validated structurally.

Schema v6 reports come from the undo-log checkpoint store: `config.snapshot_budget`
is mandatory (0 = unlimited; a v6 report without it is rejected — the byte
budget changes which checkpoints survive, so a report must never hide it),
and incremental cells carry a `checkpoint` block (stages, bytes_staged,
evictions, replay_fallbacks). Checkpoint stats are *scoreboard-only* and
never count-compared: under work-stealing at --workers > 1 the staging and
eviction order is timing-dependent even though the explored counts are not.

Schema v7 reports carry the observation-centric value classes: every
comparable cell has a `value_classes` count (a v7 report with a clean cell
missing it is rejected — the extended section-3 chain
#states <= #valueClasses <= #lazyHBRs <= #HBRs runs through it), and the
tool prints a compression scoreboard (schedules-per-state and the per-link
class compression) for reports that carry the field. `value_classes` is
count-compared only when both reports carry it, so a v7 candidate still
compares against a v6 or older baseline.

Schema v8 reports carry the memory model: `config.memory_model` is
mandatory ("sc" or "tso"; a v8 report without it is rejected — TSO adds
scheduler-visible flush transitions, so a report must never hide the model
it explored under), and TSO cells carry a `tso` block (flush_events,
fence_events, max_buffered_stores). Pre-v8 reports are implicitly "sc".
Comparing reports that ran under different memory models is a usage error —
their schedule spaces are different objects, so every scoreboard is labelled
with the (shared) memory model instead of mixing models in one table. Flush
and fence totals are part of the count contract (they are a pure function of
the explored schedule set); the buffer high-water mark is scoreboard-only.

Usage:
    tools/bench_diff.py BASELINE.json CANDIDATE.json [--counts-only]
                        [--allow-new-cells]
    tools/bench_diff.py --history REPORT.json [REPORT.json ...]

Either argument may be a plain lazyhb-bench-report or a BENCH_PR*.json
before/after wrapper ({"before": <report>, "after": <report>}); for a
wrapper the "after" report is used. --history prints the totals-level
events/s trajectory across the given reports (oldest first) — the
cross-PR perf history the nightly workflow appends to.

Exit status: 0 when all counts match, 1 on any count mismatch (or on cell
sets that do not line up), 2 on usage/schema errors.

The count lists below (COUNT_FIELDS, OPTIONAL_COUNT_FIELDS,
CACHE_COUNT_FIELDS, TSO_COUNT_FIELDS) must name exactly the Contract class
of campaign::forEachCount in src/campaign/report.hpp, the one list the
report codec and `lazyhb merge` walk. They stay spelled out here because
this tool also reads v1-v7 reports. CI's "Merge and bench_diff count
agreement" step checks that the two agree leaf by leaf.
"""

import argparse
import json
import math
import sys

# The per-cell fields that must be byte-identical between runs. Wall-clock
# fields (wall_seconds, *events_per_second) are deliberately absent, and so
# are events_elided / events_replayed: those are deterministic for a fixed
# configuration but legitimately differ between --incremental on and off
# runs of the same corpus, which must still count-compare as equal.
COUNT_FIELDS = [
    "schedules",
    "terminal",
    "pruned",
    "violations",
    "hbrs",
    "lazy_hbrs",
    "states",
    "events",
    "complete",
    "hit_schedule_limit",
]

# Schema v7 count field, compared only when both cells carry it (older
# baselines legitimately predate it).
OPTIONAL_COUNT_FIELDS = ["value_classes"]

# Cache counts are also deterministic, but only present for caching cells.
CACHE_COUNT_FIELDS = ["lookups", "hits", "insertions", "entries"]

# Schema versions this tool knows how to compare. v1/v2 reports lack the
# incremental-replay fields, v1-v3 lack the parallelism fields (both
# handled by the fallbacks below); any other version means the report
# format moved ahead of this tool, and guessing at unknown field semantics
# would silently corrupt the comparison.
KNOWN_SCHEMA_VERSIONS = (1, 2, 3, 4, 5, 6, 7, 8)

# Scoreboard-only checkpoint stats (schema v6). Deliberately NOT part of
# COUNT_FIELDS: staging/eviction order is timing-dependent under
# work-stealing, so these may differ between byte-identical explorations.
CHECKPOINT_FIELDS = ["stages", "bytes_staged", "evictions", "replay_fallbacks"]

# Schema v8 TSO store-buffer counts. Flush and fence totals are a pure
# function of the explored schedule set, so they count-compare; the buffer
# high-water mark is a per-worker maximum and stays scoreboard-only.
TSO_COUNT_FIELDS = ["flush_events", "fence_events"]


def load_report(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_diff: cannot read '{path}': {e}")
    if not isinstance(doc, dict):
        sys.exit(f"bench_diff: '{path}' is not a JSON object")
    if "after" in doc and "schema" not in doc:
        doc = doc["after"]  # BENCH_PR*.json before/after wrapper
        if not isinstance(doc, dict):
            sys.exit(f"bench_diff: '{path}' wraps a non-object \"after\" report")
    if doc.get("schema") != "lazyhb-bench-report":
        sys.exit(f"bench_diff: '{path}' is not a lazyhb-bench-report "
                 f"(schema={doc.get('schema')!r})")
    version = doc.get("version")
    if version not in KNOWN_SCHEMA_VERSIONS:
        known = ", ".join(str(v) for v in KNOWN_SCHEMA_VERSIONS)
        sys.exit(f"bench_diff: '{path}' carries schema version {version!r}, "
                 f"but this tool only understands versions {known}; "
                 f"update tools/bench_diff.py for the new schema "
                 f"(see docs/bench-report-schema.md)")
    if version >= 4 and "workers" not in doc.get("config", {}):
        sys.exit(f"bench_diff: '{path}' is a schema v{version} report but "
                 f"its config block has no 'workers' field; v4 made "
                 f"config.workers mandatory so a report cannot silently "
                 f"hide the intra-scenario parallelism it ran with — "
                 f"regenerate the report with a current `lazyhb bench`")
    if version >= 6 and "snapshot_budget" not in doc.get("config", {}):
        sys.exit(f"bench_diff: '{path}' is a schema v{version} report but "
                 f"its config block has no 'snapshot_budget' field; v6 made "
                 f"config.snapshot_budget mandatory so a report cannot "
                 f"silently hide the checkpoint byte budget it ran with — "
                 f"regenerate the report with a current `lazyhb bench`")
    if version >= 7:
        for cell in doc.get("cells", []):
            if cell.get("error"):
                continue  # a crashed cell's counts are zeroed placeholders
            if "value_classes" not in cell:
                sys.exit(f"bench_diff: '{path}' is a schema v{version} report "
                         f"but cell {cell.get('program')!r} x "
                         f"{cell.get('explorer')!r} has no 'value_classes' "
                         f"count; v7 made it mandatory so the extended "
                         f"section-3 chain can be checked on every cell — "
                         f"regenerate the report with a current `lazyhb bench`")
    if version >= 8 and "memory_model" not in doc.get("config", {}):
        sys.exit(f"bench_diff: '{path}' is a schema v{version} report but "
                 f"its config block has no 'memory_model' field; v8 made "
                 f"config.memory_model mandatory so a report cannot "
                 f"silently hide the memory model it explored under — "
                 f"regenerate the report with a current `lazyhb bench`")
    if "merge" in doc:
        validate_merge_provenance(doc, path)
    return doc


def report_memory_model(doc):
    """The memory model a report explored under; pre-v8 reports predate the
    memory-model subsystem and are sequentially consistent by construction."""
    return doc.get("config", {}).get("memory_model", "sc")


def validate_merge_provenance(doc, path):
    """Structural check of a `lazyhb merge` report's provenance block."""
    merge = doc["merge"]
    sources = merge.get("sources") if isinstance(merge, dict) else None
    if not isinstance(sources, list) or not sources:
        sys.exit(f"bench_diff: '{path}' has a merge block without a "
                 f"non-empty 'sources' list")
    for i, src in enumerate(sources):
        for field, kind in (("label", str), ("shard_index", int),
                            ("shard_count", int), ("cells", int)):
            if not isinstance(src.get(field), kind):
                sys.exit(f"bench_diff: '{path}' merge.sources[{i}] has a "
                         f"missing or mistyped '{field}' field")
        if not (0 <= src["shard_index"] < src["shard_count"]):
            sys.exit(f"bench_diff: '{path}' merge.sources[{i}] claims shard "
                     f"{src['shard_index']}/{src['shard_count']}")
    contributed = sum(src["cells"] for src in sources)
    if contributed < len(doc.get("cells", [])):
        sys.exit(f"bench_diff: '{path}' merge sources contributed "
                 f"{contributed} cell(s) but the report carries "
                 f"{len(doc['cells'])} — provenance cannot cover the report")


def cell_unstable(cell):
    """Why this cell's counts are not comparable, or None. A timed-out cell
    stopped at a wall-clock-dependent schedule boundary; a failed cell's
    counts are whatever the last crashing attempt reached."""
    if cell.get("error"):
        return "failed"
    if cell.get("timed_out"):
        return "timed_out"
    return None


def cell_workers(cell):
    """The worker count that actually explored this cell: the cell's
    parallel block when present (a budget-abort sequential fallback reports
    as 1), else 1 — pre-v4 reports and non-shardable v4 cells both ran
    sequentially."""
    par = cell.get("parallel")
    if par is not None:
        return 1 if par.get("fell_back_sequential") else par["workers"]
    return 1


def cell_key(cell):
    return (cell["program"], cell["explorer"])


def cell_counts(cell, optional_fields=()):
    counts = {f: cell[f] for f in COUNT_FIELDS}
    for f in optional_fields:
        counts[f] = cell[f]
    if "cache" in cell:
        counts["cache"] = {f: cell["cache"][f] for f in CACHE_COUNT_FIELDS}
    if "tso" in cell:
        counts["tso"] = {f: cell["tso"][f] for f in TSO_COUNT_FIELDS}
    return counts


def geomean(ratios):
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def cell_rate(cell, field):
    """A cell's events/s under `field`, falling back to events_per_second
    for pre-v3 reports (where executed == logical)."""
    return cell.get(field, cell.get("events_per_second", 0.0))


def rate_table(title, base_cells, cand_cells, shared, field):
    # Rows group by (explorer, baseline-workers -> candidate-workers) so a
    # speedup is always attributed to the worker count that produced it; a
    # uniformly-sequential comparison collapses to one row per explorer.
    by_row = {}
    for key in shared:
        a = cell_rate(base_cells[key], field)
        b = cell_rate(cand_cells[key], field)
        if a > 0 and b > 0:
            wa = cell_workers(base_cells[key])
            wb = cell_workers(cand_cells[key])
            workers = str(wa) if wa == wb else f"{wa}->{wb}"
            by_row.setdefault((key[1], workers), []).append(b / a)
    if not by_row:
        return
    print(f"\n{title} (candidate / baseline, geomean over cells):")
    print(f"  {'explorer':<14} {'--workers':>9}")
    all_ratios = []
    for explorer, workers in sorted(by_row):
        ratios = by_row[(explorer, workers)]
        all_ratios.extend(ratios)
        print(f"  {explorer:<14} {workers:>9}  {geomean(ratios):6.2f}x  "
              f"({len(ratios)} cells)")
    if all_ratios:
        print(f"  {'overall':<14} {'':>9}  {geomean(all_ratios):6.2f}x  "
              f"({len(all_ratios)} cells)")


def compression_table(label, cells, shared):
    """Schema v7 scoreboard: how hard each relation compresses the explored
    schedules, summed per explorer over the shared cells. The headline
    column is schedules-per-state — how many schedules the explorer ran for
    every distinct terminal state it reached (lower = less redundant work);
    the class columns walk the extended section-3 chain."""
    by_explorer = {}
    for key in shared:
        cell = cells[key]
        if "value_classes" not in cell:
            return  # pre-v7 report: no scoreboard
        agg = by_explorer.setdefault(key[1], dict.fromkeys(
            ("schedules", "terminal", "hbrs", "lazy_hbrs", "value_classes",
             "states"), 0))
        for field in agg:
            agg[field] += cell.get(field, 0)
    if not by_explorer:
        return
    print(f"\ncompression ({label}, summed over cells; "
          f"scheds/state = executed schedules per distinct terminal state):")
    print(f"  {'explorer':<14} {'schedules':>11} {'hbrs':>9} {'lazy':>9} "
          f"{'value':>9} {'states':>9} {'scheds/state':>13}")
    for explorer in sorted(by_explorer):
        agg = by_explorer[explorer]
        per_state = (agg["schedules"] / agg["states"]) if agg["states"] else 0.0
        print(f"  {explorer:<14} {agg['schedules']:>11} {agg['hbrs']:>9} "
              f"{agg['lazy_hbrs']:>9} {agg['value_classes']:>9} "
              f"{agg['states']:>9} {per_state:>13.2f}")


def checkpoint_table(base_cells, cand_cells, shared):
    """Scoreboard of v6 checkpoint-store stats, summed per explorer over the
    cells that carry a `checkpoint` block. Informational only: these numbers
    describe how much snapshot work the store did (and how often eviction
    forced a replay-from-shallower fallback), never whether counts match."""
    def collect(cells):
        by_explorer = {}
        for key in shared:
            cp = cells[key].get("checkpoint")
            if cp is None:
                continue
            agg = by_explorer.setdefault(
                key[1], dict.fromkeys(CHECKPOINT_FIELDS, 0))
            for field in CHECKPOINT_FIELDS:
                agg[field] += cp.get(field, 0)
        return by_explorer
    base = collect(base_cells)
    cand = collect(cand_cells)
    if not base and not cand:
        return
    print("\ncheckpoint store (baseline -> candidate, summed over cells):")
    print(f"  {'explorer':<14} {'stages':>18} {'bytes_staged':>26} "
          f"{'evictions':>16} {'replay_fallbacks':>18}")
    for explorer in sorted(base.keys() | cand.keys()):
        row = []
        for field in CHECKPOINT_FIELDS:
            a = base[explorer][field] if explorer in base else "-"
            b = cand[explorer][field] if explorer in cand else "-"
            row.append(f"{a} -> {b}")
        print(f"  {explorer:<14} {row[0]:>18} {row[1]:>26} "
              f"{row[2]:>16} {row[3]:>18}")


def tso_table(base_cells, cand_cells, shared):
    """Scoreboard of v8 TSO store-buffer activity, summed per explorer over
    the cells that carry a `tso` block (SC campaigns buffer nothing and emit
    none). Flush/fence totals also count-compare; the buffer high-water mark
    shown here is the informational part."""
    def collect(cells):
        by_explorer = {}
        for key in shared:
            tso = cells[key].get("tso")
            if tso is None:
                continue
            agg = by_explorer.setdefault(
                key[1], {"flush_events": 0, "fence_events": 0,
                         "max_buffered_stores": 0})
            agg["flush_events"] += tso.get("flush_events", 0)
            agg["fence_events"] += tso.get("fence_events", 0)
            agg["max_buffered_stores"] = max(agg["max_buffered_stores"],
                                             tso.get("max_buffered_stores", 0))
        return by_explorer
    base = collect(base_cells)
    cand = collect(cand_cells)
    if not base and not cand:
        return
    print("\ntso store buffers (baseline -> candidate, summed over cells; "
          "max_buffered is a high-water mark):")
    print(f"  {'explorer':<14} {'flush_events':>22} {'fence_events':>22} "
          f"{'max_buffered':>14}")
    for explorer in sorted(base.keys() | cand.keys()):
        row = []
        for field in ("flush_events", "fence_events", "max_buffered_stores"):
            a = base[explorer][field] if explorer in base else "-"
            b = cand[explorer][field] if explorer in cand else "-"
            row.append(f"{a} -> {b}")
        print(f"  {explorer:<14} {row[0]:>22} {row[1]:>22} {row[2]:>14}")


def print_history(paths):
    """Totals-level events/s trajectory across reports, oldest first."""
    print(f"{'report':<28} {'schedules':>12} {'events':>14} "
          f"{'elided%':>8} {'events/s':>12} {'exec-ev/s':>12}")
    for path in paths:
        doc = load_report(path)
        totals = doc["totals"]
        events = totals.get("events", 0)
        elided = totals.get("events_elided", 0)
        elided_pct = 100.0 * elided / events if events else 0.0
        eps = totals.get("events_per_second", 0.0)
        executed_eps = totals.get("executed_events_per_second", eps)
        print(f"{path:<28} {totals.get('schedules', 0):>12} {events:>14} "
              f"{elided_pct:>7.1f}% {eps:>12.0f} {executed_eps:>12.0f}")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="compare two lazyhb bench reports")
    parser.add_argument("reports", nargs="+",
                        help="BASELINE.json CANDIDATE.json, or with "
                             "--history any number of reports")
    parser.add_argument("--counts-only", action="store_true",
                        help="skip the eventsPerSecond delta table "
                             "(e.g. when the runs used different hardware)")
    parser.add_argument("--history", action="store_true",
                        help="print the totals events/s trajectory across "
                             "the given reports instead of diffing two")
    parser.add_argument("--allow-new-cells", action="store_true",
                        help="tolerate cells present only in the candidate "
                             "(for diffing against a baseline captured "
                             "before the corpus grew); cells MISSING from "
                             "the candidate stay fatal")
    args = parser.parse_args()

    if args.history:
        return print_history(args.reports)
    if len(args.reports) != 2:
        parser.error("expected exactly BASELINE.json and CANDIDATE.json")

    base = load_report(args.reports[0])
    cand = load_report(args.reports[1])

    # A TSO campaign explores a different schedule space than an SC one;
    # count-comparing across models would "fail" every cell for reasons that
    # have nothing to do with the determinism contract. Per-model scoreboards
    # stay split by construction: one diff, one model.
    base_model = report_memory_model(base)
    cand_model = report_memory_model(cand)
    if base_model != cand_model:
        sys.exit(f"bench_diff: memory-model mismatch: '{args.reports[0]}' "
                 f"ran under {base_model} but '{args.reports[1]}' under "
                 f"{cand_model}; reports are only comparable within one "
                 f"memory model")

    base_cells = {cell_key(c): c for c in base["cells"]}
    cand_cells = {cell_key(c): c for c in cand["cells"]}

    failed = False
    only_base = sorted(base_cells.keys() - cand_cells.keys())
    only_cand = sorted(cand_cells.keys() - base_cells.keys())
    for key in only_base:
        print(f"MISSING in candidate: {key[0]} x {key[1]}")
        failed = True
    for key in only_cand:
        if args.allow_new_cells:
            print(f"NEW in candidate (allowed): {key[0]} x {key[1]}")
        else:
            print(f"EXTRA in candidate:   {key[0]} x {key[1]}")
            failed = True

    # A cell names its program twice, by name and by id. Cells pair up by
    # name, so an id that changed means the two reports number the corpus
    # differently (or one cell is mislabelled): fail rather than compare.
    for key in sorted(base_cells.keys() & cand_cells.keys()):
        ids = (base_cells[key].get("program_id"),
               cand_cells[key].get("program_id"))
        if None not in ids and ids[0] != ids[1]:
            print(f"PROGRAM ID MISMATCH {key[0]} x {key[1]}: "
                  f"program_id {ids[0]} -> {ids[1]}")
            failed = True

    shared = []
    skipped = 0
    for key in sorted(base_cells.keys() & cand_cells.keys()):
        reasons = {r for r in (cell_unstable(base_cells[key]),
                               cell_unstable(cand_cells[key])) if r}
        if reasons:
            skipped += 1
            print(f"SKIPPED (not comparable): {key[0]} x {key[1]} "
                  f"[{', '.join(sorted(reasons))}]")
        else:
            shared.append(key)
    mismatches = 0
    for key in shared:
        optional = [f for f in OPTIONAL_COUNT_FIELDS
                    if f in base_cells[key] and f in cand_cells[key]]
        a = cell_counts(base_cells[key], optional)
        b = cell_counts(cand_cells[key], optional)
        if a != b:
            mismatches += 1
            failed = True
            diffs = {f: (a[f], b[f]) for f in a if f in b and a[f] != b[f]}
            print(f"COUNT MISMATCH {key[0]} x {key[1]}: "
                  + ", ".join(f"{f} {was} -> {now}"
                              for f, (was, now) in diffs.items()))

    print(f"counts: {len(shared)} cells compared under {cand_model}, "
          f"{mismatches} mismatch(es)"
          + (f", {skipped} timed-out/failed cell(s) skipped" if skipped else ""))

    if not args.counts_only and shared:
        rate_table(f"eventsPerSecond [{cand_model}]", base_cells, cand_cells,
                   shared, "events_per_second")
        rate_table(f"executedEventsPerSecond [{cand_model}]", base_cells,
                   cand_cells, shared, "executed_events_per_second")
        checkpoint_table(base_cells, cand_cells, shared)
        tso_table(base_cells, cand_cells, shared)
        compression_table(f"candidate, {cand_model}", cand_cells, shared)

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
