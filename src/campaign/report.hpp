// lazyhb/campaign/report.hpp
//
// The versioned, machine-readable campaign report (BENCH_*.json). The
// schema is documented in docs/bench-report-schema.md; bump
// kReportSchemaVersion on any field change a consumer could observe.
// Writing goes through support::JsonWriter, reading through
// support::JsonValue — no third-party JSON dependency.
//
// The per-cell block serializers are exposed because three producers must
// agree byte-for-byte on the cell encoding: the report writer, the campaign
// journal (campaign/checkpoint.hpp stores one cell block per file), and the
// report merger (campaign/merge.hpp re-reads cell blocks from inputs).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"

namespace lazyhb::support {
class JsonWriter;
struct JsonValue;
}  // namespace lazyhb::support

namespace lazyhb::campaign {

inline constexpr const char* kReportSchemaName = "lazyhb-bench-report";
inline constexpr int kReportSchemaVersion = 9;

/// The campaign configuration echoed into the report, so a BENCH_*.json is
/// self-describing and two reports are comparable at a glance.
struct ReportConfig {
  std::uint64_t scheduleLimit = 0;
  std::uint32_t maxEventsPerSchedule = 0;
  std::uint64_t seed = 0;
  bool quick = false;
  bool incremental = true;  ///< --incremental toggle the campaign ran with
  /// Intra-scenario worker threads per cell: always 1, since every cell is
  /// explored on one thread. Echoed because a v4+ config block must carry
  /// it (tools/bench_diff.py rejects such reports without it) and reports
  /// from builds that sharded cells across threads carry other values.
  int workers = 1;
  /// Snapshot byte budget per cell (--snapshot-budget, 0 = unlimited).
  /// Mandatory in a v6 config block: a budget small enough to force
  /// evictions changes wall time, so two reports are only comparable with
  /// it in view.
  std::uint64_t snapshotBudgetBytes = 0;
  /// Memory model every cell ran under ("sc" or "tso"). Mandatory in a v8
  /// config block: two reports are only count-comparable under the same
  /// model, so bench_diff refuses v8 reports without it.
  std::string memoryModel = "sc";
  /// Whether every terminal schedule fed the Theorem 2.1/2.2 and value
  /// soundness checkers (--theorems). Mandatory in a v9 config block: only
  /// such cells carry the "theorems" conflict block.
  bool checkTheorems = false;
  /// Which slice of the cell matrix this report covers (schema v5): the
  /// cells with index % shardCount == shardIndex. The config block carries
  /// a "shard" object only when shardCount > 1 — an unsharded report is
  /// byte-compatible with a v4 consumer that ignores the version.
  int shardIndex = 0;
  int shardCount = 1;
};

/// The config block of a campaign run with `options`: every field echoed
/// from what the cells actually ran under (quick is the one caller-side
/// label left at false). The CLI bench, Suite and the campaign journal all
/// build their config through this.
[[nodiscard]] ReportConfig makeReportConfig(const CampaignOptions& options);

/// The campaign identity: every ReportConfig field that can change a cell's
/// counts, as (key, member) pairs. Calls `visit(key, config.member...)` once
/// per field, passing that member of each of `configs`, in the key order
/// the journal manifest pins. The report's config block, the journal
/// manifest, and the merger's reader and compatibility check all walk this
/// one list, so a new count-relevant knob is added here and nowhere else.
template <typename Visit, typename... Configs>
void forEachIdentityField(Visit&& visit, Configs&... configs) {
  visit("limit", configs.scheduleLimit...);
  visit("max_events", configs.maxEventsPerSchedule...);
  visit("seed", configs.seed...);
  visit("incremental", configs.incremental...);
  visit("workers", configs.workers...);
  visit("snapshot_budget", configs.snapshotBudgetBytes...);
  visit("memory_model", configs.memoryModel...);
  visit("check_theorems", configs.checkTheorems...);
}

/// Write the identity fields of `config` into the open JSON object.
void writeIdentityFields(support::JsonWriter& json, const ReportConfig& config);

/// Where a count sits in a report cell: at the top level, or in a block
/// written only when the cache ran, checkpointing ran, (tso) any of its
/// counts is nonzero, or (theorems) the theorem checkers saw a terminal
/// schedule, so SC cells at the default flags keep their v7 encoding.
enum class CountGroup : std::uint8_t { Top, Cache, Checkpoint, Tso, Theorems };

/// Which comparisons a count must survive; a comparison covers one class
/// and every class before it.
enum class CountClass : std::uint8_t {
  Contract,       ///< equal under any --jobs, --incremental or budget (bench_diff)
  Configuration,  ///< fixed by one configuration (merge, not bench_diff)
  Scoreboard,     ///< performance diagnostics that nothing compares
};

/// One entry of the count list.
struct Count {
  const char* key;  ///< the report key within its group
  CountGroup group;
  CountClass kind;

  /// The report key qualified by its block ("cache.hits", "schedules").
  [[nodiscard]] std::string name() const;
};

/// The JSON key of a count block ("cache", "checkpoint", "tso", "theorems").
[[nodiscard]] const char* countGroupKey(CountGroup group);

/// The exploration counts of a report cell, declared once. Calls
/// `visit(count, results.member...)` once per count, passing that member of
/// each of `results`, in the v9 cell key order. The report codec, merge's
/// conflict check, the per-explorer totals and the determinism tests all
/// walk this list, so a new count is one line here (plus, for a Contract
/// count, the matching lists in tools/bench_diff.py).
template <typename Visit, typename... Results>
void forEachCount(Visit&& visit, Results&... results) {
  using enum CountGroup;
  using enum CountClass;
  visit(Count{"schedules", Top, Contract}, results.schedulesExecuted...);
  visit(Count{"terminal", Top, Contract}, results.terminalSchedules...);
  visit(Count{"pruned", Top, Contract}, results.prunedSchedules...);
  visit(Count{"violations", Top, Contract}, results.violationSchedules...);
  visit(Count{"hbrs", Top, Contract}, results.distinctHbrs...);
  visit(Count{"lazy_hbrs", Top, Contract}, results.distinctLazyHbrs...);
  visit(Count{"value_classes", Top, Contract}, results.distinctValueClasses...);
  visit(Count{"states", Top, Contract}, results.distinctStates...);
  visit(Count{"events", Top, Contract}, results.totalEvents...);
  visit(Count{"events_elided", Top, Configuration}, results.eventsElided...);
  visit(Count{"events_replayed", Top, Configuration}, results.eventsReplayed...);
  visit(Count{"complete", Top, Contract}, results.complete...);
  visit(Count{"hit_schedule_limit", Top, Contract}, results.hitScheduleLimit...);
  visit(Count{"lookups", Cache, Contract}, results.cacheStats.lookups...);
  visit(Count{"hits", Cache, Contract}, results.cacheStats.hits...);
  visit(Count{"insertions", Cache, Contract}, results.cacheStats.insertions...);
  visit(Count{"entries", Cache, Contract}, results.cacheStats.entries...);
  visit(Count{"approx_bytes", Cache, Scoreboard}, results.cacheStats.approxBytes...);
  visit(Count{"stages", Checkpoint, Scoreboard}, results.checkpointStats.stages...);
  visit(Count{"bytes_staged", Checkpoint, Scoreboard},
        results.checkpointStats.bytesStaged...);
  visit(Count{"evictions", Checkpoint, Scoreboard}, results.checkpointStats.evictions...);
  visit(Count{"replay_fallbacks", Checkpoint, Scoreboard},
        results.checkpointStats.replayFallbacks...);
  visit(Count{"flush_events", Tso, Contract}, results.flushEvents...);
  visit(Count{"fence_events", Tso, Contract}, results.fenceEvents...);
  visit(Count{"max_buffered_stores", Tso, Scoreboard}, results.maxBufferedStores...);
  // The checkers' schedules, classes and states are not listed: with the
  // checkers on they equal terminal, hbrs/lazy_hbrs/value_classes and
  // states, and parseCellJson restores them from those.
  visit(Count{"theorem_21_conflicts", Theorems, Contract},
        results.theorem21.conflicts...);
  visit(Count{"theorem_22_conflicts", Theorems, Contract},
        results.theorem22.conflicts...);
  visit(Count{"theorem_value_conflicts", Theorems, Contract},
        results.theoremValue.conflicts...);
}

/// Where a merged report's cells came from: one entry per (transitively)
/// merged input. Emitted as the top-level "merge" block; absent from
/// directly-run reports.
struct MergeSource {
  std::string label;        ///< input filename (or caller-supplied label)
  int shardIndex = 0;       ///< the input's config.shard, 0/1 when unsharded
  int shardCount = 1;
  std::uint64_t cells = 0;  ///< cells the input contributed
};

struct MergeProvenance {
  std::vector<MergeSource> sources;
};

/// Serialize one matrix cell as the schema's cell object. The exact
/// encoding shared by the report's "cells" array and the campaign journal's
/// per-cell files.
void writeCellJson(support::JsonWriter& json, const CellResult& cell);

/// Parse a cell object written by writeCellJson back into a CellResult.
/// Returns false (and sets *error, naming the key) on a malformed block, or
/// one that lacks a key the writer always writes or a count of a block it
/// carries. A cell with a "theorems" block gets its checkers' schedules,
/// classes and states back from its own counts. Fields the report does not
/// carry (violation reproducers, race reports) come back at their defaults
/// — the journal and the merger only ever need the report-visible
/// projection.
[[nodiscard]] bool parseCellJson(const support::JsonValue& value,
                                 CellResult* cell, std::string* error);

/// Serialize the campaign into the versioned report JSON (a full document,
/// newline-terminated). `provenance`, when non-null and non-empty, becomes
/// the top-level "merge" block.
[[nodiscard]] std::string writeReportJson(
    const CampaignResult& result, const ReportConfig& config,
    const MergeProvenance* provenance = nullptr);

/// Write a report document to `path` ("-" means stdout). Returns false
/// (with a message on stderr) when the file cannot be written. A plain
/// write: the campaign journal keeps its own atomic tmp + fsync + rename.
bool writeDocument(const std::string& path, const std::string& document);

/// The whole content of the file at `path`. Throws std::runtime_error
/// naming the path when it cannot be read.
[[nodiscard]] std::string readDocument(const std::string& path);

}  // namespace lazyhb::campaign
