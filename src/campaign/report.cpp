#include "campaign/report.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "memory/memory_model.hpp"
#include "support/json_reader.hpp"
#include "support/json_writer.hpp"

namespace lazyhb::campaign {
namespace {

void writeProgram(support::JsonWriter& json, const ProgramSummary& program) {
  json.beginObject();
  json.field("id", program.id);
  json.field("program", program.program);
  json.field("family", program.family);
  json.field("inequality_holds", program.inequalityHolds);
  if (program.hasDpor) {
    json.key("dpor").beginObject();
    json.field("hbrs", program.dporHbrs);
    json.field("lazy_hbrs", program.dporLazyHbrs);
    json.field("redundant_hbr_percent", program.redundantHbrPercent);
    json.field("below_diagonal", program.belowDiagonal);
    json.endObject();
  }
  if (program.hasCachingPair) {
    json.key("caching").beginObject();
    json.field("lazy_hbrs_by_full_caching", program.lazyHbrsByFullCaching);
    json.field("lazy_hbrs_by_lazy_caching", program.lazyHbrsByLazyCaching);
    json.field("differs", program.cachingDiffers);
    json.endObject();
  }
  if (program.hasDfsBaseline) {
    json.key("dfs_baseline").beginObject();
    json.field("schedules", program.dfsSchedules);
    json.field("dpor_schedule_ratio", program.dporScheduleRatio);
    json.field("caching_lazy_schedule_ratio", program.cachingLazyScheduleRatio);
    json.endObject();
  }
  json.endObject();
}

void writeExplorerTotals(support::JsonWriter& json, const ExplorerTotals& t) {
  const explore::ExplorationResult& sum = t.stats;
  json.beginObject();
  json.field("explorer", t.explorer);
  json.field("cells", t.cells);
  json.field("schedules", sum.schedulesExecuted);
  json.field("terminal", sum.terminalSchedules);
  json.field("pruned", sum.prunedSchedules);
  json.field("violations", sum.violationSchedules);
  json.field("events", sum.totalEvents);
  json.field("events_elided", sum.eventsElided);
  json.field("events_replayed", sum.eventsReplayed);
  json.field("hbrs", sum.distinctHbrs);
  json.field("lazy_hbrs", sum.distinctLazyHbrs);
  json.field("value_classes", sum.distinctValueClasses);
  json.field("states", sum.distinctStates);
  json.field("wall_seconds", t.wallSeconds);
  json.field("events_per_second", t.eventsPerSecond);
  json.field("executed_events_per_second", t.executedEventsPerSecond);
  json.field("cache_entries", sum.cacheStats.entries);
  json.field("cache_hits", sum.cacheStats.hits);
  json.field("cache_approx_bytes", sum.cacheStats.approxBytes);
  json.field("checkpoint_stages", sum.checkpointStats.stages);
  json.field("checkpoint_bytes_staged", sum.checkpointStats.bytesStaged);
  json.field("checkpoint_evictions", sum.checkpointStats.evictions);
  json.field("checkpoint_replay_fallbacks", sum.checkpointStats.replayFallbacks);
  json.field("inequality_violations",
             static_cast<std::int64_t>(t.inequalityViolations));
  json.endObject();
}

/// Whether a cell carries the counts of `group` (the top level always does).
bool groupPresent(const explore::ExplorationResult& stats, CountGroup group) {
  switch (group) {
    case CountGroup::Top: return true;
    case CountGroup::Cache: return stats.cacheStats.enabled;
    case CountGroup::Checkpoint: return stats.checkpointStats.enabled;
    case CountGroup::Tso: break;
    case CountGroup::Theorems:
      if (stats.theorem21.schedules != 0) return true;  // the checkers ran
      break;
  }
  bool nonzero = false;
  forEachCount(
      [&](const Count& count, const auto& value) {
        nonzero = nonzero || (count.group == group && value != 0);
      },
      stats);
  return nonzero;
}

void writeCounts(support::JsonWriter& json, const explore::ExplorationResult& stats,
                 CountGroup group) {
  forEachCount(
      [&](const Count& count, const auto& value) {
        if (count.group == group) json.field(count.key, value);
      },
      stats);
}

}  // namespace

std::string Count::name() const {
  return group == CountGroup::Top ? std::string(key)
                                  : std::string(countGroupKey(group)) + "." + key;
}

const char* countGroupKey(CountGroup group) {
  switch (group) {
    case CountGroup::Top: return "";
    case CountGroup::Cache: return "cache";
    case CountGroup::Checkpoint: return "checkpoint";
    case CountGroup::Tso: return "tso";
    case CountGroup::Theorems: return "theorems";
  }
  return "";
}

void writeCellJson(support::JsonWriter& json, const CellResult& cell) {
  json.beginObject();
  json.field("program_id", cell.programId);
  json.field("program", cell.program);
  json.field("family", cell.family);
  json.field("explorer", cell.explorer);
  writeCounts(json, cell.stats, CountGroup::Top);
  json.field("wall_seconds", cell.wallSeconds);
  json.field("events_per_second", cell.eventsPerSecond);
  json.field("executed_events_per_second", cell.executedEventsPerSecond);
  json.key("inequality").beginObject();
  json.field("holds", cell.inequalityHolds());
  json.field("diagnostic", cell.inequalityDiagnostic);
  json.endObject();
  // Schema v5 supervisor provenance — emitted only off the defaults, so a
  // clean unsharded campaign's cell blocks are byte-identical to v4 ones.
  if (cell.timedOut) json.field("timed_out", true);
  if (cell.attempts > 1) json.field("attempts", static_cast<std::int64_t>(cell.attempts));
  if (cell.failed()) json.field("error", cell.error);
  if (cell.fromCheckpoint) json.field("from_checkpoint", true);
  for (const CountGroup group : {CountGroup::Cache, CountGroup::Checkpoint,
                                 CountGroup::Tso, CountGroup::Theorems}) {
    if (!groupPresent(cell.stats, group)) continue;
    json.key(countGroupKey(group)).beginObject();
    writeCounts(json, cell.stats, group);
    json.endObject();
  }
  json.endObject();
}

bool parseCellJson(const support::JsonValue& value, CellResult* cell,
                   std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (!value.isObject()) return fail("cell is not an object");
  for (const char* key :
       {"program_id", "program", "family", "explorer", "wall_seconds",
        "events_per_second", "executed_events_per_second", "inequality"}) {
    if (!value.has(key)) {
      return fail(std::string("cell is missing '") + key + "'");
    }
  }

  *cell = CellResult{};
  cell->programId = static_cast<int>(value.intAt("program_id"));
  cell->program = value.stringAt("program");
  cell->family = value.stringAt("family");
  cell->explorer = value.stringAt("explorer");
  if (cell->program.empty() || cell->explorer.empty()) {
    return fail("cell has an empty program or explorer name");
  }
  // Every count of a present group is required: a count read as 0 from a
  // key that is not there would be written back out as a real 0.
  std::string missing;
  forEachCount(
      [&](const Count& count, auto& member) {
        const support::JsonValue* block = count.group == CountGroup::Top
                                              ? &value
                                              : value.find(countGroupKey(count.group));
        if (block == nullptr || !missing.empty()) return;
        if (const support::JsonValue* field = block->find(count.key)) {
          field->readInto(member);
        } else {
          missing = count.name();
        }
      },
      cell->stats);
  if (!missing.empty()) return fail("cell is missing '" + missing + "'");
  cell->stats.cacheStats.enabled = value.has("cache");
  cell->stats.checkpointStats.enabled = value.has("checkpoint");
  if (value.has("theorems")) {
    explore::ExplorationResult& stats = cell->stats;
    const auto restore = [&](core::EquivalenceChecker::Stats& checker,
                             std::uint64_t classes) {
      checker.schedules = stats.terminalSchedules;
      checker.classes = classes;
      checker.states = stats.distinctStates;
    };
    restore(stats.theorem21, stats.distinctHbrs);
    restore(stats.theorem22, stats.distinctLazyHbrs);
    restore(stats.theoremValue, stats.distinctValueClasses);
  }
  cell->wallSeconds = value.doubleAt("wall_seconds");
  cell->eventsPerSecond = value.doubleAt("events_per_second");
  cell->executedEventsPerSecond = value.doubleAt("executed_events_per_second");
  cell->inequalityDiagnostic = value.find("inequality")->stringAt("diagnostic");
  cell->timedOut = value.boolAt("timed_out");
  cell->stats.timedOut = cell->timedOut;
  cell->attempts = static_cast<int>(value.intAt("attempts", 1));
  cell->error = value.stringAt("error");
  cell->fromCheckpoint = value.boolAt("from_checkpoint");
  return true;
}

std::string writeReportJson(const CampaignResult& result,
                            const ReportConfig& config,
                            const MergeProvenance* provenance) {
  support::JsonWriter json;
  json.beginObject();
  json.field("schema", kReportSchemaName);
  json.field("version", kReportSchemaVersion);

  json.key("config").beginObject();
  writeIdentityFields(json, config);
  json.field("jobs", result.jobs);
  json.field("quick", config.quick);
  if (config.shardCount > 1) {
    json.key("shard").beginObject();
    json.field("index", static_cast<std::int64_t>(config.shardIndex));
    json.field("count", static_cast<std::int64_t>(config.shardCount));
    json.endObject();
  }
  json.key("explorers").beginArray();
  for (const ExplorerTotals& totals : result.perExplorer) {
    json.value(totals.explorer);
  }
  json.endArray();
  json.field("program_count", static_cast<std::uint64_t>(result.programs.size()));
  json.endObject();

  if (provenance != nullptr && !provenance->sources.empty()) {
    json.key("merge").beginObject();
    json.key("sources").beginArray();
    for (const MergeSource& source : provenance->sources) {
      json.beginObject();
      json.field("label", source.label);
      json.field("shard_index", static_cast<std::int64_t>(source.shardIndex));
      json.field("shard_count", static_cast<std::int64_t>(source.shardCount));
      json.field("cells", source.cells);
      json.endObject();
    }
    json.endArray();
    json.endObject();
  }

  json.key("totals").beginObject();
  json.field("cells", static_cast<std::uint64_t>(result.cells.size()));
  json.field("schedules", result.totalSchedules);
  json.field("events", result.totalEvents);
  json.field("events_elided", result.totalEventsElided);
  json.field("events_replayed", result.totalEventsReplayed);
  json.field("wall_seconds", result.wallSeconds);
  json.field("cpu_seconds", result.cpuSeconds);
  json.field("events_per_second", result.eventsPerSecond);
  json.field("executed_events_per_second", result.executedEventsPerSecond);
  json.field("inequality_violations",
             static_cast<std::int64_t>(result.inequalityViolations));
  // Schema v5 supervisor/durability tallies, off-default only.
  if (result.cellsTimedOut > 0) {
    json.field("cells_timed_out", static_cast<std::int64_t>(result.cellsTimedOut));
  }
  if (result.cellsFailed > 0) {
    json.field("cells_failed", static_cast<std::int64_t>(result.cellsFailed));
  }
  if (result.cellsRetried > 0) {
    json.field("cells_retried", static_cast<std::int64_t>(result.cellsRetried));
  }
  if (result.cellsFromCheckpoint > 0) {
    json.field("cells_from_checkpoint",
               static_cast<std::uint64_t>(result.cellsFromCheckpoint));
  }
  json.key("per_explorer").beginArray();
  for (const ExplorerTotals& totals : result.perExplorer) {
    writeExplorerTotals(json, totals);
  }
  json.endArray();
  json.endObject();

  json.key("programs").beginArray();
  for (const ProgramSummary& program : result.programs) {
    writeProgram(json, program);
  }
  json.endArray();

  json.key("cells").beginArray();
  for (const CellResult& cell : result.cells) {
    writeCellJson(json, cell);
  }
  json.endArray();

  json.endObject();
  return json.str() + "\n";
}

void writeIdentityFields(support::JsonWriter& json, const ReportConfig& config) {
  forEachIdentityField(
      [&json](const char* key, const auto& value) { json.field(key, value); },
      config);
}

ReportConfig makeReportConfig(const CampaignOptions& options) {
  ReportConfig config;
  config.scheduleLimit = options.explorer.scheduleLimit;
  config.maxEventsPerSchedule = options.explorer.maxEventsPerSchedule;
  config.seed = options.seed;
  config.incremental = options.explorer.incremental;
  config.workers = options.explorer.workers;
  config.snapshotBudgetBytes = options.explorer.snapshotBudgetBytes;
  config.memoryModel = memory::memoryModelName(options.explorer.memoryModel);
  config.checkTheorems = options.explorer.checkTheorems;
  config.shardIndex = options.shardIndex;
  config.shardCount = options.shardCount;
  return config;
}

bool writeDocument(const std::string& path, const std::string& document) {
  if (path == "-") {
    std::fputs(document.c_str(), stdout);
    return true;
  }
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "lazyhb: cannot write report to '%s'\n", path.c_str());
    return false;
  }
  bool ok =
      std::fwrite(document.data(), 1, document.size(), file) == document.size();
  // fclose flushes the stdio buffer; a full disk surfaces here, not in fwrite.
  ok = (std::fclose(file) == 0) && ok;
  if (!ok) {
    std::fprintf(stderr, "lazyhb: short write to '%s'\n", path.c_str());
  }
  return ok;
}

std::string readDocument(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    throw std::runtime_error("lazyhb: cannot read '" + path +
                             "': " + std::strerror(errno));
  }
  std::string content;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    content.append(buffer, got);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) throw std::runtime_error("lazyhb: read error on '" + path + "'");
  return content;
}

}  // namespace lazyhb::campaign
