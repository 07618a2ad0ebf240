#include <stdexcept>

#include "campaign/explorer_spec.hpp"
#include "perfbench.hpp"
#include "programs/registry.hpp"

namespace perfbench {

using lazyhb::memory::MemoryModel;

// Budgets are sized so one campaign takes about one to two seconds on a
// 4-CPU host, which lets a run repeat it often enough that each cell's
// fastest repetition is steady.
// The tree budget bites on the largest programs (about one cell in seven)
// while the rest complete, so both regimes are measured.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      // Fresh Execution::run plus full recording per schedule; no cache,
      // no rollback. Loads runtime set-up and trace recording the most.
      {"random-sc", {"random"}, {}, MemoryModel::Sc, 2000},
      // Rollback/resume, cache probes, suffix-only recording and DPOR
      // control, over both replay tiers (checkpointable programs and the
      // heap-using buggy family).
      {"tree-sc",
       {"dfs", "dpor", "caching-full", "caching-lazy", "caching-value"},
       {},
       MemoryModel::Sc,
       5000},
      // Store buffers, flush picks and buffer undo logs under TSO.
      {"tso",
       {"dfs", "random", "dpor", "caching-full", "caching-lazy", "caching-value"},
       {"weakmem", "litmus", "mutex-algo", "seqlock"},
       MemoryModel::Tso,
       5000},
  };
  return table;
}

const Workload* findWorkload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

lazyhb::campaign::CampaignOptions campaignOptions(const Workload& w, std::uint64_t seed) {
  lazyhb::campaign::CampaignOptions options;
  for (const std::string& name : w.explorers) {
    const auto spec = lazyhb::campaign::parseExplorerSpec(name);
    if (!spec) throw std::logic_error("unknown explorer " + name);
    options.explorers.push_back(*spec);
  }
  if (!w.families.empty() &&
      !lazyhb::programs::selectByTokens(w.families, options.programs, nullptr)) {
    throw std::logic_error("unknown family in workload " + w.name);
  }
  options.explorer.scheduleLimit = w.scheduleLimit;
  options.explorer.memoryModel = w.model;
  options.explorer.snapshotBudgetBytes = kSnapshotBudgetBytes;
  options.seed = seed;
  options.jobs = 1;
  options.cellTimeoutSeconds = 0.0;
  options.cellRetries = 0;
  return options;
}

Counts gatedCounts(const lazyhb::explore::ExplorationResult& r) {
  return {
      {"schedules", r.schedulesExecuted},
      {"terminal", r.terminalSchedules},
      {"pruned", r.prunedSchedules},
      {"violations", r.violationSchedules},
      {"hbrs", r.distinctHbrs},
      {"lazy_hbrs", r.distinctLazyHbrs},
      {"value_classes", r.distinctValueClasses},
      {"states", r.distinctStates},
      {"events", r.totalEvents},
      {"complete", r.complete ? 1u : 0u},
      {"hit_schedule_limit", r.hitScheduleLimit ? 1u : 0u},
      {"cache.lookups", r.cacheStats.lookups},
      {"cache.hits", r.cacheStats.hits},
      {"cache.insertions", r.cacheStats.insertions},
      {"cache.entries", r.cacheStats.entries},
      {"tso.flush_events", r.flushEvents},
      {"tso.fence_events", r.fenceEvents},
  };
}

Counts parityCounts(const lazyhb::explore::ExplorationResult& r) {
  Counts counts = gatedCounts(r);
  counts.insert(counts.end(),
                {
                    {"events_elided", r.eventsElided},
                    {"events_replayed", r.eventsReplayed},
                    {"cache.approx_bytes", r.cacheStats.approxBytes},
                    {"tso.max_buffered_stores", r.maxBufferedStores},
                    {"checkpoint.stages", r.checkpointStats.stages},
                    {"checkpoint.bytes_staged", r.checkpointStats.bytesStaged},
                    {"checkpoint.evictions", r.checkpointStats.evictions},
                    {"checkpoint.replay_fallbacks", r.checkpointStats.replayFallbacks},
                });
  return counts;
}

std::string diffCounts(const Counts& expected, const Counts& actual) {
  if (expected.size() != actual.size()) {
    return "count set differs (" + std::to_string(expected.size()) + " vs " +
           std::to_string(actual.size()) + " fields)";
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (expected[i].first != actual[i].first) {
      return "field " + expected[i].first + " vs " + actual[i].first;
    }
    if (expected[i].second != actual[i].second) {
      return expected[i].first + ": expected " + std::to_string(expected[i].second) +
             ", got " + std::to_string(actual[i].second);
    }
  }
  return "";
}

}  // namespace perfbench
