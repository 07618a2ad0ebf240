// Shared driver for the corpus benches: the corpus flags, the --only
// selection, and aligned tables plus optional CSV for external plotting.

#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "lazyhb/options.hpp"
#include "programs/registry.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

namespace lazyhb::bench {

/// Options shared by every corpus bench; the run knobs default to
/// RunOptions'.
inline support::Options corpusOptions(const char* name, const char* description) {
  const RunOptions defaults;
  support::Options options(name, description);
  options.addInt("limit", static_cast<std::int64_t>(defaults.scheduleLimit),
                 "schedule budget per benchmark (paper: 100000)");
  options.addInt("jobs", 4, "worker threads (benchmarks explored in parallel)");
  options.addInt("max-events", defaults.maxEventsPerSchedule,
                 "per-schedule event budget");
  options.addFlag("csv", "also print machine-readable CSV");
  options.addString("only", "", "run a single benchmark by name");
  return options;
}

/// The subset of the corpus selected by --only (default: everything).
inline std::vector<const programs::ProgramSpec*> selectCorpus(
    const support::Options& options) {
  std::vector<const programs::ProgramSpec*> selected;
  const std::string only = options.getString("only");
  for (const auto& spec : programs::all()) {
    if (only.empty() || spec.name == only) selected.push_back(&spec);
  }
  return selected;
}

inline void emit(const support::Table& table, bool csv) {
  std::fputs(table.toText().c_str(), stdout);
  if (csv) {
    std::fputs("\n--- CSV ---\n", stdout);
    std::fputs(table.toCsv().c_str(), stdout);
  }
}

}  // namespace lazyhb::bench
