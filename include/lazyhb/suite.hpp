// lazyhb/suite.hpp — the public batch-campaign facade.
//
// Suite is to the campaign layer what Session (lazyhb/session.hpp) is to a
// single exploration: a builder of value types and strings that runs a
// whole (scenario × strategy) matrix and returns a self-describing
// SuiteReport. It is a thin adapter over the same campaign runner the CLI's
// `bench` subcommand drives, so every durability feature rides along:
// checkpointed resume, shard slicing, per-cell timeouts and retries, and
// the serialized progress-event stream.
//
//   const lazyhb::SuiteReport report = lazyhb::Suite()
//                                          .add("peterson")
//                                          .add("disjoint-lock")      // a family
//                                          .strategies({"dfs", "caching-lazy"})
//                                          .schedules(50'000)
//                                          .checkpointDir("ckpt/")    // resumable
//                                          .onProgress([](const lazyhb::ProgressEvent& e) {
//                                            /* serialized; see lazyhb/progress.hpp */
//                                          })
//                                          .run();
//   if (!report.allInequalitiesHold()) { /* §3 chain broke — a bug */ }
//   writeFile("shard0.json", report.toJson());  // `lazyhb merge`-able
//
// The per-cell knobs are a Session's (RunOptions), the rest are a
// SupervisorOptions (both lazyhb/options.hpp). Configuration errors throw
// std::invalid_argument: an unknown memory model from its setter, an
// unknown strategy/scenario name or a bad shard spec from run(). Journal
// problems (config mismatch, nothing to resume) throw std::runtime_error.
// Counts are byte-identical to the CLI's `bench` for the same configuration
// — the parity tests pin this.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lazyhb/progress.hpp"
#include "lazyhb/session.hpp"

namespace lazyhb {

inline constexpr const char* kSuiteReportSchemaName = "lazyhb-bench-report";
inline constexpr int kSuiteReportSchemaVersion = 9;

/// One (scenario, strategy) cell of the suite matrix — the public mirror of
/// the campaign report's cell block.
struct SuiteCell {
  std::string scenario;
  std::string family;
  std::string strategy;

  // Exploration counts (the §3 chain reads
  // states <= lazyHbrs <= hbrs <= schedules).
  std::uint64_t schedules = 0;
  std::uint64_t terminal = 0;
  std::uint64_t pruned = 0;
  std::uint64_t violations = 0;
  std::uint64_t events = 0;
  std::uint64_t hbrs = 0;
  std::uint64_t lazyHbrs = 0;
  std::uint64_t states = 0;
  bool complete = false;
  bool hitScheduleLimit = false;

  // Supervisor / durability provenance.
  bool timedOut = false;       ///< final attempt hit the cell timeout
  bool fromCheckpoint = false; ///< loaded from the journal, not re-run
  int attempts = 1;            ///< > 1: the cell retried
  std::string error;           ///< non-empty: every attempt threw

  double wallSeconds = 0.0;
  bool inequalityHolds = true;
  std::string inequalityDiagnostic;  ///< empty when the §3 chain holds

  [[nodiscard]] bool failed() const noexcept { return !error.empty(); }
};

/// The self-describing result of one Suite::run.
struct SuiteReport {
  std::vector<SuiteCell> cells;  ///< scenario-major, strategy-minor

  std::uint64_t totalSchedules = 0;
  std::uint64_t totalEvents = 0;
  int inequalityViolations = 0;  ///< cells whose §3 chain failed (expect 0)
  double wallSeconds = 0.0;

  // Durability / supervisor tallies.
  std::size_t cellsFromCheckpoint = 0;
  int cellsTimedOut = 0;
  int cellsFailed = 0;
  int cellsRetried = 0;

  // The shard this run covered (0-based; 0/1 when unsharded).
  int shardIndex = 0;
  int shardCount = 1;

  [[nodiscard]] bool allInequalitiesHold() const noexcept {
    return inequalityViolations == 0;
  }

  /// The versioned lazyhb-bench-report JSON document (schema
  /// kSuiteReportSchemaVersion, newline-terminated) — the same document
  /// `lazyhb bench --out` writes, accepted by `lazyhb merge` and
  /// tools/bench_diff.py.
  [[nodiscard]] const std::string& toJson() const noexcept { return json_; }

  /// One human-readable summary line (no trailing newline).
  [[nodiscard]] std::string summary() const;

 private:
  friend class Suite;
  std::string json_;
};

/// Builder facade over the campaign runner. A Suite is a reusable value:
/// run() executes the configured matrix and returns a fresh SuiteReport.
class Suite {
 public:
  /// Select a scenario or a whole family by name (repeatable; order is
  /// kept, duplicates collapse). No add() at all runs the full registered
  /// corpus. Validated at run().
  Suite& add(std::string scenarioOrFamily);
  /// Strategies to run each scenario under (default: the five canonical
  /// modes). Validated at run().
  Suite& strategies(std::vector<std::string> names);
  /// Session::schedules for every cell.
  Suite& schedules(std::uint64_t limit);
  /// Session::maxEventsPerSchedule for every cell.
  Suite& maxEventsPerSchedule(std::uint32_t events);
  /// Session::seed for every cell.
  Suite& seed(std::uint64_t value);
  /// Session::incremental for every cell.
  Suite& incremental(bool on);
  /// Session::memoryModel for every cell ("sc" or "tso"; throws
  /// std::invalid_argument for any other name). The report's
  /// config.memory_model echoes it — TSO and SC reports never merge.
  Suite& memoryModel(std::string model);
  /// SupervisorOptions::jobs. Counts are byte-identical at any value.
  Suite& jobs(int count);
  /// SupervisorOptions::shardIndex and ::shardCount (0-based). Validated at
  /// run().
  Suite& shard(int index, int count);
  /// SupervisorOptions::checkpointDir.
  Suite& checkpointDir(std::string directory);
  /// SupervisorOptions::requireExistingJournal: run() then throws
  /// std::runtime_error instead of silently starting fresh.
  Suite& resumeOnly(bool on = true);
  /// SupervisorOptions::cellTimeoutSeconds.
  Suite& cellTimeout(double seconds);
  /// SupervisorOptions::cellRetries.
  Suite& cellRetries(int count);
  /// SupervisorOptions::onProgress.
  Suite& onProgress(ProgressCallback callback);

  /// Run the configured matrix. Throws std::invalid_argument for unknown
  /// names or a bad shard spec, std::runtime_error for journal problems.
  [[nodiscard]] SuiteReport run() const;

 private:
  struct Config {
    std::vector<std::string> selectors;
    std::vector<std::string> strategies;
    /// The per-cell knobs, held and mapped to the engine exactly as a
    /// Session's are.
    Session cell;
    SupervisorOptions supervisor;
  };

  Config config_;
};

}  // namespace lazyhb
