// lazyhb/session.hpp — the public embedding facade.
//
// Session is a small builder over the exploration engine: configure a
// strategy and budgets with chained setters, then run() a program (or a
// registered scenario by name) and receive a self-describing TestReport.
// The whole API is value types and strings — no internal engine types leak
// through this boundary, so embedders depend only on <lazyhb/lazyhb.hpp>.
//
//   const lazyhb::TestReport report = lazyhb::Session()
//                                         .strategy("caching-lazy")
//                                         .schedules(100'000)
//                                         .detectRaces(true)
//                                         .run(myProgram);
//   if (report.foundViolation()) {
//     const auto trace = lazyhb::traceSchedule(myProgram,
//                                              report.violations.front().schedule);
//     std::fputs(trace.rendered.c_str(), stderr);
//   }
//
// Each run-knob setter sets one field of a RunOptions (lazyhb/options.hpp),
// which declares the defaults. Configuration errors throw
// std::invalid_argument: an unknown memory model from its setter, an
// unknown strategy or scenario name from run(). Everything else is reported
// through the TestReport. Counts produced through Session are byte-identical
// to driving the underlying explorers directly — the parity test suite pins
// this.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lazyhb/options.hpp"
#include "lazyhb/progress.hpp"
#include "lazyhb/scenario.hpp"

namespace lazyhb {

namespace campaign {
struct CampaignOptions;
}  // namespace campaign

inline constexpr const char* kTestReportSchemaName = "lazyhb-test-report";
inline constexpr int kTestReportSchemaVersion = 2;

/// A property violation with the schedule that reproduces it (feed the
/// schedule to lazyhb::traceSchedule, or to `lazyhb replay --schedule`).
struct TestViolation {
  std::string kind;  ///< "assertion-failure" | "deadlock" | "usage-error"
  std::string message;
  std::vector<int> schedule;  ///< thread picked at each step; replayable
};

/// A sync-HB data race (only populated when detectRaces is on).
struct TestRace {
  std::string object;  ///< name of the shared variable raced on
  int firstEvent = -1;
  int secondEvent = -1;
};

/// Snapshot of the strategy's HBR prefix cache (all-zero when the strategy
/// consults no cache).
struct TestCacheStats {
  bool enabled = false;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t insertions = 0;
  std::uint64_t entries = 0;
  std::uint64_t approxBytes = 0;
};

/// Per-theorem equivalence-checker tallies (populated when checkTheorems
/// is on; a nonzero `conflicts` falsifies the theorem or exposes a
/// fingerprint collision).
struct TestTheoremStats {
  std::uint64_t schedules = 0;
  std::uint64_t classes = 0;
  std::uint64_t states = 0;
  std::uint64_t conflicts = 0;
};

/// The self-describing result of one Session::run.
struct TestReport {
  // Identity and configuration echo.
  std::string scenario;  ///< registered scenario name; empty for ad-hoc programs
  std::string family;    ///< scenario family; empty for ad-hoc programs
  std::string strategy;
  std::uint64_t scheduleLimit = 0;
  std::uint32_t maxEventsPerSchedule = 0;
  std::uint64_t seed = 0;
  bool incremental = true;
  bool checkpointable = false;
  /// Memory model the exploration ran under: "sc" | "tso".
  std::string memoryModel = memoryModelName(RunOptions{}.memoryModel);

  // Exploration counts (the extended §3 chain reads distinctStates <=
  // distinctValueClasses <= distinctLazyHbrs <= distinctHbrs <=
  // schedulesExecuted).
  std::uint64_t schedulesExecuted = 0;
  std::uint64_t terminalSchedules = 0;
  std::uint64_t prunedSchedules = 0;
  std::uint64_t violationSchedules = 0;
  std::uint64_t totalEvents = 0;
  std::uint64_t eventsElided = 0;
  std::uint64_t eventsReplayed = 0;
  std::uint64_t distinctHbrs = 0;
  std::uint64_t distinctLazyHbrs = 0;
  /// Distinct terminal observation (value-class) fingerprints — same
  /// operations, same values observed, same visible state. Schema v2.
  std::uint64_t distinctValueClasses = 0;
  std::uint64_t distinctStates = 0;
  bool hitScheduleLimit = false;
  bool complete = false;  ///< search space fully explored

  // Findings.
  std::vector<TestViolation> violations;
  std::vector<TestRace> races;
  TestCacheStats cache;
  TestTheoremStats theorem21;  ///< full HBR -> state (when checkTheorems)
  TestTheoremStats theorem22;  ///< lazy HBR -> state (when checkTheorems)
  /// Value class -> state (when checkTheorems): the observation-centric
  /// soundness check behind the caching-value strategy. Schema v2.
  TestTheoremStats theoremValue;

  double wallSeconds = 0.0;

  [[nodiscard]] bool foundViolation() const noexcept { return !violations.empty(); }
  [[nodiscard]] bool passed() const noexcept { return violations.empty(); }

  /// The versioned lazyhb-test-report JSON document (newline-terminated);
  /// the same document `lazyhb explore --out` writes.
  [[nodiscard]] std::string toJson() const;

  /// One human-readable summary line (no trailing newline).
  [[nodiscard]] std::string summary() const;
};

/// Builder facade over the exploration engine. A Session is a reusable
/// value: run() constructs a fresh single-use explorer each call, so one
/// configured Session can test many programs.
class Session {
 public:
  /// Exploration strategy, one of strategies() (default "caching-lazy").
  /// Validated at run().
  Session& strategy(std::string name);
  /// RunOptions::scheduleLimit (the paper's experiments use 100,000).
  Session& schedules(std::uint64_t limit);
  /// RunOptions::maxEventsPerSchedule.
  Session& maxEventsPerSchedule(std::uint32_t events);
  /// Seed for the "random" strategy (ignored by the others; default
  /// kDefaultSeed).
  Session& seed(std::uint64_t value);
  /// RunOptions::memoryModel by name: "sc" (sequential consistency) or
  /// "tso" (x86-style store buffers; docs/memory-models.md). Throws
  /// std::invalid_argument for any other name.
  Session& memoryModel(std::string model);
  /// RunOptions::detectRaces.
  Session& detectRaces(bool on = true);
  /// RunOptions::checkTheorems.
  Session& checkTheorems(bool on = true);
  /// RunOptions::stopOnFirstViolation.
  Session& stopOnFirstViolation(bool on = true);
  /// RunOptions::maxViolationsKept.
  Session& keepViolations(std::uint32_t max);
  /// RunOptions::incremental.
  Session& incremental(bool on);
  /// RunOptions::checkpointable. run(name) inherits this from the
  /// scenario's registered traits.
  Session& checkpointable(bool on = true);
  /// RunOptions::snapshotBudgetBytes.
  Session& snapshotBudget(std::uint64_t bytes);
  /// Progress hook: a ProgressEvent of kind ScheduleTick every
  /// progressInterval() executed schedules, synchronously on the exploring
  /// thread (lazyhb/progress.hpp documents the full callback contract).
  /// Counts are unaffected.
  Session& onProgress(ProgressCallback callback);
  /// Schedules between ScheduleTick events (default 1024; 0 is clamped
  /// to 1). Only meaningful together with onProgress().
  Session& progressInterval(std::uint64_t schedules);

  /// Explore an ad-hoc program. Throws std::invalid_argument for an
  /// unknown strategy name.
  [[nodiscard]] TestReport run(const Program& program) const;
  /// Explore a registered scenario by name (inheriting its checkpointable
  /// trait). Throws std::invalid_argument for an unknown scenario name.
  [[nodiscard]] TestReport run(const std::string& scenarioName) const;
  [[nodiscard]] TestReport run(const char* scenarioName) const;

  /// Every strategy name run() accepts, canonical modes first.
  [[nodiscard]] static std::vector<std::string> strategies();

 private:
  /// Maps these knobs onto the engine's per-cell options and seed — the
  /// one mapping run(), Suite::run and `lazyhb bench` share (internal;
  /// declared in api/session_options.hpp).
  friend campaign::CampaignOptions sessionOptions(const Session& session);

  struct Config {
    std::string strategy = "caching-lazy";
    RunOptions run;
    std::uint64_t seed = kDefaultSeed;
    ProgressCallback progress;
    std::uint64_t progressInterval = 1024;
    std::string scenarioLabel;  ///< names run(name) ticks; empty for ad-hoc
  };

  Config config_;
};

/// Options for traceSchedule. The execution knobs default to RunOptions'.
struct TraceOptions {
  /// Relation whose inter-thread edges annotate the trace:
  /// "sync" | "full" | "lazy".
  std::string relation = "full";
  /// Memory model to re-execute under: "sc" | "tso". Must match the model
  /// the schedule was recorded under — TSO schedules carry flush picks
  /// (>= 32) that no SC execution can apply.
  std::string memoryModel = memoryModelName(RunOptions{}.memoryModel);
  bool detectRaces = RunOptions{}.detectRaces;
  bool renderTrace = true;
  std::uint32_t maxEventsPerSchedule = RunOptions{}.maxEventsPerSchedule;
};

/// Deterministic re-execution of a recorded schedule.
struct ScheduleTrace {
  /// False when the schedule does not apply to the program (a pick named a
  /// thread that was not enabled at that point); every other field is then
  /// meaningless.
  bool applied = false;
  std::string outcome;  ///< "terminal" | "deadlock" | "assertion-failure" | ...
  bool violated = false;
  std::string message;   ///< violation message, if any
  std::string rendered;  ///< human-readable interleaving with HB edges
  std::size_t events = 0;
  std::string hbrFingerprint;    ///< 32 hex digits
  std::string lazyFingerprint;   ///< 32 hex digits
  std::string stateFingerprint;  ///< 32 hex digits
  std::vector<TestRace> races;
};

/// Re-execute `schedule` (e.g. a TestViolation::schedule) under `program`
/// and render the interleaving. Throws std::invalid_argument for an unknown
/// relation or memory model name in `options`.
[[nodiscard]] ScheduleTrace traceSchedule(const Program& program,
                                          const std::vector<int>& schedule,
                                          const TraceOptions& options = {});

/// Same, for a registered scenario. Throws std::invalid_argument for an
/// unknown scenario name.
[[nodiscard]] ScheduleTrace traceSchedule(const std::string& scenarioName,
                                          const std::vector<int>& schedule,
                                          const TraceOptions& options = {});

}  // namespace lazyhb
