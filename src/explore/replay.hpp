// lazyhb/explore/replay.hpp
//
// Deterministic replay of a recorded schedule (the `schedule` field of a
// ViolationRecord, or Execution::choices()). Used to reproduce violations
// with full tracing enabled, and by the examples to pretty-print the
// happens-before structure of a specific interleaving.

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "explore/explorer.hpp"
#include "trace/trace_recorder.hpp"

namespace lazyhb::explore {

/// Scheduler that follows a fixed choice list, then falls back to the
/// lowest-numbered enabled thread once the list is exhausted. A choice that
/// is not currently enabled (e.g. a schedule recorded for a different
/// program) abandons the execution (Outcome::Abandoned) rather than abort.
class FixedScheduler final : public runtime::Scheduler {
 public:
  explicit FixedScheduler(std::vector<int> choices) : choices_(std::move(choices)) {}

  int pick(runtime::Execution& exec) override;

 private:
  std::vector<int> choices_;
  std::size_t step_ = 0;
};

struct ReplayResult {
  runtime::Outcome outcome = runtime::Outcome::Terminal;
  std::string violationMessage;
  support::Hash128 hbrFingerprint;
  support::Hash128 lazyFingerprint;
  support::Hash128 stateFingerprint;
  std::size_t eventCount = 0;
  std::string renderedTrace;  ///< schedule with inter-thread HBR edges
  std::vector<trace::RaceReport> races;
};

/// Re-execute `program` following `choices` under the execution knobs of
/// `options` (maxEventsPerSchedule, detectRaces and memoryModel, which must
/// be the model the schedule was found under: a TSO schedule's flush picks
/// are meaningless to an SC execution). With `render` set, the result also
/// carries the schedule rendered with that relation's inter-thread edges.
[[nodiscard]] ReplayResult replaySchedule(
    const Program& program, const std::vector<int>& choices,
    const RunOptions& options = {},
    std::optional<trace::Relation> render = trace::Relation::Full);

}  // namespace lazyhb::explore
