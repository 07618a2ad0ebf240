#include "explore/explorer.hpp"

#include <cerrno>
#include <cstdlib>

#include "support/diagnostics.hpp"

namespace lazyhb {

std::uint64_t defaultSnapshotBudgetBytes() noexcept {
  static const std::uint64_t value =
      explore::parseSnapshotBudgetBytes(std::getenv("LAZYHB_SNAPSHOT_BUDGET"))
          .value_or(std::uint64_t{256} * 1024 * 1024);
  return value;
}

}  // namespace lazyhb

namespace lazyhb::explore {

std::optional<std::uint64_t> parseSnapshotBudgetBytes(const char* text) noexcept {
  // strtoull alone would accept leading whitespace and a sign ("-1" wraps
  // to 2^64 - 1, i.e. effectively unlimited), so demand a leading digit.
  if (text == nullptr || *text < '0' || *text > '9') return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE) return std::nullopt;
  return static_cast<std::uint64_t>(parsed);
}

ExplorerBase::ExplorerBase(ExplorerOptions options,
                           std::optional<trace::Relation> cacheRelation,
                           bool fullClocks)
    : options_(options),
      recorder_(trace::TraceRecorder::Options{options.keepPredecessors,
                                              options.detectRaces, fullClocks}),
      cacheRelation_(cacheRelation),
      engine_(stackPool_, recorder_, options.incremental,
              options.checkpointable &&
                  runtime::Execution::checkpointingSupported(),
              options.snapshotBudgetBytes) {
  if (cacheRelation_) {
    LAZYHB_CHECK(*cacheRelation_ == trace::Relation::Full ||
                 *cacheRelation_ == trace::Relation::Lazy ||
                 *cacheRelation_ == trace::Relation::Value);
    cache_ = std::make_unique<core::HbrCache>();
  }
}

ExplorationResult ExplorerBase::explore(const Program& program) {
  LAZYHB_CHECK(!explored_);
  explored_ = true;
  if (options_.wallTimeoutSeconds > 0.0) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(options_.wallTimeoutSeconds));
  }
  runSearch(program);
  return finishResult();
}

const ExplorationResult& ExplorerBase::finishResult() {
  result_.distinctHbrs = classes_.hbrs.size();
  result_.distinctLazyHbrs = classes_.lazyHbrs.size();
  result_.distinctValueClasses = classes_.valueClasses.size();
  result_.distinctStates = classes_.states.size();
  result_.eventsElided = engine_.eventsElided();
  result_.eventsReplayed = engine_.eventsReplayed();
  result_.checkpointStats.enabled = engine_.incremental();
  result_.checkpointStats.stages = engine_.stagesCreated();
  result_.checkpointStats.bytesStaged = engine_.bytesStaged();
  result_.checkpointStats.evictions = engine_.evictions();
  result_.checkpointStats.replayFallbacks = engine_.replayFallbacks();
  if (options_.checkTheorems) {
    result_.theorem21 = thm21_.stats();
    result_.theorem22 = thm22_.stats();
    result_.theoremValue = thmValue_.stats();
  }
  result_.races = raceAggregator_.distinctRaces();
  if (cache_ != nullptr) {
    const core::HbrCache::Stats stats = cache_->stats();
    result_.cacheStats.enabled = true;
    result_.cacheStats.lookups = stats.lookups;
    result_.cacheStats.hits = stats.hits;
    result_.cacheStats.insertions = stats.insertions;
    result_.cacheStats.entries = cache_->size();
    result_.cacheStats.approxBytes = cache_->approxMemoryBytes();
  }
  return result_;
}

bool ExplorerBase::mayRunSchedule() {
  if (deadlineExpired_ || result_.schedulesExecuted >= options_.scheduleLimit) {
    result_.hitScheduleLimit = true;
    return false;
  }
  return !options_.stopOnFirstViolation || result_.violations.empty();
}

ScheduleRecord ExplorerBase::executeSchedule(const Program& program,
                                             runtime::Scheduler& scheduler) {
  runtime::Config config;
  config.maxEventsPerSchedule = options_.maxEventsPerSchedule;
  config.memoryModel = options_.memoryModel;
  const PrefixReplayEngine::Session session = engine_.beginSchedule(config, &recorder_);
  runtime::Execution& exec = *session.exec;
  ScheduleRecord record;
  record.outcome = session.resumed ? exec.resume(scheduler) : exec.run(program, scheduler);
  record.events = static_cast<std::uint32_t>(exec.events().size());
  // Store-buffer stats. The engine's counters are checkpoint/rollback-aware
  // (snapshotted scalars), so at schedule end they always read this full
  // schedule's totals — byte-identical across the incremental replay modes,
  // exactly like the event count.
  record.flushEvents = exec.flushEventCount();
  record.fenceEvents = exec.fenceEventCount();
  record.maxBufferedStores = exec.maxBufferedStores();
  switch (record.outcome) {
    case runtime::Outcome::Terminal:
      record.hbr = recorder_.fingerprint(trace::Relation::Full);
      record.lazyHbr = recorder_.fingerprint(trace::Relation::Lazy);
      record.valueClass = recorder_.fingerprint(trace::Relation::Value);
      record.state = exec.stateFingerprint();
      break;
    case runtime::Outcome::Deadlock:
    case runtime::Outcome::AssertionFailure:
    case runtime::Outcome::UsageError:
      record.violation = &exec.violation();
      break;
    case runtime::Outcome::Abandoned:
    case runtime::Outcome::EventLimit:
      break;
  }

  if (options_.detectRaces) {
    raceAggregator_.ingest(recorder_);
  }
  if (cache_ != nullptr && record.outcome != runtime::Outcome::Abandoned &&
      recorder_.eventCount() > 0) {
    // The final event's prefix is never probed (there is no further pick);
    // seed it so later schedules can prune against it.
    cache_->insert(recorder_.fingerprint(*cacheRelation_));
  }
  fold(record);
  return record;
}

void ExplorerBase::fold(const ScheduleRecord& record) {
  ++result_.schedulesExecuted;
  result_.totalEvents += record.events;
  result_.flushEvents += record.flushEvents;
  result_.fenceEvents += record.fenceEvents;
  if (record.maxBufferedStores > result_.maxBufferedStores) {
    result_.maxBufferedStores = record.maxBufferedStores;
  }

  switch (record.outcome) {
    case runtime::Outcome::Terminal:
      ++result_.terminalSchedules;
      classes_.hbrs.insert(record.hbr);
      classes_.lazyHbrs.insert(record.lazyHbr);
      classes_.valueClasses.insert(record.valueClass);
      classes_.states.insert(record.state);
      if (options_.checkTheorems) {
        thm21_.record(record.hbr, record.state);
        thm22_.record(record.lazyHbr, record.state);
        thmValue_.record(record.valueClass, record.state);
      }
      break;
    case runtime::Outcome::Deadlock:
    case runtime::Outcome::AssertionFailure:
    case runtime::Outcome::UsageError:
      ++result_.violationSchedules;
      if (result_.violations.size() < options_.maxViolationsKept) {
        LAZYHB_CHECK(record.violation != nullptr);
        result_.violations.push_back(*record.violation);
      }
      break;
    case runtime::Outcome::Abandoned:
      ++result_.prunedSchedules;
      break;
    case runtime::Outcome::EventLimit:
      break;  // counted as executed, contributes no terminal data
  }

  if (options_.onScheduleTick && options_.tickIntervalSchedules > 0 &&
      result_.schedulesExecuted % options_.tickIntervalSchedules == 0) {
    options_.onScheduleTick(result_.schedulesExecuted);
  }
  if (options_.wallTimeoutSeconds > 0.0 && !deadlineExpired_ &&
      std::chrono::steady_clock::now() >= deadline_) {
    deadlineExpired_ = true;
    result_.timedOut = true;
  }
}

}  // namespace lazyhb::explore
