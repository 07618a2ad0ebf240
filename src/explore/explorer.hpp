// lazyhb/explore/explorer.hpp
//
// The exploration framework: an explorer repeatedly executes a program under
// controlled schedules until its search space or budget is exhausted, and
// accumulates the statistics the paper's evaluation is built from —
// schedules executed, distinct terminal HBRs / lazy HBRs / states, and any
// property violations found (with replayable schedules).
//
// Concrete strategies:
//   TreeExplorer     — depth-first enumeration of the schedule tree
//                      (explore/dfs_explorer.hpp). With no relation it is
//                      naive DFS; an HBR-prefix cache keyed on Full gives
//                      Musuvathi–Qadeer HBR caching, on Lazy the paper's
//                      lazy HBR caching, on Value value-class caching; built
//                      from DporOptions it is Flanagan–Godefroid dynamic
//                      partial-order reduction with optional sleep sets.
//   RandomExplorer   — uniform random walks (explore/random_explorer.hpp).

#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/equivalence.hpp"
#include "core/hbr_cache.hpp"
#include "core/race_detector.hpp"
#include "explore/prefix_replay.hpp"
#include "lazyhb/options.hpp"
#include "runtime/execution.hpp"
#include "support/hash.hpp"
#include "trace/trace_recorder.hpp"

namespace lazyhb::explore {

/// A program under test: a callable run as thread 0 of every execution.
/// Must be re-runnable (each schedule re-executes it from scratch) and
/// deterministic apart from scheduling.
using Program = std::function<void()>;

/// Parse a LAZYHB_SNAPSHOT_BUDGET value: plain decimal bytes. nullopt when
/// malformed — empty, signed, leading whitespace, trailing junk or out of
/// range — in which case defaultSnapshotBudgetBytes() keeps its default.
[[nodiscard]] std::optional<std::uint64_t> parseSnapshotBudgetBytes(
    const char* text) noexcept;

/// The public run knobs (lazyhb/options.hpp) plus the fields only the
/// engine sets.
struct ExplorerOptions : RunOptions {
  /// Record per-event predecessor lists (exact canonical forms in tests).
  bool keepPredecessors = false;
  /// Always 1: every search runs on the calling thread (campaigns
  /// parallelise across cells with --jobs and --shard). Kept so report
  /// configs can still echo it; ExplorerSpec::create rejects any other
  /// value.
  int workers = 1;
  /// Wall-clock budget for the whole exploration in seconds (0 = none).
  /// Checked at schedule boundaries; on expiry the search stops and the
  /// result is marked timedOut — its counts are then a wall-clock-dependent
  /// prefix, so report consumers (bench_diff, the merger) treat timed-out
  /// cells as incomparable.
  double wallTimeoutSeconds = 0.0;
  /// Progress hook: invoked synchronously on the exploring thread after
  /// every tickIntervalSchedules-th schedule with the running schedule
  /// count. Must not re-enter the explorer.
  std::function<void(std::uint64_t schedulesExecuted)> onScheduleTick;
  std::uint64_t tickIntervalSchedules = 0;  ///< 0 disables progress ticks
};

/// A recorded property violation with the schedule that reproduces it
/// (the thread picked at each step; replayable).
using ViolationRecord = runtime::Violation;

/// What one schedule contributes to an ExplorationResult, read off the
/// execution and the recorder once it ends. Every field is a function of the
/// schedule's pick sequence (programs are deterministic apart from
/// scheduling), so a stored record folds exactly like a fresh one — which is
/// what lets RandomExplorer skip walks it already ran. Holds nothing owned:
/// the tree search makes one per schedule.
struct ScheduleRecord {
  runtime::Outcome outcome = runtime::Outcome::Terminal;
  std::uint32_t events = 0;  ///< logical events, elided ones included
  std::uint32_t maxBufferedStores = 0;  ///< TSO: the deepest store buffer
  std::uint64_t flushEvents = 0;        ///< TSO flush events committed
  std::uint64_t fenceEvents = 0;        ///< TSO fence events committed
  /// Terminal schedules only: the full-HBR, lazy-HBR, value-class and state
  /// fingerprints.
  support::Hash128 hbr;
  support::Hash128 lazyHbr;
  support::Hash128 valueClass;
  support::Hash128 state;
  /// Violating schedules: the violation, borrowed. fold() dereferences it
  /// only while the result keeps fewer than maxViolationsKept.
  const ViolationRecord* violation = nullptr;
};

/// Snapshot of an explorer's HBR prefix cache at the end of the search.
/// All-zero (enabled == false) for strategies that consult no cache; the
/// approximate footprint makes cache growth visible per campaign cell.
struct PrefixCacheStats {
  bool enabled = false;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;        ///< prefixes pruned as already seen
  std::uint64_t insertions = 0;
  std::uint64_t entries = 0;     ///< fingerprints resident at the end
  std::uint64_t approxBytes = 0; ///< HbrCache::approxMemoryBytes()
};

/// Checkpoint economics of the incremental prefix-replay engine for one
/// exploration (PrefixReplayEngine). All-zero with enabled == false when
/// incremental mode is off. Stage/eviction placement is a pure performance
/// policy — observable schedule counts are byte-identical regardless — so
/// these feed the bench report scoreboard, never count comparisons.
struct CheckpointStats {
  bool enabled = false;
  std::uint64_t stages = 0;          ///< distinct depths staged over the run
  std::uint64_t bytesStaged = 0;     ///< sum of approx bytes at staging time
  std::uint64_t evictions = 0;       ///< stages dropped to honour the budget
  /// prepareNext calls where an evicted stage would have served the
  /// divergence better than the deepest surviving one (the cost of the
  /// budget: extra replay distance).
  std::uint64_t replayFallbacks = 0;
};

struct ExplorationResult {
  std::uint64_t schedulesExecuted = 0;
  std::uint64_t terminalSchedules = 0;
  std::uint64_t violationSchedules = 0;
  std::uint64_t prunedSchedules = 0;   ///< abandoned mid-run (cache/sleep)
  std::uint64_t totalEvents = 0;       ///< logical events, elided ones included
  /// Prefix events never re-executed thanks to runtime rollback. The
  /// honest throughput metric divides executed events (totalEvents -
  /// eventsElided) by wall time, so elision is not double-counted as speed.
  std::uint64_t eventsElided = 0;
  /// Prefix events re-executed to reach a divergence point (the residual
  /// redundancy; their recording cost is elided whenever a recorder
  /// checkpoint covered them).
  std::uint64_t eventsReplayed = 0;
  std::uint64_t distinctHbrs = 0;      ///< terminal full-HBR fingerprints
  std::uint64_t distinctLazyHbrs = 0;  ///< terminal lazy-HBR fingerprints
  std::uint64_t distinctValueClasses = 0;  ///< terminal value-class fingerprints
  std::uint64_t distinctStates = 0;    ///< terminal state fingerprints
  bool hitScheduleLimit = false;
  bool complete = false;               ///< search space fully explored
  /// wallTimeoutSeconds expired mid-search: the counts above are a
  /// wall-clock-dependent prefix of the full exploration.
  bool timedOut = false;
  std::vector<ViolationRecord> violations;
  core::EquivalenceChecker::Stats theorem21;  ///< full HBR -> state (if enabled)
  core::EquivalenceChecker::Stats theorem22;  ///< lazy HBR -> state (if enabled)
  /// Value soundness: value fingerprint -> state must stay a function (the
  /// empirical bar the caching-value pruning rests on; same machinery as
  /// Theorems 2.1/2.2, populated when checkTheorems is on).
  core::EquivalenceChecker::Stats theoremValue;
  std::vector<trace::RaceReport> races;
  /// TSO store-buffer activity across all schedules (all zero under SC):
  /// flush events committed, fence events committed, and the deepest any
  /// thread's buffer got. Deterministic in every replay mode.
  std::uint64_t flushEvents = 0;
  std::uint64_t fenceEvents = 0;
  std::uint32_t maxBufferedStores = 0;
  PrefixCacheStats cacheStats;  ///< zero unless the strategy uses an HbrCache
  CheckpointStats checkpointStats;  ///< zero unless incremental replay ran

  [[nodiscard]] bool foundViolation() const noexcept { return !violations.empty(); }
};

using Hash128Set = std::unordered_set<support::Hash128, support::Hash128Hasher>;

/// The distinct terminal fingerprints of a search, one set per class kind.
struct TerminalClasses {
  Hash128Set hbrs;
  Hash128Set lazyHbrs;
  Hash128Set valueClasses;
  Hash128Set states;
};

/// Shared plumbing for the explorers: owns the stack pool, the
/// trace recorder, the optional HBR-prefix cache and the statistics, and
/// runs one schedule at a time. Every strategy derives from it.
class ExplorerBase {
 public:
  /// `cacheRelation`, when set, keys a prefix cache on that relation (Full,
  /// Lazy or Value): strategies probe it through prefixCached(), and every
  /// schedule that is not abandoned seeds its final prefix. `fullClocks`
  /// declares that the strategy reads Full-relation vector clocks from
  /// recorder() (DPOR); without it the recorder builds clock rows only for
  /// keepPredecessors/detectRaces.
  explicit ExplorerBase(ExplorerOptions options,
                        std::optional<trace::Relation> cacheRelation = std::nullopt,
                        bool fullClocks = false);

  virtual ~ExplorerBase() = default;

  ExplorerBase(const ExplorerBase&) = delete;
  ExplorerBase& operator=(const ExplorerBase&) = delete;

  /// Run the full exploration. May be called once per explorer instance.
  [[nodiscard]] ExplorationResult explore(const Program& program);

 protected:
  /// Strategy hook: run schedules (via executeSchedule) until done.
  virtual void runSearch(const Program& program) = 0;

  /// Gate every search checks before each schedule: false once the budget
  /// (or the wall-clock deadline) is spent — which also marks
  /// hitScheduleLimit — or the search should stop for a found violation.
  bool mayRunSchedule();

  /// Execute one schedule under `scheduler` and fold() its record; when
  /// detecting races or caching, also ingest the schedule's races and seed
  /// the cache with its final prefix, straight from the recorder. In
  /// incremental mode the execution may be the persistent rolled-back one
  /// (see prefixEngine()); statistics are identical either way. Returns the
  /// record, whose violation lives until the next schedule starts. Callers
  /// check mayRunSchedule() first.
  ScheduleRecord executeSchedule(const Program& program,
                                 runtime::Scheduler& scheduler);

  /// Apply one schedule's record: the result's counters, the distinct-class
  /// sets, the theorem checkers, the kept violations, the progress tick and
  /// the wall-clock deadline. Folding a record again for a schedule run
  /// before counts exactly as re-running it would, bar races: those the
  /// aggregator already holds.
  void fold(const ScheduleRecord& record);

  /// True when the strategy consults a prefix cache.
  [[nodiscard]] bool cachesPrefixes() const noexcept { return cache_ != nullptr; }

  /// The prefix-cache probe, for schedulers to call after every new
  /// (non-replayed) event: look up the executed prefix's fingerprint,
  /// inserting it when absent. True means an equivalent prefix was explored
  /// before — by Theorem 2.1 (Full), 2.2 (Lazy) or the value relation's
  /// observation argument (Value) it reaches the same state — so the
  /// schedule is redundant and should be abandoned. Requires cachesPrefixes().
  [[nodiscard]] bool prefixCached() {
    return cache_->checkAndInsert(recorder_.fingerprint(*cacheRelation_));
  }

  /// Fill the result's set sizes, replay-engine and cache statistics from
  /// the live tallies; explore() returns this after runSearch.
  const ExplorationResult& finishResult();

  /// The incremental prefix-replay engine. Tree-search strategies hand it
  /// to their schedulers (checkpoint staging) and call prepareNext() with
  /// each divergence depth; the returned start depth seeds the next
  /// scheduler.
  [[nodiscard]] PrefixReplayEngine& prefixEngine() noexcept { return engine_; }

  [[nodiscard]] trace::TraceRecorder& recorder() noexcept { return recorder_; }
  [[nodiscard]] ExplorationResult& result() noexcept { return result_; }
  [[nodiscard]] const TerminalClasses& terminalClasses() const noexcept {
    return classes_;
  }

  /// Mark the search as having visited every schedule class.
  void markComplete() noexcept { result_.complete = true; }

 private:
  ExplorerOptions options_;
  std::chrono::steady_clock::time_point deadline_{};  ///< zero: no timeout
  bool deadlineExpired_ = false;
  runtime::StackPool stackPool_;
  trace::TraceRecorder recorder_;
  ExplorationResult result_;
  TerminalClasses classes_;
  core::EquivalenceChecker thm21_;
  core::EquivalenceChecker thm22_;
  core::EquivalenceChecker thmValue_;
  core::RaceAggregator raceAggregator_;
  std::optional<trace::Relation> cacheRelation_;
  std::unique_ptr<core::HbrCache> cache_;  ///< null: no prefix caching
  PrefixReplayEngine engine_;  ///< after stackPool_/recorder_: destroyed first
  bool explored_ = false;
};

}  // namespace lazyhb::explore
