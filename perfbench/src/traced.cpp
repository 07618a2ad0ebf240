// The traced run. Spans are taken here, around calls into each layer's
// public functions; the library itself carries no instrumentation.
//
// random, dfs and caching-* cells at one worker run through a replica of
// ExplorerBase::executeSchedule and the strategies' runSearch loops, built
// from the same public pieces (StackPool, TraceRecorder, PrefixReplayEngine,
// Execution::run/resume, TreeSearchState, HbrCache, support::Rng). Span tree
// of one replicated cell:
//
//   Cell                                   explorer control (self)
//   └─ Schedule  (one per schedule)        explorer control (self)
//      ├─ Begin        PrefixReplayEngine::beginSchedule
//      ├─ Run/Resume   Execution::run / resume: scenario code on the fiber
//      │  │            plus engine (self)
//      │  ├─ Pick      scheduler pick (self)
//      │  │  ├─ Fingerprint  TraceRecorder::fingerprint
//      │  │  ├─ CacheProbe   HbrCache::checkAndInsert
//      │  │  └─ Stage        PrefixReplayEngine::stageCheckpoint
//      │  └─ OnExecutionStart / OnObjectRegistered / OnEvent / OnExecutionEnd
//      │                     the TraceRecorder, via a forwarding observer
//      ├─ Bookkeeping  terminal counts and distinct sets (self)
//      │  ├─ Fingerprint, StateFingerprint
//      ├─ CacheInsert  (caching: seed the final prefix) + its Fingerprint
//      └─ PrepareNext  PrefixReplayEngine::prepareNext
//
// Every other cell is one Explore span; its layer numbers come from its
// ExplorationResult counters.

#include <algorithm>
#include <array>
#include <chrono>
#include <optional>
#include <unordered_set>

#include "campaign/explorer_spec.hpp"
#include "core/hbr_cache.hpp"
#include "explore/dfs_explorer.hpp"
#include "explore/prefix_replay.hpp"
#include "perfbench.hpp"
#include "programs/registry.hpp"
#include "support/diagnostics.hpp"
#include "support/rng.hpp"
#include "trace/trace_recorder.hpp"

namespace perfbench {
namespace {

namespace rt = lazyhb::runtime;
namespace ex = lazyhb::explore;
using lazyhb::campaign::ExplorerSpec;
using lazyhb::support::Hash128;
using lazyhb::support::ThreadSet;
using Clock = std::chrono::steady_clock;

enum class Span : std::uint8_t {
  Cell,
  Schedule,
  Begin,
  Run,
  Resume,
  Pick,
  Fingerprint,
  CacheProbe,
  Stage,
  OnExecutionStart,
  OnObjectRegistered,
  OnEvent,
  OnExecutionEnd,
  Bookkeeping,
  StateFingerprint,
  CacheInsert,
  PrepareNext,
  Explore,
  kCount,
};

/// Nested span timer. A span's self time is its duration minus the time
/// its direct children cover. Spans never cross a fiber switch: observer
/// callbacks run to completion on the fiber that calls them, and picks run
/// on the host loop between switches, so one stack serves every fiber.
class Tracer {
 public:
  struct Totals {
    std::uint64_t calls = 0;
    std::int64_t totalNs = 0;
    std::int64_t selfNs = 0;
  };

  void begin(Span span) { open_.push_back(Open{span, Clock::now(), 0}); }

  /// Close the innermost span; returns its duration in ns.
  std::int64_t end() {
    const Open span = open_.back();
    open_.pop_back();
    const std::int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - span.start)
            .count();
    Totals& t = totals_[static_cast<std::size_t>(span.span)];
    ++t.calls;
    t.totalNs += ns;
    t.selfNs += ns - span.childNs;
    if (!open_.empty()) open_.back().childNs += ns;
    return ns;
  }

  [[nodiscard]] const Totals& operator[](Span span) const {
    return totals_[static_cast<std::size_t>(span)];
  }

 private:
  struct Open {
    Span span;
    Clock::time_point start;
    std::int64_t childNs;
  };
  std::vector<Open> open_;
  std::array<Totals, static_cast<std::size_t>(Span::kCount)> totals_{};
};

class Scoped {
 public:
  Scoped(Tracer& tracer, Span span) : tracer_(tracer) { tracer_.begin(span); }
  ~Scoped() { tracer_.end(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& tracer_;
};

/// Forwards every callback to the real recorder inside a span.
class TimedObserver final : public rt::ExecutionObserver {
 public:
  TimedObserver(Tracer& tracer, lazyhb::trace::TraceRecorder& recorder)
      : tracer_(tracer), recorder_(recorder) {}

  void onExecutionStart(const rt::Execution& exec) override {
    Scoped span(tracer_, Span::OnExecutionStart);
    recorder_.onExecutionStart(exec);
  }
  void onObjectRegistered(const rt::Execution& exec, std::int32_t index, rt::Uid uid,
                          rt::ObjectKind kind, const std::string& name,
                          std::uint64_t initialValueHash) override {
    Scoped span(tracer_, Span::OnObjectRegistered);
    recorder_.onObjectRegistered(exec, index, uid, kind, name, initialValueHash);
  }
  void onEvent(const rt::Execution& exec, const rt::EventRecord& event) override {
    Scoped span(tracer_, Span::OnEvent);
    recorder_.onEvent(exec, event);
  }
  void onExecutionEnd(const rt::Execution& exec, rt::Outcome outcome) override {
    Scoped span(tracer_, Span::OnExecutionEnd);
    recorder_.onExecutionEnd(exec, outcome);
  }

 private:
  Tracer& tracer_;
  lazyhb::trace::TraceRecorder& recorder_;
};

/// RandomExplorer's scheduler: a uniform pick among the enabled threads.
class TimedRandomScheduler final : public rt::Scheduler {
 public:
  TimedRandomScheduler(Tracer& tracer, std::uint64_t seed) : tracer_(tracer), rng_(seed) {}

  int pick(rt::Execution& exec) override {
    Scoped span(tracer_, Span::Pick);
    const ThreadSet enabled = exec.enabled();
    auto nth = rng_.below(static_cast<std::uint64_t>(enabled.size()));
    int tid = enabled.first();
    while (nth-- > 0) tid = enabled.next(tid);
    return tid;
  }

 private:
  Tracer& tracer_;
  lazyhb::support::Rng rng_;
};

/// explore::TreeScheduler with the caching explorers' prune hook inlined,
/// so the fingerprint, the cache probe and the checkpoint stage are each
/// their own span inside the pick.
class TimedTreeScheduler final : public rt::Scheduler {
 public:
  TimedTreeScheduler(Tracer& tracer, ex::TreeSearchState& state,
                     ex::PrefixReplayEngine& engine, std::size_t startDepth,
                     const lazyhb::trace::TraceRecorder& recorder,
                     lazyhb::core::HbrCache* cache, lazyhb::trace::Relation relation)
      : tracer_(tracer),
        state_(state),
        engine_(engine),
        depth_(startDepth),
        recorder_(recorder),
        cache_(cache),
        relation_(relation) {}

  int pick(rt::Execution& exec) override {
    Scoped span(tracer_, Span::Pick);
    if (cache_ != nullptr && depth_ > 0 && depth_ - 1 >= state_.checkFromDepth) {
      Hash128 fingerprint;
      {
        Scoped f(tracer_, Span::Fingerprint);
        fingerprint = recorder_.fingerprint(relation_);
      }
      bool hit = false;
      {
        Scoped probe(tracer_, Span::CacheProbe);
        hit = cache_->checkAndInsert(fingerprint);
      }
      if (hit) return kAbandon;
    }
    if (depth_ < state_.nodes.size()) {
      const ex::SearchNode& node = state_.nodes[depth_];
      LAZYHB_CHECK(exec.enabled().contains(node.chosen));
      if (!node.enabled.minus(node.done).minus(ThreadSet::single(node.chosen)).empty()) {
        stage(exec);
      }
      ++depth_;
      return node.chosen;
    }
    ex::SearchNode node;
    node.enabled = exec.enabled();
    node.chosen = node.enabled.first();
    state_.nodes.push_back(node);
    if (node.enabled.size() > 1) stage(exec);
    ++depth_;
    return node.chosen;
  }

 private:
  void stage(rt::Execution& exec) {
    Scoped span(tracer_, Span::Stage);
    engine_.stageCheckpoint(exec, depth_);
  }

  Tracer& tracer_;
  ex::TreeSearchState& state_;
  ex::PrefixReplayEngine& engine_;
  std::size_t depth_;
  const lazyhb::trace::TraceRecorder& recorder_;
  lazyhb::core::HbrCache* cache_;
  lazyhb::trace::Relation relation_;
};

/// Counters summed over every pass (counts that are per-pass constants are
/// divided by the pass count when reported).
struct LayerCounters {
  std::uint64_t schedules = 0;
  std::uint64_t pruned = 0;
  std::uint64_t events = 0;
  std::uint64_t eventsElided = 0;
  std::uint64_t eventsReplayed = 0;
  std::uint64_t replicatedExecutedEvents = 0;
  std::uint64_t replaysSkipped = 0;
  std::uint64_t cacheProbes = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheInserts = 0;
  std::uint64_t cacheEntries = 0;
  std::uint64_t cacheBytes = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t fullRestarts = 0;
  std::uint64_t bytesStaged = 0;
  std::uint64_t evictions = 0;
  std::uint64_t replayFallbacks = 0;
  std::int64_t dporExploreNs = 0;
  std::uint64_t flushEvents = 0;
  std::uint64_t fenceEvents = 0;
  std::uint32_t maxBufferedStores = 0;
};

bool replicable(const ExplorerSpec& spec) {
  switch (spec.kind) {
    case ExplorerSpec::Kind::Random:
    case ExplorerSpec::Kind::Dfs:
    case ExplorerSpec::Kind::CachingFull:
    case ExplorerSpec::Kind::CachingLazy:
    case ExplorerSpec::Kind::CachingValue:
      return true;
    default:
      return false;
  }
}

/// The cache relation of a caching explorer, nullopt for dfs and random.
std::optional<lazyhb::trace::Relation> cacheRelation(ExplorerSpec::Kind kind) {
  switch (kind) {
    case ExplorerSpec::Kind::CachingFull: return lazyhb::trace::Relation::Full;
    case ExplorerSpec::Kind::CachingLazy: return lazyhb::trace::Relation::Lazy;
    case ExplorerSpec::Kind::CachingValue: return lazyhb::trace::Relation::Value;
    default: return std::nullopt;
  }
}

/// One replicated cell: ExplorerBase::explore with the strategy's
/// runSearch, every layer call inside a span.
ex::ExplorationResult replicateCell(const ExplorerSpec& spec,
                                    const ex::ExplorerOptions& options,
                                    const ex::Program& program, std::uint64_t seed,
                                    Tracer& tracer, LayerCounters& counters,
                                    std::vector<std::int64_t>& scheduleNs) {
  Scoped cellSpan(tracer, Span::Cell);
  rt::StackPool stackPool;
  lazyhb::trace::TraceRecorder recorder(lazyhb::trace::TraceRecorder::Options{
      options.keepPredecessors, options.detectRaces});
  // The engine's persistent execution notifies the observer when it is
  // torn down, so the observer must outlive the engine.
  TimedObserver observer(tracer, recorder);
  ex::PrefixReplayEngine engine(
      stackPool, recorder, options.incremental,
      options.checkpointable && rt::Execution::checkpointingSupported(),
      options.snapshotBudgetBytes);
  const std::optional<lazyhb::trace::Relation> relation = cacheRelation(spec.kind);
  lazyhb::core::HbrCache cache;

  ex::ExplorationResult result;
  std::unordered_set<Hash128, lazyhb::support::Hash128Hasher> hbrs, lazies, values, states;
  const auto budgetExhausted = [&] {
    return result.schedulesExecuted >= options.scheduleLimit;
  };
  const auto fingerprint = [&](lazyhb::trace::Relation r) {
    Scoped span(tracer, Span::Fingerprint);
    return recorder.fingerprint(r);
  };

  // ExplorerBase::executeSchedule.
  const auto execute = [&](rt::Scheduler& scheduler) {
    rt::Config config;
    config.maxEventsPerSchedule = options.maxEventsPerSchedule;
    config.memoryModel = options.memoryModel;
    ex::PrefixReplayEngine::Session session;
    {
      Scoped span(tracer, Span::Begin);
      session = engine.beginSchedule(config, &observer);
    }
    rt::Execution& exec = *session.exec;
    rt::Outcome outcome = rt::Outcome::Terminal;
    if (session.resumed) {
      Scoped span(tracer, Span::Resume);
      outcome = exec.resume(scheduler);
    } else {
      Scoped span(tracer, Span::Run);
      outcome = exec.run(program, scheduler);
    }

    Scoped span(tracer, Span::Bookkeeping);
    ++result.schedulesExecuted;
    result.totalEvents += exec.events().size();
    result.flushEvents += exec.flushEventCount();
    result.fenceEvents += exec.fenceEventCount();
    result.maxBufferedStores = std::max(result.maxBufferedStores, exec.maxBufferedStores());
    switch (outcome) {
      case rt::Outcome::Terminal: {
        ++result.terminalSchedules;
        hbrs.insert(fingerprint(lazyhb::trace::Relation::Full));
        lazies.insert(fingerprint(lazyhb::trace::Relation::Lazy));
        values.insert(fingerprint(lazyhb::trace::Relation::Value));
        Hash128 state;
        {
          Scoped f(tracer, Span::StateFingerprint);
          state = exec.stateFingerprint();
        }
        states.insert(state);
        break;
      }
      case rt::Outcome::Deadlock:
      case rt::Outcome::AssertionFailure:
      case rt::Outcome::UsageError:
        ++result.violationSchedules;
        break;
      case rt::Outcome::Abandoned:
        ++result.prunedSchedules;
        break;
      case rt::Outcome::EventLimit:
        break;
    }
    return outcome;
  };

  if (spec.kind == ExplorerSpec::Kind::Random) {
    // RandomExplorer::runSearch.
    for (std::uint64_t k = 0; !budgetExhausted(); ++k) {
      tracer.begin(Span::Schedule);
      TimedRandomScheduler scheduler(tracer, lazyhb::support::mix64(seed + k));
      (void)execute(scheduler);
      scheduleNs.push_back(tracer.end());
    }
    result.hitScheduleLimit = true;
  } else {
    // DfsExplorer::runSearch / CachingExplorer::runSearch.
    ex::TreeSearchState state;
    std::size_t startDepth = 0;
    for (;;) {
      if (budgetExhausted()) {
        result.hitScheduleLimit = true;
        break;
      }
      tracer.begin(Span::Schedule);
      TimedTreeScheduler scheduler(tracer, state, engine, startDepth, recorder,
                                   relation ? &cache : nullptr,
                                   relation.value_or(lazyhb::trace::Relation::Full));
      const rt::Outcome outcome = execute(scheduler);
      if (relation && outcome != rt::Outcome::Abandoned && recorder.eventCount() > 0) {
        Scoped span(tracer, Span::CacheInsert);
        cache.insert(fingerprint(*relation));
      }
      const bool more = state.advance();
      if (more) {
        Scoped span(tracer, Span::PrepareNext);
        startDepth = engine.prepareNext(state.checkFromDepth);
      }
      scheduleNs.push_back(tracer.end());
      if (!more) {
        result.complete = true;
        break;
      }
    }
  }

  result.distinctHbrs = hbrs.size();
  result.distinctLazyHbrs = lazies.size();
  result.distinctValueClasses = values.size();
  result.distinctStates = states.size();
  result.eventsElided = engine.eventsElided();
  result.eventsReplayed = engine.eventsReplayed();
  result.checkpointStats.enabled = engine.incremental();
  result.checkpointStats.stages = engine.stagesCreated();
  result.checkpointStats.bytesStaged = engine.bytesStaged();
  result.checkpointStats.evictions = engine.evictions();
  result.checkpointStats.replayFallbacks = engine.replayFallbacks();
  if (relation) {
    result.cacheStats.enabled = true;
    result.cacheStats.lookups = cache.stats().lookups;
    result.cacheStats.hits = cache.stats().hits;
    result.cacheStats.insertions = cache.stats().insertions;
    result.cacheStats.entries = cache.size();
    result.cacheStats.approxBytes = cache.approxMemoryBytes();
  }
  counters.replicatedExecutedEvents += result.totalEvents - result.eventsElided;
  counters.replaysSkipped += recorder.replaysSkipped();
  counters.rollbacks += engine.rollbacks();
  counters.fullRestarts += engine.fullRestarts();
  return result;
}

/// Add a finished cell's result-level counters (any cell kind).
void addResult(const ex::ExplorationResult& r, LayerCounters& c) {
  c.schedules += r.schedulesExecuted;
  c.pruned += r.prunedSchedules;
  c.events += r.totalEvents;
  c.eventsElided += r.eventsElided;
  c.eventsReplayed += r.eventsReplayed;
  c.cacheProbes += r.cacheStats.lookups;
  c.cacheHits += r.cacheStats.hits;
  c.cacheInserts += r.cacheStats.insertions;
  c.cacheEntries += r.cacheStats.entries;
  c.cacheBytes += r.cacheStats.approxBytes;
  c.bytesStaged += r.checkpointStats.bytesStaged;
  c.evictions += r.checkpointStats.evictions;
  c.replayFallbacks += r.checkpointStats.replayFallbacks;
  c.flushEvents += r.flushEvents;
  c.fenceEvents += r.fenceEvents;
  c.maxBufferedStores = std::max(c.maxBufferedStores, r.maxBufferedStores);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Value at quantile q of `samples` (nearest rank); sorts in place.
double quantile(std::vector<std::int64_t>& samples, double q) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1));
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return static_cast<double>(samples[rank]);
}

}  // namespace

struct TracedRun::Impl {
  struct Cell {
    const lazyhb::programs::ProgramSpec* program;
    ExplorerSpec spec;
    bool replicated;
  };

  lazyhb::campaign::CampaignOptions options;
  std::vector<Cell> cells;
  std::size_t replicatedCells = 0;
  std::uint64_t passes = 0;
  Tracer tracer;
  LayerCounters counters;
  std::vector<std::int64_t> scheduleNs;
};

TracedRun::TracedRun(const Workload& w, std::uint64_t seed) : impl_(std::make_unique<Impl>()) {
  impl_->options = campaignOptions(w, seed);
  std::vector<const lazyhb::programs::ProgramSpec*> programs = impl_->options.programs;
  if (programs.empty()) {
    for (const lazyhb::programs::ProgramSpec& spec : lazyhb::programs::all()) {
      programs.push_back(&spec);
    }
  }
  // Program-major, like the campaign's cell order.
  for (const lazyhb::programs::ProgramSpec* program : programs) {
    for (const ExplorerSpec& spec : impl_->options.explorers) {
      const bool replicated = replicable(spec);
      impl_->cells.push_back({program, spec, replicated});
      if (replicated) ++impl_->replicatedCells;
    }
  }
}

TracedRun::~TracedRun() = default;

std::size_t TracedRun::cellsPerPass() const noexcept { return impl_->cells.size(); }

std::size_t TracedRun::replicatedCellsPerPass() const noexcept {
  return impl_->replicatedCells;
}

double TracedRun::pass(const lazyhb::campaign::CampaignResult& untraced,
                       std::vector<std::string>* failures) {
  Impl& m = *impl_;
  LAZYHB_CHECK(untraced.cells.size() == m.cells.size());
  const auto start = Clock::now();
  for (std::size_t i = 0; i < m.cells.size(); ++i) {
    const Impl::Cell& cell = m.cells[i];
    ex::ExplorerOptions options = m.options.explorer;
    options.checkpointable = cell.program->checkpointable;
    ex::ExplorationResult result;
    if (cell.replicated) {
      result = replicateCell(cell.spec, options, cell.program->body, m.options.seed,
                             m.tracer, m.counters, m.scheduleNs);
    } else {
      const auto explorer = cell.spec.create(options, m.options.seed);
      m.tracer.begin(Span::Explore);
      result = explorer->explore(cell.program->body);
      const std::int64_t ns = m.tracer.end();
      if (cell.spec.kind == ExplorerSpec::Kind::Dpor) m.counters.dporExploreNs += ns;
    }
    addResult(result, m.counters);

    const lazyhb::campaign::CellResult& twin = untraced.cells[i];
    const std::string diff =
        cell.replicated ? diffCounts(parityCounts(twin.stats), parityCounts(result))
                        : diffCounts(gatedCounts(twin.stats), gatedCounts(result));
    if (twin.program != cell.program->name || twin.explorer != cell.spec.name) {
      failures->push_back("traced cell " + cell.program->name + " x " + cell.spec.name +
                          " has no untraced twin");
    } else if (!diff.empty()) {
      failures->push_back("traced " + cell.program->name + " x " + cell.spec.name +
                          " differs from the untraced run: " + diff);
    }
  }
  ++m.passes;
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<Metric> TracedRun::metrics() const {
  const Impl& m = *impl_;
  const Tracer& t = m.tracer;
  const LayerCounters& c = m.counters;
  const double passes = static_cast<double>(std::max<std::uint64_t>(m.passes, 1));
  const auto perPass = [&](double v) { return v / passes; };
  const auto calls = [&](Span s) { return static_cast<double>(t[s].calls); };
  const auto nsPerCall = [&](Span s) { return ratio(static_cast<double>(t[s].totalNs), calls(s)); };
  const auto selfNsPerCall = [&](Span s) {
    return ratio(static_cast<double>(t[s].selfNs), calls(s));
  };
  const auto selfSecondsPerPass = [&](Span s) {
    return perPass(static_cast<double>(t[s].selfNs) * 1e-9);
  };
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  std::vector<std::int64_t> samples = m.scheduleNs;
  const double executed = u(c.events - c.eventsElided);

  return {
      {"runtime.fresh_runs", perPass(calls(Span::Run)), "count"},
      {"runtime.run.self_us_per_call", selfNsPerCall(Span::Run) * 1e-3, "us"},
      {"runtime.resumes", perPass(calls(Span::Resume)), "count"},
      {"runtime.resume.self_us_per_call", selfNsPerCall(Span::Resume) * 1e-3, "us"},
      {"runtime.executed_events", perPass(executed), "count"},
      {"runtime.ns_per_executed_event",
       ratio(static_cast<double>(t[Span::Run].selfNs + t[Span::Resume].selfNs),
             u(c.replicatedExecutedEvents)),
       "ns"},
      {"runtime.state_fingerprint.ns_per_call", nsPerCall(Span::StateFingerprint), "ns"},
      {"trace.on_execution_start.us_per_call", nsPerCall(Span::OnExecutionStart) * 1e-3,
       "us"},
      {"trace.on_object_registered.self_s", selfSecondsPerPass(Span::OnObjectRegistered),
       "s"},
      {"trace.on_event.calls", perPass(calls(Span::OnEvent)), "count"},
      {"trace.on_event.ns_per_call", nsPerCall(Span::OnEvent), "ns"},
      {"trace.on_event.self_s", selfSecondsPerPass(Span::OnEvent), "s"},
      {"trace.replays_skipped", perPass(u(c.replaysSkipped)), "count"},
      {"trace.skip_ratio", ratio(u(c.replaysSkipped), calls(Span::OnEvent)), "ratio"},
      {"trace.fingerprint.ns_per_call", nsPerCall(Span::Fingerprint), "ns"},
      {"core.cache.probes", perPass(u(c.cacheProbes)), "count"},
      {"core.cache.hits", perPass(u(c.cacheHits)), "count"},
      {"core.cache.hit_ratio", ratio(u(c.cacheHits), u(c.cacheProbes)), "ratio"},
      {"core.cache.inserts", perPass(u(c.cacheInserts)), "count"},
      {"core.cache.ns_per_probe", nsPerCall(Span::CacheProbe), "ns"},
      {"core.cache.self_s",
       perPass(static_cast<double>(t[Span::CacheProbe].selfNs + t[Span::CacheInsert].selfNs) *
               1e-9),
       "s"},
      {"core.cache.entries", perPass(u(c.cacheEntries)), "count"},
      {"core.cache.bytes", perPass(u(c.cacheBytes)), "B"},
      {"explore.replay.stage.us_per_call", nsPerCall(Span::Stage) * 1e-3, "us"},
      {"explore.replay.prepare_next.us_per_call", nsPerCall(Span::PrepareNext) * 1e-3, "us"},
      {"explore.replay.begin.us_per_call", nsPerCall(Span::Begin) * 1e-3, "us"},
      {"explore.replay.events_elided", perPass(u(c.eventsElided)), "count"},
      {"explore.replay.events_replayed", perPass(u(c.eventsReplayed)), "count"},
      {"explore.replay.elided_ratio", ratio(u(c.eventsElided), u(c.events)), "ratio"},
      {"explore.replay.rollbacks", perPass(u(c.rollbacks)), "count"},
      {"explore.replay.full_restarts", perPass(u(c.fullRestarts)), "count"},
      {"explore.replay.bytes_staged", perPass(u(c.bytesStaged)), "B"},
      {"explore.replay.evictions", perPass(u(c.evictions)), "count"},
      {"explore.replay.fallbacks", perPass(u(c.replayFallbacks)), "count"},
      {"explore.pick.calls", perPass(calls(Span::Pick)), "count"},
      {"explore.pick.self_ns_per_call", selfNsPerCall(Span::Pick), "ns"},
      {"explore.control.self_s",
       perPass(static_cast<double>(t[Span::Cell].selfNs + t[Span::Schedule].selfNs) * 1e-9),
       "s"},
      {"explore.bookkeeping.ns_per_schedule", selfNsPerCall(Span::Bookkeeping), "ns"},
      {"explore.pruned_ratio", ratio(u(c.pruned), u(c.schedules)), "ratio"},
      {"explore.dpor.explore_s", perPass(static_cast<double>(c.dporExploreNs) * 1e-9), "s"},
      {"explore.schedule.p50_us", quantile(samples, 0.50) * 1e-3, "us"},
      {"explore.schedule.p99_us", quantile(samples, 0.99) * 1e-3, "us"},
      {"explore.schedule.samples", static_cast<double>(samples.size()), "count"},
      {"memory.flush_events", perPass(u(c.flushEvents)), "count"},
      {"memory.fence_events", perPass(u(c.fenceEvents)), "count"},
      {"memory.max_buffered_stores", u(c.maxBufferedStores), "count"},
  };
}

}  // namespace perfbench
