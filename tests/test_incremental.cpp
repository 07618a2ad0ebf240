// Rollback-equivalence properties for the incremental prefix-replay engine.
//
// The engine's contract is byte-identity: exploring with checkpoints and
// rollbacks (either tier — full runtime rollback or recorder-side replay
// elision) must produce, schedule by schedule, exactly the choices,
// outcomes, fingerprints, per-event causal hashes and clock rows that a
// from-scratch exploration produces. These tests pin that contract:
//
//   * a traced DFS walk run three ways (incremental off / recorder elision /
//     full rollback) over a corpus slice, compared element-wise;
//   * the same triple-run over randomly generated checkpointable programs
//     (InlineVec storage, the shape the fiber-snapshot tier requires);
//   * explorer-level count identity across modes for DPOR and the caching
//     explorers (prune hooks interleave with rollback);
//   * ClockArena truncation re-extension identity.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "explore/dfs_explorer.hpp"
#include "memory/memory_model.hpp"
#include "explore/prefix_replay.hpp"
#include "explore/replay.hpp"
#include "programs/registry.hpp"
#include "runtime/api.hpp"
#include "random_program_gen.hpp"
#include "support/rng.hpp"
#include "test_helpers.hpp"
#include "trace/clock_arena.hpp"
#include "trace/trace_recorder.hpp"

namespace {

using namespace lazyhb;

struct ScheduleTrace {
  std::vector<int> choices;
  runtime::Outcome outcome = runtime::Outcome::Terminal;
  support::Hash128 full;
  support::Hash128 lazy;
  support::Hash128 state;
  std::vector<support::Hash128> eventHashes;      // full-relation, per event
  std::vector<std::vector<std::uint32_t>> clocks; // full-relation rows
};

bool operator==(const ScheduleTrace& a, const ScheduleTrace& b) {
  return a.choices == b.choices && a.outcome == b.outcome && a.full == b.full &&
         a.lazy == b.lazy && a.state == b.state && a.eventHashes == b.eventHashes &&
         a.clocks == b.clocks;
}

/// The DFS walk of TreeExplorer::runSearch, instrumented: returns one trace
/// per executed schedule, capturing everything the exploration layer could
/// observe about it.
std::vector<ScheduleTrace> tracedDfs(const explore::Program& program,
                                     bool incremental, bool checkpointable,
                                     std::uint64_t limit = 4000,
                                     std::uint64_t snapshotBudgetBytes = 0,
                                     memory::MemoryModel model = memory::MemoryModel::Sc) {
  trace::TraceRecorder recorder(trace::TraceRecorder::Options{.fullClocks = true});
  runtime::StackPool pool;
  explore::PrefixReplayEngine engine(
      pool, recorder, incremental,
      checkpointable && runtime::Execution::checkpointingSupported(),
      snapshotBudgetBytes);
  explore::TreeSearchState state;
  std::vector<ScheduleTrace> traces;
  std::size_t startDepth = 0;
  for (;;) {
    if (traces.size() >= limit) break;
    explore::TreeScheduler scheduler(state, {}, &engine, startDepth);
    runtime::Config config;
    config.memoryModel = model;
    const explore::PrefixReplayEngine::Session session =
        engine.beginSchedule(config, &recorder);
    const runtime::Outcome outcome = session.resumed
                                         ? session.exec->resume(scheduler)
                                         : session.exec->run(program, scheduler);
    ScheduleTrace trace;
    trace.choices = session.exec->choices();
    trace.outcome = outcome;
    trace.state = session.exec->stateFingerprint();
    if (recorder.eventCount() > 0) {
      trace.full = recorder.fingerprint(trace::Relation::Full);
      trace.lazy = recorder.fingerprint(trace::Relation::Lazy);
    }
    for (std::size_t i = 0; i < recorder.eventCount(); ++i) {
      const auto index = static_cast<std::int32_t>(i);
      trace.eventHashes.push_back(recorder.eventHash(trace::Relation::Full, index));
      const trace::ClockView view = recorder.eventClock(trace::Relation::Full, index);
      trace.clocks.emplace_back(view.data(), view.data() + view.width());
    }
    traces.push_back(std::move(trace));
    if (!state.advance()) break;
    startDepth = engine.prepareNext(state.checkFromDepth);
  }
  return traces;
}

void expectIdenticalTraces(const explore::Program& program, bool checkpointable,
                           const std::string& label) {
  const std::vector<ScheduleTrace> baseline = tracedDfs(program, false, false);
  const std::vector<ScheduleTrace> elision = tracedDfs(program, true, false);
  ASSERT_EQ(baseline.size(), elision.size()) << label << " (recorder elision)";
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_TRUE(baseline[i] == elision[i])
        << label << ": schedule " << i << " diverges under recorder elision";
  }
  if (checkpointable && runtime::Execution::checkpointingSupported()) {
    const std::vector<ScheduleTrace> rollback = tracedDfs(program, true, true);
    ASSERT_EQ(baseline.size(), rollback.size()) << label << " (runtime rollback)";
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_TRUE(baseline[i] == rollback[i])
          << label << ": schedule " << i << " diverges under runtime rollback";
    }
  }
}

TEST(IncrementalReplay, CorpusSliceTracesIdenticalAcrossModes) {
  // A slice spanning the regimes: coarse locking, racy counters, condvars,
  // trylock, semaphores, and known-buggy programs (violations mid-tree).
  const char* names[] = {
      "disjoint-lock-2", "noisy-counter-3x1", "prodcons-1x1", "trylock-vs-lock",
      "sem-rendezvous",  "racy-counter-3",    "pingpong-2",
  };
  for (const char* name : names) {
    const programs::ProgramSpec* spec = programs::byName(name);
    ASSERT_NE(spec, nullptr) << name;
    expectIdenticalTraces(spec->body, spec->checkpointable, name);
  }
}

TEST(IncrementalReplay, HeapBasedProgramFallsBackAndMatches) {
  // buggy-family programs keep std::vector storage on purpose: they must
  // still explore correctly (via re-execution + recorder elision), never
  // via fiber snapshots.
  const programs::ProgramSpec* spec = programs::byName("deadlock-ab");
  ASSERT_NE(spec, nullptr);
  EXPECT_FALSE(spec->checkpointable);
  expectIdenticalTraces(spec->body, spec->checkpointable, "deadlock-ab");
}

// --- randomly generated checkpointable programs ------------------------------

using lazyhb::testing::GenOp;
using lazyhb::testing::GenProgram;

/// Materialize with InlineVec storage: the checkpointable-contract shape.
explore::Program materializeCheckpointable(const GenProgram& gen) {
  return [gen] {
    InlineVec<Shared<int>, 4> vars;
    for (int v = 0; v < gen.vars; ++v) vars.emplace(0, "v");
    InlineVec<Mutex, 4> mutexes;
    for (int m = 0; m < gen.mutexes; ++m) mutexes.emplace("m");
    InlineVec<ThreadHandle, 4> workers;
    for (const auto& ops : gen.threads) {
      workers.push(spawn([&vars, &mutexes, &ops] {
        for (const GenOp& op : ops) {
          switch (op.kind) {
            case GenOp::Kind::Read:
              (void)vars[static_cast<std::size_t>(op.object)].load();
              break;
            case GenOp::Kind::Write:
              vars[static_cast<std::size_t>(op.object)].modify(
                  [](int v) { return v + 1; });
              break;
            case GenOp::Kind::Lock:
              mutexes[static_cast<std::size_t>(op.object)].lock();
              break;
            case GenOp::Kind::Unlock:
              mutexes[static_cast<std::size_t>(op.object)].unlock();
              break;
            case GenOp::Kind::TryLockPulse:
              if (mutexes[static_cast<std::size_t>(op.object)].tryLock()) {
                mutexes[static_cast<std::size_t>(op.object)].unlock();
              }
              break;
          }
        }
      }));
    }
    for (auto& w : workers) w.join();
  };
}

TEST(IncrementalReplay, RandomCheckpointableProgramsTraceIdentically) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const GenProgram gen = lazyhb::testing::generate(seed);
    expectIdenticalTraces(materializeCheckpointable(gen), /*checkpointable=*/true,
                          "seed " + std::to_string(seed));
  }
}

// --- explorer-level identity (prune hooks interact with rollback) ------------

explore::ExplorerOptions optionsFor(bool incremental, bool checkpointable) {
  explore::ExplorerOptions options;
  options.scheduleLimit = 500;
  options.incremental = incremental;
  options.checkpointable = checkpointable;
  return options;
}

/// Incremental on and off must agree on every Contract count.
void expectSameCounts(const explore::ExplorationResult& a,
                      const explore::ExplorationResult& b,
                      const std::string& label) {
  lazyhb::testing::expectSameCounts(a, b, campaign::CountClass::Contract, label);
}

TEST(IncrementalReplay, CachingAndDporCountsIdenticalAcrossModes) {
  const char* names[] = {"noisy-counter-3x2", "prodcons-1x1", "deadlock-ab",
                         "trylock-fallback-2"};
  for (const char* name : names) {
    const programs::ProgramSpec* spec = programs::byName(name);
    ASSERT_NE(spec, nullptr) << name;
    for (const trace::Relation relation :
         {trace::Relation::Full, trace::Relation::Lazy}) {
      explore::TreeExplorer off(optionsFor(false, false), relation);
      explore::TreeExplorer on(optionsFor(true, spec->checkpointable), relation);
      expectSameCounts(off.explore(spec->body), on.explore(spec->body),
                       std::string(name) + " caching-" + trace::relationName(relation));
    }
    explore::TreeExplorer off(optionsFor(false, false), explore::DporOptions{});
    explore::TreeExplorer on(optionsFor(true, spec->checkpointable),
                             explore::DporOptions{});
    expectSameCounts(off.explore(spec->body), on.explore(spec->body),
                     std::string(name) + " dpor");
  }
}

TEST(IncrementalReplay, ElisionAccountingIsConsistent) {
  const programs::ProgramSpec* spec = programs::byName("noisy-counter-3x2");
  ASSERT_NE(spec, nullptr);
  explore::TreeExplorer off(optionsFor(false, false));
  const explore::ExplorationResult base = off.explore(spec->body);
  EXPECT_EQ(base.eventsElided, 0u);
  EXPECT_GT(base.eventsReplayed, 0u);  // replays exist; they are just re-run

  explore::TreeExplorer on(optionsFor(true, spec->checkpointable));
  const explore::ExplorationResult fast = on.explore(spec->body);
  EXPECT_EQ(fast.totalEvents, base.totalEvents);
  if (runtime::Execution::checkpointingSupported()) {
    EXPECT_GT(fast.eventsElided, 0u);
    // Elided + replayed per schedule == divergence depth, and the engine
    // rolls back exactly to staged divergence points, so the two modes
    // partition the same redundant-prefix total.
    EXPECT_EQ(fast.eventsElided + fast.eventsReplayed, base.eventsReplayed);
  }
  EXPECT_LE(fast.eventsElided, fast.totalEvents);
}

// --- snapshot-budget identity ------------------------------------------------
//
// The byte-budgeted snapshot store (explore/prefix_replay.hpp) evicts
// staged checkpoints under pressure and falls back to replaying from a
// shallower stage (or a full restart). None of that may move a single
// observable: traces and counts are byte-identical at any budget.

TEST(SnapshotBudget, EnvironmentValueParsesOnlyPlainDecimalBytes) {
  // A malformed LAZYHB_SNAPSHOT_BUDGET falls back to the default; in
  // particular "-1" must not wrap around to an effectively unlimited budget.
  EXPECT_EQ(explore::parseSnapshotBudgetBytes("-1"), std::nullopt);
  EXPECT_EQ(explore::parseSnapshotBudgetBytes(" 5"), std::nullopt);
  EXPECT_EQ(explore::parseSnapshotBudgetBytes(""), std::nullopt);
  EXPECT_EQ(explore::parseSnapshotBudgetBytes(nullptr), std::nullopt);
  EXPECT_EQ(explore::parseSnapshotBudgetBytes("+5"), std::nullopt);
  EXPECT_EQ(explore::parseSnapshotBudgetBytes("5 "), std::nullopt);
  EXPECT_EQ(explore::parseSnapshotBudgetBytes("99999999999999999999"), std::nullopt);
  EXPECT_EQ(explore::parseSnapshotBudgetBytes("0"), std::optional<std::uint64_t>{0});
  EXPECT_EQ(explore::parseSnapshotBudgetBytes("4096"),
            std::optional<std::uint64_t>{4096});
}

TEST(IncrementalReplay, TracesIdenticalAtAnySnapshotBudget) {
  // A 64-byte budget keeps at most the deepest stage alive — every
  // shallower divergence goes through the eviction fallback path.
  const char* names[] = {"noisy-counter-3x1", "racy-counter-3", "pingpong-2"};
  for (const char* name : names) {
    const programs::ProgramSpec* spec = programs::byName(name);
    ASSERT_NE(spec, nullptr) << name;
    const std::vector<ScheduleTrace> baseline = tracedDfs(spec->body, false, false);
    for (const std::uint64_t budget : {std::uint64_t{64}, std::uint64_t{0}}) {
      const std::vector<ScheduleTrace> elision =
          tracedDfs(spec->body, true, false, 4000, budget);
      ASSERT_EQ(baseline.size(), elision.size()) << name << " budget " << budget;
      for (std::size_t i = 0; i < baseline.size(); ++i) {
        EXPECT_TRUE(baseline[i] == elision[i])
            << name << ": schedule " << i << " diverges at budget " << budget;
      }
      if (spec->checkpointable && runtime::Execution::checkpointingSupported()) {
        const std::vector<ScheduleTrace> rollback =
            tracedDfs(spec->body, true, true, 4000, budget);
        ASSERT_EQ(baseline.size(), rollback.size()) << name << " budget " << budget;
        for (std::size_t i = 0; i < baseline.size(); ++i) {
          EXPECT_TRUE(baseline[i] == rollback[i])
              << name << ": schedule " << i
              << " diverges under rollback at budget " << budget;
        }
      }
    }
  }
}

// --- TSO store-buffer identity -----------------------------------------------
//
// Under TSO a checkpoint can land with stores still parked in per-thread
// buffers; rollback must restore the buffers (contents, FIFO order, flush
// counters) exactly, or the re-extended schedule forwards different values
// and every fingerprint downstream drifts. These tests run the same
// triple-mode and budget-eviction comparisons as above, but over the
// weak-memory corpus with flush transitions in every schedule tree.

TEST(IncrementalReplay, TsoTracesIdenticalAcrossModes) {
  // The whole weak-memory family: buggy litmus variants (violations
  // mid-tree), fenced witnesses (fence gates interleave with rollback), and
  // the forwarding witness (reads served from restored buffers).
  for (const programs::ProgramSpec* spec : programs::byFamily("weakmem")) {
    const std::vector<ScheduleTrace> baseline =
        tracedDfs(spec->body, false, false, 4000, 0, memory::MemoryModel::Tso);
    const std::vector<ScheduleTrace> elision =
        tracedDfs(spec->body, true, false, 4000, 0, memory::MemoryModel::Tso);
    ASSERT_EQ(baseline.size(), elision.size()) << spec->name;
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_TRUE(baseline[i] == elision[i])
          << spec->name << ": schedule " << i
          << " diverges under recorder elision (tso)";
    }
    if (spec->checkpointable && runtime::Execution::checkpointingSupported()) {
      const std::vector<ScheduleTrace> rollback =
          tracedDfs(spec->body, true, true, 4000, 0, memory::MemoryModel::Tso);
      ASSERT_EQ(baseline.size(), rollback.size()) << spec->name;
      for (std::size_t i = 0; i < baseline.size(); ++i) {
        EXPECT_TRUE(baseline[i] == rollback[i])
            << spec->name << ": schedule " << i
            << " diverges under runtime rollback (tso)";
      }
    }
  }
}

TEST(IncrementalReplay, TsoTracesIdenticalUnderSnapshotBudgetEviction) {
  // A 64-byte budget forces the eviction fallback on nearly every
  // divergence: rollback targets vanish and the engine replays from
  // shallower stages — with non-empty store buffers at both ends.
  const char* names[] = {"sb-unfenced", "peterson-unfenced", "seqlock-fenced",
                         "store-forwarding"};
  for (const char* name : names) {
    const programs::ProgramSpec* spec = programs::byName(name);
    ASSERT_NE(spec, nullptr) << name;
    const std::vector<ScheduleTrace> baseline =
        tracedDfs(spec->body, false, false, 4000, 0, memory::MemoryModel::Tso);
    for (const std::uint64_t budget : {std::uint64_t{64}, std::uint64_t{0}}) {
      for (const bool useRollback : {false, true}) {
        if (useRollback && !(spec->checkpointable &&
                             runtime::Execution::checkpointingSupported())) {
          continue;
        }
        const std::vector<ScheduleTrace> candidate = tracedDfs(
            spec->body, true, useRollback, 4000, budget, memory::MemoryModel::Tso);
        ASSERT_EQ(baseline.size(), candidate.size())
            << name << " budget " << budget << " rollback " << useRollback;
        for (std::size_t i = 0; i < baseline.size(); ++i) {
          EXPECT_TRUE(baseline[i] == candidate[i])
              << name << ": schedule " << i << " diverges at budget " << budget
              << (useRollback ? " under runtime rollback" : " under elision")
              << " (tso)";
        }
      }
    }
  }
}

TEST(IncrementalReplay, CountsIdenticalAcrossBudgetAndWorkerMatrix) {
  // The golden 8-program matrix crossed with undo-log on/off and snapshot
  // budget {tiny, engine default, unlimited}. The incremental-off run is
  // the one baseline; every other mode must reproduce its counts
  // byte-for-byte.
  const char* names[] = {
      "disjoint-lock-2", "noisy-counter-3x1", "prodcons-1x1", "trylock-vs-lock",
      "sem-rendezvous",  "racy-counter-3",    "pingpong-2",   "deadlock-ab",
  };
  const std::uint64_t budgets[] = {512, explore::defaultSnapshotBudgetBytes(), 0};
  for (const char* name : names) {
    const programs::ProgramSpec* spec = programs::byName(name);
    ASSERT_NE(spec, nullptr) << name;
    explore::TreeExplorer off(optionsFor(false, false));
    const explore::ExplorationResult baseline = off.explore(spec->body);
    for (const std::uint64_t budget : budgets) {
      explore::ExplorerOptions options = optionsFor(true, spec->checkpointable);
      options.snapshotBudgetBytes = budget;
      explore::TreeExplorer on(options);
      expectSameCounts(baseline, on.explore(spec->body),
                       std::string(name) + " budget " + std::to_string(budget));
    }
  }
}

// --- undo-log mechanics ------------------------------------------------------

/// Captures one execution's observer stream so the recorder's undo-log
/// machinery can be driven directly (no fibers, no scheduling).
struct CapturedTrace : runtime::ExecutionObserver {
  struct Registration {
    std::int32_t index;
    runtime::Uid uid;
    runtime::ObjectKind kind;
    std::string name;
    std::uint64_t initialValueHash;
  };
  std::vector<Registration> registrations;
  std::vector<runtime::EventRecord> events;

  void onObjectRegistered(const runtime::Execution&, std::int32_t index,
                          runtime::Uid uid, runtime::ObjectKind kind,
                          const std::string& name,
                          std::uint64_t initialValueHash) override {
    registrations.push_back({index, uid, kind, name, initialValueHash});
  }
  void onEvent(const runtime::Execution&, const runtime::EventRecord& ev) override {
    events.push_back(ev);
  }
};

void coalesceProgram() {
  Shared<int> a{0, "a"};
  Shared<int> b{0, "b"};
  a.store(1);
  a.store(2);
  a.store(3);
  b.store(1);
  a.store(4);
}

CapturedTrace captureCoalesceTrace() {
  runtime::StackPool pool;
  CapturedTrace captured;
  runtime::Execution source(runtime::Config{}, pool, &captured);
  explore::FixedScheduler scheduler({});
  (void)source.run(coalesceProgram, scheduler);
  return captured;
}

TEST(IncrementalReplay, UndoEntriesCoalescePerObjectBetweenStages) {
  const CapturedTrace captured = captureCoalesceTrace();
  std::vector<std::size_t> writes;
  for (std::size_t i = 0; i < captured.events.size(); ++i) {
    if (captured.events[i].kind == runtime::OpKind::Write) writes.push_back(i);
  }
  ASSERT_EQ(writes.size(), 5u);  // a, a, a, b, a

  runtime::StackPool pool;
  trace::TraceRecorder recorder;
  runtime::Execution dummy(runtime::Config{}, pool, nullptr);  // never run
  recorder.onExecutionStart(dummy);
  for (const auto& reg : captured.registrations) {
    recorder.onObjectRegistered(dummy, reg.index, reg.uid, reg.kind, reg.name,
                                reg.initialValueHash);
  }
  std::size_t next = 0;
  auto feedThrough = [&](std::size_t lastEvent) {
    for (; next <= lastEvent; ++next) {
      recorder.onEvent(dummy, captured.events[next]);
    }
  };

  // No stage, no undo-logging: the hook must be a no-op.
  feedThrough(writes[0]);
  EXPECT_EQ(recorder.undoLogSize(), 0u);

  trace::TraceRecorder::Checkpoint d0;
  recorder.checkpoint(d0);
  const std::size_t depth0 = recorder.eventCount();
  feedThrough(writes[1]);
  EXPECT_EQ(recorder.undoLogSize(), 1u);  // first touch of `a` this epoch
  feedThrough(writes[2]);
  EXPECT_EQ(recorder.undoLogSize(), 1u);  // second write to `a` coalesces
  feedThrough(writes[3]);
  EXPECT_EQ(recorder.undoLogSize(), 2u);  // `b` is a fresh object

  trace::TraceRecorder::Checkpoint d1;
  recorder.checkpoint(d1);
  feedThrough(writes[4]);
  EXPECT_EQ(recorder.undoLogSize(), 3u);  // new epoch re-logs `a` once

  // Rolling back trims the undo log to each checkpoint's mark.
  recorder.rollbackTo(d1);
  EXPECT_EQ(recorder.undoLogSize(), 2u);
  recorder.rollbackTo(d0);
  EXPECT_EQ(recorder.undoLogSize(), 0u);
  EXPECT_EQ(recorder.eventCount(), depth0);

  // A reset switches undo-logging off until the next checkpoint.
  recorder.onExecutionStart(dummy);
  for (const auto& reg : captured.registrations) {
    recorder.onObjectRegistered(dummy, reg.index, reg.uid, reg.kind, reg.name,
                                reg.initialValueHash);
  }
  next = 0;
  feedThrough(writes[1]);
  EXPECT_EQ(recorder.undoLogSize(), 0u);
}

TEST(IncrementalReplay, EvictThenRollbackPastEvictedRestoresState) {
  const CapturedTrace captured = captureCoalesceTrace();
  std::vector<std::size_t> writes;
  for (std::size_t i = 0; i < captured.events.size(); ++i) {
    if (captured.events[i].kind == runtime::OpKind::Write) writes.push_back(i);
  }
  ASSERT_EQ(writes.size(), 5u);

  runtime::StackPool pool;
  trace::TraceRecorder recorder;
  runtime::Execution dummy(runtime::Config{}, pool, nullptr);  // never run
  recorder.onExecutionStart(dummy);
  for (const auto& reg : captured.registrations) {
    recorder.onObjectRegistered(dummy, reg.index, reg.uid, reg.kind, reg.name,
                                reg.initialValueHash);
  }
  std::size_t next = 0;
  auto feedThrough = [&](std::size_t lastEvent) {
    for (; next <= lastEvent; ++next) {
      recorder.onEvent(dummy, captured.events[next]);
    }
  };

  feedThrough(writes[0]);
  trace::TraceRecorder::Checkpoint d0;
  recorder.checkpoint(d0);
  const std::size_t depth0 = recorder.eventCount();
  const support::Hash128 fullAtD0 = recorder.fingerprint(trace::Relation::Full);
  const support::Hash128 lazyAtD0 = recorder.fingerprint(trace::Relation::Lazy);

  feedThrough(writes[2]);
  {
    // The mid checkpoint, evicted (dropped by its owner) at scope end.
    trace::TraceRecorder::Checkpoint d1;
    recorder.checkpoint(d1);
    EXPECT_GT(d1.approxBytes(), 0u);
    feedThrough(writes[4]);
  }
  const support::Hash128 fullEnd = recorder.fingerprint(trace::Relation::Full);

  // The undo entries logged since d0 outlive the evicted checkpoint (one
  // per object per epoch: `a` before d1, `b` and `a` after it), so rolling
  // back *past* d1 still lands exactly on d0's state.
  EXPECT_EQ(recorder.undoLogSize(), 3u);

  recorder.rollbackTo(d0);
  EXPECT_EQ(recorder.undoLogSize(), 0u);
  EXPECT_EQ(recorder.eventCount(), depth0);
  EXPECT_EQ(recorder.fingerprint(trace::Relation::Full), fullAtD0);
  EXPECT_EQ(recorder.fingerprint(trace::Relation::Lazy), lazyAtD0);

  // Re-extending along the same suffix reproduces the original trace.
  next = writes[0] + 1;
  feedThrough(writes[4]);
  EXPECT_EQ(recorder.fingerprint(trace::Relation::Full), fullEnd);
}

TEST(IncrementalReplay, ValueFingerprintSurvivesRollbackAndReplay) {
  // The observation state behind Relation::Value (abelian prefix digest,
  // per-var value hashes, condvar queues) must restore across
  // checkpoint/rollback exactly like the relation state: a rolled-back and
  // re-extended recorder's Value fingerprint is byte-identical to a fresh
  // recorder fed the same stream.
  runtime::StackPool pool;
  CapturedTrace captured;
  {
    runtime::Execution source(runtime::Config{}, pool, &captured);
    explore::FixedScheduler scheduler({});
    (void)source.run(
        [] {
          Shared<int> a{0, "a"};
          Shared<int> b{5, "b"};  // nonzero initial value hash
          a.store(1);
          b.store(a.load() + 2);
          a.store(4);
          (void)b.load();
        },
        scheduler);
  }
  ASSERT_GE(captured.events.size(), 4u);

  trace::TraceRecorder recorder;
  runtime::Execution dummy(runtime::Config{}, pool, nullptr);  // never run
  auto seed = [&](trace::TraceRecorder& r) {
    r.onExecutionStart(dummy);
    for (const auto& reg : captured.registrations) {
      r.onObjectRegistered(dummy, reg.index, reg.uid, reg.kind, reg.name,
                           reg.initialValueHash);
    }
  };
  seed(recorder);
  const std::size_t half = captured.events.size() / 2;
  for (std::size_t i = 0; i < half; ++i) recorder.onEvent(dummy, captured.events[i]);
  trace::TraceRecorder::Checkpoint d;
  recorder.checkpoint(d);
  const support::Hash128 valueAtD = recorder.fingerprint(trace::Relation::Value);
  for (std::size_t i = half; i < captured.events.size(); ++i) {
    recorder.onEvent(dummy, captured.events[i]);
  }
  const support::Hash128 valueEnd = recorder.fingerprint(trace::Relation::Value);
  EXPECT_NE(valueAtD, valueEnd);  // the suffix must actually change it

  recorder.rollbackTo(d);
  EXPECT_EQ(recorder.fingerprint(trace::Relation::Value), valueAtD);
  for (std::size_t i = half; i < captured.events.size(); ++i) {
    recorder.onEvent(dummy, captured.events[i]);
  }
  EXPECT_EQ(recorder.fingerprint(trace::Relation::Value), valueEnd);

  trace::TraceRecorder fresh;
  seed(fresh);
  for (const auto& ev : captured.events) fresh.onEvent(dummy, ev);
  EXPECT_EQ(fresh.fingerprint(trace::Relation::Value), valueEnd);
}

// --- execution reuse ---------------------------------------------------------

/// Uniform random picks from a seed; abandons the run once `abandonAt`
/// events have committed.
class SeededPicker final : public runtime::Scheduler {
 public:
  SeededPicker(std::uint64_t seed, std::size_t abandonAt)
      : rng_(seed), abandonAt_(abandonAt) {}

  int pick(runtime::Execution& exec) override {
    if (exec.events().size() == abandonAt_) return kAbandon;
    const support::ThreadSet enabled = exec.enabled();
    auto nth = rng_.below(static_cast<std::uint64_t>(enabled.size()));
    int tid = enabled.first();
    while (nth-- > 0) tid = enabled.next(tid);
    return tid;
  }

 private:
  support::Rng rng_;
  std::size_t abandonAt_;
};

/// Everything one schedule exposes to an explorer.
struct RunRecord {
  runtime::Outcome outcome = runtime::Outcome::Terminal;
  std::vector<int> choices;
  std::vector<runtime::EventRecord> events;
  support::Hash128 full;
  support::Hash128 lazy;
  support::Hash128 value;
  support::Hash128 state;
  runtime::Outcome violationKind = runtime::Outcome::Terminal;
  std::string violationMessage;
  std::vector<int> violationSchedule;
};

bool sameEvent(const runtime::EventRecord& a, const runtime::EventRecord& b) {
  return a.threadIndex == b.threadIndex && a.indexInThread == b.indexInThread &&
         a.kind == b.kind && a.aux == b.aux && a.threadUid == b.threadUid &&
         a.objectUid == b.objectUid && a.objectIndex == b.objectIndex &&
         a.mutexUid == b.mutexUid && a.mutexIndex == b.mutexIndex &&
         a.signalPredecessor == b.signalPredecessor &&
         a.spawnPredecessor == b.spawnPredecessor &&
         a.joinPredecessor == b.joinPredecessor && a.valueHash == b.valueHash;
}

bool operator==(const RunRecord& a, const RunRecord& b) {
  return a.outcome == b.outcome && a.choices == b.choices &&
         std::equal(a.events.begin(), a.events.end(), b.events.begin(), b.events.end(),
                    sameEvent) &&
         a.full == b.full && a.lazy == b.lazy && a.value == b.value &&
         a.state == b.state && a.violationKind == b.violationKind &&
         a.violationMessage == b.violationMessage &&
         a.violationSchedule == b.violationSchedule;
}

RunRecord capture(runtime::Outcome outcome, const runtime::Execution& exec,
                  const trace::TraceRecorder& recorder) {
  RunRecord r;
  r.outcome = outcome;
  r.choices = exec.choices();
  r.events = exec.events();
  r.full = recorder.fingerprint(trace::Relation::Full);
  r.lazy = recorder.fingerprint(trace::Relation::Lazy);
  r.value = recorder.fingerprint(trace::Relation::Value);
  r.state = exec.stateFingerprint();
  if (runtime::isViolation(outcome)) {
    r.violationKind = exec.violation().kind;
    r.violationMessage = exec.violation().message;
    r.violationSchedule = exec.violation().schedule;
  }
  return r;
}

/// Checkpointable (engine-resident Shared<int>s, mutexes, stack handles).
/// By schedule it terminates, deadlocks on the lock-order inversion, loses
/// an update (assertion failure) or unlocks a mutex it does not hold.
void mixedOutcomeProgram() {
  Mutex a("a");
  Mutex b("b");
  Shared<int> counter{0, "counter"};
  Shared<int> last{0, "last"};
  ThreadHandle t1 = spawn([&] {
    counter.store(counter.load() + 1);
    LockGuard ga(a);
    LockGuard gb(b);
    last.store(1);
  });
  ThreadHandle t2 = spawn([&] {
    counter.store(counter.load() + 1);
    LockGuard gb(b);
    LockGuard ga(a);
    last.store(2);
  });
  t1.join();
  t2.join();
  if (counter.load() == 2 && last.load() == 2) a.unlock();  // not held
  checkAlways(counter.load() == 2, "lost update");
}

/// Heap-owning stack locals (a vector of strings grown by both threads) and
/// a lost-update bug.
void heapBuggyProgram() {
  std::vector<std::string> log;
  Shared<int> x{0, "x"};
  std::vector<ThreadHandle> threads;
  for (int i = 0; i < 2; ++i) {
    threads.push_back(spawn([&, i] {
      const int v = x.load();
      x.store(v + 1);
      log.push_back("worker " + std::to_string(i) + " stored its increment");
    }));
  }
  for (ThreadHandle& t : threads) t.join();
  checkAlways(x.load() == 2 && log.size() == 2, "lost update");
}

/// Runs one schedule sequence twice — through a single PrefixReplayEngine
/// (one Execution, reset between schedules) and through a fresh Execution
/// and recorder per schedule — and requires identical records. The
/// sequence alternates the two programs and the two memory models and
/// varies the event limit and abandon depth, so reset sees every way a
/// schedule can end, under both models, followed by either model.
void expectReuseInvisible(bool resumable) {
  const explore::Program programs[] = {mixedOutcomeProgram, heapBuggyProgram};
  const memory::MemoryModel models[] = {memory::MemoryModel::Sc,
                                        memory::MemoryModel::Tso};
  runtime::StackPool reusedPool;
  trace::TraceRecorder reusedRecorder;
  // No checkpoint is ever staged, so the resumable variant only defers
  // teardown to the next reset; the heap program is safe under it.
  explore::PrefixReplayEngine engine(reusedPool, reusedRecorder, resumable, resumable,
                                     0);
  std::set<runtime::Outcome> seen[2];
  const runtime::Execution* only = nullptr;
  for (std::uint64_t k = 0; k < 480; ++k) {
    const explore::Program& program = programs[k % 2];
    runtime::Config config;
    config.memoryModel = models[(k / 2) % 2];
    if (k % 7 == 3) config.maxEventsPerSchedule = 6;
    const std::size_t abandonAt = k % 5 == 1 ? 4 : static_cast<std::size_t>(-1);
    const std::uint64_t seed = support::mix64(0x5eedULL + k);

    SeededPicker reusedPicker(seed, abandonAt);
    const explore::PrefixReplayEngine::Session session =
        engine.beginSchedule(config, &reusedRecorder);
    ASSERT_FALSE(session.resumed);
    if (only == nullptr) only = session.exec;
    EXPECT_EQ(session.exec, only) << "the engine allocated a second Execution";
    const runtime::Outcome reusedOutcome = session.exec->run(program, reusedPicker);
    const RunRecord reused = capture(reusedOutcome, *session.exec, reusedRecorder);

    runtime::StackPool freshPool;
    trace::TraceRecorder freshRecorder;
    runtime::Execution fresh(config, freshPool, &freshRecorder);
    SeededPicker freshPicker(seed, abandonAt);
    const runtime::Outcome freshOutcome = fresh.run(program, freshPicker);
    const RunRecord expected = capture(freshOutcome, fresh, freshRecorder);

    EXPECT_TRUE(reused == expected)
        << memory::memoryModelName(config.memoryModel)
        << (resumable ? " resumable" : "") << ": schedule " << k
        << " differs on the reused execution (" << runtime::outcomeName(reusedOutcome)
        << " vs " << runtime::outcomeName(freshOutcome) << ")";
    seen[(k / 2) % 2].insert(freshOutcome);
  }
  for (int m = 0; m < 2; ++m) {
    for (const runtime::Outcome o :
         {runtime::Outcome::Terminal, runtime::Outcome::Deadlock,
          runtime::Outcome::AssertionFailure, runtime::Outcome::UsageError,
          runtime::Outcome::EventLimit, runtime::Outcome::Abandoned}) {
      EXPECT_TRUE(seen[m].count(o) == 1)
          << memory::memoryModelName(models[m]) << ": the sequence never ended in "
          << runtime::outcomeName(o);
    }
  }
}

TEST(ExecutionReuse, ReusedExecutionMatchesFreshOnes) { expectReuseInvisible(false); }

TEST(ExecutionReuse, ReusedResumableExecutionMatchesFreshOnes) {
  if (!runtime::Execution::checkpointingSupported()) {
    GTEST_SKIP() << "resumable executions need fiber snapshots";
  }
  expectReuseInvisible(true);
}

// --- arena truncation --------------------------------------------------------

TEST(ClockArena, TruncateThenReExtendMatchesFreshRows) {
  trace::ClockArena arena(4);
  auto append = [&](std::uint32_t base) {
    std::uint32_t* row = arena.appendRow();
    for (std::uint32_t i = 0; i < arena.stride(); ++i) row[i] = base + i;
  };
  for (std::uint32_t r = 0; r < 6; ++r) append(10 * r);
  arena.truncate(3);
  EXPECT_EQ(arena.rows(), 3u);
  // Retained rows untouched.
  for (std::uint32_t r = 0; r < 3; ++r) {
    EXPECT_EQ(arena.view(r).get(0), 10 * r);
  }
  // Re-extension overwrites the truncated tail.
  append(700);
  EXPECT_EQ(arena.rows(), 4u);
  EXPECT_EQ(arena.view(3).get(0), 700u);
  EXPECT_EQ(arena.view(3).get(3), 703u);
}

TEST(ClockArena, TruncateToZeroBehavesLikeReset) {
  trace::ClockArena arena(2);
  (void)arena.appendRow();
  arena.truncate(0);
  EXPECT_EQ(arena.rows(), 0u);
}

}  // namespace
