// Trace-layer tests: clock views and arenas, the three happens-before
// relations on hand-constructed scenarios, exact canonical forms, the
// equivalence of the incremental fingerprints with the exact forms across
// entire schedule spaces, and sync-HB race detection.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "explore/dfs_explorer.hpp"
#include "explore/replay.hpp"
#include "memory/memory_model.hpp"
#include "programs/registry.hpp"
#include "random_program_gen.hpp"
#include "runtime/api.hpp"
#include "test_helpers.hpp"
#include "trace/clock_arena.hpp"
#include "trace/foata.hpp"
#include "trace/hb_graph.hpp"
#include "trace/trace_recorder.hpp"

namespace {

using namespace lazyhb;
using trace::Relation;
using trace::TraceRecorder;

TEST(ClockView, ViewsInteroperateAcrossWidths) {
  const std::uint32_t narrow[] = {3, 1};
  const std::uint32_t wide[] = {3, 2, 0, 5};
  const trace::ClockView a{narrow, 2};
  const trace::ClockView b{wide, 4};
  EXPECT_EQ(a.get(0), 3u);
  EXPECT_EQ(a.get(3), 0u);         // beyond width: zero by convention
  EXPECT_TRUE(a.leq(b));           // pointwise over the implicit zeros
  EXPECT_FALSE(b.leq(a));          // b[3]=5 exceeds a's implicit zero
  const std::uint32_t bumped[] = {3, 3};
  EXPECT_FALSE((trace::ClockView{bumped, 2}.leq(b)));  // 3 > b[1]=2
  // Default view is the zero clock: leq everything, equal to explicit zeros.
  EXPECT_TRUE(trace::ClockView{}.leq(a));
  const std::uint32_t zeros[] = {0, 0};
  EXPECT_TRUE((trace::ClockView{} == trace::ClockView{zeros, 2}));
}

TEST(ClockArena, AppendJoinAndWiden) {
  trace::ClockArena arena{4};
  std::uint32_t* r0 = arena.appendRow();
  for (std::uint32_t i = 0; i < 4; ++i) r0[i] = i + 1;  // 1 2 3 4
  std::uint32_t* r1 = arena.appendRow();
  for (std::uint32_t i = 0; i < 4; ++i) r1[i] = 4 - i;  // 4 3 2 1
  trace::joinClockSpans(r1, arena.row(0), 4);
  EXPECT_TRUE((arena.view(1) == trace::ClockView{
                   std::array<std::uint32_t, 4>{4, 3, 3, 4}.data(), 4}));

  // Widening re-strides in place and zero-pads: no clock changes value.
  const std::vector<std::uint32_t> before0(arena.row(0), arena.row(0) + 4);
  const std::vector<std::uint32_t> before1(arena.row(1), arena.row(1) + 4);
  arena.widen(8);
  EXPECT_EQ(arena.stride(), 8u);
  EXPECT_TRUE((arena.view(0) == trace::ClockView{before0.data(), 4}));
  EXPECT_TRUE((arena.view(1) == trace::ClockView{before1.data(), 4}));
  EXPECT_EQ(arena.view(0).get(7), 0u);

  // reset keeps stride and storage, drops rows.
  arena.reset();
  EXPECT_EQ(arena.rows(), 0u);
  EXPECT_EQ(arena.stride(), 8u);
}

/// Record one execution of `body` (first-enabled schedule) with full
/// predecessor tracking and hand it to `inspect`.
void recordOnce(const std::function<void()>& body,
                const std::function<void(const TraceRecorder&)>& inspect,
                bool detectRaces = false) {
  TraceRecorder recorder(TraceRecorder::Options{true, detectRaces});
  runtime::StackPool pool;
  runtime::Execution exec(runtime::Config{}, pool, &recorder);
  explore::FixedScheduler scheduler({});
  (void)exec.run(body, scheduler);
  inspect(recorder);
}

TEST(Relations, MutexEdgesPresentInFullAbsentInLazy) {
  recordOnce(lazyhb::testing::figure1Program, [](const TraceRecorder& recorder) {
    // Figure 1, T1-first schedule: T2's lock must depend on T1's unlock in
    // the Full relation but not in the Lazy relation.
    const int fullEdges = trace::interThreadEdgeCount(recorder, Relation::Full);
    const int lazyEdges = trace::interThreadEdgeCount(recorder, Relation::Lazy);
    EXPECT_GT(fullEdges, lazyEdges);
    // Lazy keeps only the spawn/join scaffold here (x is read-only, y/z
    // disjoint, all mutex edges erased): exactly 2 inter-thread edges.
    EXPECT_EQ(lazyEdges, 2);
  });
}

TEST(Relations, SpawnJoinEdgesInEveryRelation) {
  auto body = [] {
    Shared<int> x{0, "x"};
    auto t = spawn([&] { x.store(1); });
    t.join();
  };
  recordOnce(body, [](const TraceRecorder& recorder) {
    // Events: spawn(T0), write(T1), join(T0). The write's spawn predecessor
    // and the join's target-last-event predecessor must appear in all three
    // relations.
    ASSERT_EQ(recorder.eventCount(), 3u);
    for (const auto relation : {Relation::Sync, Relation::Full, Relation::Lazy}) {
      EXPECT_EQ(recorder.eventPredecessors(relation, 1), std::vector<std::int32_t>{0})
          << trace::relationName(relation);
      // join's predecessors: its own thread's previous event (0) and the
      // child's last event (1).
      EXPECT_EQ(recorder.eventPredecessors(relation, 2),
                (std::vector<std::int32_t>{0, 1}))
          << trace::relationName(relation);
    }
  });
}

TEST(Relations, TryLockKeepsLazyEdges) {
  auto body = [] {
    Mutex m("m");
    m.lock();
    m.unlock();
    if (m.tryLock()) {
      m.unlock();
    }
  };
  recordOnce(body, [](const TraceRecorder& recorder) {
    // Events: lock(0) unlock(1) trylock(2) unlock(3). The trylock must be
    // lazily ordered after the preceding lock AND unlock (it observes the
    // mutex state); the plain lock/unlock chain is lazily erased.
    ASSERT_EQ(recorder.eventCount(), 4u);
    EXPECT_EQ(recorder.eventPredecessors(Relation::Lazy, 2),
              (std::vector<std::int32_t>{0, 1}));
    // Full keeps the chain: each event depends on its chain predecessor.
    EXPECT_EQ(recorder.eventPredecessors(Relation::Full, 2),
              (std::vector<std::int32_t>{1}));
  });
}

TEST(Races, DetectedOnUnsyncAccessMissedUnderLock) {
  auto racy = [] {
    Shared<int> x{0, "x"};
    auto t = spawn([&] { x.store(1); });
    x.store(2);
    t.join();
  };
  recordOnce(racy, [](const TraceRecorder& recorder) {
    ASSERT_EQ(recorder.races().size(), 1u);
    EXPECT_EQ(recorder.races()[0].objectName, "x");
  }, /*detectRaces=*/true);

  auto locked = [] {
    Shared<int> x{0, "x"};
    Mutex m("m");
    auto t = spawn([&] {
      LockGuard guard(m);
      x.store(1);
    });
    {
      LockGuard guard(m);
      x.store(2);
    }
    t.join();
  };
  recordOnce(locked, [](const TraceRecorder& recorder) {
    EXPECT_TRUE(recorder.races().empty());
  }, /*detectRaces=*/true);
}

TEST(Races, SemaphoreSynchronizes) {
  auto body = [] {
    Shared<int> data{0, "data"};
    Semaphore ready{0, "sem"};
    auto t = spawn([&] {
      data.store(1);
      ready.release();
    });
    ready.acquire();
    data.store(2);
    t.join();
  };
  recordOnce(body, [](const TraceRecorder& recorder) {
    EXPECT_TRUE(recorder.races().empty());
  }, /*detectRaces=*/true);
}

TEST(Foata, LevelsRespectDependencies) {
  auto body = [] {
    Shared<int> x{0, "x"};
    auto t = spawn([&] { x.store(1); });
    x.store(2);
    t.join();
  };
  recordOnce(body, [](const TraceRecorder& recorder) {
    const auto levels = trace::foataLevels(recorder, Relation::Full);
    ASSERT_EQ(levels.size(), recorder.eventCount());
    // Every event sits strictly above all of its predecessors.
    for (std::int32_t i = 0; i < static_cast<std::int32_t>(levels.size()); ++i) {
      for (const std::int32_t p : recorder.eventPredecessors(Relation::Full, i)) {
        EXPECT_LT(levels[static_cast<std::size_t>(p)],
                  levels[static_cast<std::size_t>(i)]);
      }
    }
  });
}

TEST(HbGraph, RenderContainsEventsAndDot) {
  recordOnce(lazyhb::testing::figure1Program, [](const TraceRecorder& recorder) {
    const std::string text = trace::renderSchedule(recorder, Relation::Full);
    EXPECT_NE(text.find("lock(m)"), std::string::npos);
    EXPECT_NE(text.find("write(y)"), std::string::npos);
    const std::string dot = trace::renderDot(recorder, Relation::Full);
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("->"), std::string::npos);
  });
}

// --- exact oracles -------------------------------------------------------------
// The central canonicity property: across the ENTIRE schedule space of a
// program, two schedules get the same incremental fingerprint iff they have
// the same exact canonical form. For Full and Lazy the Foata normal form and
// the clock-derived explicit relation are independent oracles; for Value the
// oracle is an exact, unhashed key of the value equivalence (below).

/// Forwards every callback to a TraceRecorder and keeps the object
/// registrations the exact value key needs (the recorder does not expose
/// initial values). `afterEvent`, when set, runs after each forwarded event:
/// the recorder then describes the prefix ending at that event.
class OracleTee final : public runtime::ExecutionObserver {
 public:
  struct Registration {
    runtime::Uid uid = 0;
    runtime::ObjectKind kind = runtime::ObjectKind::Var;
    std::uint64_t initialValueHash = 0;
  };

  explicit OracleTee(TraceRecorder& recorder) : recorder_(recorder) {}

  void onExecutionStart(const runtime::Execution& exec) override {
    registrations_.clear();
    recorder_.onExecutionStart(exec);
  }
  void onObjectRegistered(const runtime::Execution& exec, std::int32_t index,
                          runtime::Uid uid, runtime::ObjectKind kind,
                          const std::string& name,
                          std::uint64_t initialValueHash) override {
    if (registrations_.size() <= static_cast<std::size_t>(index)) {
      registrations_.resize(static_cast<std::size_t>(index) + 1);
    }
    registrations_[static_cast<std::size_t>(index)] = {uid, kind, initialValueHash};
    recorder_.onObjectRegistered(exec, index, uid, kind, name, initialValueHash);
  }
  void onEvent(const runtime::Execution& exec, const runtime::EventRecord& ev) override {
    recorder_.onEvent(exec, ev);
    if (afterEvent) afterEvent();
  }
  void onExecutionEnd(const runtime::Execution& exec, runtime::Outcome outcome) override {
    recorder_.onExecutionEnd(exec, outcome);
  }

  [[nodiscard]] const std::vector<Registration>& registrations() const noexcept {
    return registrations_;
  }

  std::function<void()> afterEvent;

 private:
  TraceRecorder& recorder_;
  std::vector<Registration> registrations_;
};

/// The exact key of the Value equivalence, by its definition rather than by
/// the recorder's hashing:
///   * the sorted multiset of (exact label tuple, observed value) — the
///     observed value is the read's own value, or an RMW's pre-value, and 0
///     for every other label;
///   * the final (var uid, value) set;
///   * each condvar's FIFO wait queue, as thread uids in arrival order.
/// Final values and queues come from replaying the event stream over the
/// registrations; `memoryOut` receives the replayed values, which the caller
/// cross-checks against a terminal execution's own.
std::vector<std::uint64_t> exactValueKey(
    const TraceRecorder& recorder,
    const std::vector<OracleTee::Registration>& registrations,
    std::map<runtime::Uid, std::uint64_t>* memoryOut = nullptr) {
  using runtime::OpKind;
  std::map<runtime::Uid, std::uint64_t> memory;
  std::map<runtime::Uid, std::vector<runtime::Uid>> queues;
  for (const OracleTee::Registration& r : registrations) {
    if (r.kind == runtime::ObjectKind::Var) memory[r.uid] = r.initialValueHash;
    if (r.kind == runtime::ObjectKind::CondVar) queues[r.uid];
  }
  std::vector<std::array<std::uint64_t, 7>> observations;
  for (std::size_t i = 0; i < recorder.eventCount(); ++i) {
    const runtime::EventRecord& ev = recorder.eventRecord(static_cast<std::int32_t>(i));
    std::uint64_t observed = 0;
    if (ev.kind == OpKind::Read) observed = ev.valueHash;
    if (ev.kind == OpKind::Rmw) observed = memory.at(ev.objectUid);
    const bool lands = ev.kind == OpKind::Rmw || ev.kind == OpKind::Flush ||
                       (ev.kind == OpKind::Write && ev.aux == 0);
    if (lands) memory[ev.objectUid] = ev.valueHash;
    if (ev.kind == OpKind::Wait) queues.at(ev.objectUid).push_back(ev.threadUid);
    if (ev.kind == OpKind::Signal && !queues.at(ev.objectUid).empty()) {
      queues.at(ev.objectUid).erase(queues.at(ev.objectUid).begin());
    }
    if (ev.kind == OpKind::Broadcast) queues.at(ev.objectUid).clear();
    observations.push_back({ev.threadUid, ev.indexInThread,
                            static_cast<std::uint64_t>(ev.kind), ev.objectUid,
                            ev.mutexUid, ev.aux, observed});
  }
  std::sort(observations.begin(), observations.end());
  std::vector<std::uint64_t> key;
  for (const auto& o : observations) key.insert(key.end(), o.begin(), o.end());
  key.push_back(~0ULL);
  for (const auto& [uid, value] : memory) {  // std::map: sorted by uid
    key.push_back(uid);
    key.push_back(value);
  }
  for (const auto& [uid, queue] : queues) {
    key.push_back(~0ULL);
    key.push_back(uid);
    key.insert(key.end(), queue.begin(), queue.end());
  }
  if (memoryOut != nullptr) *memoryOut = std::move(memory);
  return key;
}

/// Records (exact form, fingerprint) pairs and checks that the two induce
/// the same partition: equal forms have equal fingerprints and equal
/// fingerprints have equal forms.
class PartitionCheck {
 public:
  explicit PartitionCheck(std::string what) : what_(std::move(what)) {}

  void add(const std::vector<std::uint64_t>& form, support::Hash128 fp) {
    const auto byForm = formToFp_.emplace(form, fp).first;
    EXPECT_EQ(byForm->second, fp) << "same " << what_ << ", different fingerprint";
    const auto byFp = fpToForm_.emplace(std::pair{fp.lo, fp.hi}, form).first;
    EXPECT_TRUE(byFp->second == form) << "same fingerprint, different " << what_;
  }

  [[nodiscard]] std::size_t classes() const noexcept { return formToFp_.size(); }

 private:
  std::string what_;
  std::map<std::vector<std::uint64_t>, support::Hash128> formToFp_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<std::uint64_t>> fpToForm_;
};

/// Enumerate every schedule of `program` (at most `cap`) under `model` and
/// check the Full, Lazy and Value fingerprints against their exact forms at
/// the end of each schedule — every end counts, deadlocks included — and,
/// with `everyPrefix`, after every event: the prefixes are what the caches
/// key on, and only they hold condvar queues with several waiters. Returns
/// the number of schedules, or 0 when the space exceeds `cap`.
std::uint64_t checkExactOracles(const explore::Program& program, std::uint64_t cap,
                                bool everyPrefix = false,
                                memory::MemoryModel model = memory::MemoryModel::Sc) {
  TraceRecorder recorder(TraceRecorder::Options{.keepPredecessors = true});
  OracleTee tee(recorder);
  runtime::StackPool pool;
  explore::TreeSearchState state;
  PartitionCheck foata[2] = {PartitionCheck("full Foata NF"), PartitionCheck("lazy Foata NF")};
  PartitionCheck exact[2] = {PartitionCheck("full explicit relation"),
                             PartitionCheck("lazy explicit relation")};
  PartitionCheck value("exact value key");
  std::map<runtime::Uid, std::uint64_t> memory;
  const auto checkPrefix = [&] {
    for (const Relation relation : {Relation::Full, Relation::Lazy}) {
      const int r = relation == Relation::Full ? 0 : 1;
      const support::Hash128 fp = recorder.fingerprint(relation);
      foata[r].add(trace::foataNormalForm(recorder, relation), fp);
      exact[r].add(trace::explicitRelation(recorder, relation), fp);
    }
    value.add(exactValueKey(recorder, tee.registrations(), &memory),
              recorder.fingerprint(Relation::Value));
  };
  if (everyPrefix) tee.afterEvent = checkPrefix;
  std::uint64_t schedules = 0;
  for (;;) {
    if (schedules == cap) return 0;
    runtime::Config config;
    config.memoryModel = model;
    runtime::Execution exec(config, pool, &tee);
    explore::TreeScheduler scheduler(state);
    const runtime::Outcome outcome = exec.run(program, scheduler);
    ++schedules;
    checkPrefix();
    if (outcome == runtime::Outcome::Terminal) {
      // The replayed final values are the execution's own (a terminal run
      // tears nothing down, so its memory is final).
      for (int i = 0; i < exec.objectCount(); ++i) {
        const runtime::ObjectInfo& obj = exec.object(i);
        if (obj.kind == runtime::ObjectKind::Var) {
          EXPECT_EQ(memory.at(obj.uid), obj.valueHash) << "var " << obj.name;
        }
      }
    }
    if (!state.advance()) break;
  }
  // The two exact forms of each relation agree on the class count too.
  EXPECT_EQ(foata[0].classes(), exact[0].classes());
  EXPECT_EQ(foata[1].classes(), exact[1].classes());
  // The §3 chain: value classes never outnumber lazy classes.
  EXPECT_LE(value.classes(), exact[1].classes());
  return schedules;
}

class FingerprintCanonicity : public ::testing::TestWithParam<int> {};

TEST_P(FingerprintCanonicity, FingerprintEqualsIffExactFormEqual) {
  const explore::Program program = [&]() -> explore::Program {
    switch (GetParam()) {
      case 0: return lazyhb::testing::figure1Program;
      case 1:
        return [] {  // racy writes + mutex
          Shared<int> x{0, "x"};
          Mutex m("m");
          auto t = spawn([&] {
            x.store(1);
            LockGuard guard(m);
          });
          {
            LockGuard guard(m);
          }
          x.store(2);
          t.join();
        };
      case 2:
        return [] {  // three threads, two vars
          Shared<int> a{0, "a"};
          Shared<int> b{0, "b"};
          auto t1 = spawn([&] { a.store(1); });
          auto t2 = spawn([&] {
            b.store(1);
            (void)a.load();
          });
          a.store(2);
          t1.join();
          t2.join();
        };
      case 3:
        return [] {  // two waiters queue in either order; one signal
          Mutex m("m");
          CondVar cv("cv");
          Shared<int> woken{0, "woken"};
          auto waiter = [&] {
            LockGuard guard(m);
            cv.wait(m);
            woken.store(woken.load() + 1);
          };
          auto t1 = spawn(waiter);
          auto t2 = spawn(waiter);
          {
            LockGuard guard(m);
            cv.signal();
          }
          cv.broadcast();
          t1.join();
          t2.join();
        };
      default:
        return [] {};
    }
  }();
  EXPECT_GT(checkExactOracles(program, 100000, /*everyPrefix=*/true), 1u)
      << "space too large for the test";
}

INSTANTIATE_TEST_SUITE_P(SmallPrograms, FingerprintCanonicity, ::testing::Range(0, 4));

/// The RandomProgramSweep seeds whose naive space is under the sweep's cap
/// (the other fourteen are theorem-checked only there).
class RandomProgramOracles : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramOracles, FingerprintEqualsIffExactFormEqual) {
  const explore::Program program = lazyhb::testing::materialize(
      lazyhb::testing::generate(lazyhb::testing::sweepSeed(GetParam())));
  EXPECT_GT(checkExactOracles(program, lazyhb::testing::kSweepCap), 1u)
      << "seed space exceeds the sweep cap";
}

INSTANTIATE_TEST_SUITE_P(SweepSeedsUnderCap, RandomProgramOracles,
                         ::testing::Values(1, 2, 4, 6, 7, 8, 9, 10, 11, 13, 15, 18, 20,
                                           22, 23, 25, 26, 27, 31, 32, 33, 34, 35, 37,
                                           38, 39),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "seed" + std::to_string(info.param);
                         });

std::string programNameParam(const ::testing::TestParamInfo<const char*>& info) {
  std::string name = info.param;
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

/// Small corpus programs covering what the generator does not: condvars
/// (signal, broadcast, a deadlock with a parked waiter), semaphores, RMWs,
/// spawn trees and lock-erased lazy classes.
class CorpusOracles : public ::testing::TestWithParam<const char*> {};

TEST_P(CorpusOracles, FingerprintEqualsIffExactFormEqual) {
  const programs::ProgramSpec* spec = programs::byName(GetParam());
  ASSERT_NE(spec, nullptr);
  EXPECT_GT(checkExactOracles(spec->body, 20000, /*everyPrefix=*/true), 0u)
      << "space too large for the test";
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusOracles,
                         ::testing::Values("disjoint-lock-2", "barrier-work-2",
                                           "prodcons-1x1", "barrier-2", "lost-signal",
                                           "sem-handoff-2", "trylock-fallback-2",
                                           "consensus-2", "racy-counter-3",
                                           "check-then-act", "deadlock-ab", "litmus-sb",
                                           "fork-tree"),
                         programNameParam);

/// Store-buffer programs under TSO: buffered writes land with their Flush
/// events, and a read may observe its own thread's buffered value.
class TsoCorpusOracles : public ::testing::TestWithParam<const char*> {};

TEST_P(TsoCorpusOracles, FingerprintEqualsIffExactFormEqual) {
  const programs::ProgramSpec* spec = programs::byName(GetParam());
  ASSERT_NE(spec, nullptr);
  EXPECT_GT(checkExactOracles(spec->body, 20000, /*everyPrefix=*/true,
                              memory::MemoryModel::Tso),
            0u)
      << "space too large for the test";
}

INSTANTIATE_TEST_SUITE_P(Weakmem, TsoCorpusOracles,
                         ::testing::Values("sb-unfenced", "sb-fenced", "dekker-unfenced",
                                           "store-forwarding", "seqlock-fenced"),
                         programNameParam);

// --- value-class fingerprints ------------------------------------------------

/// Enumerate every terminal schedule of `program`; return the distinct
/// fingerprint sets under the Lazy and Value relations plus the distinct
/// terminal-state set (the extended section-3 chain reads
/// |states| <= |value| <= |lazy|).
struct ValueEnumeration {
  std::set<std::pair<std::uint64_t, std::uint64_t>> lazy;
  std::set<std::pair<std::uint64_t, std::uint64_t>> value;
  std::set<std::pair<std::uint64_t, std::uint64_t>> states;
};

ValueEnumeration enumerateValueClasses(const explore::Program& program) {
  TraceRecorder recorder;
  runtime::StackPool pool;
  explore::TreeSearchState state;
  ValueEnumeration out;
  for (;;) {
    runtime::Execution exec(runtime::Config{}, pool, &recorder);
    explore::TreeScheduler scheduler(state);
    if (exec.run(program, scheduler) == runtime::Outcome::Terminal) {
      const auto l = recorder.fingerprint(Relation::Lazy);
      const auto v = recorder.fingerprint(Relation::Value);
      const auto s = exec.stateFingerprint();
      out.lazy.emplace(l.lo, l.hi);
      out.value.emplace(v.lo, v.hi);
      out.states.emplace(s.lo, s.hi);
    }
    if (!state.advance()) break;
  }
  return out;
}

TEST(ValueFingerprint, SameValueDifferentWriterCollides) {
  // Two racing writers store the SAME value, then the parent reads it. The
  // lazy relation still totally orders the conflicting writes (two
  // classes), but both orders produce identical observations — every read
  // sees 7, the final visible state is x == 7 — so the value class merges
  // what the lazy HBR keeps apart.
  const auto e = enumerateValueClasses([] {
    Shared<int> x{0, "x"};
    auto t = spawn([&] { x.store(7); });
    x.store(7);
    t.join();
    (void)x.load();
  });
  EXPECT_GT(e.lazy.size(), 1u);
  EXPECT_EQ(e.value.size(), 1u);
  EXPECT_EQ(e.states.size(), 1u);
}

TEST(ValueFingerprint, DifferentObservedValuesSeparate) {
  // Same shape with different stored values: the write order now decides
  // which value the read observes and which state is terminal, so the
  // value classes must NOT collapse — they track the two states exactly.
  const auto e = enumerateValueClasses([] {
    Shared<int> x{0, "x"};
    auto t = spawn([&] { x.store(1); });
    x.store(2);
    t.join();
    (void)x.load();
  });
  EXPECT_EQ(e.value.size(), 2u);
  EXPECT_EQ(e.states.size(), 2u);
  EXPECT_EQ(e.value.size(), e.lazy.size());
}

TEST(ValueFingerprint, IntermediateObservationsSplitWithinOneState) {
  // The child writes 1 then 2; the parent's lone read can observe 0, 1, or
  // 2 while the terminal state is always x == 2. Value classes sit strictly
  // between states and lazy classes: |states| = 1 < |value| = 3 <= |lazy|.
  const auto e = enumerateValueClasses([] {
    Shared<int> x{0, "x"};
    auto t = spawn([&] {
      x.store(1);
      x.store(2);
    });
    (void)x.load();
    t.join();
  });
  EXPECT_EQ(e.states.size(), 1u);
  EXPECT_EQ(e.value.size(), 3u);
  EXPECT_LE(e.value.size(), e.lazy.size());
}

// --- clock consumers ----------------------------------------------------------
// A relation's clock rows are built only for the callers that read them:
// keepPredecessors (all three), detectRaces (Sync), fullClocks (Full — what
// DPOR declares). Fingerprints never need them.

/// A racy two-thread program with a lock and a spawn/join scaffold: every
/// relation has inter-thread edges.
void clockProgram() {
  Shared<int> x{0, "x"};
  Mutex m("m");
  auto t = spawn([&] {
    LockGuard guard(m);
    x.store(x.load() + 1);
  });
  {
    LockGuard guard(m);
    x.store(x.load() + 2);
  }
  t.join();
}

/// Every event's clock row under `r`, flattened.
std::vector<std::vector<std::uint32_t>> clockRows(const TraceRecorder& recorder, Relation r) {
  std::vector<std::vector<std::uint32_t>> rows;
  for (std::size_t i = 0; i < recorder.eventCount(); ++i) {
    const trace::ClockView view = recorder.eventClock(r, static_cast<std::int32_t>(i));
    rows.emplace_back(view.data(), view.data() + view.width());
  }
  return rows;
}

void recordClockProgram(TraceRecorder& recorder) {
  runtime::StackPool pool;
  runtime::Execution exec(runtime::Config{}, pool, &recorder);
  explore::FixedScheduler scheduler({});
  (void)exec.run(clockProgram, scheduler);
}

TEST(ClockConsumers, KeepPredecessorsRecorderAnswersAllThreeRelations) {
  TraceRecorder recorder(TraceRecorder::Options{.keepPredecessors = true});
  recordClockProgram(recorder);
  ASSERT_GT(recorder.eventCount(), 4u);
  for (const Relation r : {Relation::Sync, Relation::Full, Relation::Lazy}) {
    EXPECT_EQ(clockRows(recorder, r).size(), recorder.eventCount()) << relationName(r);
    EXPECT_GT(recorder.threadClock(r, 0).get(0), 0u) << relationName(r);
  }
}

TEST(ClockConsumers, RowsBuiltAloneMatchRowsBuiltTogether) {
  // The single-relation builds (DPOR's Full rows, the race detector's Sync
  // rows) must produce exactly the rows the fused all-relation build does.
  TraceRecorder all(TraceRecorder::Options{.keepPredecessors = true});
  TraceRecorder fullOnly(TraceRecorder::Options{.fullClocks = true});
  TraceRecorder syncOnly(TraceRecorder::Options{.detectRaces = true});
  recordClockProgram(all);
  recordClockProgram(fullOnly);
  recordClockProgram(syncOnly);
  EXPECT_EQ(clockRows(fullOnly, Relation::Full), clockRows(all, Relation::Full));
  EXPECT_EQ(clockRows(syncOnly, Relation::Sync), clockRows(all, Relation::Sync));
  // Fingerprints do not depend on which rows were built.
  EXPECT_EQ(fullOnly.fingerprint(Relation::Lazy), all.fingerprint(Relation::Lazy));
  EXPECT_EQ(syncOnly.fingerprint(Relation::Full), all.fingerprint(Relation::Full));
}

TEST(ClockConsumers, DporDeclaresItsFullClocks) {
  // DPOR's race analysis reads eventClock/threadClock(Full) at every
  // scheduling point with a conflict; a recorder without Full rows would
  // fail its check and abort the exploration.
  explore::ExplorerOptions options;
  options.scheduleLimit = 1000;
  explore::TreeExplorer explorer(options, explore::DporOptions{});
  const explore::ExplorationResult result = explorer.explore(clockProgram);
  EXPECT_TRUE(result.complete);
  EXPECT_GT(result.schedulesExecuted, 1u);  // the race was found and reversed
}

TEST(ClockConsumersDeathTest, RecorderWithoutRowsDiesOnClockReads) {
  TraceRecorder plain;
  recordClockProgram(plain);
  ASSERT_GT(plain.eventCount(), 0u);
  EXPECT_DEATH((void)plain.eventClock(Relation::Full, 0), "fullRows_");
  EXPECT_DEATH((void)plain.threadClock(Relation::Full, 0), "fullRows_");
  EXPECT_DEATH((void)plain.eventClock(Relation::Sync, 0), "syncRows_");
  EXPECT_DEATH((void)plain.threadClock(Relation::Lazy, 0), "lazyRows_");

  TraceRecorder fullOnly(TraceRecorder::Options{.fullClocks = true});
  recordClockProgram(fullOnly);
  EXPECT_GT(fullOnly.threadClock(Relation::Full, 0).get(0), 0u);
  EXPECT_DEATH((void)fullOnly.eventClock(Relation::Lazy, 0), "lazyRows_");
  EXPECT_DEATH((void)fullOnly.threadClock(Relation::Sync, 0), "syncRows_");
}

}  // namespace
