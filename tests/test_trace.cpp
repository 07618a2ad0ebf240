// Trace-layer tests: clock views and arenas, the three happens-before
// relations on hand-constructed scenarios, exact canonical forms, the
// equivalence of the incremental fingerprints with the exact forms across
// entire schedule spaces, and sync-HB race detection.

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <vector>

#include "explore/dfs_explorer.hpp"
#include "explore/dpor_explorer.hpp"
#include "explore/replay.hpp"
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

// The central canonicity property: across the ENTIRE schedule space of a
// program, two schedules get the same incremental fingerprint iff they have
// the same exact canonical form — for both relations, with the Foata normal
// form and the clock-derived explicit relation as independent oracles.
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
      default:
        return [] {};
    }
  }();

  // Enumerate every schedule; for each terminal one, record (fingerprint,
  // exact form) pairs per relation and check the bijection.
  TraceRecorder recorder(TraceRecorder::Options{true, false});
  runtime::StackPool pool;
  explore::TreeSearchState state;
  std::map<std::vector<std::uint64_t>, support::Hash128> foataToFp[2];
  std::map<std::vector<std::uint64_t>, support::Hash128> explicitToFp[2];
  std::map<support::Hash128, std::vector<std::uint64_t>,
           decltype([](const support::Hash128& a, const support::Hash128& b) {
             return a.lo != b.lo ? a.lo < b.lo : a.hi < b.hi;
           })>
      fpToFoata[2];
  int schedules = 0;
  for (;;) {
    runtime::Execution exec(runtime::Config{}, pool, &recorder);
    explore::TreeScheduler scheduler(state);
    const auto outcome = exec.run(program, scheduler);
    ++schedules;
    ASSERT_LT(schedules, 100000) << "space too large for the test";
    if (outcome == runtime::Outcome::Terminal) {
      for (const auto relation : {Relation::Full, Relation::Lazy}) {
        const int r = relation == Relation::Full ? 0 : 1;
        const auto fp = recorder.fingerprint(relation);
        const auto foata = trace::foataNormalForm(recorder, relation);
        const auto exact = trace::explicitRelation(recorder, relation);
        auto [itF, insertedF] = foataToFp[r].emplace(foata, fp);
        EXPECT_EQ(itF->second, fp) << "same Foata NF, different fingerprint";
        auto [itE, insertedE] = explicitToFp[r].emplace(exact, fp);
        EXPECT_EQ(itE->second, fp) << "same explicit relation, different fingerprint";
        auto [itR, insertedR] = fpToFoata[r].emplace(fp, foata);
        EXPECT_EQ(itR->second, foata) << "same fingerprint, different Foata NF";
      }
    }
    if (!state.advance()) break;
  }
  // Foata NF and the explicit relation must agree on the class count too.
  EXPECT_EQ(foataToFp[0].size(), explicitToFp[0].size());
  EXPECT_EQ(foataToFp[1].size(), explicitToFp[1].size());
  EXPECT_GT(schedules, 1);
}

INSTANTIATE_TEST_SUITE_P(SmallPrograms, FingerprintCanonicity, ::testing::Range(0, 3));

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

TEST(ClockConsumers, DporExplorerDeclaresItsFullClocks) {
  // DPOR's race analysis reads eventClock/threadClock(Full) at every
  // scheduling point with a conflict; a recorder without Full rows would
  // fail its check and abort the exploration.
  explore::ExplorerOptions options;
  options.scheduleLimit = 1000;
  explore::DporExplorer explorer(options);
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
