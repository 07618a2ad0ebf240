// End-to-end explorer tests: the paper's Figure 1 example, completeness of
// DPOR and the caching explorers against naive enumeration, the §3 counting
// chain, and the Theorem 2.1/2.2 checkers.

#include <gtest/gtest.h>

#include <set>

#include "core/equivalence.hpp"
#include "core/race_detector.hpp"
#include "programs/registry.hpp"
#include "support/rng.hpp"
#include "test_helpers.hpp"

namespace {

using namespace lazyhb;
using lazyhb::testing::figure1Program;
using lazyhb::testing::runCaching;
using lazyhb::testing::runDfs;
using lazyhb::testing::runDpor;

TEST(Figure1, NaiveEnumerationCounts) {
  const auto result = runDfs(figure1Program);
  EXPECT_TRUE(result.complete);
  // The two critical sections can be ordered two ways: two HBR classes.
  EXPECT_EQ(result.distinctHbrs, 2u);
  // The lazy HBR erases the mutex edges; x is only read, y and z disjoint:
  // every schedule is lazy-equivalent.
  EXPECT_EQ(result.distinctLazyHbrs, 1u);
  // And indeed only one state is reachable.
  EXPECT_EQ(result.distinctStates, 1u);
  // Sanity: the paper's counting chain.
  EXPECT_LE(result.distinctStates, result.distinctLazyHbrs);
  EXPECT_LE(result.distinctLazyHbrs, result.distinctHbrs);
  EXPECT_LE(result.distinctHbrs, result.schedulesExecuted);
  // Theorems hold across every explored schedule.
  EXPECT_EQ(result.theorem21.conflicts, 0u);
  EXPECT_EQ(result.theorem22.conflicts, 0u);
  EXPECT_EQ(result.theoremValue.conflicts, 0u);
}

TEST(Figure1, DporExploresOnePerHbrClass) {
  const auto result = runDpor(figure1Program);
  EXPECT_TRUE(result.complete);
  // DPOR must still see both HBR classes...
  EXPECT_EQ(result.distinctHbrs, 2u);
  EXPECT_EQ(result.distinctLazyHbrs, 1u);
  // ...with far fewer schedules than naive enumeration.
  const auto naive = runDfs(figure1Program);
  EXPECT_LT(result.schedulesExecuted, naive.schedulesExecuted);
}

TEST(Figure1, LazyCachingExploresLessThanRegularCaching) {
  const auto regular = runCaching(figure1Program, trace::Relation::Full);
  const auto lazy = runCaching(figure1Program, trace::Relation::Lazy);
  EXPECT_TRUE(regular.complete);
  EXPECT_TRUE(lazy.complete);
  // Both find the single reachable state.
  EXPECT_EQ(regular.distinctStates, 1u);
  EXPECT_EQ(lazy.distinctStates, 1u);
  // Lazy caching prunes at least as aggressively.
  EXPECT_LE(lazy.schedulesExecuted, regular.schedulesExecuted);
}

// A two-thread program with *independent* work under a coarse lock: the
// paper's motivating pattern. N increments of disjoint variables, each under
// the same global mutex.
void disjointCoarse() {
  Shared<int> a{0, "a"};
  Shared<int> b{0, "b"};
  Mutex m("m");
  auto t = spawn([&] {
    LockGuard guard(m);
    a.store(a.load() + 1);
  });
  {
    LockGuard guard(m);
    b.store(b.load() + 1);
  }
  t.join();
}

TEST(CoarseLocking, LazyHbrCollapsesDisjointCriticalSections) {
  const auto result = runDfs(disjointCoarse);
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.distinctStates, 1u);
  EXPECT_EQ(result.distinctLazyHbrs, 1u);   // the paper's headline effect
  EXPECT_GT(result.distinctHbrs, 1u);       // regular HBR sees 2 classes
  EXPECT_EQ(result.theorem22.conflicts, 0u);
  EXPECT_EQ(result.theoremValue.conflicts, 0u);
}

// Racy counter: two unsynchronised read-modify-write pairs; the lost-update
// bug must be visible as multiple terminal states.
void racyCounter() {
  Shared<int> c{0, "c"};
  auto t = spawn([&] {
    const int v = c.load();
    c.store(v + 1);
  });
  const int v = c.load();
  c.store(v + 1);
  t.join();
}

TEST(RacyCounter, MultipleStatesAndTheoremsHold) {
  const auto result = runDfs(racyCounter);
  ASSERT_TRUE(result.complete);
  // c can end as 1 (lost update) or 2.
  EXPECT_EQ(result.distinctStates, 2u);
  // No mutexes: lazy HBR == HBR (points on the diagonal of Figure 2).
  EXPECT_EQ(result.distinctLazyHbrs, result.distinctHbrs);
  EXPECT_EQ(result.theorem21.conflicts, 0u);
  EXPECT_EQ(result.theorem22.conflicts, 0u);
  EXPECT_EQ(result.theoremValue.conflicts, 0u);
}

TEST(RacyCounter, DporFindsAllStates) {
  const auto naive = runDfs(racyCounter);
  const auto dpor = runDpor(racyCounter);
  EXPECT_TRUE(dpor.complete);
  EXPECT_EQ(dpor.distinctStates, naive.distinctStates);
  EXPECT_EQ(dpor.distinctHbrs, naive.distinctHbrs);
  EXPECT_LE(dpor.schedulesExecuted, naive.schedulesExecuted);
}

// Assertion bug reachable only in some interleavings.
void assertionBug() {
  Shared<int> x{0, "x"};
  Shared<int> y{0, "y"};
  auto t = spawn([&] {
    x.store(1);
    y.store(1);
  });
  const int sawX = x.load();
  const int sawY = y.load();
  // Buggy claim: "if I saw y unset... then x must also be unset when read
  // earlier" is false under any interleaving where both loads straddle the
  // child's stores: sawX == 0 with sawY == 1 is reachable.
  checkAlways(!(sawX == 0 && sawY == 1), "stale x with fresh y");
  t.join();
}

TEST(Violations, NaiveAndDporBothFindAssertionFailure) {
  const auto naive = runDfs(assertionBug);
  const auto dpor = runDpor(assertionBug);
  EXPECT_TRUE(naive.foundViolation());
  EXPECT_TRUE(dpor.foundViolation());
  EXPECT_EQ(naive.violations.front().kind, runtime::Outcome::AssertionFailure);
}

void abbaDeadlock() {
  Mutex a("a");
  Mutex b("b");
  auto t = spawn([&] {
    b.lock();
    a.lock();
    a.unlock();
    b.unlock();
  });
  a.lock();
  b.lock();
  b.unlock();
  a.unlock();
  t.join();
}

TEST(Violations, DeadlockFoundByAllExplorers) {
  EXPECT_TRUE(runDfs(abbaDeadlock).foundViolation());
  EXPECT_TRUE(runDpor(abbaDeadlock).foundViolation());
  EXPECT_TRUE(runCaching(abbaDeadlock, trace::Relation::Full).foundViolation());
  EXPECT_TRUE(runCaching(abbaDeadlock, trace::Relation::Lazy).foundViolation());
}

// Three threads incrementing a counter under a lock: all schedules reach the
// same state; HBR classes = orderings of the critical sections = 3! = 6.
void lockedCounter3() {
  Shared<int> c{0, "c"};
  Mutex m("m");
  auto worker = [&] {
    LockGuard guard(m);
    c.store(c.load() + 1);
  };
  auto t1 = spawn(worker);
  auto t2 = spawn(worker);
  auto t3 = spawn(worker);
  t1.join();
  t2.join();
  t3.join();
}

TEST(LockedCounter, SixHbrClassesOneLazyClass) {
  const auto result = runDfs(lockedCounter3);
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.distinctStates, 1u);
  EXPECT_EQ(result.distinctHbrs, 6u);
  // All critical sections write the same variable c... the writes conflict,
  // so the lazy HBR still orders them: 6 classes remain.
  EXPECT_EQ(result.distinctLazyHbrs, 6u);
  EXPECT_EQ(result.theorem22.conflicts, 0u);
  EXPECT_EQ(result.theoremValue.conflicts, 0u);
}

// Same three threads, but each under the lock touches only its OWN variable:
// now the lazy HBR collapses all 6 orderings into one class.
void lockedDisjoint3() {
  Shared<int> v1{0, "v1"};
  Shared<int> v2{0, "v2"};
  Shared<int> v3{0, "v3"};
  Mutex m("m");
  auto t1 = spawn([&] { LockGuard g(m); v1.store(1); });
  auto t2 = spawn([&] { LockGuard g(m); v2.store(1); });
  auto t3 = spawn([&] { LockGuard g(m); v3.store(1); });
  t1.join();
  t2.join();
  t3.join();
}

TEST(LockedDisjoint, LazyHbrCollapsesAllOrderings) {
  const auto result = runDfs(lockedDisjoint3);
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.distinctStates, 1u);
  EXPECT_EQ(result.distinctHbrs, 6u);
  EXPECT_EQ(result.distinctLazyHbrs, 1u);
}

TEST(LockedDisjoint, CachingBudgetComparison) {
  // With a tight schedule budget, lazy caching reaches at least as many
  // distinct lazy HBRs as regular caching (the Figure 3 effect).
  for (const std::uint64_t limit : {4u, 8u, 16u, 64u}) {
    const auto regular = runCaching(lockedDisjoint3, trace::Relation::Full, limit);
    const auto lazy = runCaching(lockedDisjoint3, trace::Relation::Lazy, limit);
    EXPECT_GE(lazy.distinctLazyHbrs, regular.distinctLazyHbrs) << "limit=" << limit;
  }
}

// DPOR completeness sweep over a family of small programs: DPOR (with and
// without sleep sets) and both caching explorers must observe exactly the
// same distinct terminal HBRs/lazy HBRs/states as naive enumeration.
class CompletenessSweep : public ::testing::TestWithParam<int> {};

explore::Program programByIndex(int index) {
  switch (index) {
    case 0: return figure1Program;
    case 1: return disjointCoarse;
    case 2: return racyCounter;
    case 3: return lockedCounter3;
    case 4: return lockedDisjoint3;
    case 5:
      return [] {  // reader/writer race on two vars
        Shared<int> x{0, "x"};
        Shared<int> y{0, "y"};
        auto t = spawn([&] {
          x.store(1);
          (void)y.load();
        });
        y.store(1);
        (void)x.load();
        t.join();
      };
    case 6:
      return [] {  // semaphore handoff
        Shared<int> data{0, "data"};
        Semaphore ready{0, "ready"};
        auto t = spawn([&] {
          data.store(42);
          ready.release();
        });
        ready.acquire();
        checkAlways(data.load() == 42, "handoff ordered");
        t.join();
      };
    case 7:
      return [] {  // trylock contention
        Mutex m("m");
        Shared<int> fallback{0, "fallback"};
        auto t = spawn([&] {
          LockGuard g(m);
          fallback.store(fallback.load() + 10);
        });
        if (m.tryLock()) {
          fallback.store(fallback.load() + 1);
          m.unlock();
        } else {
          fallback.store(fallback.load() + 100);
        }
        t.join();
      };
    case 8:
      return [] {  // condvar ping
        Shared<int> flag{0, "flag"};
        Mutex m("m");
        CondVar cv("cv");
        auto t = spawn([&] {
          LockGuard g(m);
          while (flag.load() == 0) cv.wait(m);
        });
        {
          LockGuard g(m);
          flag.store(1);
          cv.signal();
        }
        t.join();
      };
    case 9:
      // Corpus lastzero: stores a read value plus one and branches on a
      // read, which the random-program generator cannot produce.
      return programs::byName("lastzero-3")->body;
    default:
      return [] {};
  }
}

TEST_P(CompletenessSweep, ReducedExplorersMatchNaive) {
  const auto program = programByIndex(GetParam());
  const auto naive = runDfs(program);
  ASSERT_TRUE(naive.complete) << "naive search must exhaust the space";

  for (const bool sleepSets : {true, false}) {
    const auto dpor = runDpor(program, sleepSets);
    EXPECT_TRUE(dpor.complete);
    EXPECT_EQ(dpor.distinctHbrs, naive.distinctHbrs) << "sleep=" << sleepSets;
    EXPECT_EQ(dpor.distinctLazyHbrs, naive.distinctLazyHbrs) << "sleep=" << sleepSets;
    EXPECT_EQ(dpor.distinctStates, naive.distinctStates) << "sleep=" << sleepSets;
    EXPECT_EQ(dpor.foundViolation(), naive.foundViolation()) << "sleep=" << sleepSets;
    EXPECT_LE(dpor.schedulesExecuted, naive.schedulesExecuted);
  }
  for (const auto relation :
       {trace::Relation::Full, trace::Relation::Lazy, trace::Relation::Value}) {
    const auto cached = runCaching(program, relation);
    const std::string label = std::string("relation=") + trace::relationName(relation);
    EXPECT_TRUE(cached.complete) << label;
    EXPECT_EQ(cached.distinctStates, naive.distinctStates) << label;
    if (relation == trace::Relation::Value) {
      EXPECT_EQ(cached.distinctValueClasses, naive.distinctValueClasses) << label;
    } else {
      EXPECT_EQ(cached.distinctLazyHbrs, naive.distinctLazyHbrs) << label;
    }
    EXPECT_EQ(cached.foundViolation(), naive.foundViolation()) << label;
    EXPECT_LE(cached.schedulesExecuted, naive.schedulesExecuted) << label;
  }
  // Theorems checked on the naive run already; also check DPOR's view.
  EXPECT_EQ(naive.theorem21.conflicts, 0u);
  EXPECT_EQ(naive.theorem22.conflicts, 0u);
  EXPECT_EQ(naive.theoremValue.conflicts, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSmallPrograms, CompletenessSweep, ::testing::Range(0, 10));

// --- the random explorer's walk memo ----------------------------------------

/// RandomExplorer's draw, with no memo: below(enabled count) picks the
/// nth enabled thread.
class DrawScheduler final : public runtime::Scheduler {
 public:
  explicit DrawScheduler(std::uint64_t seed) : rng_(seed) {}
  int pick(runtime::Execution& exec) override {
    const support::ThreadSet enabled = exec.enabled();
    auto nth = rng_.below(static_cast<std::uint64_t>(enabled.size()));
    int tid = enabled.first();
    while (nth-- > 0) tid = enabled.next(tid);
    return tid;
  }

 private:
  support::Rng rng_;
};

/// What RandomExplorer must report: every walk executed and folded by hand.
struct PlainRandomRun {
  explore::ExplorationResult result;
  std::vector<std::uint64_t> ticks;
  std::set<std::vector<int>> distinctWalks;  ///< pick sequences, by thread
};

PlainRandomRun runPlainRandom(const explore::Program& program,
                              const explore::ExplorerOptions& options, std::uint64_t seed) {
  PlainRandomRun out;
  explore::ExplorationResult& r = out.result;
  runtime::StackPool pool;
  trace::TraceRecorder recorder(
      trace::TraceRecorder::Options{options.keepPredecessors, options.detectRaces});
  explore::TerminalClasses classes;
  core::EquivalenceChecker thm21;
  core::EquivalenceChecker thm22;
  core::EquivalenceChecker thmValue;
  core::RaceAggregator races;
  runtime::Config config;
  config.maxEventsPerSchedule = options.maxEventsPerSchedule;
  config.memoryModel = options.memoryModel;
  for (std::uint64_t k = 0;; ++k) {
    if (r.schedulesExecuted >= options.scheduleLimit) {
      r.hitScheduleLimit = true;
      break;
    }
    if (options.stopOnFirstViolation && !r.violations.empty()) break;
    runtime::Execution exec(config, pool, &recorder);
    DrawScheduler scheduler(support::mix64(seed + k));
    const runtime::Outcome outcome = exec.run(program, scheduler);
    out.distinctWalks.insert(exec.choices());
    ++r.schedulesExecuted;
    r.totalEvents += exec.events().size();
    r.flushEvents += exec.flushEventCount();
    r.fenceEvents += exec.fenceEventCount();
    r.maxBufferedStores = std::max(r.maxBufferedStores, exec.maxBufferedStores());
    if (outcome == runtime::Outcome::Terminal) {
      ++r.terminalSchedules;
      const support::Hash128 hbr = recorder.fingerprint(trace::Relation::Full);
      const support::Hash128 lazy = recorder.fingerprint(trace::Relation::Lazy);
      const support::Hash128 value = recorder.fingerprint(trace::Relation::Value);
      const support::Hash128 state = exec.stateFingerprint();
      classes.hbrs.insert(hbr);
      classes.lazyHbrs.insert(lazy);
      classes.valueClasses.insert(value);
      classes.states.insert(state);
      thm21.record(hbr, state);
      thm22.record(lazy, state);
      thmValue.record(value, state);
    } else if (outcome != runtime::Outcome::EventLimit) {
      ++r.violationSchedules;
      if (r.violations.size() < options.maxViolationsKept) {
        r.violations.push_back(exec.violation());
      }
    }
    if (options.detectRaces) races.ingest(recorder);
    if (options.tickIntervalSchedules > 0 &&
        r.schedulesExecuted % options.tickIntervalSchedules == 0) {
      out.ticks.push_back(r.schedulesExecuted);
    }
  }
  r.distinctHbrs = classes.hbrs.size();
  r.distinctLazyHbrs = classes.lazyHbrs.size();
  r.distinctValueClasses = classes.valueClasses.size();
  r.distinctStates = classes.states.size();
  if (options.checkTheorems) {
    r.theorem21 = thm21.stats();
    r.theorem22 = thm22.stats();
    r.theoremValue = thmValue.stats();
  }
  r.races = races.distinctRaces();
  r.checkpointStats.enabled = options.incremental;
  return out;
}

void expectSameStats(const core::EquivalenceChecker::Stats& a,
                     const core::EquivalenceChecker::Stats& b) {
  EXPECT_EQ(a.schedules, b.schedules);
  EXPECT_EQ(a.classes, b.classes);
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.conflicts, b.conflicts);
}

void expectSameResult(const explore::ExplorationResult& got,
                      const explore::ExplorationResult& want) {
  lazyhb::testing::expectSameCounts(got, want, campaign::CountClass::Scoreboard,
                                    "memo vs executing");
  EXPECT_EQ(got.timedOut, want.timedOut);
  ASSERT_EQ(got.violations.size(), want.violations.size());
  for (std::size_t i = 0; i < got.violations.size(); ++i) {
    EXPECT_EQ(got.violations[i].kind, want.violations[i].kind) << i;
    EXPECT_EQ(got.violations[i].message, want.violations[i].message) << i;
    EXPECT_EQ(got.violations[i].schedule, want.violations[i].schedule) << i;
  }
  expectSameStats(got.theorem21, want.theorem21);
  expectSameStats(got.theorem22, want.theorem22);
  expectSameStats(got.theoremValue, want.theoremValue);
  ASSERT_EQ(got.races.size(), want.races.size());
  for (std::size_t i = 0; i < got.races.size(); ++i) {
    EXPECT_EQ(got.races[i].objectUid, want.races[i].objectUid) << i;
    EXPECT_EQ(got.races[i].objectName, want.races[i].objectName) << i;
    EXPECT_EQ(got.races[i].firstEvent, want.races[i].firstEvent) << i;
    EXPECT_EQ(got.races[i].secondEvent, want.races[i].secondEvent) << i;
  }
  EXPECT_EQ(got.cacheStats.enabled, want.cacheStats.enabled);
  EXPECT_EQ(got.checkpointStats.enabled, want.checkpointStats.enabled);
}

TEST(RandomMemo, RunsEachDistinctWalkOnce) {
  int runs = 0;
  const explore::Program program = [&runs] {
    ++runs;
    figure1Program();
  };
  explore::ExplorerOptions options = lazyhb::testing::smallOptions(2000);
  const PlainRandomRun plain = runPlainRandom(program, options, 42);
  runs = 0;
  explore::RandomExplorer explorer(options, 42);
  const explore::ExplorationResult result = explorer.explore(program);
  EXPECT_EQ(result.schedulesExecuted, 2000u);
  EXPECT_EQ(static_cast<std::size_t>(runs), plain.distinctWalks.size());
  EXPECT_LT(static_cast<std::uint64_t>(runs), result.schedulesExecuted);
}

TEST(RandomMemo, MatchesExecutingEveryWalk) {
  struct Config {
    const char* label;
    std::uint32_t maxViolationsKept;
    bool stopOnFirstViolation;
  };
  const Config configs[] = {{"keep16", 16, false}, {"keep1", 1, false}, {"stop", 16, true}};
  for (const memory::MemoryModel model : {memory::MemoryModel::Sc, memory::MemoryModel::Tso}) {
    for (const char* name : {"deadlock-ab", "lost-signal", "sb-unfenced", "noisy-counter-3x2"}) {
      const programs::ProgramSpec* spec = programs::byName(name);
      ASSERT_NE(spec, nullptr) << name;
      for (const Config& config : configs) {
        SCOPED_TRACE(std::string(name) + " " + memory::memoryModelName(model) + " " + config.label);
        explore::ExplorerOptions options = lazyhb::testing::smallOptions(600);
        options.memoryModel = model;
        options.detectRaces = true;
        options.maxViolationsKept = config.maxViolationsKept;
        options.stopOnFirstViolation = config.stopOnFirstViolation;
        options.tickIntervalSchedules = 7;
        const PlainRandomRun plain = runPlainRandom(spec->body, options, 42);
        std::vector<std::uint64_t> ticks;
        options.onScheduleTick = [&ticks](std::uint64_t n) { ticks.push_back(n); };
        explore::RandomExplorer explorer(options, 42);
        expectSameResult(explorer.explore(spec->body), plain.result);
        EXPECT_EQ(ticks, plain.ticks);
      }
    }
  }
}

TEST(RandomMemo, ProgramWithoutPicksIsOneLeaf) {
  int runs = 0;
  explore::RandomExplorer explorer(lazyhb::testing::smallOptions(100), 7);
  const explore::ExplorationResult result = explorer.explore([&runs] { ++runs; });
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(result.schedulesExecuted, 100u);
  EXPECT_EQ(result.terminalSchedules, 100u);
  EXPECT_EQ(result.distinctStates, 1u);
}

/// The steps a walk seeded `seed` takes through points enabling `counts`.
std::vector<explore::PickTrie::Step> drawnPath(std::uint64_t seed,
                                               const std::vector<std::uint32_t>& counts) {
  support::Rng rng(seed);
  std::vector<explore::PickTrie::Step> path;
  for (const std::uint32_t n : counts) {
    path.push_back({n, static_cast<std::uint32_t>(rng.below(n))});
  }
  return path;
}

TEST(RandomMemo, TrieRootCanBeALeaf) {
  explore::PickTrie trie;
  EXPECT_EQ(trie.find(1), nullptr);
  explore::PickTrie::Leaf leaf;
  leaf.record.events = 3;
  ASSERT_TRUE(trie.insert({}, leaf));
  for (const std::uint64_t seed : {1u, 2u, 99u}) {
    const explore::PickTrie::Leaf* hit = trie.find(seed);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->record.events, 3u);
  }
}

TEST(RandomMemo, TrieStopsInsertingAtItsCapButStillHits) {
  constexpr std::size_t kCap = 1024;
  explore::PickTrie trie(kCap);
  const std::vector<std::uint32_t> counts = {4, 3, 4, 3, 4, 3};
  std::vector<std::uint64_t> stored;
  std::uint64_t seed = 0;
  for (bool inserted = true; inserted; ++seed) {
    if (trie.find(seed) != nullptr) continue;
    explore::PickTrie::Leaf leaf;
    leaf.record.events = static_cast<std::uint32_t>(seed);
    inserted = trie.insert(drawnPath(seed, counts), leaf);
    if (inserted) stored.push_back(seed);
  }
  ASSERT_FALSE(stored.empty());
  EXPECT_LE(trie.bytes(), kCap);
  EXPECT_EQ(trie.leafCount(), stored.size());
  // Full: a new walk is refused, even one that would fit in a spare slot.
  explore::PickTrie::Leaf late;
  EXPECT_FALSE(trie.insert(drawnPath(seed, counts), late));
  for (const std::uint64_t s : stored) {
    const explore::PickTrie::Leaf* hit = trie.find(s);
    ASSERT_NE(hit, nullptr) << s;
    EXPECT_EQ(hit->record.events, s);
  }
}

}  // namespace
