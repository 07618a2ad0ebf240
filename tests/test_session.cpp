// The public embedding facade (lazyhb/lazyhb.hpp): Session/TestReport
// parity against direct explorer construction, open scenario registration,
// and registry invariants.
//
// The parity suite is the redesign's hard guarantee: Session is an adapter,
// not a reimplementation, so every count it reports must be byte-identical
// to constructing the explorer by hand the way consumers did before the
// facade existed. The sample spans the corpus regimes (coarse locking,
// noisy counters, condvars, trylock, CAS, deadlock and lost-signal bugs)
// and runs all five canonical strategies over each.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/explorer_spec.hpp"
#include "cli/cli.hpp"
#include "explore/dfs_explorer.hpp"
#include "explore/random_explorer.hpp"
#include "lazyhb/lazyhb.hpp"
#include "programs/registry.hpp"
#include "support/json_reader.hpp"

namespace {

using namespace lazyhb;

// --- scenario registration (exercises the LAZYHB_SCENARIO macros exactly
// --- as an embedding application would, in this binary's registry) --------

LAZYHB_SCENARIO("session-test-overdraft", "session-test",
                "check-then-act overdraft seeded for the facade tests",
                .hasKnownBug = true) {
  Shared<int> balance{10, "balance"};
  auto spender = spawn([&] {
    if (balance.load() >= 10) balance.store(balance.load() - 10);
  });
  if (balance.load() >= 10) balance.store(balance.load() - 10);
  spender.join();
  checkAlways(balance.load() >= 0, "no overdraft");
}

LAZYHB_SCENARIO("session-test-quiet", "session-test",
                "single racy increment pair (no violation)") {
  Shared<int> counter{0, "counter"};
  auto t = spawn([&] { counter.fetchAdd(1); });
  counter.fetchAdd(1);
  t.join();
}

explore::Program sessionTestFactory(int writers) {
  return [writers] {
    Shared<int> cell{0, "cell"};
    InlineVec<ThreadHandle, 4> threads;
    for (int i = 0; i < writers; ++i) {
      threads.push(spawn([&, i] { cell.store(i + 1); }));
    }
    for (auto& t : threads) t.join();
  };
}

LAZYHB_SCENARIO_FN("session-test-writers", "session-test",
                   "racy writers from a factory body", sessionTestFactory(3),
                   .checkpointable = true);

// Ranks below kScenarioUserRank are reserved for the corpus; public
// registration clamps them (with a warning), so this scenario must land
// after the corpus like any other user registration.
LAZYHB_SCENARIO_FN("session-test-reserved-rank", "session-test",
                   "asks for a reserved rank and gets clamped",
                   sessionTestFactory(2), .rank = 5);

// --- parity -----------------------------------------------------------------

constexpr std::uint64_t kParityLimit = 200;
constexpr std::uint64_t kParitySeed = 42;

/// The pre-redesign construction path: explorers built by hand from
/// internal headers, exactly as the CLI/examples/benches did before the
/// facade. Kept independent of campaign::ExplorerSpec so the parity check
/// cannot degenerate into comparing the factory against itself.
explore::ExplorationResult runDirect(const std::string& strategy,
                                     const explore::Program& program,
                                     bool checkpointable,
                                     MemoryModel memoryModel = MemoryModel::Sc) {
  explore::ExplorerOptions options;
  options.scheduleLimit = kParityLimit;
  options.checkpointable = checkpointable;
  options.memoryModel = memoryModel;
  if (strategy == "dfs") {
    explore::TreeExplorer explorer(options);
    return explorer.explore(program);
  }
  if (strategy == "random") {
    explore::RandomExplorer explorer(options, kParitySeed);
    return explorer.explore(program);
  }
  if (strategy == "dpor") {
    explore::TreeExplorer explorer(options, explore::DporOptions{});
    return explorer.explore(program);
  }
  if (strategy == "caching-full") {
    explore::TreeExplorer explorer(options, trace::Relation::Full);
    return explorer.explore(program);
  }
  if (strategy == "caching-lazy") {
    explore::TreeExplorer explorer(options, trace::Relation::Lazy);
    return explorer.explore(program);
  }
  ADD_FAILURE() << "unknown strategy " << strategy;
  return {};
}

/// A diverse slice of the corpus (mirrors the golden-count sample).
const char* const kParityPrograms[] = {
    "disjoint-lock-2", "noisy-counter-3x2", "prodcons-1x1", "trylock-vs-lock",
    "cas-counter-3",   "deadlock-ab",       "lost-signal",
};

TEST(SessionParity, CountsMatchDirectConstructionAcrossStrategies) {
  for (const char* programName : kParityPrograms) {
    const programs::ProgramSpec* spec = programs::byName(programName);
    ASSERT_NE(spec, nullptr) << programName;
    for (const campaign::ExplorerSpec& mode : campaign::allExplorers()) {
      SCOPED_TRACE(std::string(programName) + " x " + mode.name);
      const explore::ExplorationResult direct =
          runDirect(mode.name, spec->body, spec->checkpointable);
      const TestReport viaSession = Session()
                                        .strategy(mode.name)
                                        .schedules(kParityLimit)
                                        .seed(kParitySeed)
                                        .run(spec->name);

      EXPECT_EQ(viaSession.schedulesExecuted, direct.schedulesExecuted);
      EXPECT_EQ(viaSession.terminalSchedules, direct.terminalSchedules);
      EXPECT_EQ(viaSession.prunedSchedules, direct.prunedSchedules);
      EXPECT_EQ(viaSession.violationSchedules, direct.violationSchedules);
      EXPECT_EQ(viaSession.totalEvents, direct.totalEvents);
      EXPECT_EQ(viaSession.distinctHbrs, direct.distinctHbrs);
      EXPECT_EQ(viaSession.distinctLazyHbrs, direct.distinctLazyHbrs);
      EXPECT_EQ(viaSession.distinctStates, direct.distinctStates);
      EXPECT_EQ(viaSession.complete, direct.complete);
      EXPECT_EQ(viaSession.hitScheduleLimit, direct.hitScheduleLimit);
      EXPECT_EQ(viaSession.violations.size(), direct.violations.size());
      EXPECT_EQ(viaSession.cache.enabled, direct.cacheStats.enabled);
      EXPECT_EQ(viaSession.cache.lookups, direct.cacheStats.lookups);
      EXPECT_EQ(viaSession.cache.hits, direct.cacheStats.hits);
      EXPECT_EQ(viaSession.cache.entries, direct.cacheStats.entries);
      EXPECT_EQ(viaSession.scenario, spec->name);
      EXPECT_EQ(viaSession.family, spec->family);
    }
  }
}

TEST(SessionParity, ViolationSchedulesReplayIdentically) {
  const TestReport report =
      Session().strategy("dfs").schedules(500).run("deadlock-ab");
  ASSERT_TRUE(report.foundViolation());
  for (const TestViolation& violation : report.violations) {
    const ScheduleTrace trace =
        traceSchedule("deadlock-ab", violation.schedule);
    EXPECT_TRUE(trace.applied);
    EXPECT_TRUE(trace.violated);
    EXPECT_EQ(trace.outcome, violation.kind);
  }
}

// --- Session behaviour -------------------------------------------------------

TEST(Session, UnknownStrategyThrows) {
  EXPECT_THROW((void)Session().strategy("bfs").run("disjoint-lock-2"),
               std::invalid_argument);
  EXPECT_THROW((void)Session().strategy("").run([] {}), std::invalid_argument);
}

TEST(Session, UnknownScenarioThrows) {
  EXPECT_THROW((void)Session().run("no-such-scenario"), std::invalid_argument);
  EXPECT_THROW((void)traceSchedule("no-such-scenario", {}),
               std::invalid_argument);
}

TEST(Session, UnknownRelationThrows) {
  TraceOptions options;
  options.relation = "total";
  EXPECT_THROW((void)traceSchedule("disjoint-lock-2", {}, options),
               std::invalid_argument);
}

TEST(Session, StrategiesListsCanonicalThenExtended) {
  const std::vector<std::string> names = Session::strategies();
  ASSERT_EQ(names.size(), 7u);
  EXPECT_EQ(names[0], "dfs");
  EXPECT_EQ(names[4], "caching-lazy");
  EXPECT_EQ(names[5], "dpor-nosleep");
  EXPECT_EQ(names[6], "caching-value");
  for (const std::string& name : names) {
    EXPECT_TRUE(campaign::parseExplorerSpec(name).has_value()) << name;
  }
}

TEST(Session, ExtendedStrategiesRunButStayOutOfTheCanonicalMatrix) {
  const TestReport nosleep = Session()
                                 .strategy("dpor-nosleep")
                                 .schedules(kParityLimit)
                                 .run("disjoint-lock-2");
  EXPECT_GT(nosleep.schedulesExecuted, 0u);
  for (const campaign::ExplorerSpec& spec : campaign::allExplorers()) {
    EXPECT_NE(spec.name, "dpor-nosleep");
  }
}

TEST(Session, RunByNameInheritsCheckpointableTrait) {
  // disjoint-lock-2 is registered checkpointable; the report echoes the
  // trait (and the incremental engine may elide events on fast-fiber
  // builds — counts stay identical either way, which the parity test
  // already pins).
  const TestReport report =
      Session().schedules(50).run("disjoint-lock-2");
  EXPECT_TRUE(report.checkpointable);
  const TestReport adHoc = Session().schedules(50).run([] {
    Shared<int> x{0, "x"};
    x.store(1);
  });
  EXPECT_FALSE(adHoc.checkpointable);
  EXPECT_TRUE(adHoc.scenario.empty());
}

TEST(Session, ReportEchoesConfiguration) {
  const TestReport report = Session()
                                .strategy("caching-lazy")
                                .schedules(123)
                                .maxEventsPerSchedule(4096)
                                .seed(7)
                                .incremental(false)
                                .run("session-test-quiet");
  EXPECT_EQ(report.strategy, "caching-lazy");
  EXPECT_EQ(report.scheduleLimit, 123u);
  EXPECT_EQ(report.maxEventsPerSchedule, 4096u);
  EXPECT_EQ(report.seed, 7u);
  EXPECT_FALSE(report.incremental);
  EXPECT_EQ(report.scenario, "session-test-quiet");
  EXPECT_EQ(report.family, "session-test");
}

TEST(Session, StopOnFirstViolationStopsEarly) {
  const TestReport all =
      Session().strategy("dfs").schedules(500).run("session-test-overdraft");
  const TestReport first = Session()
                               .strategy("dfs")
                               .schedules(500)
                               .stopOnFirstViolation(true)
                               .run("session-test-overdraft");
  ASSERT_TRUE(all.foundViolation());
  ASSERT_TRUE(first.foundViolation());
  EXPECT_LE(first.schedulesExecuted, all.schedulesExecuted);
  EXPECT_EQ(first.violations.size(), 1u);
}

// --- the memory model and the run-knob defaults through the facade ---------

TEST(SessionMemoryModel, TsoRunFindsTheStoreBufferBugWithDirectCounts) {
  const programs::ProgramSpec* spec = programs::byName("sb-unfenced");
  ASSERT_NE(spec, nullptr);
  for (const campaign::ExplorerSpec& mode : campaign::allExplorers()) {
    SCOPED_TRACE(mode.name);
    const explore::ExplorationResult direct = runDirect(
        mode.name, spec->body, spec->checkpointable, MemoryModel::Tso);
    const TestReport viaSession = Session()
                                      .strategy(mode.name)
                                      .schedules(kParityLimit)
                                      .seed(kParitySeed)
                                      .memoryModel("tso")
                                      .run(spec->name);
    EXPECT_EQ(viaSession.memoryModel, "tso");
    EXPECT_TRUE(viaSession.foundViolation());
    EXPECT_EQ(viaSession.schedulesExecuted, direct.schedulesExecuted);
    EXPECT_EQ(viaSession.terminalSchedules, direct.terminalSchedules);
    EXPECT_EQ(viaSession.prunedSchedules, direct.prunedSchedules);
    EXPECT_EQ(viaSession.violationSchedules, direct.violationSchedules);
    EXPECT_EQ(viaSession.totalEvents, direct.totalEvents);
    EXPECT_EQ(viaSession.distinctHbrs, direct.distinctHbrs);
    EXPECT_EQ(viaSession.distinctLazyHbrs, direct.distinctLazyHbrs);
    EXPECT_EQ(viaSession.distinctValueClasses, direct.distinctValueClasses);
    EXPECT_EQ(viaSession.distinctStates, direct.distinctStates);
    EXPECT_EQ(viaSession.violations.size(), direct.violations.size());
  }
  // Under SC the store-buffering outcome is unreachable.
  EXPECT_FALSE(Session().strategy("dfs").schedules(kParityLimit).run(spec->name)
                   .foundViolation());
}

TEST(SessionMemoryModel, TsoViolationReplaysOnlyUnderTso) {
  const TestReport report = Session()
                                .strategy("dfs")
                                .schedules(kParityLimit)
                                .memoryModel("tso")
                                .run("sb-unfenced");
  ASSERT_TRUE(report.foundViolation());
  const std::vector<int>& schedule = report.violations.front().schedule;

  TraceOptions tso;
  tso.memoryModel = "tso";
  const ScheduleTrace underTso = traceSchedule("sb-unfenced", schedule, tso);
  EXPECT_TRUE(underTso.applied);
  EXPECT_TRUE(underTso.violated);
  EXPECT_EQ(underTso.outcome, report.violations.front().kind);

  // The schedule carries flush picks, which no SC execution can apply.
  TraceOptions sc;
  sc.memoryModel = "sc";
  EXPECT_FALSE(traceSchedule("sb-unfenced", schedule, sc).applied);
  EXPECT_FALSE(traceSchedule("sb-unfenced", schedule).applied);
}

TEST(SessionMemoryModel, UnknownModelNameThrows) {
  for (const char* name : {"pso", "SC", ""}) {
    SCOPED_TRACE(name);
    EXPECT_THROW((void)Session().memoryModel(name), std::invalid_argument);
    EXPECT_THROW((void)Suite().memoryModel(name), std::invalid_argument);
    TraceOptions options;
    options.memoryModel = name;
    EXPECT_THROW((void)traceSchedule("sb-unfenced", {}, options),
                 std::invalid_argument);
  }
}

TEST(SessionMemoryModel, SuiteCellsRunUnderTheModel) {
  const SuiteReport report = Suite()
                                 .add("sb-unfenced")
                                 .strategies({"dfs"})
                                 .schedules(kParityLimit)
                                 .memoryModel("tso")
                                 .jobs(1)
                                 .run();
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_GT(report.cells.front().violations, 0u);
  std::string error;
  const auto parsed = support::JsonValue::parse(report.toJson(), &error);
  ASSERT_NE(parsed, nullptr) << error;
  EXPECT_EQ(parsed->find("config")->stringAt("memory_model"), "tso");
}

/// The "config" block of a lazyhb-test-report document, as written.
std::string configBlock(const std::string& json) {
  const std::size_t begin = json.find("\"config\"");
  if (begin == std::string::npos) return {};
  return json.substr(begin, json.find('}', begin) - begin);
}

TEST(RunOptionsDefaults, SessionCliAndStructEchoOneConfig) {
  const programs::ProgramSpec* spec = programs::byName("peterson");
  ASSERT_NE(spec, nullptr);
  const RunOptions defaults;
  TestReport expected;
  expected.scheduleLimit = defaults.scheduleLimit;
  expected.maxEventsPerSchedule = defaults.maxEventsPerSchedule;
  expected.seed = kDefaultSeed;
  expected.incremental = defaults.incremental;
  expected.checkpointable = spec->checkpointable;
  expected.memoryModel = memoryModelName(defaults.memoryModel);

  const TestReport viaSession = Session().strategy("dfs").run("peterson");
  EXPECT_EQ(configBlock(viaSession.toJson()), configBlock(expected.toJson()));

  const std::string path = ::testing::TempDir() + "run-options-defaults.json";
  std::vector<std::string> args = {"lazyhb", "explore", "--program", "peterson",
                                   "--out", path};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  ASSERT_EQ(cli::run(static_cast<int>(argv.size()), argv.data()), 0);
  std::ifstream in(path);
  const std::string viaCli((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_EQ(configBlock(viaCli), configBlock(expected.toJson()));
}

// --- SuiteReport JSON --------------------------------------------------------

TEST(SuiteReportJson, VersionMatchesThePublicSchemaConstant) {
  const SuiteReport report = Suite()
                                 .add("session-test-quiet")
                                 .strategies({"dfs"})
                                 .schedules(20)
                                 .jobs(1)
                                 .run();
  std::string error;
  const auto parsed = support::JsonValue::parse(report.toJson(), &error);
  ASSERT_NE(parsed, nullptr) << error;
  EXPECT_EQ(parsed->stringAt("schema"), kSuiteReportSchemaName);
  EXPECT_EQ(parsed->intAt("version"), kSuiteReportSchemaVersion);
}

// --- TestReport JSON ---------------------------------------------------------

TEST(TestReportJson, VersionedAndStructurallySound) {
  const TestReport report = Session()
                                .strategy("caching-lazy")
                                .schedules(kParityLimit)
                                .checkTheorems(true)
                                .run("session-test-overdraft");
  const std::string json = report.toJson();

  EXPECT_NE(json.find("\"schema\": \"lazyhb-test-report\""), std::string::npos);
  EXPECT_NE(json.find("\"version\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"scenario\": \"session-test-overdraft\""),
            std::string::npos);
  EXPECT_NE(json.find("\"strategy\": \"caching-lazy\""), std::string::npos);
  EXPECT_NE(json.find("\"violations\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"assertion-failure\""), std::string::npos);
  EXPECT_NE(json.find("\"cache\""), std::string::npos);
  EXPECT_NE(json.find("\"theorem_22\""), std::string::npos);
  // v2 adds the value-class count and the value-soundness checker block.
  EXPECT_NE(json.find("\"value_classes\""), std::string::npos);
  EXPECT_NE(json.find("\"theorem_value\""), std::string::npos);
  EXPECT_EQ(json.back(), '\n');

  // Structural sanity without a parser: balanced braces/brackets (the
  // writer never emits braces inside these strings).
  int braces = 0;
  int brackets = 0;
  for (const char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(TestReportJson, CacheSectionOnlyForCachingStrategies) {
  const TestReport dfs =
      Session().strategy("dfs").schedules(50).run("session-test-quiet");
  EXPECT_FALSE(dfs.cache.enabled);
  EXPECT_EQ(dfs.toJson().find("\"cache\""), std::string::npos);
}

TEST(TestReportJson, SummaryNamesScenarioAndFirstViolation) {
  const TestReport report =
      Session().strategy("dfs").schedules(500).run("session-test-overdraft");
  const std::string summary = report.summary();
  EXPECT_NE(summary.find("session-test-overdraft"), std::string::npos);
  EXPECT_NE(summary.find("assertion-failure"), std::string::npos);
}

// --- registry invariants (registration is open now; these must hold for
// --- the corpus plus whatever this binary registered) ------------------------

TEST(Registry, IdsAreDense1ToN) {
  const auto& all = programs::all();
  ASSERT_GE(all.size(), 91u);  // 87 corpus + the 4 scenarios above
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].id, static_cast<int>(i) + 1);
  }
}

TEST(Registry, NamesAreUnique) {
  std::set<std::string> names;
  for (const auto& spec : programs::all()) {
    EXPECT_TRUE(names.insert(spec.name).second) << "duplicate " << spec.name;
  }
}

TEST(Registry, CorpusKeepsItsStableIdsAheadOfUserScenarios) {
  // Corpus ranks sort below user registrations, so the corpus' 87
  // benchmarks keep ids 1..87 regardless of what an embedder registers.
  const auto& all = programs::all();
  EXPECT_EQ(all[0].name, "disjoint-lock-2");
  const programs::ProgramSpec* lastCorpus = programs::byName("store-forwarding");
  ASSERT_NE(lastCorpus, nullptr);
  EXPECT_EQ(lastCorpus->id, 87);
  const programs::ProgramSpec* user = programs::byName("session-test-overdraft");
  ASSERT_NE(user, nullptr);
  EXPECT_GT(user->id, 87);
  // The reserved-rank request was clamped into the user range: it cannot
  // displace corpus ids, and registration order among user scenarios holds.
  const programs::ProgramSpec* clamped =
      programs::byName("session-test-reserved-rank");
  ASSERT_NE(clamped, nullptr);
  EXPECT_GT(clamped->id, user->id);
}

TEST(Registry, MacroRegisteredScenariosCarryTheirTraits) {
  const programs::ProgramSpec* overdraft =
      programs::byName("session-test-overdraft");
  ASSERT_NE(overdraft, nullptr);
  EXPECT_TRUE(overdraft->hasKnownBug);
  EXPECT_FALSE(overdraft->checkpointable);

  const programs::ProgramSpec* writers = programs::byName("session-test-writers");
  ASSERT_NE(writers, nullptr);
  EXPECT_FALSE(writers->hasKnownBug);
  EXPECT_TRUE(writers->checkpointable);
}

TEST(Registry, FamilyLookupFindsAllMembersInIdOrder) {
  const auto family = programs::byFamily("session-test");
  ASSERT_EQ(family.size(), 4u);
  EXPECT_EQ(family[0]->name, "session-test-overdraft");
  EXPECT_EQ(family[1]->name, "session-test-quiet");
  EXPECT_EQ(family[2]->name, "session-test-writers");
  EXPECT_EQ(family[3]->name, "session-test-reserved-rank");
  for (std::size_t i = 1; i < family.size(); ++i) {
    EXPECT_LT(family[i - 1]->id, family[i]->id);
  }
  EXPECT_TRUE(programs::byFamily("no-such-family").empty());
}

TEST(Registry, ScenariosSnapshotMatchesRegistry) {
  const std::vector<ScenarioInfo> infos = scenarios();
  const auto& all = programs::all();
  ASSERT_EQ(infos.size(), all.size());
  for (std::size_t i = 0; i < infos.size(); ++i) {
    EXPECT_EQ(infos[i].id, all[i].id);
    EXPECT_EQ(infos[i].name, all[i].name);
    EXPECT_EQ(infos[i].family, all[i].family);
    EXPECT_EQ(infos[i].hasKnownBug, all[i].hasKnownBug);
    EXPECT_EQ(infos[i].checkpointable, all[i].checkpointable);
  }
}

TEST(Registry, UserScenarioIsFullyOperational) {
  // The macro-registered scenario behaves exactly like a corpus program:
  // explorable through the facade, bug found, schedule replayable.
  const TestReport report = Session()
                                .strategy("dpor")
                                .schedules(1000)
                                .run("session-test-overdraft");
  EXPECT_TRUE(report.complete);
  ASSERT_TRUE(report.foundViolation());
  const ScheduleTrace trace = traceSchedule("session-test-overdraft",
                                            report.violations.front().schedule);
  EXPECT_TRUE(trace.applied);
  EXPECT_TRUE(trace.violated);
  EXPECT_EQ(trace.outcome, "assertion-failure");
}

}  // namespace
