// Tests for the durability/divisibility layer added with report schema v5:
// the campaign journal (kill a campaign mid-matrix, resume, counts are
// byte-identical), the report merge algebra (associative, commutative,
// conflict-rejecting), shard partitioning, the per-cell supervisor
// (timeout/retry marking), the progress-event chain, and the lazyhb::Suite
// facade's parity with the campaign runner it adapts.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/checkpoint.hpp"
#include "campaign/explorer_spec.hpp"
#include "campaign/merge.hpp"
#include "campaign/report.hpp"
#include "cli/cli.hpp"
#include "lazyhb/lazyhb.hpp"
#include "programs/registry.hpp"
#include "support/json_reader.hpp"
#include "test_helpers.hpp"

namespace {

using namespace lazyhb;
namespace fs = std::filesystem;

// --- helpers -----------------------------------------------------------------

/// A fresh temp directory, removed at scope exit.
class TempDir {
 public:
  TempDir() {
    std::string templ =
        (fs::temp_directory_path() / "lazyhb-resume-XXXXXX").string();
    path_ = mkdtemp(templ.data());
    EXPECT_FALSE(path_.empty());
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// The small (4 program × 5 explorer) matrix test_campaign.cpp also uses.
campaign::CampaignOptions smallCampaign(int jobs) {
  campaign::CampaignOptions options;
  options.explorers = *campaign::parseExplorerList("");
  for (const char* name :
       {"disjoint-lock-2", "disjoint-lock-3", "counter-lock-3", "lost-signal"}) {
    const programs::ProgramSpec* spec = programs::byName(name);
    EXPECT_NE(spec, nullptr) << name;
    if (spec != nullptr) options.programs.push_back(spec);
  }
  options.explorer.scheduleLimit = 150;
  options.jobs = jobs;
  return options;
}

/// The count fields the determinism contract pins, as a comparable tuple.
void expectSameCounts(const campaign::CellResult& a,
                      const campaign::CellResult& b) {
  const std::string label = a.program + " x " + a.explorer;
  EXPECT_EQ(a.program, b.program) << label;
  EXPECT_EQ(a.explorer, b.explorer) << label;
  lazyhb::testing::expectSameCounts(a.stats, b.stats,
                                    campaign::CountClass::Configuration, label);
}

/// Run one shard of the small campaign and render its v5 report.
std::string shardDocument(int index, int count) {
  campaign::CampaignOptions options = smallCampaign(2);
  options.shardIndex = index;
  options.shardCount = count;
  const campaign::CampaignResult result = campaign::runCampaign(options);
  return campaign::writeReportJson(result, campaign::makeReportConfig(options));
}

/// A fabricated clean cell for merge-conflict tests (counts satisfy the §3
/// chain so only the *conflict* path is exercised).
campaign::CellResult fabricatedCell(std::uint64_t schedules) {
  campaign::CellResult cell;
  cell.programId = 1;
  cell.program = "fabricated";
  cell.family = "synthetic";
  cell.explorer = "dfs";
  cell.stats.schedulesExecuted = schedules;
  cell.stats.terminalSchedules = schedules;
  cell.stats.distinctHbrs = 4;
  cell.stats.distinctLazyHbrs = 3;
  cell.stats.distinctStates = 2;
  cell.stats.totalEvents = 10 * schedules;
  cell.stats.complete = true;
  cell.wallSeconds = 0.5;
  return cell;
}

/// fabricatedCell with value classes and the tallies the theorem checkers
/// leave when they ran: every terminal schedule checked, no conflict.
campaign::CellResult theoremCheckedCell(std::uint64_t schedules) {
  campaign::CellResult cell = fabricatedCell(schedules);
  cell.stats.distinctValueClasses = 2;
  cell.stats.theorem21 = {schedules, 4, 2, 0};
  cell.stats.theorem22 = {schedules, 3, 2, 0};
  cell.stats.theoremValue = {schedules, 2, 2, 0};
  return cell;
}

std::string fabricatedDocument(std::vector<campaign::CellResult> cells,
                               bool checkTheorems = false) {
  const campaign::CampaignResult result =
      campaign::foldCells(std::move(cells), {"dfs"});
  campaign::ReportConfig config;
  config.scheduleLimit = 150;
  config.maxEventsPerSchedule = 1u << 16;
  config.checkTheorems = checkTheorems;
  return campaign::writeReportJson(result, config);
}

/// `lazyhb <args...>` run in-process; returns the exit status and sets
/// *out to what it printed on stdout.
int runCli(std::vector<std::string> args, std::string* out) {
  args.insert(args.begin(), "lazyhb");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  ::testing::internal::CaptureStdout();
  const int status = cli::run(static_cast<int>(argv.size()), argv.data());
  *out = ::testing::internal::GetCapturedStdout();
  return status;
}

// --- journal -----------------------------------------------------------------

TEST(Journal, RecordsAndReloadsCells) {
  const TempDir dir;
  auto options = smallCampaign(1);
  options.checkpointDir = dir.path();
  {
    campaign::CampaignJournal journal(options);
    EXPECT_EQ(journal.completedCount(), 0u);
    EXPECT_FALSE(journal.completed(3));
    journal.record(3, fabricatedCell(42));
  }
  options.requireExistingJournal = true;
  campaign::CampaignJournal reopened(options);
  EXPECT_EQ(reopened.completedCount(), 1u);
  ASSERT_TRUE(reopened.completed(3));
  EXPECT_FALSE(reopened.completed(2));
  expectSameCounts(reopened.loaded(3), fabricatedCell(42));
}

TEST(Journal, RejectsConfigMismatch) {
  const TempDir dir;
  auto options = smallCampaign(1);
  options.checkpointDir = dir.path();
  { campaign::CampaignJournal journal(options); }

  auto differentSeed = options;
  differentSeed.seed = 7;
  EXPECT_THROW(campaign::CampaignJournal{differentSeed}, std::runtime_error);

  auto differentLimit = options;
  differentLimit.explorer.scheduleLimit = 99;
  EXPECT_THROW(campaign::CampaignJournal{differentLimit}, std::runtime_error);

  auto differentShard = options;
  differentShard.shardIndex = 1;
  differentShard.shardCount = 2;
  EXPECT_THROW(campaign::CampaignJournal{differentShard}, std::runtime_error);

  auto withTheorems = options;
  withTheorems.explorer.checkTheorems = true;
  EXPECT_THROW(campaign::CampaignJournal{withTheorems}, std::runtime_error);
}

TEST(Journal, RequireExistingRefusesEmptyDirectory) {
  const TempDir dir;
  auto options = smallCampaign(1);
  options.checkpointDir = dir.path();
  options.requireExistingJournal = true;
  EXPECT_THROW(campaign::CampaignJournal{options}, std::runtime_error);
}

TEST(Journal, ResumeLoadsCompletedCellsInsteadOfRerunning) {
  const TempDir dir;
  const auto direct = campaign::runCampaign(smallCampaign(2));

  auto first = smallCampaign(2);
  first.checkpointDir = dir.path();
  const auto initial = campaign::runCampaign(first);
  EXPECT_EQ(initial.cellsFromCheckpoint, 0u);

  auto second = smallCampaign(2);
  second.checkpointDir = dir.path();
  second.requireExistingJournal = true;
  const auto resumed = campaign::runCampaign(second);
  EXPECT_EQ(resumed.cellsFromCheckpoint, resumed.cells.size());

  ASSERT_EQ(resumed.cells.size(), direct.cells.size());
  for (std::size_t i = 0; i < direct.cells.size(); ++i) {
    expectSameCounts(direct.cells[i], resumed.cells[i]);
    EXPECT_TRUE(resumed.cells[i].fromCheckpoint);
  }
  EXPECT_EQ(resumed.totalSchedules, direct.totalSchedules);
  EXPECT_EQ(resumed.inequalityViolations, 0);
}

// The headline durability property: SIGKILL a campaign child mid-matrix,
// resume from its journal, and the completed campaign's counts are
// byte-identical to an uninterrupted run's.
TEST(Journal, KillAndResumeMatchesUninterruptedRun) {
  const TempDir dir;
  const auto direct = campaign::runCampaign(smallCampaign(2));

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: run the journaled campaign until killed (or completion —
    // either way the parent's resume below must produce identical counts).
    auto options = smallCampaign(1);
    options.checkpointDir = dir.path();
    try {
      (void)campaign::runCampaign(options);
    } catch (...) {
    }
    _exit(0);
  }

  // Parent: wait until at least two cells are journaled, then kill the
  // child without warning. The per-cell files are written atomically, so
  // whatever the kill interrupts, the journal holds only complete cells.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::size_t journaled = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    journaled = 0;
    for (const auto& entry : fs::directory_iterator(dir.path())) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("cell-", 0) == 0 && name.find(".tmp") == std::string::npos) {
        ++journaled;
      }
    }
    if (journaled >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(journaled, 2u) << "campaign child journaled no cells in 60s";
  kill(child, SIGKILL);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);

  auto resumeOptions = smallCampaign(2);
  resumeOptions.checkpointDir = dir.path();
  resumeOptions.requireExistingJournal = true;
  const auto resumed = campaign::runCampaign(resumeOptions);

  EXPECT_GE(resumed.cellsFromCheckpoint, 2u);
  ASSERT_EQ(resumed.cells.size(), direct.cells.size());
  for (std::size_t i = 0; i < direct.cells.size(); ++i) {
    expectSameCounts(direct.cells[i], resumed.cells[i]);
  }
  EXPECT_EQ(resumed.totalSchedules, direct.totalSchedules);
  EXPECT_EQ(resumed.totalEvents, direct.totalEvents);
  EXPECT_EQ(resumed.inequalityViolations, 0);
}

/// A two-cell campaign small enough to journal in milliseconds.
campaign::CampaignOptions tinyCampaign(const std::string& checkpointDir) {
  campaign::CampaignOptions options;
  options.explorers = *campaign::parseExplorerList("dfs");
  options.programs.push_back(programs::byName("disjoint-lock-2"));
  options.programs.push_back(programs::byName("counter-lock-3"));
  options.explorer.scheduleLimit = 20;
  options.explorer.snapshotBudgetBytes = 0;  // independent of the environment
  options.jobs = 1;
  options.checkpointDir = checkpointDir;
  return options;
}

TEST(Journal, ResumedCellsKeepTheirTheoremTallies) {
  const TempDir dir;
  campaign::CampaignOptions options = tinyCampaign(dir.path());
  options.explorer.checkTheorems = true;
  const auto first = campaign::runCampaign(options);
  options.requireExistingJournal = true;
  const auto resumed = campaign::runCampaign(options);
  ASSERT_EQ(resumed.cellsFromCheckpoint, resumed.cells.size());
  for (std::size_t i = 0; i < first.cells.size(); ++i) {
    const explore::ExplorationResult& want = first.cells[i].stats;
    const explore::ExplorationResult& got = resumed.cells[i].stats;
    const auto same = [&](const core::EquivalenceChecker::Stats& a,
                          const core::EquivalenceChecker::Stats& b) {
      EXPECT_GT(a.schedules, 0u) << first.cells[i].program;
      EXPECT_EQ(a.schedules, b.schedules) << first.cells[i].program;
      EXPECT_EQ(a.classes, b.classes) << first.cells[i].program;
      EXPECT_EQ(a.states, b.states) << first.cells[i].program;
      EXPECT_EQ(a.conflicts, b.conflicts) << first.cells[i].program;
    };
    same(want.theorem21, got.theorem21);
    same(want.theorem22, got.theorem22);
    same(want.theoremValue, got.theoremValue);
  }

  // A conflict survives the journal too, and so does the verdict it broke.
  campaign::CampaignJournal journal(options);
  campaign::CellResult conflicted = theoremCheckedCell(10);
  conflicted.stats.theoremValue.conflicts = 2;
  conflicted.inequalityDiagnostic = campaign::checkCountingChain(
      conflicted.program, conflicted.stats, 150);
  journal.record(1, conflicted);
  const campaign::CampaignJournal reopened(options);
  const campaign::CellResult& loaded = reopened.loaded(1);
  EXPECT_EQ(loaded.stats.theorem21.conflicts, 0u);
  EXPECT_EQ(loaded.stats.theoremValue.conflicts, 2u);
  EXPECT_EQ(loaded.stats.theoremValue.schedules, 10u);
  EXPECT_EQ(loaded.inequalityDiagnostic,
            "fabricated: value soundness violated (2 conflicts)");
}

// The manifest format is what lets a journal started by one build resume
// under the next: pin it byte for byte.
TEST(Journal, ManifestIsPinned) {
  const TempDir dir;
  campaign::CampaignOptions options = tinyCampaign(dir.path());
  options.explorers = *campaign::parseExplorerList("dfs,caching-lazy");
  options.seed = 7;
  options.explorer.maxEventsPerSchedule = 4096;
  options.explorer.incremental = false;
  options.explorer.snapshotBudgetBytes = 8192;
  options.explorer.memoryModel = memory::MemoryModel::Tso;
  options.explorer.detectRaces = true;
  options.shardIndex = 1;
  options.shardCount = 2;
  (void)campaign::runCampaign(options);

  std::ifstream in(fs::path(dir.path()) / "manifest.json");
  const std::string manifest((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  EXPECT_EQ(manifest, R"({
  "schema": "lazyhb-campaign-journal",
  "version": 1,
  "limit": 20,
  "max_events": 4096,
  "seed": 7,
  "incremental": false,
  "workers": 1,
  "snapshot_budget": 8192,
  "memory_model": "tso",
  "check_theorems": false,
  "detect_races": true,
  "stop_on_first_violation": false,
  "shard_index": 1,
  "shard_count": 2,
  "explorers": [
    "dfs",
    "caching-lazy"
  ],
  "programs": [
    "disjoint-lock-2",
    "counter-lock-3"
  ]
}
)");
}

TEST(Journal, ResumeRejectsEveryJournalOnlyField) {
  // Knobs the report does not echo still change what a cell records, so
  // the journal keeps them; resuming with any one of them changed throws.
  struct Case {
    const char* field;
    std::function<void(campaign::CampaignOptions&)> change;
  };
  const std::vector<Case> cases = {
      {"detect_races", [](campaign::CampaignOptions& o) { o.explorer.detectRaces = true; }},
      {"stop_on_first_violation",
       [](campaign::CampaignOptions& o) { o.explorer.stopOnFirstViolation = true; }},
      {"shard", [](campaign::CampaignOptions& o) { o.shardCount = 2; }},
      {"programs", [](campaign::CampaignOptions& o) { o.programs.pop_back(); }},
  };
  for (const Case& tc : cases) {
    const TempDir dir;
    (void)campaign::runCampaign(tinyCampaign(dir.path()));
    campaign::CampaignOptions changed = tinyCampaign(dir.path());
    tc.change(changed);
    EXPECT_THROW((void)campaign::runCampaign(changed), std::runtime_error)
        << tc.field;
    // The unchanged configuration still resumes.
    EXPECT_NO_THROW((void)campaign::runCampaign(tinyCampaign(dir.path())))
        << tc.field;
  }
}

// --- sharding ----------------------------------------------------------------

TEST(Shard, SlicesPartitionTheMatrixAndPreserveCounts) {
  const auto full = campaign::runCampaign(smallCampaign(2));
  constexpr int kShards = 3;

  std::set<std::pair<std::string, std::string>> seen;
  std::size_t totalCells = 0;
  for (int shard = 0; shard < kShards; ++shard) {
    campaign::CampaignOptions options = smallCampaign(2);
    options.shardIndex = shard;
    options.shardCount = kShards;
    const auto slice = campaign::runCampaign(options);
    EXPECT_EQ(slice.shardIndex, shard);
    EXPECT_EQ(slice.shardCount, kShards);
    // Per-explorer rows stay column-compatible with the full campaign.
    ASSERT_EQ(slice.perExplorer.size(), full.perExplorer.size());
    totalCells += slice.cells.size();
    for (const campaign::CellResult& cell : slice.cells) {
      EXPECT_TRUE(seen.emplace(cell.program, cell.explorer).second)
          << cell.program << " x " << cell.explorer << " in two shards";
      // The shard cell's counts are byte-identical to the full run's.
      bool found = false;
      for (const campaign::CellResult& reference : full.cells) {
        if (reference.program == cell.program &&
            reference.explorer == cell.explorer) {
          expectSameCounts(reference, cell);
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found);
    }
  }
  EXPECT_EQ(totalCells, full.cells.size());
  EXPECT_EQ(seen.size(), full.cells.size());
}

TEST(Shard, RejectsBadShardSpecs) {
  campaign::CampaignOptions options = smallCampaign(1);
  options.shardIndex = 2;
  options.shardCount = 2;
  EXPECT_THROW((void)campaign::runCampaign(options), std::invalid_argument);
  options.shardIndex = -1;
  options.shardCount = 2;
  EXPECT_THROW((void)campaign::runCampaign(options), std::invalid_argument);
  options.shardIndex = 0;
  options.shardCount = 0;
  EXPECT_THROW((void)campaign::runCampaign(options), std::invalid_argument);
}

// --- merge algebra -----------------------------------------------------------

TEST(Merge, ShardsMergeBackToTheUnshardedCounts) {
  const auto full = campaign::runCampaign(smallCampaign(2));
  const std::vector<std::string> docs = {shardDocument(0, 3), shardDocument(1, 3),
                                         shardDocument(2, 3)};
  const auto merged =
      campaign::mergeReports(docs, {"s0.json", "s1.json", "s2.json"});

  ASSERT_EQ(merged.result.cells.size(), full.cells.size());
  for (std::size_t i = 0; i < full.cells.size(); ++i) {
    expectSameCounts(full.cells[i], merged.result.cells[i]);
  }
  EXPECT_EQ(merged.result.totalSchedules, full.totalSchedules);
  EXPECT_EQ(merged.result.totalEvents, full.totalEvents);
  EXPECT_EQ(merged.result.inequalityViolations, 0);
  EXPECT_EQ(merged.result.programs.size(), full.programs.size());
  ASSERT_EQ(merged.provenance.sources.size(), 3u);
  // The merged report's config is unsharded; coverage lives in provenance.
  EXPECT_EQ(merged.config.shardCount, 1);
}

TEST(Merge, IsCommutativeAndAssociativeByteForByte) {
  const std::string a = shardDocument(0, 3);
  const std::string b = shardDocument(1, 3);
  const std::string c = shardDocument(2, 3);

  const auto render = [](const campaign::MergeOutcome& outcome) {
    return campaign::writeReportJson(outcome.result, outcome.config,
                                     &outcome.provenance);
  };

  // Commutativity: any input order produces the same document.
  const std::string abc =
      render(campaign::mergeReports({a, b, c}, {"a", "b", "c"}));
  const std::string cba =
      render(campaign::mergeReports({c, b, a}, {"c", "b", "a"}));
  EXPECT_EQ(abc, cba);

  // Associativity: any grouping produces the same document.
  const std::string ab = render(campaign::mergeReports({a, b}, {"a", "b"}));
  const std::string bc = render(campaign::mergeReports({b, c}, {"b", "c"}));
  const std::string ab_c =
      render(campaign::mergeReports({ab, c}, {"ab.json", "c"}));
  const std::string a_bc =
      render(campaign::mergeReports({a, bc}, {"a", "bc.json"}));
  EXPECT_EQ(ab_c, a_bc);
  EXPECT_EQ(ab_c, abc);
}

TEST(Merge, DeduplicatesIdenticalCellsAndOverlappingShards) {
  const std::string a = shardDocument(0, 2);
  const std::string b = shardDocument(1, 2);
  // Merging a shard with itself and its complement: the duplicate copy of
  // every shard-0 cell deduplicates, leaving the full matrix exactly once.
  const auto merged = campaign::mergeReports({a, a, b}, {"a", "a2", "b"});
  const auto full = campaign::runCampaign(smallCampaign(2));
  ASSERT_EQ(merged.result.cells.size(), full.cells.size());
  for (std::size_t i = 0; i < full.cells.size(); ++i) {
    expectSameCounts(full.cells[i], merged.result.cells[i]);
  }
}

TEST(Merge, RejectsConflictingDuplicateCounts) {
  // A theorem-checked caching TSO cell, so every count
  // tools/bench_diff.py compares is in the report; each conflicting copy
  // moves exactly one of them.
  campaign::CellResult base = theoremCheckedCell(10);
  base.stats.cacheStats = {true, 8, 3, 5, 5, 640};
  base.stats.flushEvents = 4;
  base.stats.fenceEvents = 2;
  const std::string doc1 = fabricatedDocument({base}, true);
  using Change = void (*)(campaign::CellResult&);
  const std::vector<std::pair<const char*, Change>> conflicts = {
      {"schedules", [](campaign::CellResult& c) { c.stats.schedulesExecuted += 1; }},
      {"terminal", [](campaign::CellResult& c) { c.stats.terminalSchedules += 1; }},
      {"pruned", [](campaign::CellResult& c) { c.stats.prunedSchedules += 1; }},
      {"violations", [](campaign::CellResult& c) { c.stats.violationSchedules += 1; }},
      {"events", [](campaign::CellResult& c) { c.stats.totalEvents += 1; }},
      {"events_elided", [](campaign::CellResult& c) { c.stats.eventsElided += 1; }},
      {"events_replayed", [](campaign::CellResult& c) { c.stats.eventsReplayed += 1; }},
      {"hbrs", [](campaign::CellResult& c) { c.stats.distinctHbrs += 1; }},
      {"lazy_hbrs", [](campaign::CellResult& c) { c.stats.distinctLazyHbrs += 1; }},
      {"value_classes", [](campaign::CellResult& c) { c.stats.distinctValueClasses += 1; }},
      {"states", [](campaign::CellResult& c) { c.stats.distinctStates += 1; }},
      {"complete", [](campaign::CellResult& c) { c.stats.complete = false; }},
      {"hit_schedule_limit", [](campaign::CellResult& c) { c.stats.hitScheduleLimit = true; }},
      {"cache.lookups", [](campaign::CellResult& c) { c.stats.cacheStats.lookups += 1; }},
      {"cache.hits", [](campaign::CellResult& c) { c.stats.cacheStats.hits += 1; }},
      {"cache.insertions", [](campaign::CellResult& c) { c.stats.cacheStats.insertions += 1; }},
      {"cache.entries", [](campaign::CellResult& c) { c.stats.cacheStats.entries += 1; }},
      {"flush_events", [](campaign::CellResult& c) { c.stats.flushEvents += 1; }},
      {"fence_events", [](campaign::CellResult& c) { c.stats.fenceEvents += 1; }},
      {"theorems.theorem_21_conflicts",
       [](campaign::CellResult& c) { c.stats.theorem21.conflicts += 1; }},
      {"theorems.theorem_22_conflicts",
       [](campaign::CellResult& c) { c.stats.theorem22.conflicts += 1; }},
      {"theorems.theorem_value_conflicts",
       [](campaign::CellResult& c) { c.stats.theoremValue.conflicts += 1; }},
  };
  for (const auto& [field, change] : conflicts) {
    campaign::CellResult other = base;
    change(other);
    const std::string doc2 = fabricatedDocument({other}, true);
    try {
      (void)campaign::mergeReports({doc1, doc2}, {"one", "two"});
      ADD_FAILURE() << field << ": conflicting copies merged";
    } catch (const std::runtime_error& e) {
      // The message names the one differing field (with both values).
      EXPECT_NE(std::string(e.what()).find(std::string(field) + "="), std::string::npos)
          << field << ": " << e.what();
    }
  }
  // Same counts: no conflict, one copy survives.
  const auto merged = campaign::mergeReports({doc1, doc1}, {"one", "copy"});
  EXPECT_EQ(merged.result.cells.size(), 1u);
}

TEST(Merge, RejectsAProgramIdThatNamesAnotherProgram) {
  campaign::CellResult fabricated = fabricatedCell(10);
  campaign::CellResult other = fabricatedCell(10);
  other.programId = 2;
  other.program = "other";
  const std::string both = fabricatedDocument({fabricated, other});
  EXPECT_EQ(campaign::mergeReports({both}, {"both"}).result.cells.size(), 2u);

  // The same 'fabricated' cell with its id moved: onto the id 'other'
  // holds, and onto an id no input uses. Either way the merged report would
  // count one program under two ids, so the merge is a conflict (exit 1),
  // not a malformed input (exit 3), and the message names both pairs.
  const std::vector<std::pair<int, std::string>> cases = {
      {2, "(2, other) in 'both'"}, {3, "(1, fabricated) in 'both'"}};
  for (const auto& [id, earlier] : cases) {
    campaign::CellResult moved = fabricated;
    moved.programId = id;
    const std::string copy = fabricatedDocument({moved});
    try {
      (void)campaign::mergeReports({both, copy}, {"both", "copy"});
      ADD_FAILURE() << "id " << id << ": the mislabelled copy merged";
    } catch (const campaign::ReportFormatError& e) {
      ADD_FAILURE() << "id " << id << ": read as malformed: " << e.what();
    } catch (const std::runtime_error& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("(" + std::to_string(id) + ", fabricated) in 'copy'"),
                std::string::npos)
          << message;
      EXPECT_NE(message.find(earlier), std::string::npos) << message;
    }
  }
}

TEST(Merge, AndFiguresReportATheoremConflict) {
  campaign::CellResult cell = theoremCheckedCell(10);
  cell.stats.theorem22.conflicts = 1;
  const std::string document = fabricatedDocument({cell}, true);
  // fabricatedDocument writes no verdict; merge re-checks it from the counts.
  const campaign::MergeOutcome merged = campaign::mergeReports({document}, {"r"});
  ASSERT_EQ(merged.result.cells.size(), 1u);
  EXPECT_EQ(merged.result.inequalityViolations, 1);
  EXPECT_EQ(merged.result.cells[0].inequalityDiagnostic,
            "fabricated: theorem 2.2 violated (1 conflict)");

  const TempDir dir;
  const std::string path = dir.path() + "/conflict.json";
  ASSERT_TRUE(campaign::writeDocument(path, document));
  std::string out;
  EXPECT_EQ(runCli({"merge", path, "--out", dir.path() + "/merged.json"}, &out), 1);
  EXPECT_NE(out.find("VIOLATED"), std::string::npos) << out;
  EXPECT_EQ(runCli({"figures", path}, &out), 1);
  EXPECT_NE(out.find("fabricated: theorem 2.2 violated (1 conflict)"),
            std::string::npos)
      << out;
  // A report run with theorem checking gets the theorem section.
  EXPECT_NE(out.find("Theorems:"), std::string::npos) << out;

  // The same cell without the conflict passes both.
  const std::string clean = dir.path() + "/clean.json";
  ASSERT_TRUE(campaign::writeDocument(
      clean, fabricatedDocument({theoremCheckedCell(10)}, true)));
  EXPECT_EQ(runCli({"merge", clean, "--out", dir.path() + "/merged.json"}, &out), 0);
  EXPECT_EQ(runCli({"figures", clean}, &out), 0) << out;
  EXPECT_NE(out.find("Theorems:"), std::string::npos) << out;
}

TEST(Merge, RejectsACellMissingAnyCountKey) {
  // A cell carrying all four optional blocks, so every listed count is in
  // the document; a copy without any one of them must not read, and the
  // error names the missing key.
  campaign::CellResult cell = theoremCheckedCell(10);
  cell.stats.cacheStats = {true, 8, 3, 5, 5, 640};
  cell.stats.checkpointStats = {true, 4, 512, 1, 1};
  cell.stats.flushEvents = 4;
  const std::string base = fabricatedDocument({cell});
  ASSERT_NO_THROW((void)campaign::mergeReports({base}, {"base"}));
  const std::size_t cellsAt = base.find("\"cells\": [");
  ASSERT_NE(cellsAt, std::string::npos);

  int dropped = 0;
  campaign::forEachCount(
      [&](const campaign::Count& count, const auto&) {
        // A top-level count sits six spaces in, a block's count eight.
        std::size_t from = cellsAt;
        std::string line = "\n      \"";
        if (count.group != campaign::CountGroup::Top) {
          from = base.find(std::string("\"") + campaign::countGroupKey(count.group) +
                               "\": {",
                           cellsAt);
          line = "\n        \"";
        }
        const std::size_t at = base.find(line + count.key + "\": ", from);
        ASSERT_NE(at, std::string::npos) << count.name();
        // Drop the line and keep the JSON valid: the first key of a block
        // takes its own comma along, any other key the one before it.
        const std::size_t end = base.find('\n', at + 1);
        const std::string missing =
            base[at - 1] != ','
                ? base.substr(0, at) + base.substr(end)
                : base.substr(0, at - 1) + base.substr(base[end - 1] == ',' ? end - 1 : end);
        ++dropped;
        try {
          (void)campaign::mergeReports({missing}, {"missing.json"});
          ADD_FAILURE() << "read a cell without " << count.name();
        } catch (const campaign::ReportFormatError& error) {
          EXPECT_NE(std::string(error.what()).find("missing '" + count.name() + "'"),
                    std::string::npos)
              << error.what();
        }
      },
      cell.stats);
  EXPECT_GT(dropped, 0);
}

TEST(Merge, SaysWhatADocumentThatIsNoReportIs) {
  EXPECT_THROW((void)campaign::mergeReports({"{}"}, {"empty.json"}),
               campaign::ReportFormatError);
  const std::string wrapper =
      R"({"before": {"schema": "lazyhb-bench-report", "version": 7},)"
      R"( "after": {"schema": "lazyhb-bench-report", "version": 7}})";
  try {
    (void)campaign::mergeReports({wrapper}, {"BENCH.json"});
    ADD_FAILURE() << "read a before/after wrapper";
  } catch (const campaign::ReportFormatError& error) {
    EXPECT_NE(std::string(error.what()).find("a before/after wrapper of schema v7 reports"),
              std::string::npos)
        << error.what();
  }
  // Conflicting counts are not a format error: the inputs read fine.
  campaign::CellResult other = fabricatedCell(10);
  other.stats.distinctStates += 1;
  try {
    (void)campaign::mergeReports(
        {fabricatedDocument({fabricatedCell(10)}), fabricatedDocument({other})}, {"a", "b"});
    ADD_FAILURE() << "merged conflicting copies";
  } catch (const campaign::ReportFormatError& error) {
    ADD_FAILURE() << "a conflict read as a format error: " << error.what();
  } catch (const std::runtime_error&) {
  }
}

TEST(Merge, PrefersTheHealthyCopyOfATimedOutCell) {
  campaign::CellResult partial = fabricatedCell(5);
  partial.timedOut = true;
  partial.stats.timedOut = true;
  partial.stats.complete = false;
  const std::string timedOutDoc = fabricatedDocument({partial});
  const std::string cleanDoc = fabricatedDocument({fabricatedCell(10)});

  for (const auto& order :
       {std::vector<std::string>{timedOutDoc, cleanDoc},
        std::vector<std::string>{cleanDoc, timedOutDoc}}) {
    const auto merged = campaign::mergeReports(order, {"x", "y"});
    ASSERT_EQ(merged.result.cells.size(), 1u);
    EXPECT_FALSE(merged.result.cells[0].timedOut);
    EXPECT_EQ(merged.result.cells[0].stats.schedulesExecuted, 10u);
    EXPECT_EQ(merged.result.cellsTimedOut, 0);
  }
}

TEST(Merge, RejectsIncompatibleConfigs) {
  // Two reports that differ in exactly one identity field never merge, and
  // the error names that field.
  const std::string base = fabricatedDocument({fabricatedCell(10)});
  struct Case {
    const char* field;
    std::function<void(campaign::ReportConfig&)> change;
    std::vector<std::string> explorers;
  };
  const std::vector<Case> cases = {
      {"limit", [](campaign::ReportConfig& c) { c.scheduleLimit = 999; }, {"dfs"}},
      {"max_events", [](campaign::ReportConfig& c) { c.maxEventsPerSchedule = 1000; }, {"dfs"}},
      {"seed", [](campaign::ReportConfig& c) { c.seed = 7; }, {"dfs"}},
      {"quick", [](campaign::ReportConfig& c) { c.quick = true; }, {"dfs"}},
      {"incremental", [](campaign::ReportConfig& c) { c.incremental = false; }, {"dfs"}},
      {"workers", [](campaign::ReportConfig& c) { c.workers = 4; }, {"dfs"}},
      {"snapshot_budget", [](campaign::ReportConfig& c) { c.snapshotBudgetBytes = 4096; }, {"dfs"}},
      {"memory_model", [](campaign::ReportConfig& c) { c.memoryModel = "tso"; }, {"dfs"}},
      {"check_theorems", [](campaign::ReportConfig& c) { c.checkTheorems = true; }, {"dfs"}},
      {"explorers", [](campaign::ReportConfig&) {}, {"dfs", "random"}},
  };
  for (const Case& tc : cases) {
    std::vector<campaign::CellResult> cells;
    cells.push_back(fabricatedCell(10));
    const campaign::CampaignResult result =
        campaign::foldCells(std::move(cells), tc.explorers);
    campaign::ReportConfig config;
    config.scheduleLimit = 150;
    config.maxEventsPerSchedule = 1u << 16;
    tc.change(config);
    const std::string different = campaign::writeReportJson(result, config);
    try {
      (void)campaign::mergeReports({base, different}, {"a", "b"});
      ADD_FAILURE() << "merged reports that differ in " << tc.field;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(std::string("config.") + tc.field),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(Merge, RejectsAReportMissingAnIdentityField) {
  const std::string base = fabricatedDocument({fabricatedCell(10)});
  for (const char* key : {"limit", "max_events", "seed", "incremental",
                          "workers", "snapshot_budget", "memory_model",
                          "check_theorems"}) {
    // Drop the key's line from the config block (four-space indent).
    const std::size_t at = base.find(std::string("\n    \"") + key + "\": ");
    ASSERT_NE(at, std::string::npos) << key;
    const std::string missing =
        base.substr(0, at) + base.substr(base.find('\n', at + 1));
    try {
      (void)campaign::mergeReports({base, missing}, {"a", "b"});
      ADD_FAILURE() << "merged a report without config." << key;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what())
                    .find(std::string("config.") + key + " is missing"),
                std::string::npos)
          << error.what();
    }
  }
}

// --- supervisor --------------------------------------------------------------

TEST(Supervisor, TimedOutCellsAreMarkedAndRetried) {
  campaign::CampaignOptions options = smallCampaign(2);
  options.explorer.scheduleLimit = 5'000'000;  // the timeout must bite first
  options.cellTimeoutSeconds = 1e-9;
  options.cellRetries = 1;
  int retried = 0;
  int timedOut = 0;
  options.onProgress = [&](const ProgressEvent& event) {
    if (event.kind == ProgressEvent::Kind::CellRetried) ++retried;
    if (event.kind == ProgressEvent::Kind::CellTimedOut) ++timedOut;
  };
  const auto result = campaign::runCampaign(options);
  EXPECT_GT(result.cellsTimedOut, 0);
  EXPECT_GT(result.cellsRetried, 0);
  EXPECT_GT(retried, 0);
  EXPECT_GT(timedOut, 0);
  for (const campaign::CellResult& cell : result.cells) {
    if (cell.timedOut) {
      EXPECT_EQ(cell.attempts, 2) << cell.program << " x " << cell.explorer;
      EXPECT_TRUE(cell.stats.hitScheduleLimit || cell.stats.timedOut);
    }
    // A timed-out prefix still satisfies the §3 chain.
    EXPECT_TRUE(cell.inequalityHolds())
        << cell.program << " x " << cell.explorer << ": "
        << cell.inequalityDiagnostic;
  }
  // The campaign finished despite every cell timing out — resilience, not
  // abortion, is the supervisor's contract.
  EXPECT_EQ(result.cells.size(), 20u);
}

// --- Suite facade ------------------------------------------------------------

TEST(Suite, MatchesTheCampaignRunnerCellForCell) {
  const auto direct = campaign::runCampaign(smallCampaign(2));

  const SuiteReport report = Suite()
                                 .add("disjoint-lock-2")
                                 .add("disjoint-lock-3")
                                 .add("counter-lock-3")
                                 .add("lost-signal")
                                 .schedules(150)
                                 .jobs(2)
                                 .run();
  ASSERT_EQ(report.cells.size(), direct.cells.size());
  for (std::size_t i = 0; i < direct.cells.size(); ++i) {
    const campaign::CellResult& want = direct.cells[i];
    const SuiteCell& got = report.cells[i];
    EXPECT_EQ(got.scenario, want.program);
    EXPECT_EQ(got.strategy, want.explorer);
    EXPECT_EQ(got.schedules, want.stats.schedulesExecuted);
    EXPECT_EQ(got.hbrs, want.stats.distinctHbrs);
    EXPECT_EQ(got.lazyHbrs, want.stats.distinctLazyHbrs);
    EXPECT_EQ(got.states, want.stats.distinctStates);
    EXPECT_EQ(got.events, want.stats.totalEvents);
    EXPECT_EQ(got.complete, want.stats.complete);
    EXPECT_TRUE(got.inequalityHolds);
  }
  EXPECT_EQ(report.totalSchedules, direct.totalSchedules);
  EXPECT_TRUE(report.allInequalitiesHold());
  EXPECT_FALSE(report.summary().empty());
}

TEST(Suite, EmitsASchemaV5DocumentMergeableWithShards) {
  const auto runShard = [](int index) {
    return Suite()
        .add("disjoint-lock-2")
        .add("disjoint-lock-3")
        .add("counter-lock-3")
        .add("lost-signal")
        .schedules(150)
        .jobs(2)
        .shard(index, 2)
        .run();
  };
  const SuiteReport s0 = runShard(0);
  const SuiteReport s1 = runShard(1);
  EXPECT_EQ(s0.shardCount, 2);

  std::string error;
  const auto parsed = support::JsonValue::parse(s0.toJson(), &error);
  ASSERT_NE(parsed, nullptr) << error;
  EXPECT_EQ(parsed->intAt("version"), campaign::kReportSchemaVersion);
  EXPECT_EQ(parsed->find("config")->find("shard")->intAt("count"), 2);

  const auto merged =
      campaign::mergeReports({s0.toJson(), s1.toJson()}, {"s0", "s1"});
  const auto full = campaign::runCampaign(smallCampaign(2));
  ASSERT_EQ(merged.result.cells.size(), full.cells.size());
  for (std::size_t i = 0; i < full.cells.size(); ++i) {
    expectSameCounts(full.cells[i], merged.result.cells[i]);
  }
}

TEST(Suite, ReportEchoesTheSnapshotBudgetItsCellsRan) {
  // Suite has no budget knob, so its cells run under the default budget —
  // and its report must say so, not 0 ("unlimited"): otherwise `lazyhb
  // merge` refuses a Suite shard next to a `lazyhb bench` shard of the
  // same configuration.
  const SuiteReport suiteShard = Suite()
                                     .add("disjoint-lock-2")
                                     .add("disjoint-lock-3")
                                     .add("counter-lock-3")
                                     .add("lost-signal")
                                     .schedules(150)
                                     .jobs(2)
                                     .shard(0, 2)
                                     .run();
  std::string error;
  const auto parsed = support::JsonValue::parse(suiteShard.toJson(), &error);
  ASSERT_NE(parsed, nullptr) << error;
  EXPECT_EQ(parsed->find("config")->uintAt("snapshot_budget"),
            defaultSnapshotBudgetBytes());

  campaign::CampaignOptions options = smallCampaign(2);
  options.shardIndex = 1;
  options.shardCount = 2;
  const std::string benchShard = campaign::writeReportJson(
      campaign::runCampaign(options), campaign::makeReportConfig(options));
  const auto merged = campaign::mergeReports({suiteShard.toJson(), benchShard},
                                             {"suite", "bench"});
  EXPECT_EQ(merged.config.snapshotBudgetBytes,
            defaultSnapshotBudgetBytes());
}

TEST(Suite, ResumesFromItsCheckpointDirectory) {
  const TempDir dir;
  const auto build = [&] {
    return Suite()
        .add("disjoint-lock")  // a family selector
        .strategies({"dfs", "caching-lazy"})
        .schedules(150)
        .checkpointDir(dir.path());
  };
  const SuiteReport first = build().run();
  EXPECT_EQ(first.cellsFromCheckpoint, 0u);
  const SuiteReport second = build().resumeOnly().run();
  EXPECT_EQ(second.cellsFromCheckpoint, second.cells.size());
  ASSERT_EQ(second.cells.size(), first.cells.size());
  for (std::size_t i = 0; i < first.cells.size(); ++i) {
    EXPECT_EQ(first.cells[i].schedules, second.cells[i].schedules);
    EXPECT_EQ(first.cells[i].lazyHbrs, second.cells[i].lazyHbrs);
  }
  // resumeOnly against a fresh directory refuses to run.
  const TempDir empty;
  EXPECT_THROW(
      (void)Suite().add("peterson").checkpointDir(empty.path()).resumeOnly().run(),
      std::runtime_error);
}

TEST(Suite, RejectsUnknownNames) {
  EXPECT_THROW((void)Suite().add("no-such-scenario").run(),
               std::invalid_argument);
  EXPECT_THROW(
      (void)Suite().add("peterson").strategies({"no-such-strategy"}).run(),
      std::invalid_argument);
  EXPECT_THROW((void)Suite().add("peterson").shard(3, 2).run(),
               std::invalid_argument);
}

// --- Session progress ticks --------------------------------------------------

TEST(SessionProgress, TicksEveryIntervalOnTheExploringThread) {
  std::vector<std::uint64_t> ticks;
  const TestReport report = Session()
                                .strategy("dfs")
                                .schedules(100)
                                .onProgress([&](const ProgressEvent& event) {
                                  EXPECT_EQ(event.kind,
                                            ProgressEvent::Kind::ScheduleTick);
                                  EXPECT_EQ(event.strategy, "dfs");
                                  ticks.push_back(event.schedulesExecuted);
                                })
                                .progressInterval(10)
                                .run("peterson");
  ASSERT_FALSE(ticks.empty());
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    EXPECT_EQ(ticks[i], (i + 1) * 10);
  }
  EXPECT_EQ(ticks.size(), report.schedulesExecuted / 10);
}

TEST(SessionProgress, CallbackForcesSequentialButKeepsCounts) {
  const TestReport plain =
      Session().strategy("caching-lazy").schedules(200).run("peterson");
  std::uint64_t ticks = 0;
  const TestReport ticked = Session()
                                .strategy("caching-lazy")
                                .schedules(200)
                                .onProgress([&](const ProgressEvent&) { ++ticks; })
                                .progressInterval(1)
                                .run("peterson");
  EXPECT_EQ(ticked.schedulesExecuted, plain.schedulesExecuted);
  EXPECT_EQ(ticked.distinctLazyHbrs, plain.distinctLazyHbrs);
  EXPECT_EQ(ticked.distinctStates, plain.distinctStates);
  EXPECT_EQ(ticks, ticked.schedulesExecuted);
}

}  // namespace
