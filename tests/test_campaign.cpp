// Tests for the campaign layer: the shared ExplorerSpec factory, the JSON
// writer, the task runner, determinism of the parallel campaign
// (identical per-cell counts whatever --jobs is), aggregation, and the
// versioned report — including the HbrCache footprint stat it surfaces.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/explorer_spec.hpp"
#include "campaign/merge.hpp"
#include "campaign/report.hpp"
#include "core/hbr_cache.hpp"
#include "programs/registry.hpp"
#include "support/json_writer.hpp"

namespace {

using namespace lazyhb;

// --- ExplorerSpec factory ----------------------------------------------------

TEST(ExplorerSpec, ParsesEveryCanonicalName) {
  for (const campaign::ExplorerSpec& spec : campaign::allExplorers()) {
    const auto parsed = campaign::parseExplorerSpec(spec.name);
    ASSERT_TRUE(parsed.has_value()) << spec.name;
    EXPECT_EQ(parsed->kind, spec.kind);
    EXPECT_EQ(parsed->name, spec.name);
  }
  EXPECT_EQ(campaign::allExplorers().size(), 5u);
}

TEST(ExplorerSpec, RejectsUnknownNames) {
  EXPECT_FALSE(campaign::parseExplorerSpec("").has_value());
  EXPECT_FALSE(campaign::parseExplorerSpec("bfs").has_value());
  EXPECT_FALSE(campaign::parseExplorerSpec("caching").has_value());
  EXPECT_FALSE(campaign::parseExplorerSpec("DFS").has_value());  // case matters
  EXPECT_FALSE(campaign::parseExplorerSpec("dfs ").has_value());
}

TEST(ExplorerSpec, HelpNamesEveryAcceptedMode) {
  std::string help = campaign::explorerNamesHelp();
  for (char& c : help) {
    if (c == ',' || c == ';') c = ' ';
  }
  std::set<std::string> words;
  std::istringstream in(help);
  for (std::string word; in >> word;) words.insert(word);

  std::vector<campaign::ExplorerSpec> accepted = campaign::allExplorers();
  for (const campaign::ExplorerSpec& spec : campaign::extendedExplorers()) {
    accepted.push_back(spec);
  }
  EXPECT_EQ(accepted.size(), 7u);
  for (const campaign::ExplorerSpec& spec : accepted) {
    EXPECT_TRUE(campaign::parseExplorerSpec(spec.name).has_value()) << spec.name;
    EXPECT_TRUE(words.count(spec.name)) << spec.name << " missing from: " << help;
  }
}

TEST(ExplorerSpec, ParseListSplitsAndValidates) {
  const auto all = campaign::parseExplorerList("");
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(all->size(), 5u);

  const auto two = campaign::parseExplorerList("dpor, caching-lazy");
  ASSERT_TRUE(two.has_value());
  ASSERT_EQ(two->size(), 2u);
  EXPECT_EQ((*two)[0].name, "dpor");
  EXPECT_EQ((*two)[1].name, "caching-lazy");

  std::string bad;
  EXPECT_FALSE(campaign::parseExplorerList("dpor,warp,dfs", &bad).has_value());
  EXPECT_EQ(bad, "warp");
}

TEST(ExplorerSpec, CreatedExplorersAreFresh) {
  explore::ExplorerOptions options;
  options.scheduleLimit = 50;
  const programs::ProgramSpec* program = programs::byName("disjoint-lock-2");
  ASSERT_NE(program, nullptr);
  for (const campaign::ExplorerSpec& spec : campaign::allExplorers()) {
    auto first = spec.create(options, 7);
    auto second = spec.create(options, 7);
    ASSERT_NE(first, nullptr);
    // Each instance is single-use; both must run without tripping the
    // explore-once check, and identical configs give identical counts.
    const auto a = first->explore(program->body);
    const auto b = second->explore(program->body);
    EXPECT_EQ(a.schedulesExecuted, b.schedulesExecuted) << spec.name;
    EXPECT_EQ(a.distinctLazyHbrs, b.distinctLazyHbrs) << spec.name;
  }
}

// --- JSON writer -------------------------------------------------------------

/// Minimal unescaper for round-trip checks (handles exactly what jsonEscape
/// emits: the shorthand escapes and \u00xx).
std::string jsonUnescape(const std::string& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        const int code = std::stoi(s.substr(i + 1, 4), nullptr, 16);
        out += static_cast<char>(code);
        i += 4;
        break;
      }
      default: ADD_FAILURE() << "unexpected escape \\" << s[i];
    }
  }
  return out;
}

TEST(JsonWriter, EscapingRoundTrips) {
  const std::string nasty =
      "quote:\" backslash:\\ newline:\n tab:\t cr:\r bell:\x07 nul-adjacent:\x1f";
  const std::string escaped = support::jsonEscape(nasty);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  EXPECT_EQ(escaped.find('\t'), std::string::npos);
  EXPECT_NE(escaped.find("\\u0007"), std::string::npos);
  EXPECT_NE(escaped.find("\\u001f"), std::string::npos);
  EXPECT_EQ(jsonUnescape(escaped), nasty);
}

TEST(JsonWriter, NestedStructure) {
  support::JsonWriter json;
  json.beginObject();
  json.field("name", std::string("a\"b"));
  json.field("count", std::uint64_t{18446744073709551615ull});
  json.field("signed", std::int64_t{-3});
  json.field("ratio", 0.5);
  json.field("flag", true);
  json.key("list").beginArray();
  json.value(std::uint64_t{1});
  json.beginObject().field("inner", std::string("x")).endObject();
  json.endArray();
  json.key("empty").beginObject().endObject();
  json.endObject();

  const std::string doc = json.str();
  EXPECT_EQ(doc,
            "{\n"
            "  \"name\": \"a\\\"b\",\n"
            "  \"count\": 18446744073709551615,\n"
            "  \"signed\": -3,\n"
            "  \"ratio\": 0.5,\n"
            "  \"flag\": true,\n"
            "  \"list\": [\n"
            "    1,\n"
            "    {\n"
            "      \"inner\": \"x\"\n"
            "    }\n"
            "  ],\n"
            "  \"empty\": {}\n"
            "}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  support::JsonWriter json;
  json.beginArray();
  json.value(std::numeric_limits<double>::infinity());
  json.value(std::numeric_limits<double>::quiet_NaN());
  json.endArray();
  EXPECT_EQ(json.str(), "[\n  null,\n  null\n]");
}

// --- task runner -------------------------------------------------------------

/// Run `count` tasks on `jobs` threads; each task bumps its own slot.
std::vector<int> runCounting(std::size_t count, int jobs) {
  std::vector<std::atomic<int>> ran(count);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    tasks.push_back([&ran, i] { ran[i].fetch_add(1); });
  }
  campaign::runTasks(std::move(tasks), jobs);
  std::vector<int> counts;
  for (const std::atomic<int>& slot : ran) counts.push_back(slot.load());
  return counts;
}

TEST(RunTasks, RunsEveryTaskExactlyOnce) {
  for (const int jobs : {1, 4, 8}) {
    EXPECT_EQ(runCounting(200, jobs), std::vector<int>(200, 1)) << jobs << " jobs";
  }
}

TEST(RunTasks, MoreJobsThanTasks) {
  for (const int jobs : {4, 8}) {
    EXPECT_EQ(runCounting(3, jobs), std::vector<int>(3, 1)) << jobs << " jobs";
  }
}

TEST(RunTasks, ZeroTasksAndNonPositiveJobs) {
  for (const int jobs : {1, 4, 8}) {
    EXPECT_TRUE(runCounting(0, jobs).empty()) << jobs << " jobs";
  }
  for (const int jobs : {0, -3}) {
    EXPECT_EQ(runCounting(10, jobs), std::vector<int>(10, 1)) << jobs << " jobs";
  }
}

// --- campaign runner ---------------------------------------------------------

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

TEST(Campaign, MatrixShapeAndOrderIsProgramMajor) {
  const auto result = campaign::runCampaign(smallCampaign(2));
  ASSERT_EQ(result.programs.size(), 4u);
  ASSERT_EQ(result.perExplorer.size(), 5u);
  ASSERT_EQ(result.cells.size(), 20u);
  for (std::size_t p = 0; p < 4; ++p) {
    for (std::size_t e = 0; e < 5; ++e) {
      const campaign::CellResult& cell = result.cells[p * 5 + e];
      EXPECT_EQ(cell.program, result.programs[p].program);
      EXPECT_EQ(cell.explorer, result.perExplorer[e].explorer);
    }
  }
}

TEST(Campaign, PerCellCountsIdenticalAcrossJobCounts) {
  const auto serial = campaign::runCampaign(smallCampaign(1));
  const auto parallel = campaign::runCampaign(smallCampaign(8));
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    const campaign::CellResult& a = serial.cells[i];
    const campaign::CellResult& b = parallel.cells[i];
    const std::string label = a.program + " x " + a.explorer;
    EXPECT_EQ(a.program, b.program) << label;
    EXPECT_EQ(a.explorer, b.explorer) << label;
    EXPECT_EQ(a.stats.schedulesExecuted, b.stats.schedulesExecuted) << label;
    EXPECT_EQ(a.stats.terminalSchedules, b.stats.terminalSchedules) << label;
    EXPECT_EQ(a.stats.prunedSchedules, b.stats.prunedSchedules) << label;
    EXPECT_EQ(a.stats.violationSchedules, b.stats.violationSchedules) << label;
    EXPECT_EQ(a.stats.distinctHbrs, b.stats.distinctHbrs) << label;
    EXPECT_EQ(a.stats.distinctLazyHbrs, b.stats.distinctLazyHbrs) << label;
    EXPECT_EQ(a.stats.distinctStates, b.stats.distinctStates) << label;
    EXPECT_EQ(a.stats.totalEvents, b.stats.totalEvents) << label;
    EXPECT_EQ(a.stats.complete, b.stats.complete) << label;
    EXPECT_EQ(a.stats.cacheStats.entries, b.stats.cacheStats.entries) << label;
    EXPECT_EQ(a.inequalityDiagnostic, b.inequalityDiagnostic) << label;
  }
  EXPECT_EQ(serial.totalSchedules, parallel.totalSchedules);
  EXPECT_EQ(serial.totalEvents, parallel.totalEvents);
}

TEST(Campaign, InequalityHoldsAndTotalsAddUp) {
  const auto result = campaign::runCampaign(smallCampaign(3));
  EXPECT_EQ(result.inequalityViolations, 0);
  std::uint64_t schedules = 0;
  for (const campaign::CellResult& cell : result.cells) {
    EXPECT_TRUE(cell.inequalityHolds())
        << cell.program << " x " << cell.explorer << ": "
        << cell.inequalityDiagnostic;
    schedules += cell.stats.schedulesExecuted;
  }
  EXPECT_EQ(result.totalSchedules, schedules);
  std::uint64_t perExplorerSchedules = 0;
  for (const campaign::ExplorerTotals& totals : result.perExplorer) {
    EXPECT_EQ(totals.cells, 4u);
    perExplorerSchedules += totals.schedules;
  }
  EXPECT_EQ(perExplorerSchedules, schedules);
}

TEST(Campaign, ProgramSummariesCarryFigureViews) {
  const auto result = campaign::runCampaign(smallCampaign(2));
  for (const campaign::ProgramSummary& program : result.programs) {
    EXPECT_TRUE(program.inequalityHolds) << program.program;
    ASSERT_TRUE(program.hasDpor) << program.program;
    EXPECT_LE(program.dporLazyHbrs, program.dporHbrs) << program.program;
    ASSERT_TRUE(program.hasCachingPair) << program.program;
    // Within the same budget lazy caching reaches at least as many terminal
    // lazy HBRs (the Figure 3 direction).
    EXPECT_GE(program.lazyHbrsByLazyCaching, program.lazyHbrsByFullCaching)
        << program.program;
  }
  // disjoint-lock programs are the paper's motivating case: strictly below
  // the diagonal under DPOR.
  EXPECT_TRUE(result.programs[0].belowDiagonal);
  EXPECT_GT(result.programs[0].redundantHbrPercent, 0.0);
}

TEST(Campaign, CacheStatsSurfaceFootprint) {
  const auto result = campaign::runCampaign(smallCampaign(2));
  for (const campaign::CellResult& cell : result.cells) {
    const explore::PrefixCacheStats& cache = cell.stats.cacheStats;
    if (cell.explorer == "caching-full" || cell.explorer == "caching-lazy") {
      EXPECT_TRUE(cache.enabled) << cell.program;
      EXPECT_GT(cache.entries, 0u) << cell.program;
      EXPECT_GT(cache.approxBytes, 0u) << cell.program;
      EXPECT_EQ(cache.insertions, cache.entries) << cell.program;
    } else {
      EXPECT_FALSE(cache.enabled) << cell.program << " x " << cell.explorer;
      EXPECT_EQ(cache.approxBytes, 0u);
    }
  }
}

TEST(Campaign, ProgressCallbackSeesEveryCell) {
  auto options = smallCampaign(4);
  std::vector<std::size_t> doneValues;
  std::size_t observedTotal = 0;
  std::size_t started = 0;
  std::size_t finishedCampaigns = 0;
  options.onProgress = [&](const ProgressEvent& event) {
    switch (event.kind) {
      case ProgressEvent::Kind::CellStarted:
        ++started;
        break;
      case ProgressEvent::Kind::CellFinished:
        doneValues.push_back(event.cellsDone);
        observedTotal = event.cellsTotal;
        EXPECT_FALSE(event.scenario.empty());
        EXPECT_FALSE(event.strategy.empty());
        break;
      case ProgressEvent::Kind::CampaignFinished:
        ++finishedCampaigns;
        break;
      default:
        break;
    }
  };
  const auto result = campaign::runCampaign(options);
  EXPECT_EQ(doneValues.size(), result.cells.size());
  EXPECT_EQ(started, result.cells.size());
  EXPECT_EQ(observedTotal, result.cells.size());
  EXPECT_EQ(finishedCampaigns, 1u);
  // The serialized callback counts monotonically 1..N.
  for (std::size_t i = 0; i < doneValues.size(); ++i) {
    EXPECT_EQ(doneValues[i], i + 1);
  }
}

// --- report ------------------------------------------------------------------

TEST(Report, VersionedAndStructurallySound) {
  const auto result = campaign::runCampaign(smallCampaign(2));
  campaign::ReportConfig config;
  config.scheduleLimit = 150;
  config.maxEventsPerSchedule = 1u << 16;
  config.seed = 42;
  const std::string json = campaign::writeReportJson(result, config);

  EXPECT_NE(json.find("\"schema\": \"lazyhb-bench-report\""), std::string::npos);
  EXPECT_NE(json.find("\"version\": 8"), std::string::npos);
  // Since v4, config.workers is mandatory, and since v6 so is
  // config.snapshot_budget (bench_diff.py rejects a report without them).
  // v7 adds the per-cell value-class count; v8 the config memory model.
  EXPECT_NE(json.find("\"value_classes\""), std::string::npos);
  EXPECT_NE(json.find("\"memory_model\": \"sc\""), std::string::npos);
  // An SC campaign buffers nothing, so no cell emits the optional v8
  // per-cell tso block.
  EXPECT_EQ(json.find("\"tso\""), std::string::npos);
  // A clean unsharded run emits none of the v5 optional fields.
  EXPECT_EQ(json.find("\"timed_out\""), std::string::npos);
  EXPECT_EQ(json.find("\"shard\""), std::string::npos);
  EXPECT_NE(json.find("\"workers\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"snapshot_budget\""), std::string::npos);
  // The campaign ran incrementally, so every cell carries its v6
  // checkpoint block.
  EXPECT_NE(json.find("\"checkpoint\""), std::string::npos);
  EXPECT_NE(json.find("\"bytes_staged\""), std::string::npos);
  EXPECT_NE(json.find("\"inequality_violations\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"explorer\": \"caching-lazy\""), std::string::npos);
  EXPECT_NE(json.find("\"approx_bytes\""), std::string::npos);
  EXPECT_EQ(json.back(), '\n');

  // Structural sanity without a parser: balanced braces/brackets outside
  // strings (the writer never emits braces inside these cells' strings).
  int braces = 0;
  int brackets = 0;
  for (const char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(Report, FigureTotalsSurviveTheReportRoundTrip) {
  const campaign::CampaignOptions options = smallCampaign(2);
  const auto direct = campaign::runCampaign(options);
  const std::string json =
      campaign::writeReportJson(direct, campaign::makeReportConfig(options));
  const campaign::MergeOutcome read = campaign::mergeReports({json}, {"small"});

  const campaign::FigureTotals want = campaign::figureTotals(direct.programs);
  const campaign::FigureTotals got = campaign::figureTotals(read.result.programs);
  EXPECT_EQ(want.dporPrograms, 4);
  EXPECT_EQ(want.cachingPrograms, 4);
  EXPECT_GT(want.belowDiagonal, 0);
  EXPECT_EQ(got.dporPrograms, want.dporPrograms);
  EXPECT_EQ(got.belowDiagonal, want.belowDiagonal);
  EXPECT_EQ(got.hbrsBelow, want.hbrsBelow);
  EXPECT_EQ(got.redundantHbrs, want.redundantHbrs);
  EXPECT_EQ(got.redundantPercent, want.redundantPercent);
  EXPECT_EQ(got.cachingPrograms, want.cachingPrograms);
  EXPECT_EQ(got.cachingDiffers, want.cachingDiffers);
  EXPECT_EQ(got.regularWon, want.regularWon);
  EXPECT_EQ(got.extraLazyHbrs, want.extraLazyHbrs);
  EXPECT_EQ(got.regularOnDiffering, want.regularOnDiffering);
  EXPECT_EQ(got.extraPercent, want.extraPercent);
  EXPECT_EQ(read.result.inequalityViolations, 0);
}

TEST(Report, HbrCacheFootprintGrowsWithInsertions) {
  core::HbrCache cache;
  const std::size_t empty = cache.approxMemoryBytes();
  for (std::uint64_t i = 0; i < 1000; ++i) {
    cache.insert(support::hash128(i));
  }
  EXPECT_EQ(cache.size(), 1000u);
  EXPECT_GT(cache.approxMemoryBytes(), empty);
  EXPECT_GE(cache.approxMemoryBytes(), 1000 * sizeof(support::Hash128));
  cache.clear();
  EXPECT_LT(cache.approxMemoryBytes(), 1000 * sizeof(support::Hash128));
}

}  // namespace
