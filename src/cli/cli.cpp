#include "cli/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/session_options.hpp"
#include "campaign/campaign.hpp"
#include "campaign/explorer_spec.hpp"
#include "campaign/merge.hpp"
#include "campaign/report.hpp"
#include "lazyhb/lazyhb.hpp"
#include "programs/registry.hpp"
#include "support/json_writer.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

namespace lazyhb::cli {
namespace {

constexpr int kExitOk = 0;
constexpr int kExitViolation = 1;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;  ///< correct arguments, but a file could not be read or written

void printTopLevelUsage() {
  std::printf(
      "lazyhb — systematic concurrency testing with the lazy happens-before "
      "relation\n"
      "\n"
      "Usage: lazyhb <command> [options]\n"
      "\n"
      "Commands:\n"
      "  list      print the registered program corpus\n"
      "  explore   run one program under one explorer and report stats\n"
      "  compare   run one program under all six explorers, one row each\n"
      "  bench     run the (program x explorer) campaign matrix in parallel\n"
      "            and emit a machine-readable JSON report (checkpointable\n"
      "            with --checkpoint/--resume, divisible with --shard i/N)\n"
      "  merge     merge shard/resume bench reports into one report with\n"
      "            recomputed totals\n"
      "  figures   print the paper's Figure 2, Figure 3, theorem check,\n"
      "            section-3 chain and explorer ablation from bench reports\n"
      "  replay    re-execute a recorded schedule and render its trace\n"
      "\n"
      "Run `lazyhb <command> --help` for the command's options.\n"
      "Explorer modes: %s\n",
      campaign::explorerNamesHelp().c_str());
}

/// Look up --program, printing candidates on failure.
const programs::ProgramSpec* resolveProgram(const std::string& name) {
  if (name.empty()) {
    std::fprintf(stderr, "lazyhb: --program is required (try `lazyhb list`)\n");
    return nullptr;
  }
  const programs::ProgramSpec* spec = programs::byName(name);
  if (spec == nullptr) {
    std::fprintf(stderr, "lazyhb: unknown program '%s' (try `lazyhb list`)\n",
                 name.c_str());
  }
  return spec;
}

/// The flags of every command that executes a program: replay takes just
/// these, and addRunFlags builds on them. Every default is RunOptions'.
void addExecutionFlags(support::Options& options) {
  const RunOptions defaults;
  options.addInt("max-events", defaults.maxEventsPerSchedule,
                 "per-schedule event budget");
  options.addString("memory-model", memoryModelName(defaults.memoryModel),
                    "memory model to explore under: sc | tso (tso buffers "
                    "writes per thread and adds scheduler-visible flush "
                    "transitions; see docs/memory-models.md)");
}

/// The run knobs explore, compare and bench share — declared here once and
/// parsed once, by parseRunFlags.
void addRunFlags(support::Options& options) {
  const RunOptions defaults;
  options.addInt("limit", static_cast<std::int64_t>(defaults.scheduleLimit),
                 "schedule budget per program and explorer (paper: 100000)");
  options.addInt("seed", static_cast<std::int64_t>(kDefaultSeed),
                 "random explorer seed");
  options.addString("incremental", defaults.incremental ? "on" : "off",
                    "incremental prefix replay (checkpoint/rollback): on | off");
  options.addInt("snapshot-budget",
                 static_cast<std::int64_t>(defaults.snapshotBudgetBytes),
                 "byte budget for staged rollback snapshots (0: unlimited; "
                 "default: LAZYHB_SNAPSHOT_BUDGET or 256 MiB); over budget, "
                 "the checkpoint furthest from the search frontier is "
                 "evicted — counts stay byte-identical at any budget");
  addExecutionFlags(options);
  options.addFlag("theorems", "feed terminal schedules to the theorem checkers");
}

/// Validate the addRunFlags flags and set them on `session`. Returns false
/// after printing a usage error.
bool parseRunFlags(const support::Options& options, Session* session) {
  const std::string incremental = options.getString("incremental");
  if (incremental != "on" && incremental != "off") {
    std::fprintf(stderr,
                 "lazyhb: --incremental expects 'on' or 'off', got '%s'\n",
                 incremental.c_str());
    return false;
  }
  // Applied only when given: the default (RunOptions') may not fit the
  // flag's signed range.
  if (options.wasSet("snapshot-budget")) {
    const std::int64_t snapshotBudget = options.getInt("snapshot-budget");
    if (snapshotBudget < 0) {
      std::fprintf(stderr,
                   "lazyhb: --snapshot-budget expects a byte count >= 0 "
                   "(0: unlimited), got %lld\n",
                   static_cast<long long>(snapshotBudget));
      return false;
    }
    session->snapshotBudget(static_cast<std::uint64_t>(snapshotBudget));
  }
  try {
    session->memoryModel(options.getString("memory-model"));
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return false;
  }
  session->schedules(static_cast<std::uint64_t>(options.getInt("limit")))
      .maxEventsPerSchedule(static_cast<std::uint32_t>(options.getInt("max-events")))
      .seed(static_cast<std::uint64_t>(options.getInt("seed")))
      .incremental(incremental == "on")
      .checkTheorems(options.getFlag("theorems"));
  return true;
}

/// explore and compare: the run knobs plus the analysis toggles.
void addExplorerFlags(support::Options& options) {
  addRunFlags(options);
  options.addFlag("races", "run the sync-HB data-race detector");
  options.addFlag("stop-on-violation", "stop at the first violation");
}

/// Build a Session from addExplorerFlags' flags (strategy is set by the
/// caller). Returns false after printing a usage error.
bool sessionFrom(const support::Options& options, Session* session) {
  if (!parseRunFlags(options, session)) return false;
  session->detectRaces(options.getFlag("races"))
      .stopOnFirstViolation(options.getFlag("stop-on-violation"));
  return true;
}

void printViolations(std::FILE* out, const TestReport& report) {
  for (const TestViolation& v : report.violations) {
    std::string schedule;
    for (std::size_t i = 0; i < v.schedule.size(); ++i) {
      if (i > 0) schedule += ",";
      schedule += std::to_string(v.schedule[i]);
    }
    std::fprintf(out, "violation [%s] %s\n  schedule: %s\n", v.kind.c_str(),
                 v.message.c_str(), schedule.c_str());
  }
}

void printRaces(std::FILE* out, const TestReport& report) {
  for (const TestRace& race : report.races) {
    std::fprintf(out, "race on %s (events %d and %d)\n", race.object.c_str(),
                 race.firstEvent, race.secondEvent);
  }
}

void addResultRow(support::Table& table, const std::string& label,
                  const TestReport& report) {
  table.beginRow();
  table.cell(label);
  table.cell(report.schedulesExecuted);
  table.cell(report.terminalSchedules);
  table.cell(report.prunedSchedules);
  table.cell(report.violationSchedules);
  table.cell(report.distinctHbrs);
  table.cell(report.distinctLazyHbrs);
  table.cell(report.distinctValueClasses);
  table.cell(report.distinctStates);
  table.cell(std::string(report.complete ? "yes" : report.hitScheduleLimit ? "limit" : "no"));
}

std::vector<std::string> resultHeaders() {
  return {"explorer", "schedules",     "terminal", "pruned",
          "violations", "hbrs",        "lazy-hbrs", "value-classes",
          "states",   "complete"};
}

// --- list --------------------------------------------------------------------

int cmdList(int argc, char** argv) {
  support::Options options("lazyhb list", "print the registered program corpus");
  options.addString("family", "", "only programs of this family");
  options.addFlag("buggy", "only programs with a known reachable bug");
  options.addFlag("csv", "emit CSV instead of an aligned table");
  if (!options.parse(argc, argv)) return options.parseError() ? kExitUsage : kExitOk;

  const std::string family = options.getString("family");
  support::Table table({"id", "name", "family", "bug", "description"});
  for (const programs::ProgramSpec& spec : programs::all()) {
    if (!family.empty() && spec.family != family) continue;
    if (options.getFlag("buggy") && !spec.hasKnownBug) continue;
    table.beginRow();
    table.cell(static_cast<std::int64_t>(spec.id));
    table.cell(spec.name);
    table.cell(spec.family);
    table.cell(std::string(spec.hasKnownBug ? "yes" : ""));
    table.cell(spec.description);
  }
  std::fputs((options.getFlag("csv") ? table.toCsv() : table.toText()).c_str(),
             stdout);
  std::printf("%zu program(s)\n", table.rowCount());
  return kExitOk;
}

// --- explore -----------------------------------------------------------------

int cmdExplore(int argc, char** argv) {
  support::Options options("lazyhb explore",
                           "run one program under one explorer and report stats");
  options.addString("program", "", "program name (see `lazyhb list`)");
  options.addString("explorer", "dfs",
                    "explorer mode: " + campaign::explorerNamesHelp());
  addExplorerFlags(options);
  options.addString("out", "",
                    "write the lazyhb-test-report JSON to this path ('-': "
                    "stdout; empty: no report file)");
  options.addFlag("fail-on-violation", "exit 1 if any violation was found");
  if (!options.parse(argc, argv)) return options.parseError() ? kExitUsage : kExitOk;

  const programs::ProgramSpec* spec = resolveProgram(options.getString("program"));
  if (spec == nullptr) return kExitUsage;

  const std::string mode = options.getString("explorer");
  if (!campaign::parseExplorerSpec(mode)) {
    std::fprintf(stderr, "lazyhb: unknown explorer '%s' (expected %s)\n",
                 mode.c_str(), campaign::explorerNamesHelp().c_str());
    return kExitUsage;
  }
  Session session;
  if (!sessionFrom(options, &session)) return kExitUsage;
  const TestReport report = session.strategy(mode).run(spec->name);

  // With `--out -` stdout carries the JSON document alone (so it pipes into
  // a parser); the human-readable rendering moves to stderr.
  const std::string out = options.getString("out");
  std::FILE* human = out == "-" ? stderr : stdout;
  std::fprintf(human, "program %s (%s): %s\n", spec->name.c_str(),
               spec->family.c_str(), spec->description.c_str());
  support::Table table(resultHeaders());
  addResultRow(table, mode, report);
  std::fputs(table.toText().c_str(), human);
  std::fprintf(human, "total events: %s (%s elided, %s replayed)\n",
               support::withCommas(report.totalEvents).c_str(),
               support::withCommas(report.eventsElided).c_str(),
               support::withCommas(report.eventsReplayed).c_str());
  if (options.getFlag("theorems")) {
    std::fprintf(
        human,
        "theorem 2.1 (full HBR -> state): %llu schedules, %llu classes, "
        "%llu states, %llu conflicts\n",
        static_cast<unsigned long long>(report.theorem21.schedules),
        static_cast<unsigned long long>(report.theorem21.classes),
        static_cast<unsigned long long>(report.theorem21.states),
        static_cast<unsigned long long>(report.theorem21.conflicts));
    std::fprintf(
        human,
        "theorem 2.2 (lazy HBR -> state): %llu schedules, %llu classes, "
        "%llu states, %llu conflicts\n",
        static_cast<unsigned long long>(report.theorem22.schedules),
        static_cast<unsigned long long>(report.theorem22.classes),
        static_cast<unsigned long long>(report.theorem22.states),
        static_cast<unsigned long long>(report.theorem22.conflicts));
    std::fprintf(
        human,
        "value soundness (value class -> state): %llu schedules, %llu "
        "classes, %llu states, %llu conflicts\n",
        static_cast<unsigned long long>(report.theoremValue.schedules),
        static_cast<unsigned long long>(report.theoremValue.classes),
        static_cast<unsigned long long>(report.theoremValue.states),
        static_cast<unsigned long long>(report.theoremValue.conflicts));
  }
  printViolations(human, report);
  printRaces(human, report);
  if (!out.empty()) {
    if (!campaign::writeDocument(out, report.toJson())) return kExitIo;
    if (out != "-") std::printf("report: %s\n", out.c_str());
  }
  if (options.getFlag("fail-on-violation") && report.foundViolation()) {
    return kExitViolation;
  }
  return kExitOk;
}

// --- compare -----------------------------------------------------------------

int cmdCompare(int argc, char** argv) {
  support::Options options(
      "lazyhb compare", "run one program under all six explorers, one row each");
  options.addString("program", "", "program name (see `lazyhb list`)");
  addExplorerFlags(options);
  options.addFlag("csv", "emit CSV instead of an aligned table");
  if (!options.parse(argc, argv)) return options.parseError() ? kExitUsage : kExitOk;

  const programs::ProgramSpec* spec = resolveProgram(options.getString("program"));
  if (spec == nullptr) return kExitUsage;

  Session session;
  if (!sessionFrom(options, &session)) return kExitUsage;

  std::printf("program %s (%s): %s\n", spec->name.c_str(), spec->family.c_str(),
              spec->description.c_str());
  support::Table table(resultHeaders());
  std::vector<campaign::ExplorerSpec> modes = campaign::allExplorers();
  modes.push_back(*campaign::parseExplorerSpec("caching-value"));
  for (const campaign::ExplorerSpec& mode : modes) {
    const TestReport report = session.strategy(mode.name).run(spec->name);
    addResultRow(table, mode.name, report);
  }
  std::fputs((options.getFlag("csv") ? table.toCsv() : table.toText()).c_str(),
             stdout);
  return kExitOk;
}

// --- bench -------------------------------------------------------------------

/// Resolve the --programs selector: a comma-separated list where each token
/// is a program name or a family name. Empty selects the whole corpus.
/// Returns false with *badToken set when a token matches nothing.
bool selectPrograms(const std::string& csv,
                    std::vector<const programs::ProgramSpec*>& out,
                    std::string* badToken) {
  if (csv.empty()) return true;  // campaign default: full corpus
  return programs::selectByTokens(support::splitCsv(csv), out, badToken);
}

/// Parse the --shard selector "i/N" (1-based, e.g. "2/3") into the 0-based
/// campaign fields. Returns false after printing a usage error.
bool parseShard(const std::string& text, int* index, int* count) {
  const auto bad = [&] {
    std::fprintf(stderr,
                 "lazyhb: --shard expects 'i/N' with 1 <= i <= N (e.g. 2/3), "
                 "got '%s'\n",
                 text.c_str());
    return false;
  };
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= text.size()) {
    return bad();
  }
  try {
    std::size_t consumed = 0;
    const int i = std::stoi(text.substr(0, slash), &consumed);
    if (consumed != slash) return bad();
    const std::string denominator = text.substr(slash + 1);
    const int n = std::stoi(denominator, &consumed);
    if (consumed != denominator.size()) return bad();
    if (n < 1 || i < 1 || i > n) return bad();
    *index = i - 1;
    *count = n;
    return true;
  } catch (const std::exception&) {
    return bad();
  }
}

/// One --progress-json line per event: a machine-readable single-line JSON
/// object on stdout, flushed immediately so a supervisor can stream it.
void printProgressJson(const ProgressEvent& event) {
  support::JsonWriter json;
  json.beginObject();
  json.field("event", progressKindName(event.kind));
  if (!event.scenario.empty()) json.field("program", event.scenario);
  if (!event.strategy.empty()) json.field("explorer", event.strategy);
  json.field("schedules", event.schedulesExecuted);
  json.field("cells_done", static_cast<std::uint64_t>(event.cellsDone));
  json.field("cells_total", static_cast<std::uint64_t>(event.cellsTotal));
  json.field("attempt", event.attempt);
  json.field("wall_seconds", event.wallSeconds);
  if (event.fromCheckpoint) json.field("from_checkpoint", true);
  json.endObject();
  // The writer pretty-prints; progress consumers want one line per event.
  std::string line = json.str();
  std::string flat;
  flat.reserve(line.size());
  for (const char c : line) {
    if (c == '\n') continue;
    flat += c;
  }
  std::printf("%s\n", flat.c_str());
  std::fflush(stdout);
}

void printProgressHuman(const ProgressEvent& event) {
  switch (event.kind) {
    case ProgressEvent::Kind::CellFinished:
      std::printf("[%zu/%zu] %s x %s: %llu schedules, %.3fs%s\n",
                  event.cellsDone, event.cellsTotal, event.scenario.c_str(),
                  event.strategy.c_str(),
                  static_cast<unsigned long long>(event.schedulesExecuted),
                  event.wallSeconds,
                  event.fromCheckpoint ? " (from checkpoint)" : "");
      break;
    case ProgressEvent::Kind::CellRetried:
      std::printf("retry %s x %s (attempt %d failed after %.3fs)\n",
                  event.scenario.c_str(), event.strategy.c_str(), event.attempt,
                  event.wallSeconds);
      break;
    case ProgressEvent::Kind::CellTimedOut:
      std::printf("timeout %s x %s after %.3fs (%llu schedules kept)\n",
                  event.scenario.c_str(), event.strategy.c_str(),
                  event.wallSeconds,
                  static_cast<unsigned long long>(event.schedulesExecuted));
      break;
    case ProgressEvent::Kind::CellFailed:
      std::printf("FAILED %s x %s after %d attempt(s)\n",
                  event.scenario.c_str(), event.strategy.c_str(), event.attempt);
      break;
    default:
      return;  // CellStarted/ScheduleTick/CampaignFinished stay quiet
  }
  std::fflush(stdout);
}

int cmdBench(int argc, char** argv) {
  support::Options options(
      "lazyhb bench",
      "run the (program x explorer) campaign matrix in parallel and emit a "
      "machine-readable JSON report");
  options.addString("explorers", "",
                    "comma-separated explorer modes (empty: the default "
                    "matrix): " + campaign::explorerNamesHelp());
  options.addString("programs", "",
                    "comma-separated program or family names (default: the "
                    "full corpus)");
  const SupervisorOptions supervisor;
  options.addInt("jobs", supervisor.jobs,
                 "worker threads (0: one per hardware thread)");
  addRunFlags(options);
  options.addString("out", "",
                    "write the JSON report to this path ('-': stdout; empty: "
                    "no report file)");
  options.addFlag("quick",
                  "CI preset: cap the schedule budget at 200 (an explicit "
                  "--limit wins)");
  options.addFlag("paper",
                  "nightly preset: the paper's 100000-schedule budget (an "
                  "explicit --limit wins)");
  options.addString("shard", "",
                    "run only slice i of N ('i/N', 1-based round-robin over "
                    "the cell matrix); merge slices with `lazyhb merge`");
  options.addString("checkpoint", "",
                    "journal finished cells into this directory; rerunning "
                    "with the same flags resumes from it");
  options.addString("resume", "",
                    "like --checkpoint, but require an existing journal in "
                    "the directory (error when there is nothing to resume)");
  options.addInt("cell-timeout",
                 static_cast<std::int64_t>(supervisor.cellTimeoutSeconds),
                 "per-cell wall-clock budget in seconds (0: none); cells "
                 "over budget are marked timed_out and the campaign "
                 "continues");
  options.addInt("cell-retries", supervisor.cellRetries,
                 "re-run a timed-out or crashing cell up to this many extra "
                 "times before recording it");
  options.addFlag("progress", "print one line per finished cell");
  options.addFlag("progress-json",
                  "stream one machine-readable JSON line per campaign event");
  options.addFlag("csv", "print the per-cell table as CSV");
  if (!options.parse(argc, argv)) return options.parseError() ? kExitUsage : kExitOk;

  std::string bad;
  const auto explorers =
      campaign::parseExplorerList(options.getString("explorers"), &bad);
  if (!explorers) {
    std::fprintf(stderr, "lazyhb: unknown explorer '%s' (expected %s)\n",
                 bad.c_str(), campaign::explorerNamesHelp().c_str());
    return kExitUsage;
  }

  const bool quick = options.getFlag("quick");
  const bool paper = options.getFlag("paper");
  if (quick && paper) {
    std::fprintf(stderr, "lazyhb: --quick and --paper are mutually exclusive\n");
    return kExitUsage;
  }
  Session knobs;
  if (!parseRunFlags(options, &knobs)) return kExitUsage;
  if ((quick || paper) && !options.wasSet("limit")) {
    knobs.schedules(quick ? 200 : 100'000);
  }

  campaign::CampaignOptions campaignOptions = sessionOptions(knobs);
  campaignOptions.explorers = *explorers;
  if (!selectPrograms(options.getString("programs"), campaignOptions.programs,
                      &bad)) {
    std::fprintf(stderr,
                 "lazyhb: '%s' names no program or family (try `lazyhb list`)\n",
                 bad.c_str());
    return kExitUsage;
  }
  campaignOptions.jobs = static_cast<int>(options.getInt("jobs"));

  if (!options.getString("shard").empty() &&
      !parseShard(options.getString("shard"), &campaignOptions.shardIndex,
                  &campaignOptions.shardCount)) {
    return kExitUsage;
  }
  const std::string checkpointDir = options.getString("checkpoint");
  const std::string resumeDir = options.getString("resume");
  if (!checkpointDir.empty() && !resumeDir.empty()) {
    std::fprintf(stderr,
                 "lazyhb: --checkpoint and --resume are mutually exclusive "
                 "(--resume implies the journal directory)\n");
    return kExitUsage;
  }
  campaignOptions.checkpointDir = resumeDir.empty() ? checkpointDir : resumeDir;
  campaignOptions.requireExistingJournal = !resumeDir.empty();
  const std::int64_t cellTimeout = options.getInt("cell-timeout");
  const std::int64_t cellRetries = options.getInt("cell-retries");
  if (cellTimeout < 0 || cellRetries < 0) {
    std::fprintf(stderr,
                 "lazyhb: --cell-timeout and --cell-retries expect "
                 "non-negative values\n");
    return kExitUsage;
  }
  campaignOptions.cellTimeoutSeconds = static_cast<double>(cellTimeout);
  campaignOptions.cellRetries = static_cast<int>(cellRetries);

  if (options.getFlag("progress") && options.getFlag("progress-json")) {
    std::fprintf(stderr,
                 "lazyhb: --progress and --progress-json are mutually "
                 "exclusive\n");
    return kExitUsage;
  }
  if (options.getFlag("progress-json")) {
    campaignOptions.onProgress = printProgressJson;
  } else if (options.getFlag("progress")) {
    campaignOptions.onProgress = printProgressHuman;
  }

  campaign::CampaignResult result;
  try {
    result = campaign::runCampaign(campaignOptions);
  } catch (const std::exception& error) {
    // Journal mismatch / nothing to resume / bad shard spec.
    std::fprintf(stderr, "%s\n", error.what());
    return kExitUsage;
  }

  support::Table table({"explorer", "cells", "schedules", "terminal", "pruned",
                        "violations", "hbrs", "lazy-hbrs", "value-classes",
                        "states", "cache-entries", "cache-MB", "wall-s"});
  for (const campaign::ExplorerTotals& t : result.perExplorer) {
    table.beginRow();
    table.cell(t.explorer);
    table.cell(t.cells);
    table.cell(t.stats.schedulesExecuted);
    table.cell(t.stats.terminalSchedules);
    table.cell(t.stats.prunedSchedules);
    table.cell(t.stats.violationSchedules);
    table.cell(t.stats.distinctHbrs);
    table.cell(t.stats.distinctLazyHbrs);
    table.cell(t.stats.distinctValueClasses);
    table.cell(t.stats.distinctStates);
    table.cell(t.stats.cacheStats.entries);
    table.cell(static_cast<double>(t.stats.cacheStats.approxBytes) / (1024.0 * 1024.0));
    table.cell(t.wallSeconds);
  }
  std::printf("campaign: %zu programs x %zu explorers = %zu cells, %d job(s)\n",
              result.programs.size(), result.perExplorer.size(),
              result.cells.size(), result.jobs);
  if (result.shardCount > 1) {
    std::printf("shard %d/%d: this report covers only its slice of the "
                "matrix; merge slices with `lazyhb merge`\n",
                result.shardIndex + 1, result.shardCount);
  }
  if (result.cellsFromCheckpoint > 0 || result.cellsTimedOut > 0 ||
      result.cellsFailed > 0 || result.cellsRetried > 0) {
    std::printf("supervisor: %zu cell(s) from checkpoint, %d timed out, "
                "%d failed, %d retried\n",
                result.cellsFromCheckpoint, result.cellsTimedOut,
                result.cellsFailed, result.cellsRetried);
  }
  std::fputs(table.toText().c_str(), stdout);
  if (options.getFlag("csv")) {
    support::Table cells({"program_id", "program", "family", "explorer",
                          "schedules", "terminal", "pruned", "violations",
                          "hbrs", "lazy_hbrs", "value_classes", "states",
                          "events", "wall_seconds"});
    for (const campaign::CellResult& cell : result.cells) {
      cells.beginRow();
      cells.cell(static_cast<std::int64_t>(cell.programId));
      cells.cell(cell.program);
      cells.cell(cell.family);
      cells.cell(cell.explorer);
      cells.cell(cell.stats.schedulesExecuted);
      cells.cell(cell.stats.terminalSchedules);
      cells.cell(cell.stats.prunedSchedules);
      cells.cell(cell.stats.violationSchedules);
      cells.cell(cell.stats.distinctHbrs);
      cells.cell(cell.stats.distinctLazyHbrs);
      cells.cell(cell.stats.distinctValueClasses);
      cells.cell(cell.stats.distinctStates);
      cells.cell(cell.stats.totalEvents);
      cells.cell(cell.wallSeconds, 4);
    }
    std::fputs("\n--- CSV ---\n", stdout);
    std::fputs(cells.toCsv().c_str(), stdout);
  }
  std::printf("totals: %s schedules, %s events (%s elided, %s replayed), "
              "%.2fs wall (%.2fs cpu), %.1fx parallel speedup\n",
              support::withCommas(result.totalSchedules).c_str(),
              support::withCommas(result.totalEvents).c_str(),
              support::withCommas(result.totalEventsElided).c_str(),
              support::withCommas(result.totalEventsReplayed).c_str(),
              result.wallSeconds, result.cpuSeconds,
              result.wallSeconds > 0.0 ? result.cpuSeconds / result.wallSeconds
                                       : 0.0);
  if (result.inequalityViolations == 0) {
    std::printf("section-3 inequality (#states <= #valueClasses <= #lazyHBRs "
                "<= #HBRs <= #schedules): holds on all %zu cells\n",
                result.cells.size());
    if (campaignOptions.explorer.checkTheorems) {
      std::printf("theorems 2.1/2.2 and value soundness: no conflict on any "
                  "of the %zu cells\n",
                  result.cells.size());
    }
  } else {
    std::printf("section-3 inequality or a theorem: VIOLATED on %d cell(s):\n",
                result.inequalityViolations);
    for (const campaign::CellResult& cell : result.cells) {
      if (!cell.inequalityHolds()) {
        std::printf("  %s x %s: %s\n", cell.program.c_str(),
                    cell.explorer.c_str(), cell.inequalityDiagnostic.c_str());
      }
    }
  }

  campaign::ReportConfig reportConfig = campaign::makeReportConfig(campaignOptions);
  reportConfig.quick = quick;
  const std::string out = options.getString("out");
  if (!out.empty()) {
    if (!campaign::writeDocument(out, campaign::writeReportJson(result, reportConfig))) {
      return kExitIo;
    }
    if (out != "-") std::printf("report: %s\n", out.c_str());
  }
  return result.inequalityViolations == 0 ? kExitOk : kExitViolation;
}

// --- merge -------------------------------------------------------------------

/// Read the report files at `paths` and merge them (a single report merges
/// with itself alone: re-folded, every cell's chain re-checked). Returns
/// kExitOk, or the exit status after printing the error: kExitIo when a
/// file cannot be read, kExitViolation when the reports do not merge.
int mergeReportFiles(const std::vector<std::string>& paths,
                     campaign::MergeOutcome* merged) {
  // Inputs are named report files ("-" is not read as stdin here).
  std::vector<std::string> documents;
  try {
    for (const std::string& path : paths) {
      documents.push_back(campaign::readDocument(path));
    }
  } catch (const std::runtime_error& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return kExitIo;
  }
  try {
    *merged = campaign::mergeReports(documents, paths);
  } catch (const campaign::ReportFormatError& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return kExitIo;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return kExitViolation;
  }
  return kExitOk;
}

int cmdMerge(int argc, char** argv) {
  support::Options options(
      "lazyhb merge [report.json ...]",
      "merge shard/resume bench reports (schema v" +
          std::to_string(campaign::kReportSchemaVersion) +
          ") into one report: disjoint cells union, identical duplicates "
          "dedupe, totals and the section-3 check are recomputed from the "
          "merged cells; conflicting duplicate counts are a hard error");
  options.addString("out", "-",
                    "write the merged report to this path ('-': stdout)");
  if (!options.parse(argc, argv)) return options.parseError() ? kExitUsage : kExitOk;

  const std::vector<std::string>& paths = options.positional();
  if (paths.empty()) {
    std::fprintf(stderr,
                 "lazyhb: nothing to merge — pass report files as positional "
                 "arguments\n");
    return kExitUsage;
  }
  campaign::MergeOutcome merged;
  if (const int status = mergeReportFiles(paths, &merged); status != kExitOk) {
    return status;
  }

  const std::string out = options.getString("out");
  if (!campaign::writeDocument(out, campaign::writeReportJson(
                                         merged.result, merged.config,
                                         &merged.provenance))) {
    return kExitIo;
  }
  if (out != "-") {
    std::printf("merged %zu report(s) -> %s: %zu cell(s), %zu program(s); "
                "section-3 inequality %s\n",
                paths.size(), out.c_str(), merged.result.cells.size(),
                merged.result.programs.size(),
                merged.result.inequalityViolations == 0
                    ? "holds on all cells"
                    : "VIOLATED");
  }
  return merged.result.inequalityViolations == 0 ? kExitOk : kExitViolation;
}

// --- figures -----------------------------------------------------------------

/// The stats of `program`'s `explorer` cell; the caller knows it exists
/// (its ProgramSummary section is present).
const explore::ExplorationResult& cellStats(const campaign::CampaignResult& result,
                                            int programId, const char* explorer) {
  return std::find_if(result.cells.begin(), result.cells.end(),
                      [&](const campaign::CellResult& cell) {
                        return cell.programId == programId &&
                               cell.explorer == explorer;
                      })
      ->stats;
}

/// Figure 2, from the programs that have a dpor cell.
void printFigure2(const campaign::CampaignResult& result,
                  const campaign::FigureTotals& totals) {
  std::printf("\nFigure 2: #HBRs vs #lazy HBRs explored by DPOR\n");
  support::Table table({"id", "program", "schedules", "#HBRs", "#lazyHBRs",
                        "hit-limit", "below-diagonal"});
  for (const campaign::ProgramSummary& p : result.programs) {
    if (!p.hasDpor) continue;
    const explore::ExplorationResult& dpor = cellStats(result, p.id, "dpor");
    table.beginRow();
    table.cell(static_cast<std::int64_t>(p.id));
    table.cell(p.program);
    table.cell(dpor.schedulesExecuted);
    table.cell(p.dporHbrs);
    table.cell(p.dporLazyHbrs);
    table.cell(std::string(dpor.hitScheduleLimit ? "yes" : "no"));
    table.cell(std::string(p.belowDiagonal ? "BELOW" : "-"));
  }
  std::fputs(table.toText().c_str(), stdout);
  std::printf("ours:  %d/%d programs below the diagonal; %s of %s unique HBRs "
              "on them are redundant (%.0f%%)\n",
              totals.belowDiagonal, totals.dporPrograms,
              support::withCommas(totals.redundantHbrs).c_str(),
              support::withCommas(totals.hbrsBelow).c_str(),
              totals.redundantPercent);
  std::printf("paper: 33/79 programs below the diagonal; 910,007 of the "
              "unique HBRs on them are redundant (80%%)\n");
}

/// Figure 3, from the programs that have both caching cells.
void printFigure3(const campaign::CampaignResult& result,
                  const campaign::FigureTotals& totals) {
  std::printf("\nFigure 3: terminal lazy HBRs reached by regular vs. lazy HBR "
              "caching\n");
  support::Table table({"id", "program", "lazyHBRs(HBR-caching)",
                        "lazyHBRs(lazy-caching)", "sched(reg)", "sched(lazy)",
                        "hit-limit", "differs"});
  for (const campaign::ProgramSummary& p : result.programs) {
    if (!p.hasCachingPair) continue;
    const explore::ExplorationResult& full = cellStats(result, p.id, "caching-full");
    const explore::ExplorationResult& lazy = cellStats(result, p.id, "caching-lazy");
    table.beginRow();
    table.cell(static_cast<std::int64_t>(p.id));
    table.cell(p.program);
    table.cell(p.lazyHbrsByFullCaching);
    table.cell(p.lazyHbrsByLazyCaching);
    table.cell(full.schedulesExecuted);
    table.cell(lazy.schedulesExecuted);
    const bool hitLimit = full.hitScheduleLimit || lazy.hitScheduleLimit;
    table.cell(std::string(hitLimit ? "yes" : "no"));
    table.cell(std::string(p.cachingDiffers ? "LAZY+" : "-"));
  }
  std::fputs(table.toText().c_str(), stdout);
  std::printf("ours:  %d/%d programs differ; lazy HBR caching explored %s "
              "(%.0f%%) more terminal lazy HBRs across them; regular caching "
              "won on %d (expected 0)\n",
              totals.cachingDiffers, totals.cachingPrograms,
              support::withCommas(totals.extraLazyHbrs).c_str(),
              totals.extraPercent, totals.regularWon);
  std::printf("paper: 18/79 programs differ; lazy HBR caching explored 8,969 "
              "(84%%) more terminal lazy HBRs across them\n");
}

/// The section-3 chain: every dfs cell, plus every cell of any explorer
/// that breaks a theorem or the chain, or failed. Returns the number of the
/// latter.
int printChain(const campaign::CampaignResult& result) {
  std::printf("\nSection 3: #states <= #valueClasses <= #lazyHBRs <= #HBRs <= "
              "#schedules per cell\n");
  support::Table table({"id", "program", "explorer", "#states",
                        "#valueClasses", "#lazyHBRs", "#HBRs", "#schedules",
                        "chain"});
  int dfsCells = 0;
  int dfsBroken = 0;
  int broken = 0;
  for (const campaign::CellResult& cell : result.cells) {
    const bool ok = !cell.failed() && cell.inequalityHolds();
    const bool dfs = cell.explorer == "dfs";
    broken += ok ? 0 : 1;
    dfsCells += dfs ? 1 : 0;
    dfsBroken += (dfs && !ok) ? 1 : 0;
    if (!dfs && ok) continue;
    table.beginRow();
    table.cell(static_cast<std::int64_t>(cell.programId));
    table.cell(cell.program);
    table.cell(cell.explorer);
    table.cell(cell.stats.distinctStates);
    table.cell(cell.stats.distinctValueClasses);
    table.cell(cell.stats.distinctLazyHbrs);
    table.cell(cell.stats.distinctHbrs);
    table.cell(cell.stats.schedulesExecuted);
    table.cell(cell.failed() ? cell.error
               : ok          ? std::string("ok")
                             : cell.inequalityDiagnostic);
  }
  if (table.rowCount() > 0) std::fputs(table.toText().c_str(), stdout);
  std::printf("%d/%zu cells break a theorem or the chain, or failed (dfs: "
              "%d/%d); both hold by construction, so any break is an "
              "implementation bug\n",
              broken, result.cells.size(), dfsBroken, dfsCells);
  return broken;
}

/// Theorems 2.1/2.2 and value soundness, summed over the cells whose
/// checkers ran: the terminal schedules each checker saw and its conflicts.
/// A conflicting cell also breaks its verdict, so printChain names it.
void printTheorems(const campaign::CampaignResult& result) {
  std::printf("\nTheorems: equal relation class => equal terminal state\n");
  support::Table table({"theorem", "relation", "terminal-schedules", "conflicts"});
  using Checker = core::EquivalenceChecker::Stats explore::ExplorationResult::*;
  const auto row = [&](const char* theorem, const char* relation, Checker checker) {
    std::uint64_t schedules = 0;
    std::uint64_t conflicts = 0;
    for (const campaign::CellResult& cell : result.cells) {
      schedules += (cell.stats.*checker).schedules;
      conflicts += (cell.stats.*checker).conflicts;
    }
    table.beginRow();
    table.cell(std::string(theorem));
    table.cell(std::string(relation));
    table.cell(schedules);
    table.cell(conflicts);
  };
  row("2.1", "HBR", &explore::ExplorationResult::theorem21);
  row("2.2", "lazy HBR", &explore::ExplorationResult::theorem22);
  row("value", "value class", &explore::ExplorationResult::theoremValue);
  std::fputs(table.toText().c_str(), stdout);
}

/// The explorer ablation: per-explorer totals over the whole campaign.
void printAblation(const campaign::CampaignResult& result) {
  std::printf("\nExplorer ablation: totals per explorer\n");
  support::Table table({"explorer", "cells", "schedules(total)",
                        "lazyHBRs(total)", "states(total)",
                        "cells-with-violation", "complete"});
  for (const campaign::ExplorerTotals& t : result.perExplorer) {
    std::uint64_t withViolation = 0;
    std::uint64_t complete = 0;
    for (const campaign::CellResult& cell : result.cells) {
      if (cell.explorer != t.explorer) continue;
      withViolation += cell.stats.violationSchedules > 0 ? 1 : 0;
      complete += cell.stats.complete ? 1 : 0;
    }
    table.beginRow();
    table.cell(t.explorer);
    table.cell(t.cells);
    table.cell(t.stats.schedulesExecuted);
    table.cell(t.stats.distinctLazyHbrs);
    table.cell(t.stats.distinctStates);
    table.cell(withViolation);
    table.cell(complete);
  }
  std::fputs(table.toText().c_str(), stdout);
}

int cmdFigures(int argc, char** argv) {
  support::Options options(
      "lazyhb figures REPORT [REPORT ...]",
      "print the paper's Figure 2 and Figure 3, the theorem check, the "
      "section-3 counting chain and the explorer ablation from bench reports "
      "(shards are merged first); each figure needs its explorers in the "
      "report: Figure 2 dpor, Figure 3 caching-full and caching-lazy, the "
      "theorem check a report run with --theorems");
  if (!options.parse(argc, argv)) return options.parseError() ? kExitUsage : kExitOk;

  const std::vector<std::string>& paths = options.positional();
  if (paths.empty()) {
    std::fprintf(stderr,
                 "lazyhb: no report — pass bench report files as positional "
                 "arguments\n");
    return kExitUsage;
  }
  campaign::MergeOutcome merged;
  if (const int status = mergeReportFiles(paths, &merged); status != kExitOk) {
    return status;
  }
  const campaign::CampaignResult& result = merged.result;

  std::printf("%zu program(s) x %zu explorer(s), %llu-schedule budget\n",
              result.programs.size(), result.perExplorer.size(),
              static_cast<unsigned long long>(merged.config.scheduleLimit));
  const campaign::FigureTotals totals = campaign::figureTotals(result.programs);
  if (totals.dporPrograms > 0) printFigure2(result, totals);
  if (totals.cachingPrograms > 0) printFigure3(result, totals);
  if (merged.config.checkTheorems) printTheorems(result);
  const int broken = printChain(result);
  printAblation(result);
  return broken == 0 ? kExitOk : kExitViolation;
}

// --- replay ------------------------------------------------------------------

/// Parse "0,1,1,0" (or "0 1 1 0") into thread indices. Every token must be
/// an integer in full — "1-2" or "1x" is rejected, not truncated.
bool parseSchedule(const std::string& text, std::vector<int>& out) {
  std::string token;
  for (const char c : text + ",") {
    if (c == ',' || c == ' ') {
      if (token.empty()) continue;
      try {
        std::size_t consumed = 0;
        const int value = std::stoi(token, &consumed);
        if (consumed != token.size()) return false;
        out.push_back(value);
      } catch (const std::exception&) {
        return false;
      }
      token.clear();
      continue;
    }
    const bool leadingMinus = (c == '-' && token.empty());
    if (!leadingMinus && (c < '0' || c > '9')) return false;
    token += c;
  }
  return true;
}

int cmdReplay(int argc, char** argv) {
  support::Options options("lazyhb replay",
                           "re-execute a recorded schedule and render its trace");
  options.addString("program", "", "program name (see `lazyhb list`)");
  options.addString("schedule", "",
                    "comma-separated thread picks, e.g. 0,1,1,0 (empty: "
                    "first-enabled everywhere)");
  options.addString("relation", TraceOptions{}.relation,
                    "relation to render: sync | full | lazy");
  addExecutionFlags(options);
  options.addFlag("races", "run the sync-HB data-race detector");
  options.addFlag("no-trace", "skip the rendered trace, print fingerprints only");
  if (!options.parse(argc, argv)) return options.parseError() ? kExitUsage : kExitOk;

  const programs::ProgramSpec* spec = resolveProgram(options.getString("program"));
  if (spec == nullptr) return kExitUsage;

  std::vector<int> schedule;
  if (!parseSchedule(options.getString("schedule"), schedule)) {
    std::fprintf(stderr, "lazyhb: --schedule expects comma-separated integers\n");
    return kExitUsage;
  }

  TraceOptions traceOptions;
  traceOptions.renderTrace = !options.getFlag("no-trace");
  traceOptions.detectRaces = options.getFlag("races");
  traceOptions.maxEventsPerSchedule =
      static_cast<std::uint32_t>(options.getInt("max-events"));
  traceOptions.relation = options.getString("relation");
  traceOptions.memoryModel = options.getString("memory-model");

  ScheduleTrace result;
  try {
    result = traceSchedule(spec->body, schedule, traceOptions);
  } catch (const std::invalid_argument& error) {
    // An unknown relation or memory model name.
    std::fprintf(stderr, "%s\n", error.what());
    return kExitUsage;
  }

  if (!result.applied) {
    std::fprintf(stderr,
                 "lazyhb: schedule does not apply to '%s' — a pick named a "
                 "thread that was not enabled at that point\n",
                 spec->name.c_str());
    return kExitUsage;
  }
  std::printf("program %s: outcome %s, %zu event(s)\n", spec->name.c_str(),
              result.outcome.c_str(), result.events);
  if (!result.message.empty()) {
    std::printf("violation: %s\n", result.message.c_str());
  }
  std::printf("hbr %s  lazy %s  state %s\n", result.hbrFingerprint.c_str(),
              result.lazyFingerprint.c_str(), result.stateFingerprint.c_str());
  if (traceOptions.renderTrace) {
    std::fputs(result.rendered.c_str(), stdout);
  }
  for (const TestRace& race : result.races) {
    std::printf("race on %s (events %d and %d)\n", race.object.c_str(),
                race.firstEvent, race.secondEvent);
  }
  return result.violated ? kExitViolation : kExitOk;
}

}  // namespace

int run(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
      std::strcmp(argv[1], "-h") == 0 || std::strcmp(argv[1], "help") == 0) {
    printTopLevelUsage();
    return argc < 2 ? kExitUsage : kExitOk;
  }
  const std::string command = argv[1];
  // Each subcommand re-parses from its own argv[0] == the command name.
  const int subArgc = argc - 1;
  char** subArgv = argv + 1;
  if (command == "list") return cmdList(subArgc, subArgv);
  if (command == "explore") return cmdExplore(subArgc, subArgv);
  if (command == "compare") return cmdCompare(subArgc, subArgv);
  if (command == "bench") return cmdBench(subArgc, subArgv);
  if (command == "merge") return cmdMerge(subArgc, subArgv);
  if (command == "figures") return cmdFigures(subArgc, subArgv);
  if (command == "replay") return cmdReplay(subArgc, subArgv);
  std::fprintf(stderr, "lazyhb: unknown command '%s'\n\n", command.c_str());
  printTopLevelUsage();
  return kExitUsage;
}

}  // namespace lazyhb::cli
