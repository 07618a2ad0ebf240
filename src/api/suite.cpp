// Implementation of the public batch-campaign facade (lazyhb/suite.hpp).
//
// Suite is a loss-free adapter over campaign::runCampaign — the same runner
// the CLI's `bench` subcommand drives — plus campaign::writeReportJson for
// the rendered document, so a SuiteReport::toJson() is merge- and
// diff-compatible with `lazyhb bench --out` byte-for-byte (modulo wall
// times). No count is computed in this file.

#include "lazyhb/suite.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "api/session_options.hpp"
#include "campaign/campaign.hpp"
#include "campaign/explorer_spec.hpp"
#include "campaign/report.hpp"
#include "programs/registry.hpp"

namespace lazyhb {

Suite::Suite() = default;

Suite& Suite::add(std::string scenarioOrFamily) {
  config_.selectors.push_back(std::move(scenarioOrFamily));
  return *this;
}

Suite& Suite::strategies(std::vector<std::string> names) {
  config_.strategies = std::move(names);
  return *this;
}

Suite& Suite::schedules(std::uint64_t limit) {
  config_.cell.schedules(limit);
  return *this;
}

Suite& Suite::maxEventsPerSchedule(std::uint32_t events) {
  config_.cell.maxEventsPerSchedule(events);
  return *this;
}

Suite& Suite::seed(std::uint64_t value) {
  config_.cell.seed(value);
  return *this;
}

Suite& Suite::incremental(bool on) {
  config_.cell.incremental(on);
  return *this;
}

Suite& Suite::memoryModel(std::string model) {
  config_.cell.memoryModel(std::move(model));
  return *this;
}

Suite& Suite::jobs(int count) {
  config_.jobs = count;
  return *this;
}

Suite& Suite::shard(int index, int count) {
  config_.shardIndex = index;
  config_.shardCount = count;
  return *this;
}

Suite& Suite::checkpointDir(std::string directory) {
  config_.checkpointDir = std::move(directory);
  return *this;
}

Suite& Suite::resumeOnly(bool on) {
  config_.resumeOnly = on;
  return *this;
}

Suite& Suite::cellTimeout(double seconds) {
  config_.cellTimeoutSeconds = seconds;
  return *this;
}

Suite& Suite::cellRetries(int count) {
  config_.cellRetries = count;
  return *this;
}

Suite& Suite::onProgress(ProgressCallback callback) {
  config_.progress = std::move(callback);
  return *this;
}

static_assert(kSuiteReportSchemaVersion == campaign::kReportSchemaVersion,
              "SuiteReport::toJson() is the campaign report document");

SuiteReport Suite::run() const {
  campaign::CampaignOptions options = sessionOptions(config_.cell);

  for (const std::string& name : config_.strategies) {
    const auto spec = campaign::parseExplorerSpec(name);
    if (!spec) {
      throw std::invalid_argument("lazyhb: unknown strategy '" + name +
                                  "' (see Session::strategies())");
    }
    options.explorers.push_back(*spec);
  }

  std::string badToken;
  if (!programs::selectByTokens(config_.selectors, options.programs,
                                &badToken)) {
    throw std::invalid_argument("lazyhb: '" + badToken +
                                "' names no scenario or family "
                                "(see lazyhb::scenarios())");
  }

  options.jobs = config_.jobs;
  options.shardIndex = config_.shardIndex;
  options.shardCount = config_.shardCount;
  options.checkpointDir = config_.checkpointDir;
  options.requireExistingJournal = config_.resumeOnly;
  options.cellTimeoutSeconds = config_.cellTimeoutSeconds;
  options.cellRetries = config_.cellRetries;
  options.onProgress = config_.progress;

  const campaign::CampaignResult result = campaign::runCampaign(options);

  SuiteReport report;
  report.json_ =
      campaign::writeReportJson(result, campaign::makeReportConfig(options));
  report.cells.reserve(result.cells.size());
  for (const campaign::CellResult& cell : result.cells) {
    SuiteCell out;
    out.scenario = cell.program;
    out.family = cell.family;
    out.strategy = cell.explorer;
    out.schedules = cell.stats.schedulesExecuted;
    out.terminal = cell.stats.terminalSchedules;
    out.pruned = cell.stats.prunedSchedules;
    out.violations = cell.stats.violationSchedules;
    out.events = cell.stats.totalEvents;
    out.hbrs = cell.stats.distinctHbrs;
    out.lazyHbrs = cell.stats.distinctLazyHbrs;
    out.states = cell.stats.distinctStates;
    out.complete = cell.stats.complete;
    out.hitScheduleLimit = cell.stats.hitScheduleLimit;
    out.timedOut = cell.timedOut;
    out.fromCheckpoint = cell.fromCheckpoint;
    out.attempts = cell.attempts;
    out.error = cell.error;
    out.wallSeconds = cell.wallSeconds;
    out.inequalityHolds = cell.inequalityHolds();
    out.inequalityDiagnostic = cell.inequalityDiagnostic;
    report.cells.push_back(std::move(out));
  }
  report.totalSchedules = result.totalSchedules;
  report.totalEvents = result.totalEvents;
  report.inequalityViolations = result.inequalityViolations;
  report.wallSeconds = result.wallSeconds;
  report.cellsFromCheckpoint = result.cellsFromCheckpoint;
  report.cellsTimedOut = result.cellsTimedOut;
  report.cellsFailed = result.cellsFailed;
  report.cellsRetried = result.cellsRetried;
  report.shardIndex = result.shardIndex;
  report.shardCount = result.shardCount;
  return report;
}

std::string SuiteReport::summary() const {
  char buf[256];
  std::snprintf(
      buf, sizeof buf,
      "%zu cell(s)%s: %llu schedules, %llu events, %.2fs wall; "
      "section-3 inequality %s%s",
      cells.size(),
      shardCount > 1
          ? (" (shard " + std::to_string(shardIndex + 1) + "/" +
             std::to_string(shardCount) + ")")
                .c_str()
          : "",
      static_cast<unsigned long long>(totalSchedules),
      static_cast<unsigned long long>(totalEvents), wallSeconds,
      inequalityViolations == 0
          ? "holds on all cells"
          : ("VIOLATED on " + std::to_string(inequalityViolations) + " cell(s)")
                .c_str(),
      cellsFromCheckpoint > 0
          ? (", " + std::to_string(cellsFromCheckpoint) + " from checkpoint")
                .c_str()
          : "");
  return std::string(buf);
}

}  // namespace lazyhb
