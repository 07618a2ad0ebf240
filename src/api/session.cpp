// Implementation of the public embedding facade (lazyhb/session.hpp).
//
// Session is a thin, loss-free adapter: its setters fill one RunOptions,
// run() slices that into ExplorerOptions (sessionOptions, the mapping Suite
// and the CLI's bench share), constructs the explorer through the same
// campaign::ExplorerSpec factory every other consumer uses, and copies the
// ExplorationResult field-for-field into the public TestReport. No count is
// computed differently from the direct construction path — the parity test
// suite (tests/test_session.cpp) pins byte-identity.

#include "lazyhb/session.hpp"

#include <chrono>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <utility>

#include "api/session_options.hpp"
#include "campaign/explorer_spec.hpp"
#include "explore/explorer.hpp"
#include "explore/replay.hpp"
#include "memory/memory_model.hpp"
#include "programs/registry.hpp"
#include "support/json_writer.hpp"

namespace lazyhb {
namespace {

TestTheoremStats toTheoremStats(const core::EquivalenceChecker::Stats& stats) {
  TestTheoremStats out;
  out.schedules = stats.schedules;
  out.classes = stats.classes;
  out.states = stats.states;
  out.conflicts = stats.conflicts;
  return out;
}

std::vector<TestRace> toRaces(const std::vector<trace::RaceReport>& races) {
  std::vector<TestRace> out;
  out.reserve(races.size());
  for (const trace::RaceReport& race : races) {
    TestRace r;
    r.object = race.objectName;
    r.firstEvent = race.firstEvent;
    r.secondEvent = race.secondEvent;
    out.push_back(std::move(r));
  }
  return out;
}

const programs::ProgramSpec& resolveScenario(const std::string& name) {
  const programs::ProgramSpec* spec = programs::byName(name);
  if (spec == nullptr) {
    throw std::invalid_argument("lazyhb: unknown scenario '" + name +
                                "' (see lazyhb::scenarios())");
  }
  return *spec;
}

MemoryModel resolveMemoryModel(const std::string& name) {
  const auto model = memory::parseMemoryModel(name);
  if (!model) {
    throw std::invalid_argument("lazyhb: unknown memory model '" + name +
                                "' (expected one of: " +
                                memory::memoryModelNamesHelp() + ")");
  }
  return *model;
}

}  // namespace

Session& Session::strategy(std::string name) {
  config_.strategy = std::move(name);
  return *this;
}

Session& Session::schedules(std::uint64_t limit) {
  config_.run.scheduleLimit = limit;
  return *this;
}

Session& Session::maxEventsPerSchedule(std::uint32_t events) {
  config_.run.maxEventsPerSchedule = events;
  return *this;
}

Session& Session::seed(std::uint64_t value) {
  config_.seed = value;
  return *this;
}

Session& Session::memoryModel(std::string model) {
  config_.run.memoryModel = resolveMemoryModel(model);
  return *this;
}

Session& Session::detectRaces(bool on) {
  config_.run.detectRaces = on;
  return *this;
}

Session& Session::checkTheorems(bool on) {
  config_.run.checkTheorems = on;
  return *this;
}

Session& Session::stopOnFirstViolation(bool on) {
  config_.run.stopOnFirstViolation = on;
  return *this;
}

Session& Session::keepViolations(std::uint32_t max) {
  config_.run.maxViolationsKept = max;
  return *this;
}

Session& Session::incremental(bool on) {
  config_.run.incremental = on;
  return *this;
}

Session& Session::checkpointable(bool on) {
  config_.run.checkpointable = on;
  return *this;
}

Session& Session::snapshotBudget(std::uint64_t bytes) {
  config_.run.snapshotBudgetBytes = bytes;
  return *this;
}

Session& Session::onProgress(ProgressCallback callback) {
  config_.progress = std::move(callback);
  return *this;
}

Session& Session::progressInterval(std::uint64_t schedules) {
  config_.progressInterval = schedules;
  return *this;
}

campaign::CampaignOptions sessionOptions(const Session& session) {
  campaign::CampaignOptions options;
  static_cast<RunOptions&>(options.explorer) = session.config_.run;
  options.seed = session.config_.seed;
  return options;
}

std::vector<std::string> Session::strategies() {
  std::vector<std::string> names;
  for (const campaign::ExplorerSpec& spec : campaign::allExplorers()) {
    names.push_back(spec.name);
  }
  for (const campaign::ExplorerSpec& spec : campaign::extendedExplorers()) {
    names.push_back(spec.name);
  }
  return names;
}

TestReport Session::run(const Program& program) const {
  const auto spec = campaign::parseExplorerSpec(config_.strategy);
  if (!spec) {
    throw std::invalid_argument("lazyhb: unknown strategy '" +
                                config_.strategy + "' (expected one of: " +
                                campaign::explorerNamesHelp() + ")");
  }

  const campaign::CampaignOptions cell = sessionOptions(*this);
  explore::ExplorerOptions options = cell.explorer;
  if (config_.progress) {
    // Adapt the engine's raw schedule tick into the public ProgressEvent.
    const ProgressCallback callback = config_.progress;
    const std::string scenarioLabel = config_.scenarioLabel;
    const std::string strategyName = config_.strategy;
    const std::uint64_t limit = config_.run.scheduleLimit;
    options.tickIntervalSchedules =
        config_.progressInterval == 0 ? 1 : config_.progressInterval;
    options.onScheduleTick = [callback, scenarioLabel, strategyName,
                              limit](std::uint64_t executed) {
      ProgressEvent event;
      event.kind = ProgressEvent::Kind::ScheduleTick;
      event.scenario = scenarioLabel;
      event.strategy = strategyName;
      event.schedulesExecuted = executed;
      event.scheduleLimit = limit;
      callback(event);
    };
  }

  const auto explorer = spec->create(options, cell.seed);
  const auto start = std::chrono::steady_clock::now();
  const explore::ExplorationResult result = explorer->explore(program);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;

  TestReport report;
  report.strategy = config_.strategy;
  report.scheduleLimit = options.scheduleLimit;
  report.maxEventsPerSchedule = options.maxEventsPerSchedule;
  report.seed = config_.seed;
  report.incremental = options.incremental;
  report.checkpointable = options.checkpointable;
  report.memoryModel = memoryModelName(options.memoryModel);

  report.schedulesExecuted = result.schedulesExecuted;
  report.terminalSchedules = result.terminalSchedules;
  report.prunedSchedules = result.prunedSchedules;
  report.violationSchedules = result.violationSchedules;
  report.totalEvents = result.totalEvents;
  report.eventsElided = result.eventsElided;
  report.eventsReplayed = result.eventsReplayed;
  report.distinctHbrs = result.distinctHbrs;
  report.distinctLazyHbrs = result.distinctLazyHbrs;
  report.distinctValueClasses = result.distinctValueClasses;
  report.distinctStates = result.distinctStates;
  report.hitScheduleLimit = result.hitScheduleLimit;
  report.complete = result.complete;

  for (const explore::ViolationRecord& violation : result.violations) {
    TestViolation v;
    v.kind = runtime::outcomeName(violation.kind);
    v.message = violation.message;
    v.schedule = violation.schedule;
    report.violations.push_back(std::move(v));
  }
  report.races = toRaces(result.races);

  report.cache.enabled = result.cacheStats.enabled;
  report.cache.lookups = result.cacheStats.lookups;
  report.cache.hits = result.cacheStats.hits;
  report.cache.insertions = result.cacheStats.insertions;
  report.cache.entries = result.cacheStats.entries;
  report.cache.approxBytes = result.cacheStats.approxBytes;

  report.theorem21 = toTheoremStats(result.theorem21);
  report.theorem22 = toTheoremStats(result.theorem22);
  report.theoremValue = toTheoremStats(result.theoremValue);
  report.wallSeconds = elapsed.count();
  return report;
}

TestReport Session::run(const std::string& scenarioName) const {
  const programs::ProgramSpec& spec = resolveScenario(scenarioName);
  Session configured = *this;
  configured.config_.run.checkpointable = spec.checkpointable;
  configured.config_.scenarioLabel = spec.name;
  TestReport report = configured.run(spec.body);
  report.scenario = spec.name;
  report.family = spec.family;
  return report;
}

TestReport Session::run(const char* scenarioName) const {
  return run(std::string(scenarioName));
}

std::string TestReport::toJson() const {
  support::JsonWriter json;
  json.beginObject();
  json.field("schema", kTestReportSchemaName);
  json.field("version", kTestReportSchemaVersion);
  json.field("scenario", scenario);
  json.field("family", family);
  json.field("strategy", strategy);

  json.key("config").beginObject();
  json.field("limit", scheduleLimit);
  json.field("max_events", static_cast<std::uint64_t>(maxEventsPerSchedule));
  json.field("seed", seed);
  json.field("incremental", incremental);
  json.field("checkpointable", checkpointable);
  json.field("memory_model", memoryModel);
  json.endObject();

  json.key("counts").beginObject();
  json.field("schedules", schedulesExecuted);
  json.field("terminal", terminalSchedules);
  json.field("pruned", prunedSchedules);
  json.field("violations", violationSchedules);
  json.field("events", totalEvents);
  json.field("events_elided", eventsElided);
  json.field("events_replayed", eventsReplayed);
  json.field("hbrs", distinctHbrs);
  json.field("lazy_hbrs", distinctLazyHbrs);
  json.field("value_classes", distinctValueClasses);
  json.field("states", distinctStates);
  json.field("complete", complete);
  json.field("hit_schedule_limit", hitScheduleLimit);
  json.endObject();

  json.key("violations").beginArray();
  for (const TestViolation& violation : violations) {
    json.beginObject();
    json.field("kind", violation.kind);
    json.field("message", violation.message);
    json.key("schedule").beginArray();
    for (const int pick : violation.schedule) json.value(pick);
    json.endArray();
    json.endObject();
  }
  json.endArray();

  json.key("races").beginArray();
  for (const TestRace& race : races) {
    json.beginObject();
    json.field("object", race.object);
    json.field("first_event", race.firstEvent);
    json.field("second_event", race.secondEvent);
    json.endObject();
  }
  json.endArray();

  if (cache.enabled) {
    json.key("cache").beginObject();
    json.field("lookups", cache.lookups);
    json.field("hits", cache.hits);
    json.field("insertions", cache.insertions);
    json.field("entries", cache.entries);
    json.field("approx_bytes", cache.approxBytes);
    json.endObject();
  }

  auto writeTheorem = [&json](const char* name, const TestTheoremStats& t) {
    json.key(name).beginObject();
    json.field("schedules", t.schedules);
    json.field("classes", t.classes);
    json.field("states", t.states);
    json.field("conflicts", t.conflicts);
    json.endObject();
  };
  writeTheorem("theorem_21", theorem21);
  writeTheorem("theorem_22", theorem22);
  writeTheorem("theorem_value", theoremValue);

  json.field("wall_seconds", wallSeconds);
  json.endObject();
  return json.str() + "\n";
}

std::string TestReport::summary() const {
  const std::string subject =
      scenario.empty() ? std::string("program") : "scenario '" + scenario + "'";
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s [%s]: %llu schedules (%llu pruned), %llu lazy-HBR "
                "class(es), %llu state(s), %zu violation(s)%s",
                subject.c_str(), strategy.c_str(),
                static_cast<unsigned long long>(schedulesExecuted),
                static_cast<unsigned long long>(prunedSchedules),
                static_cast<unsigned long long>(distinctLazyHbrs),
                static_cast<unsigned long long>(distinctStates),
                violations.size(),
                complete ? ", search space exhausted"
                         : hitScheduleLimit ? ", budget exhausted" : "");
  std::string line(buf);
  if (!violations.empty()) {
    line += " — first: [" + violations.front().kind + "] " +
            violations.front().message;
  }
  return line;
}

ScheduleTrace traceSchedule(const Program& program,
                            const std::vector<int>& schedule,
                            const TraceOptions& options) {
  RunOptions run;
  run.detectRaces = options.detectRaces;
  run.maxEventsPerSchedule = options.maxEventsPerSchedule;
  run.memoryModel = resolveMemoryModel(options.memoryModel);
  std::optional<trace::Relation> render;
  if (options.relation == "sync") {
    render = trace::Relation::Sync;
  } else if (options.relation == "full") {
    render = trace::Relation::Full;
  } else if (options.relation == "lazy") {
    render = trace::Relation::Lazy;
  } else {
    throw std::invalid_argument("lazyhb: unknown relation '" +
                                options.relation +
                                "' (expected sync, full or lazy)");
  }
  if (!options.renderTrace) render.reset();

  const explore::ReplayResult result =
      explore::replaySchedule(program, schedule, run, render);

  ScheduleTrace out;
  out.applied = result.outcome != runtime::Outcome::Abandoned;
  out.outcome = runtime::outcomeName(result.outcome);
  out.violated = runtime::isViolation(result.outcome);
  out.message = result.violationMessage;
  out.rendered = result.renderedTrace;
  out.events = result.eventCount;
  out.hbrFingerprint = result.hbrFingerprint.toHex();
  out.lazyFingerprint = result.lazyFingerprint.toHex();
  out.stateFingerprint = result.stateFingerprint.toHex();
  out.races = toRaces(result.races);
  return out;
}

ScheduleTrace traceSchedule(const std::string& scenarioName,
                            const std::vector<int>& schedule,
                            const TraceOptions& options) {
  return traceSchedule(resolveScenario(scenarioName).body, schedule, options);
}

}  // namespace lazyhb
