#include "campaign/merge.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "support/diagnostics.hpp"
#include "support/json_reader.hpp"
#include "support/json_writer.hpp"

namespace lazyhb::campaign {
namespace {

struct ParsedReport {
  std::string label;
  ReportConfig config;
  std::vector<std::string> explorers;
  std::vector<CellResult> cells;
  std::vector<MergeSource> sources;  ///< flattened provenance contribution
  double wallSeconds = 0.0;
};

[[noreturn]] void raise(const std::string& label, const std::string& message) {
  throw ReportFormatError("lazyhb: " + label + ": " + message);
}

/// What a document that is not a report holds: a committed BENCH_PR*.json
/// wraps two older reports in "before" and "after".
std::string describeNonReport(const support::JsonValue& root) {
  const support::JsonValue* before = root.find("before");
  const support::JsonValue* after = root.find("after");
  if (before == nullptr || after == nullptr) {
    return "not a " + std::string(kReportSchemaName) + " document";
  }
  std::string versions = std::to_string(before->intAt("version", -1));
  if (after->intAt("version", -1) != before->intAt("version", -1)) {
    versions += "/v" + std::to_string(after->intAt("version", -1));
  }
  return "a before/after wrapper of schema v" + versions +
         " reports; merge and figures read schema v" +
         std::to_string(kReportSchemaVersion) + " reports (re-run `lazyhb bench`)";
}

ParsedReport parseReport(const std::string& document, const std::string& label) {
  ParsedReport report;
  report.label = label;

  std::string parseError;
  const auto root = support::JsonValue::parse(document, &parseError);
  if (root == nullptr) raise(label, "not valid JSON (" + parseError + ")");
  if (!root->isObject()) raise(label, "not a report object");
  if (root->stringAt("schema") != kReportSchemaName) {
    raise(label, describeNonReport(*root));
  }
  const auto version = root->intAt("version", -1);
  if (version != kReportSchemaVersion) {
    raise(label, "schema version " + std::to_string(version) +
                     " (mergeable reports are version " +
                     std::to_string(kReportSchemaVersion) + ")");
  }

  const support::JsonValue* config = root->find("config");
  if (config == nullptr || !config->isObject()) {
    raise(label, "missing config block");
  }
  forEachIdentityField(
      [&](const char* key, auto& member) {
        const support::JsonValue* value = config->find(key);
        if (value == nullptr) {
          raise(label, "config." + std::string(key) + " is missing");
        }
        value->readInto(member);
      },
      report.config);
  report.config.quick = config->boolAt("quick");
  if (const support::JsonValue* shard = config->find("shard")) {
    report.config.shardIndex = static_cast<int>(shard->intAt("index"));
    report.config.shardCount = static_cast<int>(shard->intAt("count", 1));
  }
  const support::JsonValue* explorers = config->find("explorers");
  if (explorers == nullptr || !explorers->isArray() ||
      explorers->items().empty()) {
    raise(label, "config.explorers is missing or empty");
  }
  for (const support::JsonValue& name : explorers->items()) {
    report.explorers.push_back(name.asString());
  }

  const support::JsonValue* cells = root->find("cells");
  if (cells == nullptr || !cells->isArray()) {
    raise(label, "missing cells array");
  }
  for (const support::JsonValue& value : cells->items()) {
    CellResult cell;
    std::string cellError;
    if (!parseCellJson(value, &cell, &cellError)) raise(label, cellError);
    report.cells.push_back(std::move(cell));
  }

  if (const support::JsonValue* totals = root->find("totals")) {
    report.wallSeconds = totals->doubleAt("wall_seconds");
  }

  // Provenance: a previously merged report contributes its own sources
  // (flattened — the provenance chain stays one level deep however many
  // merge rounds happened); a direct report contributes itself.
  const support::JsonValue* merge = root->find("merge");
  const support::JsonValue* sources =
      merge == nullptr ? nullptr : merge->find("sources");
  if (sources != nullptr && sources->isArray() && !sources->items().empty()) {
    for (const support::JsonValue& value : sources->items()) {
      MergeSource source;
      source.label = value.stringAt("label");
      source.shardIndex = static_cast<int>(value.intAt("shard_index"));
      source.shardCount = static_cast<int>(value.intAt("shard_count", 1));
      source.cells = value.uintAt("cells");
      report.sources.push_back(std::move(source));
    }
  } else {
    MergeSource source;
    source.label = label;
    source.shardIndex = report.config.shardIndex;
    source.shardCount = report.config.shardCount;
    source.cells = report.cells.size();
    report.sources.push_back(std::move(source));
  }
  return report;
}

/// The Contract and Configuration counts on which `a` and `b` differ, each
/// as "name=a vs b"; empty when they agree on all of them. Two clean runs
/// of one configuration must agree on every one.
std::string countConflicts(const CellResult& a, const CellResult& b) {
  std::string out;
  forEachCount(
      [&](const Count& count, const auto& x, const auto& y) {
        if (count.kind > CountClass::Configuration || x == y) return;
        if (!out.empty()) out += ", ";
        out += count.name() + "=" + std::to_string(x) + " vs " + std::to_string(y);
      },
      a.stats, b.stats);
  return out;
}

std::string serializeCell(const CellResult& cell) {
  support::JsonWriter json;
  writeCellJson(json, cell);
  return json.str();
}

/// Deterministic, argument-order-independent preference between duplicate
/// copies of one cell: healthy beats failed, finished beats timed-out,
/// deeper beats shallower; the serialized form breaks the final tie so
/// merging is commutative down to the byte.
bool preferred(const CellResult& a, const CellResult& b) {
  if (a.failed() != b.failed()) return !a.failed();
  if (a.timedOut != b.timedOut) return !a.timedOut;
  if (a.stats.schedulesExecuted != b.stats.schedulesExecuted) {
    return a.stats.schedulesExecuted > b.stats.schedulesExecuted;
  }
  return serializeCell(a) <= serializeCell(b);
}

void checkConfigCompatible(const ParsedReport& base, const ParsedReport& other) {
  const auto mismatch = [&](const std::string& field) {
    throw std::runtime_error(
        "lazyhb: cannot merge '" + other.label + "' with '" + base.label +
        "': config." + field +
        " differs — merged counts would mix incomparable campaigns");
  };
  forEachIdentityField(
      [&](const char* key, const auto& a, const auto& b) {
        if (a != b) mismatch(key);
      },
      other.config, base.config);
  if (other.config.quick != base.config.quick) mismatch("quick");
  if (other.explorers != base.explorers) mismatch("explorers");
}

/// A cell names its program twice, by id and by name. Every input must pair
/// them the same way, or the merged report would hold one program under
/// two ids (or two programs under one id) and count it twice.
void checkProgramIds(const std::vector<ParsedReport>& reports) {
  struct Pairing {
    int id = 0;
    std::string program;
    std::string label;
  };
  std::map<int, Pairing> byId;
  std::map<std::string, Pairing> byName;
  for (const ParsedReport& report : reports) {
    for (const CellResult& cell : report.cells) {
      const Pairing pairing{cell.programId, cell.program, report.label};
      const Pairing& sameId = byId.emplace(cell.programId, pairing).first->second;
      const Pairing& sameName = byName.emplace(cell.program, pairing).first->second;
      const Pairing& earlier = sameId.program != cell.program ? sameId : sameName;
      if (earlier.id == cell.programId && earlier.program == cell.program) continue;
      throw std::runtime_error(
          "lazyhb: cell (" + std::to_string(cell.programId) + ", " +
          cell.program + ") in '" + report.label + "' conflicts with (" +
          std::to_string(earlier.id) + ", " + earlier.program + ") in '" +
          earlier.label +
          "': a program id and its name must pair the same way in every "
          "input");
    }
  }
}

}  // namespace

MergeOutcome mergeReports(const std::vector<std::string>& documents,
                          const std::vector<std::string>& labels) {
  if (documents.empty()) {
    throw std::runtime_error("lazyhb: nothing to merge");
  }
  LAZYHB_CHECK(documents.size() == labels.size());

  std::vector<ParsedReport> reports;
  reports.reserve(documents.size());
  for (std::size_t i = 0; i < documents.size(); ++i) {
    reports.push_back(parseReport(documents[i], labels[i]));
  }
  for (std::size_t i = 1; i < reports.size(); ++i) {
    checkConfigCompatible(reports.front(), reports[i]);
  }
  checkProgramIds(reports);
  const std::vector<std::string>& explorerOrder = reports.front().explorers;
  const auto explorerPosition = [&](const CellResult& cell,
                                    const std::string& label) {
    for (std::size_t e = 0; e < explorerOrder.size(); ++e) {
      if (explorerOrder[e] == cell.explorer) return e;
    }
    raise(label, "cell '" + cell.program + "' names explorer '" +
                     cell.explorer + "' outside config.explorers");
  };

  // Union with dedup: one slot per (program, explorer) cell.
  std::map<std::pair<int, std::size_t>, CellResult> merged;
  for (const ParsedReport& report : reports) {
    for (const CellResult& cell : report.cells) {
      const auto key = std::make_pair(cell.programId,
                                      explorerPosition(cell, report.label));
      const auto it = merged.find(key);
      if (it == merged.end()) {
        merged.emplace(key, cell);
        continue;
      }
      CellResult& kept = it->second;
      const bool bothClean = !kept.failed() && !kept.timedOut &&
                             !cell.failed() && !cell.timedOut;
      const std::string conflicts = bothClean ? countConflicts(kept, cell) : "";
      if (!conflicts.empty()) {
        throw std::runtime_error(
            "lazyhb: conflicting counts for cell (" + cell.program + ", " +
            cell.explorer + ") while merging '" + report.label +
            "': " + conflicts +
            " — two clean runs of one configuration can never disagree, so "
            "the inputs do not come from the same campaign configuration");
      }
      if (preferred(cell, kept)) kept = cell;
    }
  }

  MergeOutcome outcome;
  outcome.config = reports.front().config;
  // The merged report is not a shard: its coverage is the union, described
  // by the merge provenance block rather than a shard slice.
  outcome.config.shardIndex = 0;
  outcome.config.shardCount = 1;

  std::vector<CellResult> cells;
  cells.reserve(merged.size());
  for (auto& entry : merged) {
    CellResult cell = std::move(entry.second);
    // Re-check the §3 chain from the merged cell's own counts — a merged
    // report must not inherit inequality verdicts it cannot verify.
    if (!cell.failed()) {
      cell.inequalityDiagnostic = checkCountingChain(
          cell.program, cell.stats, outcome.config.scheduleLimit);
    }
    cells.push_back(std::move(cell));
  }
  outcome.result = foldCells(std::move(cells), explorerOrder);

  // Cross-report aggregates with no per-cell decomposition: wall time is
  // the slowest input (shards run concurrently). jobs has no meaning for a
  // merged report and reads 0.
  outcome.result.jobs = 0;
  for (const ParsedReport& report : reports) {
    outcome.result.wallSeconds =
        std::max(outcome.result.wallSeconds, report.wallSeconds);
    for (const MergeSource& source : report.sources) {
      outcome.provenance.sources.push_back(source);
    }
  }
  std::sort(outcome.provenance.sources.begin(), outcome.provenance.sources.end(),
            [](const MergeSource& a, const MergeSource& b) {
              if (a.shardCount != b.shardCount) return a.shardCount < b.shardCount;
              if (a.shardIndex != b.shardIndex) return a.shardIndex < b.shardIndex;
              if (a.label != b.label) return a.label < b.label;
              return a.cells < b.cells;
            });
  return outcome;
}

}  // namespace lazyhb::campaign
