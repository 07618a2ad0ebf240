// The correctness gate: every campaign cell is checked against the committed
// reference (reference.json) and against invariants that hold at any seed.

#include <fstream>
#include <sstream>

#include "perfbench.hpp"
#include "programs/registry.hpp"
#include "support/json_reader.hpp"

namespace perfbench {

using lazyhb::support::JsonValue;

bool Reference::load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string parseError;
  const std::unique_ptr<JsonValue> doc = JsonValue::parse(text.str(), &parseError);
  if (doc == nullptr) {
    *error = path + ": " + parseError;
    return false;
  }
  const JsonValue* byWorkload = doc->find("workloads");
  if (doc->stringAt("schema") != "lazyhb-perfbench-reference" || !doc->has("seed") ||
      byWorkload == nullptr || !byWorkload->isObject()) {
    *error = path + ": not a lazyhb-perfbench-reference document";
    return false;
  }
  seed_ = doc->uintAt("seed");
  // Field names and order come from the projection itself, so a reference
  // missing a gated field is refused rather than half-checked.
  const Counts names = gatedCounts({});
  for (const Workload& w : workloads()) {
    const JsonValue* block = byWorkload->find(w.name);
    if (block == nullptr) continue;
    WorkloadCells& cells = workloads_[w.name];
    cells.scheduleLimit = block->uintAt("schedule_limit");
    const JsonValue* list = block->find("cells");
    if (list == nullptr || !list->isArray()) {
      *error = path + ": workload " + w.name + " has no cells array";
      return false;
    }
    for (const JsonValue& cell : list->items()) {
      const JsonValue* values = cell.find("counts");
      if (values == nullptr) {
        *error = path + ": a " + w.name + " cell has no counts";
        return false;
      }
      Counts counts;
      for (const auto& [name, unused] : names) {
        const JsonValue* v = values->find(name);
        if (v == nullptr || !v->isNumber()) {
          *error = path + ": a " + w.name + " cell lacks count " + name;
          return false;
        }
        counts.emplace_back(name, v->asUint());
      }
      cells.cells[{cell.stringAt("program"), cell.stringAt("explorer")}] =
          std::move(counts);
    }
  }
  return true;
}

const Counts* Reference::find(const std::string& workload, const std::string& program,
                              const std::string& explorer) const {
  const auto w = workloads_.find(workload);
  if (w == workloads_.end()) return nullptr;
  const auto cell = w->second.cells.find({program, explorer});
  return cell == w->second.cells.end() ? nullptr : &cell->second;
}

std::size_t Reference::cellCount(const std::string& workload) const {
  const auto w = workloads_.find(workload);
  return w == workloads_.end() ? 0 : w->second.cells.size();
}

std::uint64_t Reference::scheduleLimit(const std::string& workload) const {
  const auto w = workloads_.find(workload);
  return w == workloads_.end() ? 0 : w->second.scheduleLimit;
}

namespace {

/// "" when the cell passes, else why it failed.
std::string gateCell(const Workload& w, const lazyhb::campaign::CellResult& cell,
                     const Reference& reference, std::uint64_t seed) {
  const lazyhb::explore::ExplorationResult& stats = cell.stats;
  if (cell.failed()) return "threw: " + cell.error;
  if (cell.timedOut) return "timed out";
  if (!cell.inequalityHolds()) return "§3 chain broken: " + cell.inequalityDiagnostic;
  const lazyhb::programs::ProgramSpec* spec = lazyhb::programs::byName(cell.program);
  if (spec == nullptr) return "not in the registry";
  const bool bugReachable =
      spec->hasKnownBug &&
      (!spec->bugRequiresTso || w.model == lazyhb::memory::MemoryModel::Tso);
  if (bugReachable && stats.complete && stats.violationSchedules == 0) {
    return "complete search missed the known bug";
  }
  if (seeded(cell.explorer) && seed != reference.seed()) {
    if (stats.schedulesExecuted != w.scheduleLimit || !stats.hitScheduleLimit) {
      return "ran " + std::to_string(stats.schedulesExecuted) +
             " schedules against a budget of " + std::to_string(w.scheduleLimit);
    }
    return "";
  }
  const Counts* expected = reference.find(w.name, cell.program, cell.explorer);
  if (expected == nullptr) return "no reference counts";
  const std::string diff = diffCounts(*expected, gatedCounts(stats));
  return diff.empty() ? "" : "counts differ from the reference: " + diff;
}

}  // namespace

std::size_t gateCampaign(const Workload& w, const lazyhb::campaign::CampaignResult& result,
                         const Reference& reference, std::uint64_t seed,
                         std::vector<std::string>* failures) {
  if (reference.scheduleLimit(w.name) != w.scheduleLimit) {
    failures->push_back(w.name + ": the reference was taken at schedule limit " +
                        std::to_string(reference.scheduleLimit(w.name)) +
                        ", the workload runs " + std::to_string(w.scheduleLimit));
    return result.cells.size();
  }
  std::size_t failed = 0;
  for (const lazyhb::campaign::CellResult& cell : result.cells) {
    const std::string why = gateCell(w, cell, reference, seed);
    if (why.empty()) continue;
    ++failed;
    failures->push_back(cell.program + " x " + cell.explorer + ": " + why);
  }
  const std::size_t expected = reference.cellCount(w.name);
  if (result.cells.size() != expected) {
    failures->push_back(w.name + ": ran " + std::to_string(result.cells.size()) +
                        " cells, the reference has " + std::to_string(expected));
    failed += result.cells.size() > expected ? result.cells.size() - expected
                                             : expected - result.cells.size();
  }
  return failed;
}

}  // namespace perfbench
