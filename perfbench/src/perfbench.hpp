// perfbench/src/perfbench.hpp
//
// Declarations shared by the benchmark driver's parts: the workload table,
// the count projections the correctness gate and the traced-run parity
// check compare, the committed reference, and the traced run.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "explore/explorer.hpp"

namespace perfbench {

/// One named workload: a (programs x explorers) campaign run by one
/// process at --jobs 1, each cell starting when the previous one ends.
struct Workload {
  std::string name;
  std::vector<std::string> explorers;
  std::vector<std::string> families;  ///< empty: the whole corpus
  lazyhb::memory::MemoryModel model = lazyhb::memory::MemoryModel::Sc;
  std::uint64_t scheduleLimit = 0;
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// nullptr for an unknown name.
[[nodiscard]] const Workload* findWorkload(const std::string& name);

/// Snapshot budget every cell runs with, passed explicitly so the
/// LAZYHB_SNAPSHOT_BUDGET environment variable cannot move results.
inline constexpr std::uint64_t kSnapshotBudgetBytes = std::uint64_t{256} << 20;

/// The campaign every run of `w` performs: --jobs 1, the pinned snapshot
/// budget, no cell timeout or retry. `seed` seeds every random walk.
[[nodiscard]] lazyhb::campaign::CampaignOptions campaignOptions(const Workload& w,
                                                                std::uint64_t seed);

/// Named counts of one cell, in a fixed order.
using Counts = std::vector<std::pair<std::string, std::uint64_t>>;

/// The count set tools/bench_diff.py gates: schedule/class counts, cache
/// counts and TSO flush/fence counts. Identical at any worker count.
[[nodiscard]] Counts gatedCounts(const lazyhb::explore::ExplorationResult& r);

/// gatedCounts plus the sequential engine's replay and checkpoint
/// counters, which are deterministic only for a sequential search.
[[nodiscard]] Counts parityCounts(const lazyhb::explore::ExplorationResult& r);

/// "" when equal, else the first differing field with both values.
[[nodiscard]] std::string diffCounts(const Counts& expected, const Counts& actual);

/// True for explorers whose cells depend on the seed (random walks).
[[nodiscard]] inline bool seeded(const std::string& explorer) {
  return explorer == "random";
}

/// The committed per-cell counts (reference.json), taken at one seed.
class Reference {
 public:
  /// Returns false and fills *error when the file is unreadable or malformed.
  [[nodiscard]] bool load(const std::string& path, std::string* error);

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  /// nullptr when the workload or cell is absent.
  [[nodiscard]] const Counts* find(const std::string& workload,
                                   const std::string& program,
                                   const std::string& explorer) const;
  [[nodiscard]] std::size_t cellCount(const std::string& workload) const;
  [[nodiscard]] std::uint64_t scheduleLimit(const std::string& workload) const;

 private:
  struct WorkloadCells {
    std::uint64_t scheduleLimit = 0;
    std::map<std::pair<std::string, std::string>, Counts> cells;
  };
  std::uint64_t seed_ = 0;
  std::map<std::string, WorkloadCells> workloads_;
};

/// Gate every cell of one campaign run. A cell fails when it threw, timed
/// out, broke the §3 chain, completed a search of a program with a reachable
/// known bug without reporting a violation, or its counts differ from the
/// reference. Random cells are count-checked only at the reference seed; at
/// other seeds they must run exactly the budget. Appends "<program> x
/// <explorer>: <reason>" per failed cell, and a message when the cell set
/// differs in size from the reference. Returns the number of failed cells.
std::size_t gateCampaign(const Workload& w, const lazyhb::campaign::CampaignResult& result,
                         const Reference& reference, std::uint64_t seed,
                         std::vector<std::string>* failures);

/// One metric as printed: name, value, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The traced run: replays the workload cell by cell, driving random, dfs
/// and caching-* cells through a replica of the explorer loop whose calls
/// into each layer are timed as spans, and timing every dpor cell as one
/// explore() span.
class TracedRun {
 public:
  TracedRun(const Workload& w, std::uint64_t seed);
  ~TracedRun();
  TracedRun(const TracedRun&) = delete;
  TracedRun& operator=(const TracedRun&) = delete;

  /// One traced pass over every cell. `untraced` is a campaign of the same
  /// workload and seed; each cell's counts must equal its untraced twin's
  /// (parityCounts for replicated cells, gatedCounts otherwise). Appends a
  /// message per mismatch. Returns the pass's wall seconds.
  double pass(const lazyhb::campaign::CampaignResult& untraced,
              std::vector<std::string>* failures);

  /// Cells one pass runs, and of those, the replicated ones.
  [[nodiscard]] std::size_t cellsPerPass() const noexcept;
  [[nodiscard]] std::size_t replicatedCellsPerPass() const noexcept;

  /// Per-layer metrics over every pass so far: counts per pass, times as
  /// means per call or per pass.
  [[nodiscard]] std::vector<Metric> metrics() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace perfbench
