// lazyhb/campaign/campaign.hpp
//
// The corpus campaign layer: the paper's evaluation is a *campaign* — every
// benchmark run under every technique, with the interesting quantities (the
// §3 chain #states ≤ #lazyHBRs ≤ #HBRs ≤ #schedules, the Figure 2/3
// redundancy gaps) emerging only from the aggregate. This layer owns the
// (program × explorer) matrix: it fans the cells out across hardware
// threads (runTasks), times each cell, stores it in its matrix slot, and
// folds the cells into per-program and per-explorer summaries plus
// campaign totals.
//
// Determinism contract: each cell constructs its own single-use explorer
// from its ExplorerSpec, the engine under it is single-threaded, and
// results land in a slot indexed by the cell's matrix position — so every
// per-cell count is byte-identical whatever --jobs is. Only wall-clock
// fields vary across runs.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campaign/explorer_spec.hpp"
#include "explore/explorer.hpp"
#include "lazyhb/options.hpp"
#include "programs/registry.hpp"

namespace lazyhb::campaign {

/// One matrix cell: `program` explored once by `explorer`.
struct CellResult {
  int programId = 0;
  std::string program;
  std::string family;
  std::string explorer;
  explore::ExplorationResult stats;
  double wallSeconds = 0.0;
  /// Exploration throughput: logical events (elided ones included) per
  /// second — the v2-compatible headline rate; incremental replay raises it
  /// by eliding re-execution.
  double eventsPerSecond = 0.0;
  /// Hardware throughput: executed (non-elided) events per second — the
  /// per-event-cost view, immune to elision inflating the numerator.
  double executedEventsPerSecond = 0.0;
  std::string inequalityDiagnostic;      ///< empty when the §3 chain holds

  // Supervisor provenance (campaign-level resilience; see runCampaign).
  int attempts = 1;       ///< explorer runs consumed (> 1: the cell retried)
  bool timedOut = false;  ///< final attempt hit CampaignOptions::cellTimeoutSeconds
  std::string error;      ///< non-empty: every attempt threw; counts are zero
  /// Loaded from a campaign journal instead of being re-run (resume); the
  /// wall-clock fields are the original run's.
  bool fromCheckpoint = false;

  [[nodiscard]] bool inequalityHolds() const noexcept {
    return inequalityDiagnostic.empty();
  }
  [[nodiscard]] bool failed() const noexcept { return !error.empty(); }
};

/// One program's row across the campaign: the §3 check plus the reduction
/// ratios the figures are built from, each section present only when the
/// campaign ran the explorers it needs.
struct ProgramSummary {
  int id = 0;
  std::string program;
  std::string family;
  bool inequalityHolds = true;  ///< across every cell of this program

  // Figure 2 view (requires a "dpor" cell): unique HBRs the lazy relation
  // proves redundant.
  bool hasDpor = false;
  std::uint64_t dporHbrs = 0;
  std::uint64_t dporLazyHbrs = 0;
  double redundantHbrPercent = 0.0;  ///< (hbrs - lazyHbrs) / hbrs * 100
  bool belowDiagonal = false;        ///< lazyHbrs < hbrs

  // Figure 3 view (requires both caching cells): terminal lazy HBRs reached
  // within the budget by regular vs. lazy HBR caching.
  bool hasCachingPair = false;
  std::uint64_t lazyHbrsByFullCaching = 0;
  std::uint64_t lazyHbrsByLazyCaching = 0;
  bool cachingDiffers = false;  ///< lazy caching reached strictly more

  // Schedule-reduction ratios against the naive DFS baseline (requires a
  // complete "dfs" cell): how many times fewer schedules each reduction ran.
  bool hasDfsBaseline = false;
  std::uint64_t dfsSchedules = 0;
  double dporScheduleRatio = 0.0;         ///< dfs / dpor (0 when dpor absent)
  double cachingLazyScheduleRatio = 0.0;  ///< dfs / caching-lazy (0 when absent)
};

/// Aggregate over every cell of one explorer mode.
struct ExplorerTotals {
  std::string explorer;
  std::uint64_t cells = 0;
  /// The cells' 64-bit counts summed; the flags and the TSO buffer
  /// high-water mark keep their defaults.
  explore::ExplorationResult stats;
  double wallSeconds = 0.0;    ///< summed per-cell wall time (CPU view)
  double eventsPerSecond = 0.0;          ///< logical events / wallSeconds
  double executedEventsPerSecond = 0.0;  ///< (events - eventsElided) / wallSeconds
  int inequalityViolations = 0;
};

struct CampaignResult {
  /// Program-major, explorer-minor — cells[p * explorers + e]. The order is
  /// a function of the option lists alone, never of scheduling.
  std::vector<CellResult> cells;
  std::vector<ProgramSummary> programs;
  std::vector<ExplorerTotals> perExplorer;
  std::uint64_t totalSchedules = 0;
  std::uint64_t totalEvents = 0;
  std::uint64_t totalEventsElided = 0;    ///< summed over all cells
  std::uint64_t totalEventsReplayed = 0;  ///< summed over all cells
  double eventsPerSecond = 0.0;          ///< logical events / cpuSeconds
  double executedEventsPerSecond = 0.0;  ///< executed events / cpuSeconds
  int inequalityViolations = 0;  ///< cells whose §3 chain failed (expect 0)
  double wallSeconds = 0.0;      ///< end-to-end campaign wall time
  double cpuSeconds = 0.0;       ///< sum of per-cell wall times
  int jobs = 1;                  ///< worker threads actually used

  // Sharding: this run executed the cells with index % shardCount ==
  // shardIndex (0-based). An unsharded campaign is the 0/1 shard.
  int shardIndex = 0;
  int shardCount = 1;

  // Durability / supervisor tallies.
  std::size_t cellsFromCheckpoint = 0;  ///< satisfied from the journal
  int cellsTimedOut = 0;                ///< cells whose final attempt timed out
  int cellsFailed = 0;                  ///< cells whose every attempt threw
  int cellsRetried = 0;                 ///< cells that needed more than one attempt
};

/// One campaign: its matrix and per-cell options, plus the supervisor knobs
/// of lazyhb/options.hpp (jobs, shard slice, journal, cell timeout and
/// retries, progress).
struct CampaignOptions : SupervisorOptions {
  /// Explorer modes to run (empty: all five).
  std::vector<ExplorerSpec> explorers;
  /// Programs to run (empty: the whole registered corpus).
  std::vector<const programs::ProgramSpec*> programs;
  /// Per-cell exploration options (budget, event cap, ...).
  explore::ExplorerOptions explorer;
  /// Seed for the random explorer; identical in every cell so per-cell
  /// results do not depend on matrix position.
  std::uint64_t seed = kDefaultSeed;
};

/// Fold cells — already in program-major matrix order, but possibly a
/// *partial* matrix (a shard's slice, or a merge of some shards) — into the
/// per-program / per-explorer summaries and campaign totals. The one fold
/// shared by runCampaign and the report merger, so a merged report can
/// never aggregate differently from a directly-run one.
/// `explorerOrder` fixes the per-explorer total rows (an explorer with no
/// cells keeps an all-zero row, so shard reports stay column-compatible).
[[nodiscard]] CampaignResult foldCells(std::vector<CellResult> cells,
                                       const std::vector<std::string>& explorerOrder);

/// Run every task once on min(jobs, tasks.size()) new threads (jobs < 1
/// counts as 1) and return when all have finished. Each thread takes the next task from one shared index: the
/// whole batch is known up front, so this is greedy list scheduling, which
/// is all the balancing independent cells need. Tasks must not throw: an
/// escaping exception terminates the process.
void runTasks(std::vector<std::function<void()>> tasks, int jobs);

/// Run the full (programs × explorers) matrix. The campaign entry point for
/// the CLI's `bench` subcommand; `lazyhb figures` prints the paper's
/// figures from the report it writes.
[[nodiscard]] CampaignResult runCampaign(const CampaignOptions& options);

/// Verify one cell's soundness verdict: no conflict on Theorem 2.1, 2.2 or
/// value soundness (zero unless the checkers ran), then the §3 counting
/// chain that follows from them:
///   #states <= #valueClasses <= #lazyHBRs <= #HBRs <= #schedules <= limit.
/// A cell with no value classes recorded falls back to the original
/// #states <= #lazyHBRs link. Returns an empty string if all of it holds,
/// else a diagnostic naming `program` and the first broken claim.
[[nodiscard]] std::string checkCountingChain(const std::string& program,
                                             const explore::ExplorationResult& stats,
                                             std::uint64_t scheduleLimit);

/// The paper's Figure 2 and Figure 3 aggregates over a campaign's
/// per-program rows. Each half counts only the programs whose row carries
/// its section (hasDpor / hasCachingPair).
struct FigureTotals {
  // Figure 2: unique HBRs under DPOR that the lazy HBR proves redundant
  // (the paper: 33 of 79 below the diagonal, 910,007 = 80% redundant).
  int dporPrograms = 0;
  int belowDiagonal = 0;
  std::uint64_t hbrsBelow = 0;      ///< summed dporHbrs over below-diagonal rows
  std::uint64_t redundantHbrs = 0;  ///< hbrsBelow minus their summed dporLazyHbrs
  double redundantPercent = 0.0;    ///< redundantHbrs / hbrsBelow * 100

  // Figure 3: terminal lazy HBRs reached by regular vs. lazy HBR caching
  // (the paper: 18 of 79 differ, 8,969 = 84% more).
  int cachingPrograms = 0;
  int cachingDiffers = 0;               ///< lazy caching reached strictly more
  int regularWon = 0;                   ///< regular caching reached strictly more
  std::uint64_t extraLazyHbrs = 0;      ///< summed (lazy - regular) over differing rows
  std::uint64_t regularOnDiffering = 0;  ///< summed regular over the same rows
  double extraPercent = 0.0;            ///< extraLazyHbrs / regularOnDiffering * 100
};

[[nodiscard]] FigureTotals figureTotals(const std::vector<ProgramSummary>& programs);

}  // namespace lazyhb::campaign
