// lazyhb/options.hpp — the run knobs, each declared once with its default.
//
// RunOptions holds the per-run knobs. Session and Suite hold one, the CLI
// declares its flags with its defaults, replay reads one, and the engine's
// explore::ExplorerOptions extends it with the fields only the engine sets.
// SupervisorOptions holds the campaign supervisor knobs; Suite holds one and
// campaign::CampaignOptions extends it. docs/architecture.md ("Adding a run
// knob") lists the few places a new knob touches.

#pragma once

#include <cstdint>
#include <string>

#include "lazyhb/progress.hpp"

namespace lazyhb {

/// The memory models an execution can run under (docs/memory-models.md).
enum class MemoryModel : std::uint8_t {
  Sc,   ///< sequential consistency
  Tso,  ///< total store order: per-thread FIFO store buffers
};

/// Canonical name ("sc" / "tso").
[[nodiscard]] const char* memoryModelName(MemoryModel model) noexcept;

/// RunOptions::snapshotBudgetBytes' default: the LAZYHB_SNAPSHOT_BUDGET
/// environment variable when it is plain decimal bytes (0 = unlimited),
/// else 256 MiB. Read once per process.
[[nodiscard]] std::uint64_t defaultSnapshotBudgetBytes() noexcept;

/// The random strategy's seed when none is set. The explorer factory takes
/// the seed next to the options and a campaign gives every cell the same
/// one, so it is a constant rather than a RunOptions field.
inline constexpr std::uint64_t kDefaultSeed = 42;

/// The per-run knobs of one exploration.
struct RunOptions {
  /// Maximum number of schedules to execute (the paper's experiments use
  /// 100,000).
  std::uint64_t scheduleLimit = 10'000;
  /// Per-schedule event budget, guarding against unbounded loops.
  std::uint32_t maxEventsPerSchedule = 1u << 16;
  /// Stop the whole exploration at the first violation (testing-tool mode;
  /// the paper's counting experiments keep exploring).
  bool stopOnFirstViolation = false;
  /// Run the sync-HB data-race detector on every execution.
  bool detectRaces = false;
  /// Feed every terminal schedule through the Theorem 2.1/2.2 checkers.
  bool checkTheorems = false;
  /// Keep at most this many violation records.
  std::uint32_t maxViolationsKept = 16;
  /// Incremental prefix replay: tree searches checkpoint at revisitable
  /// scheduling points and roll back instead of re-running the prefix
  /// consecutive schedules share. Counts are identical either way.
  bool incremental = true;
  /// The program satisfies the checkpointable contract
  /// (ScenarioTraits::checkpointable), which enables full runtime rollback
  /// on fast-fiber builds; without it incremental mode still elides the
  /// recorder's share of replayed prefixes.
  bool checkpointable = false;
  /// Byte budget for staged incremental-replay snapshots, 0 = unlimited.
  /// Over budget, the staged checkpoint furthest from the search frontier
  /// is evicted, and a later rollback into the evicted region replays from
  /// the deepest surviving shallower stage. Counts are identical at any
  /// budget; only wall time and memory change.
  std::uint64_t snapshotBudgetBytes = defaultSnapshotBudgetBytes();
  /// Sc leaves every count, fingerprint and event label as it was before
  /// memory models existed; Tso adds per-thread store buffers whose flushes
  /// are scheduler-visible transitions.
  MemoryModel memoryModel = MemoryModel::Sc;
};

/// The campaign supervisor knobs: how a (scenario × strategy) matrix is
/// spread over threads and shards, journaled, timed and reported on. None
/// of them changes a count.
struct SupervisorOptions {
  /// Worker threads; <= 0 picks std::thread::hardware_concurrency().
  int jobs = 0;
  /// Per-cell wall-clock budget in seconds (0 = none). A cell over budget
  /// stops at the next schedule boundary and is marked timedOut; its counts
  /// are then wall-clock-dependent, so report consumers skip them.
  double cellTimeoutSeconds = 0.0;
  /// Extra attempts after a timeout or an exception. A cell that throws on
  /// every attempt is recorded with zero counts and its error message; the
  /// campaign goes on.
  int cellRetries = 0;
  /// Run only the cells with matrix index % shardCount == shardIndex
  /// (0-based round-robin over the program-major cell order). Shard
  /// reports merge back to the unsharded counts with `lazyhb merge`.
  int shardIndex = 0;
  int shardCount = 1;
  /// Non-empty: journal every finished cell into this directory and, when
  /// it already holds a matching journal, load its cells instead of
  /// re-running them; a config mismatch throws std::runtime_error
  /// (docs/campaign-service.md).
  std::string checkpointDir;
  /// Throw std::runtime_error when checkpointDir holds no journal to resume.
  bool requireExistingJournal = false;
  /// The campaign lifecycle events of lazyhb/progress.hpp, invoked from
  /// worker threads but never two at once.
  ProgressCallback onProgress;
};

}  // namespace lazyhb
