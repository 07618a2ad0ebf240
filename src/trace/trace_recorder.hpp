// lazyhb/trace/trace_recorder.hpp
//
// Online computation of the happens-before relations of one execution:
//
//   Sync  — program order + spawn/join + mutex release->acquire + condvar
//           signal->wakeup. Used by the data-race detector.
//   Full  — the paper's HBR: Sync edges plus conflict edges between events
//           that access the same variable/mutex with at least one
//           modification (every mutex/condvar/semaphore op is treated as a
//           modification of its object).
//   Lazy  — the paper's lazy HBR: Full minus the inter-thread edges induced
//           by blocking lock/unlock (and condvar wait's hidden unlock/lock).
//           TryLock edges are retained: a trylock observes the mutex state,
//           so erasing them would break Theorem 2.2 (see DESIGN.md).
//   Value — not a relation but an observation equivalence, coarser than
//           Lazy (value-centric DPOR's framing): two prefixes are
//           value-equivalent when they executed the same operations and
//           every read/RMW observed the same *value* — regardless of which
//           writer produced it — and the shared state they reach is the
//           same (per-variable values plus each condvar's FIFO wait queue;
//           mutex owners, semaphore counts and per-thread progress are
//           already determined by the operation multiset). Lazy-equal
//           prefixes are always value-equal: the lazy relation keeps every
//           reads-from edge, orders same-variable write chains and condvar
//           chains totally, and trylock results sit in the event labels —
//           so #valueClasses <= #lazyHBRs, the next link of the §3 chain.
//
// For the Full and Lazy relations the recorder maintains an incremental
// canonical fingerprint of the executed *prefix*: each event's causal hash
// mixes its schedule-invariant label with the hashes of its direct
// predecessors under the relation, and the prefix fingerprint is an
// order-independent multiset combine of all event hashes. Two prefixes have
// equal fingerprints iff (modulo 128-bit collisions) they are linearizations
// of the same labelled partial order — this is what HBR caching and lazy
// HBR caching key on, and what the terminal-HBR counts of Figures 2 and 3
// de-duplicate by.
//
// The per-event kernels (support/hash.hpp and EventRecord::labelHash) spend
// one mix per 64-bit output lane — eleven per event with the accumulator
// adds below, since this loop runs once per committed event of every
// explored schedule:
//   label  — the label's fields packed into two words through injective
//            maps, then the pair hash, a bijection of those words: labels
//            collide only when their uids satisfy a 64-bit relation.
//   causal — support::CausalSum per relation: lane-wise sums of the
//            deduplicated predecessors' hashes plus their count, finished
//            with one mix per lane keyed by the label and a per-relation
//            salt. Equal predecessor sets with different labels never
//            collide (the finish is a bijection per lane); different sets
//            collide only if a sum of independent uniform hashes hits a
//            fixed value in both lanes, 2^-128 — deduplication keeps every
//            coefficient of that sum at 1.
//   value  — the label xor a salt, plus the observed value times an odd
//            constant, one mix per lane: for one label, distinct observed
//            values differ in both pre-mix words, so never collide.
//   state  — (uid, value) pairs through the pair hash, a bijection: two
//            distinct pairs never collide.
// Each kernel's contribution then enters its prefix accumulator
// (support::MultisetHash: one mix per add), whose digest is computed only
// when a fingerprint is read. tests/test_trace.cpp checks every fingerprint
// against an exact form over whole schedule spaces.
//
// Storage is structure-of-arrays, sized for the per-event loop that runs
// once per committed event of every explored schedule:
//   hot  — per-event causal hashes (one flat array per relation) and the
//          per-relation clock rows, which live in flat ClockArena matrices
//          (trace/clock_arena.hpp); a thread's running clock is simply its
//          last event's row, so no per-thread clock storage exists at all.
//          A relation's rows are built only when something reads them:
//          Sync for the race detector (detectRaces), Full for DPOR
//          (fullClocks), and all three for keepPredecessors (the Foata and
//          graph layers). The fingerprints need only the causal hashes
//          (Theorems 2.1/2.2), so the caching, dfs and random explorers
//          build no rows at all; eventClock/threadClock on a relation whose
//          rows are not built fail a check.
//   cold — EventRecords (consulted by DPOR's race analysis and the race
//          reports, not by the fingerprint loop) and per-event predecessor
//          lists, the latter populated only under keepPredecessors.
// Clock accessors deal in ClockView spans over the arena rows.
//
// The recorder is an ExecutionObserver and is reset on every
// onExecutionStart, so one instance can monitor millions of executions with
// no steady-state allocation: every array, arena, object history and scratch
// buffer keeps its capacity across executions.
//
// Incremental prefix replay: consecutive schedules of a tree search share a
// prefix, and everything the recorder computes for that prefix is identical
// across them. checkpoint(cp) saves the current depth into a caller-owned
// Checkpoint (the per-event arrays are append-only, the clock matrices
// truncate in place, and the prefix fingerprint accumulator is abelian — so
// a checkpoint is just the handful of non-monotonic cursors, plus a mark on
// the object histories' undo log, support/undo_log.hpp); rollbackTo(cp)
// rewinds the whole recorder to it. The caller (explore/prefix_replay.hpp)
// decides which depths are staged and keeps their checkpoints. Two
// consumers exist: resumable executions re-extend directly after a
// rollback, and re-executed schedules call armResume(cp), which rewinds now
// and makes the next onExecutionStart *skip* the replayed prefix events
// instead of recomputing them — the recorder's share of the replay cost
// disappears.

#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "runtime/execution.hpp"
#include "runtime/operation.hpp"
#include "support/hash.hpp"
#include "support/undo_log.hpp"
#include "trace/clock_arena.hpp"

namespace lazyhb::trace {

/// Which happens-before relation (or, for Value, which prefix equivalence)
/// to consult.
enum class Relation : std::uint8_t { Sync, Full, Lazy, Value };

[[nodiscard]] const char* relationName(Relation r) noexcept;

/// A detected data race: two sync-concurrent accesses to one variable with
/// at least one write.
struct RaceReport {
  runtime::Uid objectUid = 0;
  std::string objectName;
  std::int32_t firstEvent = -1;
  std::int32_t secondEvent = -1;
};

class TraceRecorder final : public runtime::ExecutionObserver {
 public:
  struct Options {
    /// Record per-event direct-predecessor lists (needed by the Foata
    /// canonicaliser, the HB graph export and the tests; not needed by the
    /// experiment explorers, which only use fingerprints). Also builds the
    /// clock rows of all three relations.
    bool keepPredecessors = false;
    /// Run the sync-HB data-race detector (builds Sync clock rows).
    bool detectRaces = false;
    /// Build Full clock rows for a caller that reads eventClock/threadClock
    /// under Relation::Full — DPOR's race analysis.
    bool fullClocks = false;
  };

  TraceRecorder();  // default options
  explicit TraceRecorder(Options options);

  // --- ExecutionObserver ----------------------------------------------------
  void onExecutionStart(const runtime::Execution& exec) override;
  void onObjectRegistered(const runtime::Execution& exec, std::int32_t index,
                          runtime::Uid uid, runtime::ObjectKind kind,
                          const std::string& name,
                          std::uint64_t initialValueHash) override;
  void onEvent(const runtime::Execution& exec,
               const runtime::EventRecord& event) override;
  void onExecutionEnd(const runtime::Execution& exec,
                      runtime::Outcome outcome) override;

  // --- prefix fingerprints (valid after every event) -------------------------
  [[nodiscard]] support::Hash128 fingerprint(Relation r) const;
  [[nodiscard]] std::size_t eventCount() const noexcept { return eventCount_; }

  // --- incremental prefix replay ---------------------------------------------

  /// One rollback point: the non-truncatable state at a depth, owned by the
  /// caller. Object histories are not copied — `histories` marks where
  /// their undo log stood at staging time.
  class Checkpoint {
   public:
    /// Approximate resident bytes (cursors only, so small next to the
    /// fiber images of Execution::Snapshot::approxBytes).
    [[nodiscard]] std::size_t approxBytes() const noexcept {
      return sizeof(Checkpoint) + threadLastEvent.capacity() * sizeof(std::int32_t);
    }

   private:
    friend class TraceRecorder;
    std::size_t eventCount = 0;
    support::MultisetHash prefixFull;
    support::MultisetHash prefixLazy;
    support::MultisetHash prefixValue;
    support::MultisetHash valueState;
    support::UndoMark histories;
    std::vector<std::int32_t> threadLastEvent;  ///< one per thread
    std::size_t objectCount = 0;
    std::size_t raceCount = 0;
  };

  /// Save the current depth (eventCount()) into `out`, overwriting whatever
  /// it held. The first checkpoint after a reset switches the undo log on.
  void checkpoint(Checkpoint& out);

  /// Rewind to `cp`. All per-event data in [0, depth) stays valid;
  /// everything past it is truncated and the cursors/fingerprints restored.
  /// Checkpoints taken deeper than `cp` are unusable afterwards (the caller
  /// drops them); their undo entries are kept, so rolling back *past* a
  /// dropped one to a shallower checkpoint still replays them.
  void rollbackTo(const Checkpoint& cp);

  /// Rewind to `cp` (depth > 0) and make the next onExecutionStart skip the
  /// first `depth` replayed events (and their object re-registrations)
  /// instead of resetting — for re-executed schedules whose prefix is a
  /// replay of the previous one.
  void armResume(const Checkpoint& cp);

  /// Live undo-log entries: one per object touched per checkpoint epoch.
  /// Introspection for tests pinning the O(touched) staging contract (two
  /// writes to one object between stages must coalesce into one entry).
  [[nodiscard]] std::size_t undoLogSize() const noexcept { return undo_.size(); }

  /// Events skipped as already-recorded replays since construction.
  [[nodiscard]] std::uint64_t replaysSkipped() const noexcept { return replaysSkipped_; }

  // --- per-event data (valid until the next onExecutionStart) ----------------
  [[nodiscard]] const runtime::EventRecord& eventRecord(std::int32_t index) const;
  /// Requires the relation's rows to be built (see Options).
  [[nodiscard]] ClockView eventClock(Relation r, std::int32_t index) const;
  [[nodiscard]] support::Hash128 eventHash(Relation r, std::int32_t index) const;
  [[nodiscard]] const std::vector<std::int32_t>& eventPredecessors(
      Relation r, std::int32_t index) const;

  /// Clock of thread `tid`'s most recent event (zero clock if none).
  /// Requires the relation's rows to be built (see Options).
  [[nodiscard]] ClockView threadClock(Relation r, int tid) const;

  /// Event indices of already-executed events that conflict (under the Full
  /// relation) with the given pending operation — the candidate backtracking
  /// points DPOR examines, most recent last.
  void collectConflicts(const runtime::Execution& exec, int tid,
                        std::vector<std::int32_t>& out) const;

  /// All events so far on an object's conflict chain (mutex / condvar /
  /// semaphore / thread objects), in schedule order. DPOR walks these from
  /// the back: the most recent chain event may fail the co-enabledness
  /// filter (e.g. an unlock against a pending lock) while an earlier one
  /// (the matching lock) is the real backtracking candidate.
  [[nodiscard]] const std::vector<std::int32_t>& chainEvents(std::int32_t objectIndex) const;

  // --- races ------------------------------------------------------------------
  [[nodiscard]] const std::vector<RaceReport>& races() const noexcept { return races_; }

  /// Human-readable object name for a UID seen in the current execution.
  [[nodiscard]] std::string objectName(runtime::Uid uid) const;

 private:
  /// Per-event predecessor lists, populated only under keepPredecessors.
  /// Pooled: the outer vector never shrinks, so inner capacity is reused.
  struct EventPreds {
    std::vector<std::int32_t> full;
    std::vector<std::int32_t> lazy;
    std::vector<std::int32_t> sync;
  };

  /// The part of an object's history that events overwrite: everything but
  /// its identity and its append-only chain (see HistoryUndo).
  struct HistoryState {
    // Variables:
    std::int32_t lastWrite = -1;
    std::vector<std::int32_t> readersSinceWrite;
    // Chained objects (mutex Full chain, condvar, semaphore, thread):
    std::int32_t lastChainOp = -1;
    // Mutex Lazy-relation trylock bookkeeping:
    std::int32_t lastTryLock = -1;
    std::vector<std::int32_t> mutexOpsSinceTryLock;
    // Sync relation: last release (unlock/wait) event on this mutex.
    std::int32_t lastReleaseEvent = -1;
    // Race detection:
    std::int32_t lastWriteEvent = -1;
    std::vector<std::pair<int, std::int32_t>> lastReadPerThread;  // (tid, event)
    /// Value equivalence: mirror of the variable's current value hash
    /// (Execution commits the post-value before recording the event, so the
    /// recorder keeps the pre-value itself — a read/RMW observes this).
    std::uint64_t valueHash = 0;
    /// Value equivalence: mirror of the condvar's FIFO wait queue, as
    /// thread UIDs in arrival order. Signal wakes the front deterministically,
    /// so arrival *order* is observable state an abelian multiset of labels
    /// cannot encode; the value fingerprint folds it order-sensitively.
    std::vector<runtime::Uid> cvQueue;

    /// Every field, once (support/undo_log.hpp's swapFields and
    /// clearFields).
    auto tie() noexcept {
      return std::tie(lastWrite, readersSinceWrite, lastChainOp, lastTryLock,
                      mutexOpsSinceTryLock, lastReleaseEvent, lastWriteEvent,
                      lastReadPerThread, valueHash, cvQueue);
    }
    /// Rollback's restore.
    friend void swap(HistoryState& x, HistoryState& y) noexcept { support::swapFields(x, y); }
  };

  struct ObjectHistory : HistoryState {
    runtime::Uid uid = 0;
    runtime::ObjectKind kind = runtime::ObjectKind::Var;
    /// Chained objects: every chain event, schedule order.
    std::vector<std::int32_t> chain;
    /// Undo-log epoch stamp (support/undo_log.hpp).
    std::uint64_t epoch = 0;

    /// Clears per-execution state; every vector keeps its capacity, so a
    /// steady-state execution allocates nothing here.
    void reset(runtime::Uid u, runtime::ObjectKind k) {
      support::clearFields<HistoryState>(*this);
      uid = u;
      kind = k;
      chain.clear();
    }
  };

  /// A history's undo pre-image: its state, and its chain's length — the
  /// chain only grows, so the length restores it without copying it.
  struct HistoryUndo {
    HistoryState state;
    std::size_t chainSize = 0;

    HistoryUndo& operator=(const ObjectHistory& h) {
      state = h;
      chainSize = h.chain.size();
      return *this;
    }
  };

  void resetAll();

  /// The condvar's contribution to valueState_: an order-sensitive fold of
  /// its FIFO wait queue over the condvar's uid. Computed before and after
  /// every queue change so the accumulator can remove/add the pair.
  [[nodiscard]] static support::Hash128 cvQueueContribution(const ObjectHistory& h) noexcept;

  ObjectHistory& history(std::int32_t objectIndex);
  /// history() for an update: undo-logs the history's pre-image first, on
  /// its first update since the last checkpoint.
  ObjectHistory& touched(std::int32_t objectIndex) {
    ObjectHistory& h = history(objectIndex);
    undo_.log(objectIndex, h.epoch, h);
    return h;
  }
  /// The relation's clock arena; checks that its rows are built.
  [[nodiscard]] const ClockArena& arena(Relation r) const;
  void checkRace(const runtime::Execution& exec,
                 const runtime::EventRecord& event, std::int32_t index);

  Options options_;
  // Which relations' clock rows onEvent builds (derived from options_).
  bool syncRows_;
  bool fullRows_;
  bool lazyRows_;
  std::size_t eventCount_ = 0;

  // Hot per-event arrays (indexed by event).
  std::vector<support::Hash128> fullHash_;
  std::vector<support::Hash128> lazyHash_;
  ClockArena syncClocks_;
  ClockArena fullClocks_;
  ClockArena lazyClocks_;

  // Cold per-event arrays.
  std::vector<runtime::EventRecord> records_;
  std::vector<EventPreds> preds_;  // eventCount_ entries live iff keepPredecessors

  // Per-thread state: index of the thread's latest event (its running clock
  // is that event's arena row).
  std::vector<std::int32_t> threadLastEvent_;
  std::size_t threadCount_ = 0;

  std::vector<ObjectHistory> objects_;
  std::size_t objectCount_ = 0;
  support::MultisetHash prefixFull_;
  support::MultisetHash prefixLazy_;
  /// Value equivalence, two abelian accumulators: prefixValue_ holds one
  /// contribution per event — its label, mixed with the observed pre-value
  /// for reads/RMWs and nothing causal (that omission is the coarsening) —
  /// and valueState_ holds the currently-visible shared state: one
  /// (uid, value) contribution per variable and one order-sensitive queue
  /// fold per condvar. fingerprint(Relation::Value) combines both digests.
  support::MultisetHash prefixValue_;
  support::MultisetHash valueState_;
  std::vector<RaceReport> races_;
  std::unordered_map<runtime::Uid, std::string> names_;

  // Scratch buffers reused across events (no hot-path allocation).
  std::vector<std::int32_t> scratchFull_;
  std::vector<std::int32_t> scratchLazy_;
  std::vector<std::int32_t> scratchSync_;

  // Incremental prefix replay: the histories' undo log makes checkpoint()
  // cost O(objects touched since the last stage), not O(all objects).
  support::UndoLog<HistoryUndo> undo_;

  std::size_t pendingSkip_ = 0;  // armResume depth for the next execution start
  std::size_t skipEvents_ = 0;  // replayed prefix events left to skip
  std::uint64_t replaysSkipped_ = 0;
};

}  // namespace lazyhb::trace
