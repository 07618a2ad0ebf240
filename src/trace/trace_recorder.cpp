#include "trace/trace_recorder.hpp"

#include <algorithm>
#include <cstring>

#include "support/diagnostics.hpp"

namespace lazyhb::trace {

using runtime::EventRecord;
using runtime::ObjectKind;
using runtime::OpKind;

const char* relationName(Relation r) noexcept {
  switch (r) {
    case Relation::Sync: return "sync";
    case Relation::Full: return "full";
    case Relation::Lazy: return "lazy";
    case Relation::Value: return "value";
  }
  return "?";
}

namespace {

/// Salt separating the value-equivalence hash domain from the Full/Lazy ones.
constexpr std::uint64_t kValueDomain = 0x3c4dULL;

/// Per-relation salts of the causal hashes (support::CausalSum::finish).
constexpr support::Hash128 kFullSalt{0x6a09e667f3bcc908ULL, 0xbb67ae8584caa73bULL};
constexpr support::Hash128 kLazySalt{0x3c6ef372fe94f82bULL, 0xa54ff53a5f1d36f1ULL};
constexpr support::Hash128 kValueSalt{0x510e527fade682d1ULL, 0x9b05688c2b3e6c1fULL};

/// One event's value-equivalence contribution: its label folded with the
/// value it observed (0 for events that observe none — the label's kind
/// already tells those apart from reads), one mix per lane. For one label,
/// observed ↦ observed·k is a bijection (k odd), so distinct observations
/// differ in both lanes' pre-mix words and never collide; distinct labels
/// collide only if both lanes' sums meet, probability 2^-128.
[[nodiscard]] support::Hash128 valueContribution(support::Hash128 label,
                                                 std::uint64_t observed) noexcept {
  return support::Hash128{
      support::mix64((label.lo ^ kValueSalt.lo) + observed * 0xff51afd7ed558ccdULL),
      support::mix64((label.hi ^ kValueSalt.hi) + observed * 0xc4ceb9fe1a85ec53ULL)};
}

}  // namespace

TraceRecorder::TraceRecorder() : TraceRecorder(Options{}) {}

TraceRecorder::TraceRecorder(Options options)
    : options_(options),
      syncRows_(options.detectRaces || options.keepPredecessors),
      fullRows_(options.fullClocks || options.keepPredecessors),
      lazyRows_(options.keepPredecessors) {
  scratchFull_.reserve(16);
  scratchLazy_.reserve(16);
  scratchSync_.reserve(16);
}

void TraceRecorder::onExecutionStart(const runtime::Execution&) {
  if (pendingSkip_ > 0) {
    // Re-executed schedule with a shared prefix: armResume already rewound
    // to the staged point; treat its events as replays to skip.
    skipEvents_ = pendingSkip_;
    pendingSkip_ = 0;
    return;
  }
  resetAll();
}

void TraceRecorder::resetAll() {
  eventCount_ = 0;
  objectCount_ = 0;
  threadCount_ = 0;
  skipEvents_ = 0;
  fullHash_.clear();
  lazyHash_.clear();
  records_.clear();
  syncClocks_.reset();
  fullClocks_.reset();
  lazyClocks_.reset();
  prefixFull_ = support::MultisetHash{};
  prefixLazy_ = support::MultisetHash{};
  prefixValue_ = support::MultisetHash{};
  valueState_ = support::MultisetHash{};
  races_.clear();
  undo_.reset();  // no stages left to roll back to
}

support::Hash128 TraceRecorder::cvQueueContribution(const ObjectHistory& h) noexcept {
  support::Hash128 fold = support::hash128(h.uid ^ 0xc01dfeedULL, kValueDomain);
  for (const runtime::Uid waiter : h.cvQueue) {
    fold = fold.mixedWith(support::hash128(waiter));
  }
  return fold;
}

void TraceRecorder::onObjectRegistered(const runtime::Execution&, std::int32_t index,
                                       runtime::Uid uid, runtime::ObjectKind kind,
                                       const std::string& name,
                                       std::uint64_t initialValueHash) {
  if (skipEvents_ > 0) {
    // Replayed registration of a prefix object: its rolled-back history is
    // already correct, so resetting it would erase prefix state.
    LAZYHB_ASSERT(static_cast<std::size_t>(index) < objects_.size() &&
                  objects_[static_cast<std::size_t>(index)].uid == uid);
    (void)index;
    (void)uid;
    return;
  }
  ObjectHistory& h = history(index);
  h.reset(uid, kind);
  // Seed the object's share of the value-state accumulator. Variables
  // contribute their (uid, value) pair from registration on; condvars
  // contribute their (empty) wait-queue fold. Mutexes, semaphores and
  // threads need no contribution: their state is a function of the
  // operation multiset prefixValue_ already carries. A rollback restores
  // valueState_ wholesale from the checkpoint copy, which un-registers
  // objects born past the stage.
  if (kind == ObjectKind::Var) {
    h.valueHash = initialValueHash;
    valueState_.add(support::hash128(uid, h.valueHash));
  } else if (kind == ObjectKind::CondVar) {
    valueState_.add(cvQueueContribution(h));
  }
  if (!name.empty()) {
    names_.try_emplace(uid, name);  // keeps the first name seen; stable across runs
  }
}

void TraceRecorder::checkpoint(Checkpoint& cp) {
  cp.eventCount = eventCount_;
  cp.prefixFull = prefixFull_;
  cp.prefixLazy = prefixLazy_;
  cp.prefixValue = prefixValue_;
  cp.valueState = valueState_;
  cp.threadLastEvent.assign(threadLastEvent_.begin(),
                            threadLastEvent_.begin() +
                                static_cast<std::ptrdiff_t>(threadCount_));
  cp.objectCount = objectCount_;
  // Histories are not copied: the undo log's entries above the mark are
  // this stage's pre-image, and the fresh epoch the mark opens makes the
  // next update of any history log it again (relative to *this* stage).
  cp.histories = undo_.mark();
  cp.raceCount = races_.size();
}

void TraceRecorder::rollbackTo(const Checkpoint& cp) {
  // Replay the undo log back to this stage's mark; like Execution's, it
  // rejects a checkpoint from before the last reset, or one the caller
  // should have dropped. Entries can reference histories past
  // cp.objectCount (objects that existed under a deeper stage); applying
  // them is harmless — those histories are dead until a re-registration
  // resets them.
  undo_.rollbackTo(cp.histories, [this](std::int32_t index, HistoryUndo& u) {
    ObjectHistory& h = objects_[static_cast<std::size_t>(index)];
    swap(static_cast<HistoryState&>(h), u.state);
    LAZYHB_ASSERT(h.chain.size() >= u.chainSize);
    h.chain.resize(u.chainSize);
  });
  LAZYHB_CHECK(cp.eventCount <= eventCount_);
  const std::size_t depth = cp.eventCount;
  eventCount_ = depth;
  fullHash_.resize(depth);
  lazyHash_.resize(depth);
  records_.resize(depth);
  // Unbuilt arenas hold no rows to truncate.
  if (syncRows_) syncClocks_.truncate(depth);
  if (fullRows_) fullClocks_.truncate(depth);
  if (lazyRows_) lazyClocks_.truncate(depth);
  prefixFull_ = cp.prefixFull;
  prefixLazy_ = cp.prefixLazy;
  prefixValue_ = cp.prefixValue;
  valueState_ = cp.valueState;
  threadCount_ = cp.threadLastEvent.size();
  for (std::size_t i = 0; i < threadCount_; ++i) {
    threadLastEvent_[i] = cp.threadLastEvent[i];
  }
  objectCount_ = cp.objectCount;
  races_.resize(cp.raceCount);
}

void TraceRecorder::armResume(const Checkpoint& cp) {
  LAZYHB_CHECK(cp.eventCount > 0);
  rollbackTo(cp);
  pendingSkip_ = cp.eventCount;
}

TraceRecorder::ObjectHistory& TraceRecorder::history(std::int32_t objectIndex) {
  const auto i = static_cast<std::size_t>(objectIndex);
  if (i >= objects_.size()) {
    objects_.resize(i + 1);
  }
  objectCount_ = std::max(objectCount_, i + 1);
  return objects_[i];
}

const ClockArena& TraceRecorder::arena(Relation r) const {
  switch (r) {
    case Relation::Sync:
      LAZYHB_CHECK(syncRows_);
      return syncClocks_;
    case Relation::Full:
      LAZYHB_CHECK(fullRows_);
      return fullClocks_;
    case Relation::Lazy:
      LAZYHB_CHECK(lazyRows_);
      return lazyClocks_;
    case Relation::Value: break;  // an equivalence, not a clock-bearing relation
  }
  LAZYHB_UNREACHABLE("bad relation");
}

namespace {

/// Branchless compare-exchange: leaves min(x, y) in x and max in y.
inline void cmpSwap(std::int32_t& x, std::int32_t& y) noexcept {
  const std::int32_t lo = x < y ? x : y;
  const std::int32_t hi = x < y ? y : x;
  x = lo;
  y = hi;
}

/// Sort + dedup of a predecessor scratch list. An event has at most a
/// handful of direct predecessors, so the common path is a branch-free
/// 8-element Batcher sorting network followed by a branch-free adjacent
/// compaction — no data-dependent branches for the branch predictor to
/// mistrain on, unlike the introsort the long tail falls back to.
void sortUnique(std::vector<std::int32_t>& v) {
  const std::size_t n = v.size();
  if (n <= 1) return;
  if (n > 8) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return;
  }
  std::int32_t a[8];
  for (std::size_t i = 0; i < n; ++i) a[i] = v[i];
  for (std::size_t i = n; i < 8; ++i) a[i] = INT32_MAX;  // pad sorts last
  // Batcher odd-even mergesort network for 8 elements (19 comparators).
  cmpSwap(a[0], a[1]); cmpSwap(a[2], a[3]); cmpSwap(a[4], a[5]); cmpSwap(a[6], a[7]);
  cmpSwap(a[0], a[2]); cmpSwap(a[1], a[3]); cmpSwap(a[4], a[6]); cmpSwap(a[5], a[7]);
  cmpSwap(a[1], a[2]); cmpSwap(a[5], a[6]);
  cmpSwap(a[0], a[4]); cmpSwap(a[1], a[5]); cmpSwap(a[2], a[6]); cmpSwap(a[3], a[7]);
  cmpSwap(a[2], a[4]); cmpSwap(a[3], a[5]);
  cmpSwap(a[1], a[2]); cmpSwap(a[3], a[4]); cmpSwap(a[5], a[6]);
  // Branch-free unique: the write index only advances on a new value.
  v[0] = a[0];
  std::size_t out = 1;
  for (std::size_t i = 1; i < n; ++i) {
    v[out] = a[i];
    out += static_cast<std::size_t>(a[i] != a[i - 1]);
  }
  v.resize(out);
}

/// Build one event's clock row: the thread's running clock (its previous
/// event's row, or zeros for a thread's first event), joined with the
/// direct predecessors' rows, with the thread's own component ticked. All
/// span loops are branch-free over the arena's fixed stride.
void buildClockRow(ClockArena& arena, std::int32_t copyFrom,
                   const std::vector<std::int32_t>& preds, int tid,
                   std::uint32_t tick) {
  std::uint32_t* row = arena.appendRow();
  const std::uint32_t stride = arena.stride();
  if (copyFrom >= 0) {
    std::memcpy(row, arena.row(static_cast<std::size_t>(copyFrom)),
                stride * sizeof(std::uint32_t));
  } else {
    std::memset(row, 0, stride * sizeof(std::uint32_t));
  }
  for (const std::int32_t p : preds) {
    joinClockSpans(row, arena.row(static_cast<std::size_t>(p)), stride);
  }
  row[tid] = tick;
}

}  // namespace

void TraceRecorder::onEvent(const runtime::Execution& exec, const EventRecord& ev) {
  if (skipEvents_ > 0) [[unlikely]] {
    // Replay of an event the rollback retained: every per-event structure
    // for it is already in place, byte-identical to what re-recording would
    // produce (the replayed prefix is the same schedule of the same
    // deterministic program).
    LAZYHB_ASSERT(records_[eventCount_ - skipEvents_].threadIndex == ev.threadIndex &&
                  records_[eventCount_ - skipEvents_].kind == ev.kind);
    --skipEvents_;
    ++replaysSkipped_;
    return;
  }
  const int t = ev.threadIndex;
  const auto tIdx = static_cast<std::size_t>(t);
  if (tIdx >= threadCount_) {
    if (threadLastEvent_.size() <= tIdx) {
      threadLastEvent_.resize(tIdx + 1, -1);
    }
    for (std::size_t i = threadCount_; i <= tIdx; ++i) threadLastEvent_[i] = -1;
    threadCount_ = tIdx + 1;
  }
  if (static_cast<std::uint32_t>(t) >= syncClocks_.stride()) {
    // Thread capacity exceeded: widen all three matrices together (they
    // always share a stride). Rounded up so repeated spawns re-stride once.
    const std::uint32_t stride = (static_cast<std::uint32_t>(t) + 8u) & ~7u;
    syncClocks_.widen(stride);
    fullClocks_.widen(stride);
    lazyClocks_.widen(stride);
  }

  const auto index = static_cast<std::int32_t>(eventCount_);
  records_.push_back(ev);

  scratchFull_.clear();
  scratchLazy_.clear();
  scratchSync_.clear();
  // Pred-set coincidence tracking: when every predecessor was pushed to all
  // three relations (the common predAll-only case), or at least to both the
  // Full and Lazy ones, the per-relation scratch lists are identical, so
  // only scratchFull_ needs sorting and the others alias it.
  bool lazySameAsFull = true;  // scratchLazy_ would equal scratchFull_
  bool syncSameAsFull = true;  // scratchSync_ would equal scratchFull_
  auto predAll = [&](std::int32_t p) {
    if (p >= 0) {
      scratchFull_.push_back(p);
      scratchLazy_.push_back(p);
      scratchSync_.push_back(p);
    }
  };
  auto predConflict = [&](std::int32_t p) {  // Full+Lazy (variable-style)
    if (p >= 0) {
      scratchFull_.push_back(p);
      scratchLazy_.push_back(p);
      syncSameAsFull = false;
    }
  };
  auto predFullOnly = [&](std::int32_t p) {
    if (p >= 0) {
      scratchFull_.push_back(p);
      lazySameAsFull = false;
      syncSameAsFull = false;
    }
  };
  auto predLazyOnly = [&](std::int32_t p) {
    if (p >= 0) {
      scratchLazy_.push_back(p);
      lazySameAsFull = false;
    }
  };
  auto predSyncOnly = [&](std::int32_t p) {
    if (p >= 0) {
      scratchSync_.push_back(p);
      syncSameAsFull = false;
    }
  };

  // Program order: the previous event of this thread. The clocks encode it
  // implicitly (the running clock is copied below); the hash needs the index.
  const std::int32_t prevEvent = threadLastEvent_[tIdx];
  if (ev.indexInThread > 0) {
    predAll(prevEvent);
  }

  // Special predecessors participate in every relation.
  predAll(ev.spawnPredecessor);
  predAll(ev.signalPredecessor);
  predAll(ev.joinPredecessor);

  // Object-conflict edges per kind.
  switch (ev.kind) {
    case OpKind::Read: {
      ObjectHistory& h = history(ev.objectIndex);
      predConflict(h.lastWrite);
      break;
    }
    case OpKind::Write:
    case OpKind::Rmw:
    case OpKind::Flush: {
      if (ev.kind == OpKind::Write && ev.aux == 1) {
        // TSO-buffered store: not yet a memory write, so program order is
        // its only ordering. The memory side of the store — and its
        // conflict edges — arrive with the matching Flush event.
        break;
      }
      ObjectHistory& h = history(ev.objectIndex);
      predConflict(h.lastWrite);
      for (const std::int32_t r : h.readersSinceWrite) predConflict(r);
      break;
    }
    case OpKind::Lock:
    case OpKind::Unlock: {
      ObjectHistory& h = history(ev.objectIndex);
      predFullOnly(h.lastChainOp);
      predLazyOnly(h.lastTryLock);
      if (ev.kind == OpKind::Lock) predSyncOnly(h.lastReleaseEvent);
      break;
    }
    case OpKind::TryLock: {
      ObjectHistory& h = history(ev.objectIndex);
      predFullOnly(h.lastChainOp);
      // Lazy: a trylock observes the whole lock history, so it is ordered
      // against every mutex op since (and including) the previous trylock.
      for (const std::int32_t p : h.mutexOpsSinceTryLock) predLazyOnly(p);
      predLazyOnly(h.lastTryLock);
      if (ev.aux == 1) predSyncOnly(h.lastReleaseEvent);
      break;
    }
    case OpKind::Wait:
    case OpKind::Reacquire: {
      ObjectHistory& cv = history(ev.objectIndex);
      predConflict(cv.lastChainOp);  // condvar chain
      ObjectHistory& m = history(ev.mutexIndex);
      predFullOnly(m.lastChainOp);
      predLazyOnly(m.lastTryLock);
      if (ev.kind == OpKind::Reacquire) predSyncOnly(m.lastReleaseEvent);
      break;
    }
    case OpKind::Signal:
    case OpKind::Broadcast: {
      ObjectHistory& h = history(ev.objectIndex);
      if (h.lastChainOp >= 0) predConflict(h.lastChainOp);
      break;
    }
    case OpKind::SemAcquire:
    case OpKind::SemRelease: {
      ObjectHistory& h = history(ev.objectIndex);
      if (h.lastChainOp >= 0) predAll(h.lastChainOp);  // semaphores sync
      break;
    }
    case OpKind::Spawn:
    case OpKind::Join: {
      ObjectHistory& h = history(ev.objectIndex);
      if (h.lastChainOp >= 0) predAll(h.lastChainOp);  // fork/join sync
      break;
    }
    case OpKind::Yield:
    case OpKind::Fence:  // a drain point orders nothing across threads
      break;
  }

  // Full and Lazy are deduplicated always (the causal hashes are multiset
  // combines over them); Sync only when its rows are built — nothing else
  // reads it.
  sortUnique(scratchFull_);
  if (!lazySameAsFull) sortUnique(scratchLazy_);
  if (syncRows_ && !syncSameAsFull) sortUnique(scratchSync_);
  const std::vector<std::int32_t>& lazyPreds =
      lazySameAsFull ? scratchFull_ : scratchLazy_;
  const std::vector<std::int32_t>& syncPreds =
      syncSameAsFull ? scratchFull_ : scratchSync_;

  // Clocks: one arena row per relation with a declared reader (Options),
  // from the thread's running clock and the direct predecessors' rows.
  const std::int32_t copyFrom = ev.indexInThread > 0 ? prevEvent : -1;
  const auto tick = ev.indexInThread + 1;
  if (syncRows_) buildClockRow(syncClocks_, copyFrom, syncPreds, t, tick);
  if (fullRows_) buildClockRow(fullClocks_, copyFrom, scratchFull_, t, tick);
  if (lazyRows_) buildClockRow(lazyClocks_, copyFrom, lazyPreds, t, tick);

  // Data-race detection uses the sync clock, against pre-update histories.
  if (options_.detectRaces &&
      (ev.kind == OpKind::Read || ev.kind == OpKind::Write || ev.kind == OpKind::Rmw)) {
    checkRace(exec, ev, index);
  }

  // Causal hashes: label combined with the set of direct predecessors'
  // hashes under each relation (both lists are deduplicated above).
  const support::Hash128 label = ev.labelHash();
  {
    support::CausalSum acc;
    for (const std::int32_t p : scratchFull_) {
      acc.add(fullHash_[static_cast<std::size_t>(p)]);
    }
    fullHash_.push_back(acc.finish(label, kFullSalt));
    prefixFull_.add(fullHash_.back());
  }
  {
    support::CausalSum acc;
    for (const std::int32_t p : lazyPreds) {
      acc.add(lazyHash_[static_cast<std::size_t>(p)]);
    }
    lazyHash_.push_back(acc.finish(label, kLazySalt));
    prefixLazy_.add(lazyHash_.back());
  }
  {
    // Value-equivalence contribution: the label alone — no causal mixing;
    // forgetting who produced an observed value is the whole coarsening —
    // plus, for reads and RMWs, the value observed. A read's own valueHash
    // is that value — under SC the variable's pre-value, under TSO possibly
    // one forwarded from the reader's own store buffer, which the memory
    // mirror cannot know. An RMW's is its post-value (Execution commits it
    // before recording), so the recorder's pre-value mirror is consulted.
    std::uint64_t observed = 0;
    if (ev.kind == OpKind::Read) {
      observed = ev.valueHash;
    } else if (ev.kind == OpKind::Rmw) {
      observed = history(ev.objectIndex).valueHash;
    }
    prefixValue_.add(valueContribution(label, observed));
  }

  if (options_.keepPredecessors) {
    if (preds_.size() <= eventCount_) preds_.resize(eventCount_ + 1);
    EventPreds& p = preds_[eventCount_];
    p.full.assign(scratchFull_.begin(), scratchFull_.end());
    p.lazy.assign(lazyPreds.begin(), lazyPreds.end());
    p.sync.assign(syncPreds.begin(), syncPreds.end());
  }

  // History updates (after race checks and hashes), each through touched().
  switch (ev.kind) {
    case OpKind::Read: {
      ObjectHistory& h = touched(ev.objectIndex);
      h.readersSinceWrite.push_back(index);
      if (options_.detectRaces) {
        bool found = false;
        for (auto& [tid, evIdx] : h.lastReadPerThread) {
          if (tid == t) {
            evIdx = index;
            found = true;
            break;
          }
        }
        if (!found) h.lastReadPerThread.emplace_back(t, index);
      }
      break;
    }
    case OpKind::Write:
    case OpKind::Rmw:
    case OpKind::Flush: {
      if (ev.kind == OpKind::Write && ev.aux == 1) {
        // Buffered store: memory (and therefore the mirror, the reader
        // set, and the value-state accumulator) is untouched until the
        // matching Flush below commits it.
        break;
      }
      ObjectHistory& h = touched(ev.objectIndex);
      h.lastWrite = index;
      h.readersSinceWrite.clear();
      // Final-visible effect: swap the variable's (uid, value) pair in the
      // value-state accumulator for the committed post-value. Overwritten
      // intermediate values leave no trace — that is where value
      // equivalence prunes beyond the lazy HBR.
      const std::uint64_t committed = ev.valueHash;
      if (committed != h.valueHash) {
        valueState_.remove(support::hash128(h.uid, h.valueHash));
        valueState_.add(support::hash128(h.uid, committed));
        h.valueHash = committed;
      }
      if (options_.detectRaces) {
        h.lastWriteEvent = index;
        h.lastReadPerThread.clear();
      }
      break;
    }
    case OpKind::Lock: {
      ObjectHistory& h = touched(ev.objectIndex);
      h.lastChainOp = index;
      h.chain.push_back(index);
      h.mutexOpsSinceTryLock.push_back(index);
      break;
    }
    case OpKind::Unlock: {
      ObjectHistory& h = touched(ev.objectIndex);
      h.lastChainOp = index;
      h.chain.push_back(index);
      h.mutexOpsSinceTryLock.push_back(index);
      h.lastReleaseEvent = index;
      break;
    }
    case OpKind::TryLock: {
      ObjectHistory& h = touched(ev.objectIndex);
      h.lastChainOp = index;
      h.chain.push_back(index);
      h.lastTryLock = index;
      h.mutexOpsSinceTryLock.clear();
      break;
    }
    case OpKind::Wait: {
      ObjectHistory& cv = touched(ev.objectIndex);
      cv.lastChainOp = index;
      cv.chain.push_back(index);
      // The waiter parks at the back of the condvar's FIFO queue.
      valueState_.remove(cvQueueContribution(cv));
      cv.cvQueue.push_back(ev.threadUid);
      valueState_.add(cvQueueContribution(cv));
      ObjectHistory& m = touched(ev.mutexIndex);
      m.lastChainOp = index;
      m.chain.push_back(index);
      m.mutexOpsSinceTryLock.push_back(index);
      m.lastReleaseEvent = index;  // wait releases the mutex
      break;
    }
    case OpKind::Reacquire: {
      ObjectHistory& cv = touched(ev.objectIndex);
      cv.lastChainOp = index;
      cv.chain.push_back(index);
      ObjectHistory& m = touched(ev.mutexIndex);
      m.lastChainOp = index;
      m.chain.push_back(index);
      m.mutexOpsSinceTryLock.push_back(index);
      break;
    }
    case OpKind::Signal:
    case OpKind::Broadcast:
    case OpKind::SemAcquire:
    case OpKind::SemRelease:
    case OpKind::Spawn:
    case OpKind::Join: {
      ObjectHistory& h = touched(ev.objectIndex);
      h.lastChainOp = index;
      h.chain.push_back(index);
      // Signal wakes the queue's front (FIFO); broadcast drains it. Mirror
      // the runtime's queue so the value fingerprint tracks wake order.
      if (ev.kind == OpKind::Signal && !h.cvQueue.empty()) {
        valueState_.remove(cvQueueContribution(h));
        h.cvQueue.erase(h.cvQueue.begin());
        valueState_.add(cvQueueContribution(h));
      } else if (ev.kind == OpKind::Broadcast && !h.cvQueue.empty()) {
        valueState_.remove(cvQueueContribution(h));
        h.cvQueue.clear();
        valueState_.add(cvQueueContribution(h));
      }
      break;
    }
    case OpKind::Yield:
    case OpKind::Fence:
      break;
  }

  threadLastEvent_[tIdx] = index;
  ++eventCount_;
}

void TraceRecorder::checkRace(const runtime::Execution& exec, const EventRecord& ev,
                              std::int32_t index) {
  ObjectHistory& h = history(ev.objectIndex);
  const ClockView myClock = syncClocks_.view(static_cast<std::size_t>(index));
  auto happensBefore = [&](std::int32_t earlier) {
    const int et = records_[static_cast<std::size_t>(earlier)].threadIndex;
    return syncClocks_.view(static_cast<std::size_t>(earlier)).get(et) <=
           myClock.get(et);
  };
  auto report = [&](std::int32_t earlier) {
    for (const RaceReport& r : races_) {
      if (r.objectUid == ev.objectUid) return;  // one report per object per run
    }
    RaceReport race;
    race.objectUid = ev.objectUid;
    race.objectName = exec.object(ev.objectIndex).name;
    race.firstEvent = earlier;
    race.secondEvent = index;
    races_.push_back(std::move(race));
  };
  // Any access races with a sync-concurrent earlier write.
  if (h.lastWriteEvent >= 0 && !happensBefore(h.lastWriteEvent)) {
    report(h.lastWriteEvent);
    return;
  }
  // A write additionally races with sync-concurrent earlier reads.
  if (ev.kind != OpKind::Read) {
    for (const auto& [tid, readEvent] : h.lastReadPerThread) {
      if (tid != ev.threadIndex && !happensBefore(readEvent)) {
        report(readEvent);
        return;
      }
    }
  }
}

void TraceRecorder::onExecutionEnd(const runtime::Execution&, runtime::Outcome) {}

support::Hash128 TraceRecorder::fingerprint(Relation r) const {
  switch (r) {
    case Relation::Full: return prefixFull_.digest();
    case Relation::Lazy: return prefixLazy_.digest();
    case Relation::Value:
      // Observations plus visible state: equal digests mean the same
      // operations ran, every read saw the same value, and the variables
      // and condvar queues stand identically — so the continuation
      // subtrees coincide, the property value-class pruning keys on.
      return prefixValue_.digest().mixedWith(valueState_.digest());
    case Relation::Sync: break;
  }
  LAZYHB_UNREACHABLE("no fingerprint is maintained for the sync relation");
}

const runtime::EventRecord& TraceRecorder::eventRecord(std::int32_t index) const {
  LAZYHB_CHECK(index >= 0 && static_cast<std::size_t>(index) < eventCount_);
  return records_[static_cast<std::size_t>(index)];
}

ClockView TraceRecorder::eventClock(Relation r, std::int32_t index) const {
  LAZYHB_CHECK(index >= 0 && static_cast<std::size_t>(index) < eventCount_);
  return arena(r).view(static_cast<std::size_t>(index));
}

support::Hash128 TraceRecorder::eventHash(Relation r, std::int32_t index) const {
  LAZYHB_CHECK(index >= 0 && static_cast<std::size_t>(index) < eventCount_);
  switch (r) {
    case Relation::Full: return fullHash_[static_cast<std::size_t>(index)];
    case Relation::Lazy: return lazyHash_[static_cast<std::size_t>(index)];
    case Relation::Sync:
    case Relation::Value:  // value contributions are not causal hashes
      break;
  }
  LAZYHB_UNREACHABLE("no per-event hash is maintained for this relation");
}

const std::vector<std::int32_t>& TraceRecorder::eventPredecessors(
    Relation r, std::int32_t index) const {
  LAZYHB_CHECK(options_.keepPredecessors);
  LAZYHB_CHECK(index >= 0 && static_cast<std::size_t>(index) < eventCount_);
  const EventPreds& p = preds_[static_cast<std::size_t>(index)];
  switch (r) {
    case Relation::Sync: return p.sync;
    case Relation::Full: return p.full;
    case Relation::Lazy: return p.lazy;
    case Relation::Value: break;  // no edge structure under the equivalence
  }
  LAZYHB_UNREACHABLE("bad relation");
}

ClockView TraceRecorder::threadClock(Relation r, int tid) const {
  const ClockArena& rows = arena(r);
  const auto i = static_cast<std::size_t>(tid);
  if (i >= threadCount_ || threadLastEvent_[i] < 0) return ClockView{};
  return rows.view(static_cast<std::size_t>(threadLastEvent_[i]));
}

void TraceRecorder::collectConflicts(const runtime::Execution& exec, int tid,
                                     std::vector<std::int32_t>& out) const {
  out.clear();
  const runtime::PendingOp& op = exec.pending(tid);
  if (!op.valid) return;
  auto push = [&](std::int32_t p) {
    if (p >= 0) out.push_back(p);
  };
  auto chained = [&](std::int32_t objectIndex) {
    if (objectIndex >= 0 && static_cast<std::size_t>(objectIndex) < objectCount_) {
      push(objects_[static_cast<std::size_t>(objectIndex)].lastChainOp);
    }
  };
  switch (op.kind) {
    case OpKind::Read: {
      if (op.object >= 0 && static_cast<std::size_t>(op.object) < objectCount_) {
        push(objects_[static_cast<std::size_t>(op.object)].lastWrite);
      }
      break;
    }
    case OpKind::Write:
    case OpKind::Rmw:
    case OpKind::Flush: {
      // A pending Write may turn out to buffer under TSO (no memory
      // conflicts until its Flush); treating it as a memory write here is
      // conservative — DPOR explores at most extra interleavings, never
      // fewer. A Flush pick is always a memory write of the buffer head.
      if (op.object >= 0 && static_cast<std::size_t>(op.object) < objectCount_) {
        const ObjectHistory& h = objects_[static_cast<std::size_t>(op.object)];
        push(h.lastWrite);
        for (const std::int32_t r : h.readersSinceWrite) push(r);
      }
      break;
    }
    case OpKind::Lock:
    case OpKind::Unlock:
    case OpKind::TryLock:
      chained(op.object);
      break;
    case OpKind::Wait:
    case OpKind::Reacquire:
      chained(op.object);       // condvar chain
      chained(op.mutexObject);  // mutex chain
      break;
    case OpKind::Signal:
    case OpKind::Broadcast:
    case OpKind::SemAcquire:
    case OpKind::SemRelease:
      chained(op.object);
      break;
    case OpKind::Spawn:
    case OpKind::Join:
    case OpKind::Yield:
    case OpKind::Fence:
      break;  // not reorderable in a way DPOR can exploit
  }
  sortUnique(out);
}

const std::vector<std::int32_t>& TraceRecorder::chainEvents(std::int32_t objectIndex) const {
  static const std::vector<std::int32_t> kEmpty;
  if (objectIndex < 0 || static_cast<std::size_t>(objectIndex) >= objectCount_) {
    return kEmpty;
  }
  return objects_[static_cast<std::size_t>(objectIndex)].chain;
}

std::string TraceRecorder::objectName(runtime::Uid uid) const {
  const auto it = names_.find(uid);
  return it != names_.end() ? it->second : std::string("obj-") + std::to_string(uid % 10000);
}

}  // namespace lazyhb::trace
