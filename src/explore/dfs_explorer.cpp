#include "explore/dfs_explorer.hpp"

#include "core/dependence.hpp"
#include "support/diagnostics.hpp"

namespace lazyhb::explore {

using core::OpSig;
using support::ThreadSet;
using trace::Relation;

bool TreeSearchState::advance() {
  while (!nodes.empty()) {
    SearchNode& node = nodes.back();
    node.done.insert(node.chosen);
    const ThreadSet remaining = node.left();
    if (!remaining.empty()) {
      node.chosen = remaining.first();
      checkFromDepth = nodes.size() - 1;
      return true;
    }
    nodes.pop_back();
  }
  return false;
}

/// True iff executed event j happens-before thread p's next transition
/// under the Full relation.
bool DporHook::happensBeforeNext(std::int32_t j, int p) const {
  const int tj = recorder_.eventRecord(j).threadIndex;
  if (tj == p) return true;
  return recorder_.eventClock(Relation::Full, j).get(tj) <=
         recorder_.threadClock(Relation::Full, p).get(tj);
}

/// FG candidate: the most recent executed event that is dependent with p's
/// pending operation, may be co-enabled with it, and does not happen-before
/// it. Returns -1 if none.
std::int32_t DporHook::findCandidate(const runtime::Execution& exec, int p) {
  const runtime::PendingOp& op = exec.pending(p);
  const OpSig sigP = core::sigOf(p, op);
  auto walkChain = [&](std::int32_t objectIndex) -> std::int32_t {
    const auto& chain = recorder_.chainEvents(objectIndex);
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      const std::int32_t j = *it;
      if (!core::mayBeCoEnabled(core::sigOf(recorder_.eventRecord(j)), sigP)) continue;
      // Chain events are totally ordered, so the first happens-before
      // event screens off everything earlier.
      if (happensBeforeNext(j, p)) return -1;
      return j;
    }
    return -1;
  };
  switch (op.kind) {
    case runtime::OpKind::Read:
    case runtime::OpKind::Write:
    case runtime::OpKind::Rmw:
    case runtime::OpKind::Flush: {  // pending flush pick: a memory write
      recorder_.collectConflicts(exec, p, conflictScratch_);
      for (auto it = conflictScratch_.rbegin(); it != conflictScratch_.rend(); ++it) {
        if (!happensBeforeNext(*it, p)) return *it;
        // Reads since the last write are mutually unordered: a deeper
        // happens-before read does not screen off shallower ones, so keep
        // scanning.
      }
      return -1;
    }
    case runtime::OpKind::Wait:
    case runtime::OpKind::Reacquire: {
      const std::int32_t a = walkChain(op.object);       // condvar chain
      const std::int32_t b = walkChain(op.mutexObject);  // mutex chain
      return a > b ? a : b;
    }
    case runtime::OpKind::Lock:
    case runtime::OpKind::Unlock:
    case runtime::OpKind::TryLock:
    case runtime::OpKind::Signal:
    case runtime::OpKind::Broadcast:
    case runtime::OpKind::SemAcquire:
    case runtime::OpKind::SemRelease:
    case runtime::OpKind::Join:
      return walkChain(op.object);
    case runtime::OpKind::Spawn:
    case runtime::OpKind::Yield:
    case runtime::OpKind::Fence:
      return -1;
  }
  return -1;
}

bool DporHook::expand(const runtime::Execution& exec, std::vector<SearchNode>& nodes,
                      SearchNode& node, ThreadSet sleep) {
  // The FG backtrack update, once per new state for every thread with a
  // pending operation (enabled or blocked). pickLimit() spans the
  // flush-pick range under TSO, so pending flushes take part like any
  // other transition.
  const auto eventCount = static_cast<std::int32_t>(recorder_.eventCount());
  for (int p = 0; p < exec.pickLimit(); ++p) {
    if (!exec.pending(p).valid) continue;
    const std::int32_t i = findCandidate(exec, p);
    if (i < 0) continue;
    SearchNode& target = nodes[static_cast<std::size_t>(i)];
    // Whenever a thread is requested it must also be woken: a sleeping
    // thread is never chosen, so a race whose reversal thread is asleep
    // would otherwise never be explored — the classic DPOR/sleep-set
    // interaction that SDPOR's wakeup trees solve exactly; waking is the
    // simple sound approximation (it only adds exploration).
    if (target.enabled.contains(p)) {
      target.unrequested.erase(p);
      target.asleep.erase(p);
      continue;
    }
    // E = threads enabled at pre(i) that executed an event after i which
    // happens-before p's next transition; any one of them suffices.
    ThreadSet eSet;
    for (std::int32_t j = i + 1; j < eventCount; ++j) {
      if (happensBeforeNext(j, p)) eSet.insert(recorder_.eventRecord(j).threadIndex);
    }
    eSet = eSet.intersect(target.enabled);
    if (!eSet.empty()) {
      // Prefer a member that is not asleep; wake one only if all are.
      const ThreadSet awake = eSet.minus(target.asleep);
      const int q = awake.empty() ? eSet.first() : awake.first();
      target.unrequested.erase(q);
      target.asleep.erase(q);
    } else {
      target.unrequested.clear();
      target.asleep = target.asleep.minus(target.enabled);
    }
  }

  node.enabled = exec.enabled();
  node.asleep = sleep;
  const ThreadSet candidates = node.enabled.minus(sleep);
  if (candidates.empty()) return false;
  node.chosen = candidates.first();
  // Only the chosen child is requested so far: the search is not (yet)
  // known to return here, so the scheduler stages nothing. If a race
  // analysis later requests a sibling, the first replay through this node
  // stages it.
  node.unrequested = node.enabled.minus(ThreadSet::single(node.chosen));
  return true;
}

ThreadSet DporHook::childSleep(const runtime::Execution& exec,
                               const SearchNode& node) const {
  ThreadSet sleep;
  if (!sleepSets_) return sleep;
  const ThreadSet sleepers = node.asleep.unionWith(node.done);
  if (sleepers.empty()) return sleep;
  const OpSig chosenSig = core::sigOf(node.chosen, exec.pending(node.chosen));
  for (const int q : sleepers) {
    if (q == node.chosen) continue;
    const runtime::PendingOp& opQ = exec.pending(q);
    if (!opQ.valid) continue;
    if (!core::dependent(core::sigOf(q, opQ), chosenSig, Relation::Full)) {
      sleep.insert(q);
    }
  }
  return sleep;
}

TreeScheduler::TreeScheduler(TreeSearchState& state, std::function<bool()> prunePrefix,
                             PrefixReplayEngine* engine, std::size_t startDepth,
                             DporHook* dpor)
    : state_(state),
      prunePrefix_(std::move(prunePrefix)),
      engine_(engine),
      depth_(startDepth),
      dpor_(dpor) {}

int TreeScheduler::pick(runtime::Execution& exec) {
  // The event committed by the previous pick is the deepest prefix; test it
  // against the prune hook unless it was a replay.
  if (prunePrefix_ && depth_ > 0 && depth_ - 1 >= state_.checkFromDepth) {
    if (prunePrefix_()) {
      return kAbandon;
    }
  }
  if (depth_ < state_.nodes.size()) {
    LAZYHB_CHECK(exec.enabled().contains(state_.nodes[depth_].chosen));
  } else {
    SearchNode node;
    if (dpor_ == nullptr) {
      node.enabled = exec.enabled();
      node.chosen = node.enabled.first();
    } else if (!dpor_->expand(exec, state_.nodes, node, sleep_)) {
      return kAbandon;  // every enabled transition is covered elsewhere
    }
    state_.nodes.push_back(node);
  }
  const SearchNode& node = state_.nodes[depth_];
  // A node with children left besides the current one is a future
  // divergence point: keep it checkpointed. Under DPOR a child requested
  // after the node was passed finds no stage here and falls back to the
  // deepest surviving shallower one; counts are unaffected, since staging
  // never changes which schedules run.
  if (engine_ != nullptr && !node.left().minus(ThreadSet::single(node.chosen)).empty()) {
    engine_->stageCheckpoint(exec, depth_);
  }
  if (dpor_ != nullptr) sleep_ = dpor_->childSleep(exec, node);
  ++depth_;
  return node.chosen;
}

void TreeExplorer::runSearch(const Program& program) {
  std::function<bool()> prune;
  if (cachesPrefixes()) prune = [this] { return prefixCached(); };
  std::optional<DporHook> dpor;
  if (dpor_) dpor.emplace(recorder(), dpor_->sleepSets);
  TreeSearchState state;
  std::size_t startDepth = 0;
  for (;;) {
    if (!mayRunSchedule()) return;
    TreeScheduler scheduler(state, prune, &prefixEngine(), startDepth,
                            dpor ? &*dpor : nullptr);
    (void)executeSchedule(program, scheduler);
    if (!state.advance()) break;
    startDepth = prefixEngine().prepareNext(state.checkFromDepth);
  }
  markComplete();
}

}  // namespace lazyhb::explore
