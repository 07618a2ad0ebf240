#include "explore/prefix_replay.hpp"

#include <algorithm>

#include "support/diagnostics.hpp"

namespace lazyhb::explore {

PrefixReplayEngine::PrefixReplayEngine(runtime::StackPool& stackPool,
                                       trace::TraceRecorder& recorder,
                                       bool incremental, bool runtimeRollback,
                                       std::uint64_t snapshotBudgetBytes)
    : stackPool_(stackPool),
      recorder_(recorder),
      incremental_(incremental),
      runtimeRollback_(incremental && runtimeRollback),
      budgetBytes_(snapshotBudgetBytes) {
  LAZYHB_CHECK(!runtimeRollback_ || runtime::Execution::checkpointingSupported());
}

void PrefixReplayEngine::stageCheckpoint(runtime::Execution& exec, std::size_t depth) {
  if (!incremental_) return;
  // While the recorder is skipping a replayed prefix its depth lags the
  // scheduler's; those depths are already staged from an earlier schedule.
  if (recorder_.eventCount() != depth) return;
  Stage* stage = live_ == 0 ? nullptr : &stages_[live_ - 1];
  std::uint64_t added = 0;
  if (stage == nullptr || stage->depth != depth) {
    LAZYHB_CHECK(stage == nullptr || stage->depth < depth);  // staging only deepens
    if (live_ == stages_.size()) stages_.emplace_back();
    stage = &stages_[live_++];
    stage->depth = depth;
    stage->bytes = 0;
    recorder_.checkpoint(stage->trace);
    added = stage->trace.approxBytes();
    ++stagesCreated_;
  }
  // After a full restart a surviving stage holds the recorder part only;
  // the reset execution's first snapshot there is the only new cost.
  if (runtimeRollback_ && stage->exec.empty()) {
    LAZYHB_CHECK(&exec == exec_.get());
    exec.checkpoint(stage->exec);
    added += stage->exec.approxBytes();
  }
  if (added == 0) return;  // nothing new was pinned; budget unchanged
  stage->bytes += added;
  liveBytes_ += added;
  bytesStaged_ += added;
  enforceBudget();
}

PrefixReplayEngine::Stage* PrefixReplayEngine::deepestAtOrBelow(std::size_t depth,
                                                                bool needExec) {
  for (std::size_t i = live_; i-- > 0;) {
    Stage& s = stages_[i];
    if (s.depth <= depth && (!needExec || !s.exec.empty())) return &s;
  }
  return nullptr;
}

void PrefixReplayEngine::dropLast() {
  Stage& s = stages_[--live_];
  liveBytes_ -= s.bytes;
  s.exec.clear();
}

void PrefixReplayEngine::enforceBudget() {
  if (budgetBytes_ == 0) return;
  // Shallowest-first: of all live stages the shallowest is the one furthest
  // from the frontier of the deepest-first tree walk, i.e. the one whose
  // next use is furthest in the future. The deepest (just-staged) stage is
  // never evicted — it is the imminent rollback target. The victim rotates
  // to the end of the live range and is dropped from there, so its vectors
  // rejoin the pool.
  while (liveBytes_ > budgetBytes_ && live_ > 1) {
    evictedDepths_.push_back(stages_.front().depth);
    std::rotate(stages_.begin(), stages_.begin() + 1,
                stages_.begin() + static_cast<std::ptrdiff_t>(live_));
    dropLast();
    ++evictions_;
  }
}

void PrefixReplayEngine::settleStages(std::size_t target, std::size_t divergenceDepth) {
  // A divergence that lands strictly above the surviving rollback target
  // but at or below an evicted depth is the cost of the budget: had that
  // stage survived, the rollback would have been deeper. Count it once per
  // prepareNext; the extra replay distance shows up in eventsReplayed /
  // fullRestarts either way.
  bool fallback = false;
  for (const std::size_t e : evictedDepths_) {
    if (e > target && e <= divergenceDepth) fallback = true;
  }
  if (fallback) ++replayFallbacks_;
  // Evicted depths above the target are finished subtrees or the
  // just-counted fallback; only shallower ones can still shadow a future,
  // shallower divergence. With no target the recorder resets wholesale on
  // the next execution start, taking a depth-0 stage with it.
  const auto dies = [target](std::size_t depth) { return target == 0 || depth > target; };
  evictedDepths_.erase(std::remove_if(evictedDepths_.begin(), evictedDepths_.end(), dies),
                       evictedDepths_.end());
  while (live_ > 0 && dies(stages_[live_ - 1].depth)) dropLast();
}

std::size_t PrefixReplayEngine::prepareNext(std::size_t divergenceDepth) {
  pendingResume_ = false;
  pendingStart_ = 0;
  pendingElided_ = 0;
  pendingReplayed_ = divergenceDepth;
  if (!incremental_) return 0;

  if (runtimeRollback_ && exec_ != nullptr) {
    const Stage* stage = deepestAtOrBelow(divergenceDepth, /*needExec=*/true);
    if (stage != nullptr && stage->depth > 0) {
      const std::size_t depth = stage->depth;
      exec_->rollbackTo(stage->exec);
      recorder_.rollbackTo(stage->trace);
      pendingResume_ = true;
      pendingStart_ = depth;
      pendingElided_ = depth;
      pendingReplayed_ = divergenceDepth - depth;
      ++rollbacks_;
      settleStages(depth, divergenceDepth);
      return depth;
    }
    // No usable runtime snapshot: reset the persistent execution (which
    // runs the leftover fibers forward) and re-execute, still eliding the
    // recorder's share of the prefix below. The reset voids every
    // snapshot, so the stages keep only their recorder part and price.
    exec_->reset();
    ++fullRestarts_;
    for (std::size_t i = 0; i < live_; ++i) {
      Stage& s = stages_[i];
      const std::uint64_t execBytes = s.exec.approxBytes();
      s.bytes -= execBytes;
      liveBytes_ -= execBytes;
      s.exec.clear();
    }
  }

  const Stage* stage = deepestAtOrBelow(divergenceDepth, /*needExec=*/false);
  const bool armed = stage != nullptr && stage->depth > 0;
  if (armed) recorder_.armResume(stage->trace);
  settleStages(armed ? stage->depth : 0, divergenceDepth);
  return 0;
}

PrefixReplayEngine::Session PrefixReplayEngine::beginSchedule(
    const runtime::Config& config, runtime::ExecutionObserver* observer) {
  eventsElided_ += pendingElided_;
  eventsReplayed_ += pendingReplayed_;
  pendingElided_ = 0;
  pendingReplayed_ = 0;
  if (pendingResume_) {
    pendingResume_ = false;
    return Session{exec_.get(), true, pendingStart_};
  }
  if (exec_ == nullptr) {
    exec_ = std::make_unique<runtime::Execution>(config, stackPool_, observer);
  } else {
    exec_->reset(config, observer);
  }
  if (runtimeRollback_) exec_->enableResumable();
  return Session{exec_.get(), false, 0};
}

}  // namespace lazyhb::explore
