#include "explore/dfs_explorer.hpp"

#include "support/diagnostics.hpp"

namespace lazyhb::explore {

bool TreeSearchState::advance() {
  while (!nodes.empty()) {
    SearchNode& node = nodes.back();
    node.done.insert(node.chosen);
    const support::ThreadSet remaining = node.enabled.minus(node.done);
    if (!remaining.empty()) {
      node.chosen = remaining.first();
      checkFromDepth = nodes.size() - 1;
      return true;
    }
    nodes.pop_back();
  }
  return false;
}

TreeScheduler::TreeScheduler(TreeSearchState& state, std::function<bool()> prunePrefix,
                             PrefixReplayEngine* engine, std::size_t startDepth)
    : state_(state),
      prunePrefix_(std::move(prunePrefix)),
      engine_(engine),
      depth_(startDepth) {}

int TreeScheduler::pick(runtime::Execution& exec) {
  // The event committed by the previous pick is the deepest prefix; test it
  // against the prune hook unless it was a replay.
  if (prunePrefix_ && depth_ > 0 && depth_ - 1 >= state_.checkFromDepth) {
    if (prunePrefix_()) {
      return kAbandon;
    }
  }
  if (depth_ < state_.nodes.size()) {
    const SearchNode& node = state_.nodes[depth_];
    LAZYHB_CHECK(exec.enabled().contains(node.chosen));
    // A replayed node with unexplored siblings left is a future divergence
    // point: keep it checkpointed.
    if (engine_ != nullptr &&
        !node.enabled.minus(node.done).minus(support::ThreadSet::single(node.chosen))
             .empty()) {
      engine_->stageCheckpoint(exec, depth_);
    }
    ++depth_;
    return node.chosen;
  }
  SearchNode node;
  node.enabled = exec.enabled();
  node.chosen = node.enabled.first();
  state_.nodes.push_back(node);
  if (engine_ != nullptr && node.enabled.size() > 1) {
    engine_->stageCheckpoint(exec, depth_);
  }
  ++depth_;
  return node.chosen;
}

void TreeExplorer::runSearch(const Program& program) {
  std::function<bool()> prune;
  if (cachesPrefixes()) prune = [this] { return prefixCached(); };
  TreeSearchState state;
  std::size_t startDepth = 0;
  for (;;) {
    if (!mayRunSchedule()) return;
    TreeScheduler scheduler(state, prune, &prefixEngine(), startDepth);
    (void)executeSchedule(program, scheduler);
    if (!state.advance()) break;
    startDepth = prefixEngine().prepareNext(state.checkFromDepth);
  }
  markComplete();
}

}  // namespace lazyhb::explore
