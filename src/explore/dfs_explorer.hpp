// lazyhb/explore/dfs_explorer.hpp
//
// The tree explorer: depth-first enumeration of the schedule tree — naive
// DFS, HBR caching, the paper's lazy HBR caching (§2, "Lazy HBR caching"),
// value-class caching and Flanagan–Godefroid DPOR are this one search,
// differing only in the prune hook (which relation keys the prefix cache)
// or the node policy (DPOR) — plus the reusable tree-search machinery
// (search stack + replaying scheduler).
//
// The search tree has one node per scheduling point; a node's children are
// the enabled threads at that point. The walk is driven by a persistent
// schedule-tree cursor: advance() names the divergence depth of the next
// schedule, and the prefix-replay engine (explore/prefix_replay.hpp)
// decides how to get back there — rolling a persistent execution back to a
// staged checkpoint (nothing before the divergence is re-executed), or
// re-executing with the prefix of choices replayed (the stateless
// fallback). TreeScheduler replays any residual prefix from its start
// depth, stages checkpoints at nodes the search will revisit, and
// distinguishes replays from the new suffix (checkFromDepth) so prune
// hooks — the HBR caches — never test a schedule against its own
// previously explored path.
//
// Prefix-equivalence pruning: after every newly chosen event, the
// canonical fingerprint of the executed prefix's relation is looked up in
// the cache. A hit means an equivalent prefix — one reaching the same
// program state, by Theorem 2.1 (Full relation) or Theorem 2.2 (Lazy
// relation) — was explored before, so the current schedule is redundant
// and is abandoned. With the Full relation this is Musuvathi–Qadeer HBR
// caching; with the Lazy relation it is the paper's contribution, which
// prunes strictly more because lazy classes are coarser. With the Value
// relation pruning keys on the observation fingerprint (same operations,
// same values observed, same visible state — the value-centric DPOR
// framing), which is coarser still: lazy-equal prefixes are always
// value-equal, so the value cache prunes at least as much as the lazy one.
// Figure 3 of the paper compares the Full and Lazy instantiations under a
// common schedule budget; caching-value extends that A/B.
//
// DPOR (Flanagan & Godefroid, POPL 2005; the POR technique of the paper's
// Figure 2 experiment, on the regular HBR) narrows which children a node
// explores instead. At every new state, for every thread p with a pending
// operation, it finds the most recent executed event i that is dependent
// with p's operation, may be co-enabled with it, and does not
// happen-before it. Such an (i, p) pair is a race the current schedule
// ordered one way; exploring p first from the state *before* i covers the
// other way, so p (or, if p was not enabled there, some thread that can
// lead to p) is requested at that node. Sleep sets additionally skip
// children that merely commute independent transitions already explored at
// the same node. DPOR takes no prefix cache: a cache hit skips a subtree
// whose races would have requested children above it, which loses states.

#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "explore/explorer.hpp"
#include "explore/prefix_replay.hpp"
#include "support/thread_set.hpp"

namespace lazyhb::explore {

/// One node of the DFS tree: the enabled set met at first visit, the
/// children already fully explored, and the child being explored now. The
/// two DPOR sets stay empty for dfs and caching-*, where every enabled
/// child is explored.
struct SearchNode {
  support::ThreadSet enabled;
  support::ThreadSet done;
  /// DPOR: enabled threads no race has yet asked the search to explore.
  support::ThreadSet unrequested;
  /// DPOR with sleep sets: threads asleep on entry to this node.
  support::ThreadSet asleep;
  int chosen = -1;

  /// Children left to explore, the current one included.
  [[nodiscard]] support::ThreadSet left() const noexcept {
    return enabled.minus(done).minus(unrequested).minus(asleep);
  }
};

/// The mutable search state threaded through executions.
struct TreeSearchState {
  std::vector<SearchNode> nodes;
  /// Depth of the first choice that differs from the previous execution;
  /// events at shallower depths are replays.
  std::size_t checkFromDepth = 0;

  /// Advance to the next child left to explore, deepest first. Truncates
  /// the stack below the flipped node. Returns false when the tree is
  /// exhausted.
  bool advance();
};

/// DPOR's node policy: the FG race analysis run at every new node, and the
/// sleep set each node hands to its chosen child. Depth in the tree equals
/// the global event index (one pick commits one event), so nodes[i] is the
/// state from which event i was chosen. Reads Full-relation clocks, so the
/// recorder must build them.
class DporHook {
 public:
  DporHook(const trace::TraceRecorder& recorder, bool sleepSets)
      : recorder_(recorder), sleepSets_(sleepSets) {}

  /// A new node at depth nodes.size(): request the reversal of every race
  /// with a pending operation at the nodes above, then fill `node` with
  /// `sleep` as its entry sleep set. False when every enabled thread is
  /// asleep (the schedule is covered elsewhere and is abandoned).
  bool expand(const runtime::Execution& exec, std::vector<SearchNode>& nodes,
              SearchNode& node, support::ThreadSet sleep);

  /// The sleep set handed to the child `node.chosen`: threads asleep at
  /// `node` (or already fully explored there) whose pending operation is
  /// independent of the chosen transition.
  [[nodiscard]] support::ThreadSet childSleep(const runtime::Execution& exec,
                                              const SearchNode& node) const;

 private:
  [[nodiscard]] bool happensBeforeNext(std::int32_t j, int p) const;
  [[nodiscard]] std::int32_t findCandidate(const runtime::Execution& exec, int p);

  const trace::TraceRecorder& recorder_;
  bool sleepSets_;
  std::vector<std::int32_t> conflictScratch_;
};

/// Scheduler that replays `state.nodes` and extends the tree depth-first.
/// `prunePrefix`, when set, is consulted once after every *new* (non-replay)
/// event; returning true abandons the execution (subtree pruned).
/// `engine`, when set, is asked to stage a checkpoint at every node the
/// search will revisit; `startDepth` is the absolute depth a rolled-back
/// execution resumes from (0 for a fresh run). `dpor`, when set, builds new
/// nodes and hands sleep sets down the path.
class TreeScheduler final : public runtime::Scheduler {
 public:
  explicit TreeScheduler(TreeSearchState& state,
                         std::function<bool()> prunePrefix = {},
                         PrefixReplayEngine* engine = nullptr,
                         std::size_t startDepth = 0, DporHook* dpor = nullptr);

  int pick(runtime::Execution& exec) override;

 private:
  TreeSearchState& state_;
  std::function<bool()> prunePrefix_;
  PrefixReplayEngine* engine_;
  std::size_t depth_;
  DporHook* dpor_;
  support::ThreadSet sleep_;  ///< handed to the next new node (DPOR)
};

struct DporOptions {
  bool sleepSets = true;
};

/// The tree explorer. Without a relation it visits every schedule (up to
/// the limit): the baseline every reduction is measured against, and the
/// oracle the property tests compare DPOR and the caching searches to.
/// With one (Full, Lazy or Value) it prunes on the prefix cache keyed by
/// that relation. Built from DporOptions it runs DPOR, with no cache.
class TreeExplorer : public ExplorerBase {
 public:
  explicit TreeExplorer(ExplorerOptions options,
                        std::optional<trace::Relation> relation = std::nullopt)
      : ExplorerBase(options, relation) {}
  TreeExplorer(ExplorerOptions options, DporOptions dpor)
      : ExplorerBase(options, std::nullopt, /*fullClocks=*/true), dpor_(dpor) {}

 protected:
  void runSearch(const Program& program) override;

 private:
  std::optional<DporOptions> dpor_;
};

}  // namespace lazyhb::explore
