// lazyhb/explore/random_explorer.hpp
//
// Uniform random scheduling: each schedule picks uniformly among the
// enabled threads at every point. No reduction — this is the quick-and-dirty
// bug hunter and the fuzzing backend of the property-test suite (random
// schedules feed the Theorem 2.1/2.2 checkers with diverse linearizations).
// Deterministic given (seed): schedule k is reproducible from seed+k.
//
// Random walks over a small program repeat one another; at the paper's 100k
// budget most of a cell's walks re-run a pick sequence the cell already ran.
// A schedule's record is a function of its pick sequence, so the explorer
// memoizes walks in a PickTrie and folds a repeat's stored record instead of
// executing it. Counts, ticks, kept violations and theorem stats are exactly
// those of executing every walk; only runtime-layer work (events executed,
// fresh runs) and wall time drop. The memo is bounded (PickTrie::kByteCap)
// and switches itself off for a cell whose first kProbeWalks walks show
// almost no repeats.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "explore/explorer.hpp"
#include "support/rng.hpp"

namespace lazyhb::explore {

/// The random walks one search has run, keyed on their pick sequences. A
/// node stands for a scheduling point: it stores the number of enabled picks
/// there and one child per pick index. A leaf stores the finished walk's
/// record. A walk's seed alone finds its leaf, because RandomExplorer's
/// scheduler draws Rng::below(enabled count) at every point, so the stored
/// counts replay the draws without running the program.
class PickTrie {
 public:
  /// Past this many bytes of node slots and leaves the trie stops
  /// inserting; lookups still hit what it holds.
  static constexpr std::size_t kByteCap = std::size_t{8} << 20;

  /// One scheduling point of an executed walk: how many picks were enabled
  /// and which index the walk drew.
  struct Step {
    std::uint32_t enabled = 0;
    std::uint32_t pick = 0;
  };

  /// A stored walk: its record (violation unset) and, when the result kept
  /// the walk's violation, that violation's index in
  /// ExplorationResult::violations.
  struct Leaf {
    static constexpr std::uint32_t kNotKept = ~std::uint32_t{0};
    ScheduleRecord record;
    std::uint32_t keptViolation = kNotKept;
  };

  explicit PickTrie(std::size_t byteCap = kByteCap) : byteCap_(byteCap) {}

  /// Replay the walk seeded `seed` down the trie: the leaf it ends at, or
  /// nullptr when it reaches a pick no stored walk took.
  [[nodiscard]] const Leaf* find(std::uint64_t seed) const;

  /// Store a walk that took `path` and ended in `leaf`. False, storing
  /// nothing, once the trie would outgrow its byte cap.
  bool insert(const std::vector<Step>& path, const Leaf& leaf);

  /// Bytes held by the node slots and leaves (allocated capacity).
  [[nodiscard]] std::size_t bytes() const noexcept {
    return slots_.capacity() * sizeof(std::uint32_t) + leaves_.capacity() * sizeof(Leaf);
  }
  [[nodiscard]] std::size_t leafCount() const noexcept { return leaves_.size(); }

 private:
  /// A slot holds a child reference: kEmpty, a leaf (kLeafBit | index into
  /// leaves_) or a node (the offset of its enabled count in slots_; its
  /// children follow). slots_[0] is the root's reference, so no node sits at
  /// offset 0 and 0 is free to mean empty.
  static constexpr std::uint32_t kEmpty = 0;
  static constexpr std::uint32_t kLeafBit = std::uint32_t{1} << 31;

  /// Grow `v` to hold `extra` more elements, doubling as push_back would,
  /// unless that would take bytes() past the cap.
  template <class T>
  bool reserveWithinCap(std::vector<T>& v, std::size_t extra);

  std::size_t byteCap_;
  bool full_ = false;
  std::vector<std::uint32_t> slots_{kEmpty};
  std::vector<Leaf> leaves_;
};

class RandomExplorer final : public ExplorerBase {
 public:
  /// The memo's early stop: after this many walks, a search whose walks hit
  /// the memo fewer than once per kMinHitShare stops using it and frees it.
  static constexpr std::uint64_t kProbeWalks = 256;
  static constexpr std::uint64_t kMinHitShare = 32;

  RandomExplorer(ExplorerOptions options, std::uint64_t seed)
      : ExplorerBase(options), seed_(seed) {}

 protected:
  void runSearch(const Program& program) override;

 private:
  std::uint64_t seed_;
};

}  // namespace lazyhb::explore
