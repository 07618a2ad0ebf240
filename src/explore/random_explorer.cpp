#include "explore/random_explorer.hpp"

#include <algorithm>

namespace lazyhb::explore {

namespace {

class RandomScheduler final : public runtime::Scheduler {
 public:
  /// Appends every pick to `path` (PickTrie::insert's input).
  RandomScheduler(std::uint64_t seed, std::vector<PickTrie::Step>& path)
      : rng_(seed), path_(path) {}

  int pick(runtime::Execution& exec) override {
    const support::ThreadSet enabled = exec.enabled();
    const auto size = static_cast<std::uint32_t>(enabled.size());
    auto nth = static_cast<std::uint32_t>(rng_.below(size));
    path_.push_back(PickTrie::Step{size, nth});
    int tid = enabled.first();
    while (nth-- > 0) {
      tid = enabled.next(tid);
    }
    return tid;
  }

 private:
  support::Rng rng_;
  std::vector<PickTrie::Step>& path_;
};

}  // namespace

const PickTrie::Leaf* PickTrie::find(std::uint64_t seed) const {
  support::Rng rng(seed);
  std::uint32_t ref = slots_[0];
  while (ref != kEmpty && (ref & kLeafBit) == 0) {
    ref = slots_[ref + 1 + rng.below(slots_[ref])];
  }
  return ref == kEmpty ? nullptr : &leaves_[ref & ~kLeafBit];
}

template <class T>
bool PickTrie::reserveWithinCap(std::vector<T>& v, std::size_t extra) {
  const std::size_t needed = v.size() + extra;
  if (needed <= v.capacity()) return true;
  const std::size_t grown = std::max(needed, 2 * v.capacity());
  if (bytes() + (grown - v.capacity()) * sizeof(T) > byteCap_) return false;
  v.reserve(grown);
  return true;
}

bool PickTrie::insert(const std::vector<Step>& path, const Leaf& leaf) {
  if (full_) return false;
  // Follow the stored prefix; `at` is the slot the walk leaves the trie by.
  std::size_t at = 0;
  std::size_t depth = 0;
  for (; depth < path.size() && slots_[at] != kEmpty; ++depth) {
    const std::uint32_t node = slots_[at];
    // A pick prefix fixes whether a scheduling point follows and how many
    // picks it enables, unless the program breaks the determinism contract
    // (explorer.hpp's Program); then the walk is not stored.
    if ((node & kLeafBit) != 0 || slots_[node] != path[depth].enabled) return false;
    at = node + 1 + path[depth].pick;
  }
  if (slots_[at] != kEmpty) return false;
  std::size_t newSlots = 0;
  for (std::size_t i = depth; i < path.size(); ++i) newSlots += 1 + path[i].enabled;
  if (leaves_.size() >= kLeafBit || !reserveWithinCap(slots_, newSlots) ||
      !reserveWithinCap(leaves_, 1)) {
    full_ = true;
    return false;
  }
  for (; depth < path.size(); ++depth) {
    const auto node = static_cast<std::uint32_t>(slots_.size());
    slots_[at] = node;
    slots_.push_back(path[depth].enabled);
    slots_.resize(slots_.size() + path[depth].enabled, kEmpty);
    at = node + 1 + path[depth].pick;
  }
  slots_[at] = kLeafBit | static_cast<std::uint32_t>(leaves_.size());
  leaves_.push_back(leaf);
  return true;
}

void RandomExplorer::runSearch(const Program& program) {
  PickTrie memo;
  bool memoizing = true;
  std::uint64_t hits = 0;
  std::vector<PickTrie::Step> path;
  for (std::uint64_t k = 0; mayRunSchedule(); ++k) {
    const std::uint64_t seed = support::mix64(seed_ + k);
    if (memoizing && k == kProbeWalks && hits * kMinHitShare < kProbeWalks) {
      memoizing = false;
      memo = PickTrie();  // frees the slots and leaves
    }
    if (memoizing) {
      if (const PickTrie::Leaf* leaf = memo.find(seed)) {
        ++hits;
        ScheduleRecord record = leaf->record;
        if (leaf->keptViolation != PickTrie::Leaf::kNotKept) {
          record.violation = &result().violations[leaf->keptViolation];
        }
        fold(record);
        continue;
      }
    }
    path.clear();
    RandomScheduler scheduler(seed, path);
    const std::size_t kept = result().violations.size();
    PickTrie::Leaf leaf{executeSchedule(program, scheduler)};
    if (memoizing) {
      leaf.record.violation = nullptr;
      if (result().violations.size() > kept) {
        leaf.keptViolation = static_cast<std::uint32_t>(kept);
      }
      memo.insert(path, leaf);
    }
  }
}

}  // namespace lazyhb::explore
