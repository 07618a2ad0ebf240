#include "core/hbr_cache.hpp"

namespace lazyhb::core {

namespace {

/// Grow once table occupancy reaches 70%.
bool overLoadFactor(std::size_t used, std::size_t capacity) noexcept {
  return used * 10 >= capacity * 7;
}

}  // namespace

bool HbrCache::insertUncounted(support::Hash128 fingerprint) {
  if (fingerprint.lo == 0) return zeroLoKeys_.insert(fingerprint.hi).second;
  const std::size_t mask = table_.size() - 1;
  std::size_t index = static_cast<std::size_t>(fingerprint.lo) & mask;
  for (;;) {
    support::Hash128& slot = table_[index];
    if (slot.lo == 0) break;
    if (slot == fingerprint) return false;
    index = (index + 1) & mask;  // collision: linear probe
  }
  table_[index] = fingerprint;
  if (overLoadFactor(++tableUsed_, table_.size())) grow();
  return true;
}

bool HbrCache::contains(support::Hash128 fingerprint) const {
  if (fingerprint.lo == 0) return zeroLoKeys_.count(fingerprint.hi) != 0;
  const std::size_t mask = table_.size() - 1;
  for (std::size_t index = static_cast<std::size_t>(fingerprint.lo) & mask;;
       index = (index + 1) & mask) {
    const support::Hash128& slot = table_[index];
    if (slot.lo == 0) return false;  // empty slot terminates the probe chain
    if (slot == fingerprint) return true;
  }
}

void HbrCache::grow() {
  std::vector<support::Hash128> bigger(table_.size() * 2);
  const std::size_t mask = bigger.size() - 1;
  for (const support::Hash128& slot : table_) {
    if (slot.lo == 0) continue;
    std::size_t index = static_cast<std::size_t>(slot.lo) & mask;
    while (bigger[index].lo != 0) index = (index + 1) & mask;
    bigger[index] = slot;
  }
  table_.swap(bigger);
}

void HbrCache::clear() {
  table_ = std::vector<support::Hash128>(kInitialCapacity);
  tableUsed_ = 0;
  zeroLoKeys_.clear();
  stats_ = Stats{};
}

}  // namespace lazyhb::core
