// lazyhb/core/hbr_cache.hpp
//
// The happens-before-relation cache of Musuvathi & Qadeer
// (MSR-TR-2007-12), as used in the paper's §2 "Lazy HBR caching":
// the canonical fingerprint of the executed prefix's (lazy) HBR is stored
// after every event; when a later execution reaches a prefix whose
// fingerprint is already cached, that schedule is redundant and exploration
// of it stops. The same class serves regular HBR caching (keyed on full-HBR
// fingerprints) and lazy HBR caching (keyed on lazy-HBR fingerprints) — the
// choice of key *is* the technique.
//
// The store is a power-of-two open-addressing table of Hash128 values with
// tombstone-free linear probing (the cache only ever grows; nothing is
// erased). A lookup is one cache line in the common case: the fingerprints
// are already uniformly distributed, so the low word is the probe start as
// is — no re-hashing, no per-entry nodes, no pointer chase. A slot whose low
// word is 0 is empty; keys whose low word is 0 (probability 2^-64, but cheap
// to be exact about) are kept in a small side set instead. Single-threaded:
// each explorer owns its cache.

#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "support/hash.hpp"

namespace lazyhb::core {

class HbrCache {
 public:
  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;       ///< prefix already seen => schedule pruned
    std::uint64_t insertions = 0;
  };

  HbrCache() : table_(kInitialCapacity) {}

  HbrCache(const HbrCache&) = delete;
  HbrCache& operator=(const HbrCache&) = delete;

  /// Look up `fingerprint`; if absent, insert it. Returns true on a hit
  /// (the prefix was seen before and the caller should prune).
  bool checkAndInsert(support::Hash128 fingerprint) {
    ++stats_.lookups;
    if (insertUncounted(fingerprint)) {
      ++stats_.insertions;
      return false;
    }
    ++stats_.hits;
    return true;
  }

  /// Insert without counting a lookup (used to seed replayed prefixes).
  void insert(support::Hash128 fingerprint) {
    if (insertUncounted(fingerprint)) ++stats_.insertions;
  }

  [[nodiscard]] bool contains(support::Hash128 fingerprint) const;

  [[nodiscard]] std::size_t size() const noexcept {
    return tableUsed_ + zeroLoKeys_.size();
  }

  [[nodiscard]] Stats stats() const noexcept { return stats_; }

  /// Approximate heap footprint in bytes: the flat slot array (the table is
  /// the storage — there are no per-entry nodes). Deliberately ignores
  /// allocator overhead — this is a growth signal for campaign reports, not
  /// a memory audit.
  [[nodiscard]] std::size_t approxMemoryBytes() const noexcept {
    return table_.size() * sizeof(support::Hash128);
  }

  /// Reset to the empty initial-capacity state.
  void clear();

 private:
  static constexpr std::size_t kInitialCapacity = 512;  // power of two

  /// True when the fingerprint was newly inserted, false when present.
  bool insertUncounted(support::Hash128 fingerprint);

  /// Double the table and rehash every slot into it.
  void grow();

  std::vector<support::Hash128> table_;  ///< lo == 0 marks an empty slot
  std::size_t tableUsed_ = 0;            ///< occupied slots
  std::unordered_set<std::uint64_t> zeroLoKeys_;  ///< hi of keys with lo == 0
  Stats stats_;
};

}  // namespace lazyhb::core
