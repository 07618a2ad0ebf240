// lazyhb/support/hash.hpp
//
// Hashing primitives used throughout the library.
//
// The partial-order fingerprints at the heart of lazy-HBR caching are built
// from these: a strong 64-bit mixer (splitmix64 finaliser), a 128-bit value
// type with order-sensitive mixing, an order-*insensitive* multiset
// accumulator used to fingerprint sets of per-event hashes, and the two
// per-event kernels — the pair hash and the causal combine — that run once
// per committed event of every explored schedule.
//
// Cost model: one mix64 is two multiplies and three shift-xors. The
// per-event kernels spend one mix per output lane, the two lanes in
// parallel; everything else they do is adds, xors and multiplies by odd
// constants — each a bijection of a lane while its other operand is fixed.
// The collision arguments below model mix64 as a random permutation and the
// schedule-invariant UIDs (themselves mix64 outputs) as uniform.

#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>

namespace lazyhb::support {

/// Final mixing step of splitmix64. Bijective on 64-bit values; excellent
/// avalanche behaviour. This is the workhorse scalar mixer.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Combine two 64-bit values into one, order-sensitively.
[[nodiscard]] constexpr std::uint64_t hashCombine(std::uint64_t a,
                                                  std::uint64_t b) noexcept {
  // boost::hash_combine-style with a stronger finaliser.
  return mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/// A 128-bit hash value. Used for partial-order fingerprints where the cost
/// of a collision is a silently-pruned schedule; at 128 bits the collision
/// probability over even 10^9 distinct prefixes is negligible (< 10^-20).
struct Hash128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend constexpr bool operator==(const Hash128&, const Hash128&) = default;

  /// Order-sensitive combine of two 128-bit hashes. By value throughout:
  /// Hash128 is two registers under the SysV ABI, so indirection would only
  /// add a load on the per-event fingerprint path.
  [[nodiscard]] constexpr Hash128 mixedWith(Hash128 o) const noexcept {
    return Hash128{hashCombine(lo, o.lo), hashCombine(hi ^ 0xabcdef0123456789ULL, o.hi)};
  }

  /// True iff this is the default (all-zero) hash.
  [[nodiscard]] constexpr bool isZero() const noexcept { return lo == 0 && hi == 0; }

  /// Render as 32 hex digits (for logs and debugging).
  [[nodiscard]] std::string toHex() const;
};

/// Hash a 64-bit value into a 128-bit one using two independent streams.
[[nodiscard]] constexpr Hash128 hash128(std::uint64_t x) noexcept {
  return Hash128{mix64(x ^ 0x243f6a8885a308d3ULL), mix64(x ^ 0x13198a2e03707344ULL)};
}

/// Hash an ordered pair: two mixes, one per lane, in parallel — and a
/// *bijection* of (a, b):
///
///   lo = mix64((a + b) ^ k1)
///   hi = mix64((a + 2b) ^ k2)
///
/// (a, b) ↦ (a + b, a + 2b) is invertible mod 2^64 (the matrix [1 1; 1 2]
/// has determinant 1: b = v - u, a = 2u - v), and each lane's mix is a
/// bijection. So distinct pairs never collide — no probability is involved
/// — and the hash is order-sensitive exactly: hash128(a, b) == hash128(b, a)
/// iff a == b. Both lanes depend on both inputs, so sums of pair hashes (the
/// MultisetHash accumulators over (uid, value) pairs) see well-mixed values
/// in both lanes.
[[nodiscard]] constexpr Hash128 hash128(std::uint64_t a, std::uint64_t b) noexcept {
  return Hash128{mix64((a + b) ^ 0x452821e638d01377ULL),
                 mix64((a + 2 * b) ^ 0xbe5466cf34e90c6cULL)};
}

/// FNV-1a over raw bytes; adequate for strings/labels off the hot path.
[[nodiscard]] inline std::uint64_t hashBytes(const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return mix64(h);
}

[[nodiscard]] inline std::uint64_t hashString(std::string_view s) noexcept {
  return hashBytes(s.data(), s.size());
}

/// Order-insensitive accumulator over a multiset of Hash128 values.
///
/// Equal multisets of element hashes produce equal accumulator values
/// regardless of insertion order. `sum` is a component-wise modular sum
/// (multiset-safe: duplicates accumulate rather than cancel as they would
/// under XOR alone); `zip` is a second, independent reduction that guards the
/// sum against structured-collision accidents. `count` disambiguates prefixes
/// of different lengths for free.
struct MultisetHash {
  std::uint64_t sumLo = 0;
  std::uint64_t sumHi = 0;
  std::uint64_t zip = 0;
  std::uint64_t count = 0;

  constexpr void add(Hash128 h) noexcept {
    sumLo += h.lo;
    sumHi += h.hi;
    zip += mix64(h.lo ^ (h.hi * 0x9e3779b97f4a7c15ULL));
    ++count;
  }

  /// Remove a previously-added element (sum/zip are abelian-group valued).
  constexpr void remove(Hash128 h) noexcept {
    sumLo -= h.lo;
    sumHi -= h.hi;
    zip -= mix64(h.lo ^ (h.hi * 0x9e3779b97f4a7c15ULL));
    --count;
  }

  [[nodiscard]] constexpr Hash128 digest() const noexcept {
    const std::uint64_t a = mix64(sumLo ^ mix64(count));
    const std::uint64_t b = mix64(sumHi + 0x2545f4914f6cdd1dULL * count);
    const std::uint64_t c = mix64(zip ^ 0x9e3779b97f4a7c15ULL);
    return Hash128{hashCombine(a, c), hashCombine(b, mix64(c + count))};
  }

  friend constexpr bool operator==(const MultisetHash&, const MultisetHash&) = default;
};

/// The per-event causal hash of one relation: an event's label combined
/// with the *set* of its direct predecessors' causal hashes.
///
///   lo = mix64((Σ p.lo + n·g) ^ label.lo ^ salt.lo)
///   hi = mix64((Σ p.hi + n·g) ^ label.hi ^ salt.hi)
///
/// over the n deduplicated predecessors p (sums mod 2^64, g odd). Why this
/// is still a 128-bit canonical combine:
///   * Order: lane sums commute, so any enumeration order of the
///     predecessors gives the same hash.
///   * Same predecessor set, different labels: the labels differ in some
///     lane, so that lane's pre-mix word differs, and mix64 is a bijection —
///     the hashes differ with certainty.
///   * Different predecessor sets P != Q (any labels), say P holds some p
///     that Q lacks: a collision needs the sum over P \ Q to hit one value
///     fixed by everything else in the equation, in *both* lanes. The p
///     are causal hashes themselves — mix64 outputs, independent and
///     uniform per lane — and P is deduplicated, so each enters that sum
///     once and the sum is uniform: probability 2^-64 per lane, 2^-128 for
///     the pair. (A duplicate would enter as 2·p, uniform only over even
///     words; sets lose no bit.)
///   * n costs one add; it separates sets whose sums coincide in one lane.
///   * salt separates relations: the Full and Lazy hashes of one event,
///     whose predecessor sets often coincide, stay distinct.
/// No per-predecessor mix is needed: the predecessors' hashes are already
/// mix64 outputs, so two mixes in all finish the combine.
struct CausalSum {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::uint64_t count = 0;

  constexpr void add(Hash128 h) noexcept {
    lo += h.lo;
    hi += h.hi;
    ++count;
  }

  [[nodiscard]] constexpr Hash128 finish(Hash128 label, Hash128 salt) const noexcept {
    const std::uint64_t n = count * 0x9e3779b97f4a7c15ULL;
    return Hash128{mix64((lo + n) ^ label.lo ^ salt.lo),
                   mix64((hi + n) ^ label.hi ^ salt.hi)};
  }
};

/// std::hash adaptor so Hash128 can key unordered containers directly.
struct Hash128Hasher {
  [[nodiscard]] std::size_t operator()(Hash128 h) const noexcept {
    return static_cast<std::size_t>(h.lo ^ mix64(h.hi));
  }
};

}  // namespace lazyhb::support
