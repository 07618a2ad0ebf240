// Unit tests for the core module: the HBR prefix cache, the theorem
// checkers, the Figure 2/3 summary aggregation and race aggregation.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/equivalence.hpp"
#include "core/hbr_cache.hpp"
#include "core/redundancy.hpp"

namespace {

using namespace lazyhb;
using support::hash128;

TEST(HbrCache, CheckAndInsertSemantics) {
  core::HbrCache cache;
  EXPECT_FALSE(cache.checkAndInsert(hash128(1)));  // first sight: miss
  EXPECT_TRUE(cache.checkAndInsert(hash128(1)));   // second: hit => prune
  EXPECT_FALSE(cache.checkAndInsert(hash128(2)));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().lookups, 3u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().insertions, 2u);
}

TEST(HbrCache, SilentInsertAndClear) {
  core::HbrCache cache;
  cache.insert(hash128(7));
  EXPECT_TRUE(cache.contains(hash128(7)));
  EXPECT_EQ(cache.stats().lookups, 0u);  // insert() is not a lookup
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.contains(hash128(7)));
}

TEST(HbrCache, SurvivesGrowthAcrossLoadFactor) {
  // Push well past several doublings of the open-addressing table; every
  // fingerprint inserted must remain resident and no phantom member appears.
  core::HbrCache cache;
  constexpr std::uint64_t kCount = 10000;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    EXPECT_FALSE(cache.checkAndInsert(hash128(i)));
  }
  EXPECT_EQ(cache.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    EXPECT_TRUE(cache.contains(hash128(i))) << i;
  }
  EXPECT_FALSE(cache.contains(hash128(kCount + 1)));
  // The table is the storage: footprint stays within the load factor's
  // slack of one slot per entry (capacity <= entries / 0.7 rounded up to a
  // power of two, i.e. < 4x entries even right after a doubling).
  EXPECT_LT(cache.approxMemoryBytes(), 4 * kCount * sizeof(support::Hash128));
}

TEST(HbrCache, ZeroFingerprintIsAValidKey) {
  // The all-zero hash doubles as the empty-slot sentinel internally; it must
  // still behave as an ordinary key at the interface.
  core::HbrCache cache;
  const support::Hash128 zero{};
  EXPECT_FALSE(cache.contains(zero));
  EXPECT_FALSE(cache.checkAndInsert(zero));
  EXPECT_TRUE(cache.checkAndInsert(zero));
  EXPECT_TRUE(cache.contains(zero));
  EXPECT_EQ(cache.size(), 1u);
  cache.clear();
  EXPECT_FALSE(cache.contains(zero));

  // Every key whose low word is 0 (the empty-slot marker) or all ones,
  // inserted interleaved with ordinary keys: membership and size stay
  // exact, and no key of one class shadows another.
  constexpr std::uint64_t kPerClass = 64;
  constexpr std::uint64_t kOnes = ~std::uint64_t{0};
  for (std::uint64_t j = 0; j < kPerClass; ++j) {
    EXPECT_FALSE(cache.checkAndInsert(support::Hash128{0, j})) << j;
    EXPECT_FALSE(cache.checkAndInsert(support::Hash128{kOnes, j})) << j;
    EXPECT_FALSE(cache.checkAndInsert(support::Hash128{j + 1, j})) << j;
  }
  for (std::uint64_t j = 0; j < kPerClass; ++j) {
    EXPECT_TRUE(cache.checkAndInsert(support::Hash128{0, j})) << j;
    EXPECT_TRUE(cache.contains(support::Hash128{kOnes, j})) << j;
    EXPECT_TRUE(cache.contains(support::Hash128{j + 1, j})) << j;
  }
  EXPECT_EQ(cache.size(), 3 * kPerClass);
  EXPECT_EQ(cache.stats().insertions, 3 * kPerClass);
  EXPECT_EQ(cache.stats().hits, kPerClass);
  EXPECT_FALSE(cache.contains(support::Hash128{0, kPerClass}));
  EXPECT_FALSE(cache.contains(support::Hash128{kOnes, kPerClass}));
  EXPECT_FALSE(cache.contains(support::Hash128{1, 1}));
}

TEST(HbrCache, CollidingProbeStartsChainCorrectly) {
  // Fingerprints whose low words collide modulo the table size probe
  // linearly; membership must be exact for every member of the cluster.
  core::HbrCache cache;
  std::vector<support::Hash128> cluster;
  for (std::uint64_t i = 0; i < 32; ++i) {
    cluster.push_back(support::Hash128{0x40, 0x1000 + i});  // identical .lo
  }
  for (const auto& h : cluster) EXPECT_FALSE(cache.checkAndInsert(h));
  for (const auto& h : cluster) EXPECT_TRUE(cache.contains(h));
  EXPECT_EQ(cache.size(), cluster.size());
  EXPECT_FALSE(cache.contains(support::Hash128{0x40, 0x9999}));
}

TEST(EquivalenceChecker, DetectsTheoremConflicts) {
  core::EquivalenceChecker checker;
  EXPECT_TRUE(checker.record(hash128(1), hash128(100)));  // new class
  EXPECT_TRUE(checker.record(hash128(1), hash128(100)));  // consistent repeat
  EXPECT_TRUE(checker.record(hash128(2), hash128(200)));
  EXPECT_FALSE(checker.record(hash128(1), hash128(999)));  // conflict!
  const auto& stats = checker.stats();
  EXPECT_EQ(stats.schedules, 4u);
  EXPECT_EQ(stats.classes, 2u);
  EXPECT_EQ(stats.states, 3u);
  EXPECT_EQ(stats.conflicts, 1u);
}

TEST(EquivalenceChecker, ManyClassesOneState) {
  // The lazy-HBR promise in miniature: classes may exceed states, never
  // the other way round per class.
  core::EquivalenceChecker checker;
  for (std::uint64_t c = 0; c < 50; ++c) {
    EXPECT_TRUE(checker.record(hash128(c), hash128(42)));
  }
  EXPECT_EQ(checker.stats().classes, 50u);
  EXPECT_EQ(checker.stats().states, 1u);
  EXPECT_EQ(checker.stats().conflicts, 0u);
}

core::BenchmarkCounts counts(const char* name, std::uint64_t schedules,
                             std::uint64_t hbrs, std::uint64_t lazyHbrs,
                             std::uint64_t states) {
  core::BenchmarkCounts c;
  c.name = name;
  c.schedules = schedules;
  c.hbrs = hbrs;
  c.lazyHbrs = lazyHbrs;
  c.states = states;
  return c;
}

TEST(Redundancy, Fig2SummaryMatchesPaperArithmetic) {
  // Mirror the paper's aggregate definition on a toy set: two benchmarks
  // below the diagonal (with 100+20 HBRs, 10+2 lazy) and one on it.
  std::vector<core::BenchmarkCounts> rows{
      counts("a", 1000, 100, 10, 5),
      counts("b", 500, 20, 2, 2),
      counts("c", 10, 7, 7, 3),
  };
  const auto summary = core::summarizeFig2(rows);
  EXPECT_EQ(summary.benchmarks, 3);
  EXPECT_EQ(summary.belowDiagonal, 2);
  EXPECT_EQ(summary.hbrsBelow, 120u);
  EXPECT_EQ(summary.lazyHbrsBelow, 12u);
  EXPECT_EQ(summary.redundantHbrs, 108u);
  EXPECT_NEAR(summary.redundantPercent, 90.0, 0.01);
}

TEST(Redundancy, Fig3SummaryCountsDifferingOnly) {
  std::vector<core::CachingCounts> rows(3);
  rows[0].lazyHbrsByRegularCaching = 10;
  rows[0].lazyHbrsByLazyCaching = 25;  // differs: +15
  rows[1].lazyHbrsByRegularCaching = 7;
  rows[1].lazyHbrsByLazyCaching = 7;  // equal
  rows[2].lazyHbrsByRegularCaching = 3;
  rows[2].lazyHbrsByLazyCaching = 6;  // differs: +3
  const auto summary = core::summarizeFig3(rows);
  EXPECT_EQ(summary.differing, 2);
  EXPECT_EQ(summary.regularWon, 0);
  EXPECT_EQ(summary.extraLazyHbrs, 18u);
  EXPECT_EQ(summary.regularOnDiffering, 13u);
  EXPECT_NEAR(summary.extraPercent, 100.0 * 18.0 / 13.0, 0.01);
}

TEST(Redundancy, CountingChainDiagnostics) {
  EXPECT_EQ(core::checkCountingChain(counts("ok", 100, 50, 20, 10), 1000), "");
  EXPECT_NE(core::checkCountingChain(counts("bad1", 100, 50, 60, 10), 1000), "");
  EXPECT_NE(core::checkCountingChain(counts("bad2", 100, 200, 20, 10), 1000), "");
  EXPECT_NE(core::checkCountingChain(counts("bad3", 100, 50, 20, 30), 1000), "");
  EXPECT_NE(core::checkCountingChain(counts("bad4", 2000, 50, 20, 10), 1000), "");
}

}  // namespace
