// Unit tests for the core module: the HBR prefix cache, the theorem
// checkers and race aggregation; plus the Figure 2/3 totals and the §3
// chain check the campaign layer builds on them.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/equivalence.hpp"
#include "core/hbr_cache.hpp"

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

explore::ExplorationResult counts(std::uint64_t schedules, std::uint64_t hbrs,
                                  std::uint64_t lazyHbrs, std::uint64_t states) {
  explore::ExplorationResult c;
  c.schedulesExecuted = schedules;
  c.distinctHbrs = hbrs;
  c.distinctLazyHbrs = lazyHbrs;
  c.distinctStates = states;
  return c;
}

campaign::ProgramSummary dporRow(std::uint64_t hbrs, std::uint64_t lazyHbrs) {
  campaign::ProgramSummary p;
  p.hasDpor = true;
  p.dporHbrs = hbrs;
  p.dporLazyHbrs = lazyHbrs;
  p.belowDiagonal = lazyHbrs < hbrs;
  return p;
}

campaign::ProgramSummary cachingRow(std::uint64_t regular, std::uint64_t lazy) {
  campaign::ProgramSummary p;
  p.hasCachingPair = true;
  p.lazyHbrsByFullCaching = regular;
  p.lazyHbrsByLazyCaching = lazy;
  p.cachingDiffers = lazy > regular;
  return p;
}

TEST(Redundancy, Fig2SummaryMatchesPaperArithmetic) {
  // Mirror the paper's aggregate definition on a toy set: two programs
  // below the diagonal (with 100+20 HBRs, 10+2 lazy), one on it, and one
  // without a dpor cell.
  const std::vector<campaign::ProgramSummary> rows{
      dporRow(100, 10), dporRow(20, 2), dporRow(7, 7), cachingRow(5, 9)};
  const campaign::FigureTotals totals = campaign::figureTotals(rows);
  EXPECT_EQ(totals.dporPrograms, 3);
  EXPECT_EQ(totals.belowDiagonal, 2);
  EXPECT_EQ(totals.hbrsBelow, 120u);
  EXPECT_EQ(totals.redundantHbrs, 108u);
  EXPECT_NEAR(totals.redundantPercent, 90.0, 0.01);
}

TEST(Redundancy, Fig3SummaryCountsDifferingOnly) {
  const std::vector<campaign::ProgramSummary> rows{
      cachingRow(10, 25),  // differs: +15
      cachingRow(7, 7),    // equal
      cachingRow(3, 6),    // differs: +3
      cachingRow(4, 2),    // regular won
      dporRow(9, 1)};      // no caching pair
  const campaign::FigureTotals totals = campaign::figureTotals(rows);
  EXPECT_EQ(totals.cachingPrograms, 4);
  EXPECT_EQ(totals.cachingDiffers, 2);
  EXPECT_EQ(totals.regularWon, 1);
  EXPECT_EQ(totals.extraLazyHbrs, 18u);
  EXPECT_EQ(totals.regularOnDiffering, 13u);
  EXPECT_NEAR(totals.extraPercent, 100.0 * 18.0 / 13.0, 0.01);
}

TEST(Redundancy, CountingChainDiagnostics) {
  EXPECT_EQ(campaign::checkCountingChain("ok", counts(100, 50, 20, 10), 1000), "");
  EXPECT_EQ(campaign::checkCountingChain("bad1", counts(100, 50, 60, 10), 1000),
            "bad1: counting chain violated (#lazyHBRs > #HBRs)");
  EXPECT_EQ(campaign::checkCountingChain("bad2", counts(100, 200, 20, 10), 1000),
            "bad2: counting chain violated (#HBRs > #schedules)");
  EXPECT_EQ(campaign::checkCountingChain("bad3", counts(100, 50, 20, 30), 1000),
            "bad3: counting chain violated (#states > #lazyHBRs)");
  EXPECT_EQ(campaign::checkCountingChain("bad4", counts(2000, 50, 20, 10), 1000),
            "bad4: counting chain violated (#schedules > limit)");

  // With value classes recorded, the extended links are checked instead.
  explore::ExplorationResult value = counts(100, 50, 20, 10);
  value.distinctValueClasses = 15;
  EXPECT_EQ(campaign::checkCountingChain("v", value, 1000), "");
  value.distinctValueClasses = 25;
  EXPECT_EQ(campaign::checkCountingChain("v", value, 1000),
            "v: counting chain violated (#valueClasses > #lazyHBRs)");
  value.distinctValueClasses = 5;
  EXPECT_EQ(campaign::checkCountingChain("v", value, 1000),
            "v: counting chain violated (#states > #valueClasses)");

  // A theorem conflict breaks the verdict even when the chain holds, and
  // is named before any chain link: the chain is the theorems' corollary.
  explore::ExplorationResult thm = counts(100, 50, 20, 10);
  thm.theorem21.conflicts = 1;
  EXPECT_EQ(campaign::checkCountingChain("t", thm, 1000),
            "t: theorem 2.1 violated (1 conflict)");
  thm = counts(100, 50, 20, 10);
  thm.theorem22.conflicts = 3;
  EXPECT_EQ(campaign::checkCountingChain("t", thm, 1000),
            "t: theorem 2.2 violated (3 conflicts)");
  thm = counts(100, 50, 60, 10);  // #lazyHBRs > #HBRs as well
  thm.theoremValue.conflicts = 2;
  EXPECT_EQ(campaign::checkCountingChain("t", thm, 1000),
            "t: value soundness violated (2 conflicts)");
}

}  // namespace
