// Property-based testing over randomly generated programs.
//
// A seeded generator produces small well-formed concurrent programs (2-3
// threads; reads/writes over a shared variable pool; properly nested
// critical sections over a mutex pool; occasional trylock). For every seed:
//
//   * naive DFS enumerates the space (seeds whose spaces exceed the cap are
//     still theorem-checked, just not completeness-compared);
//   * Theorems 2.1 and 2.2 must hold over every terminal schedule;
//   * the section-3 counting chain must hold;
//   * DPOR (with and without sleep sets) and the three caching explorers
//     must reach exactly the same distinct terminal states as naive
//     enumeration — the soundness property of every reduction — and find a
//     violation exactly when naive search does; the Full and Lazy caches
//     must also keep every lazy HBR, and the Value cache every value class.
//
// This is the suite that caught the subtle bugs during development; 40
// seeds x 6 explorers (plus naive DFS) keeps it strong without dominating
// test time.

#include <gtest/gtest.h>

#include "random_program_gen.hpp"
#include "test_helpers.hpp"

namespace {

using namespace lazyhb;
using lazyhb::testing::GenProgram;

class RandomProgramSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramSweep, AllExplorersAgree) {
  const auto seed = lazyhb::testing::sweepSeed(GetParam());
  const GenProgram gen = lazyhb::testing::generate(seed);
  const explore::Program program = lazyhb::testing::materialize(gen);

  constexpr std::uint64_t kCap = lazyhb::testing::kSweepCap;
  const auto naive = lazyhb::testing::runDfs(program, kCap);

  // Theorems and the counting chain hold regardless of completeness.
  EXPECT_EQ(naive.theorem21.conflicts, 0u) << "seed " << seed;
  EXPECT_EQ(naive.theorem22.conflicts, 0u) << "seed " << seed;
  EXPECT_LE(naive.distinctStates, naive.distinctLazyHbrs);
  EXPECT_LE(naive.distinctLazyHbrs, naive.distinctHbrs);
  EXPECT_LE(naive.distinctHbrs, naive.schedulesExecuted);

  if (!naive.complete) {
    GTEST_SKIP() << "seed " << seed << " space exceeds the cap; theorem-checked only";
  }

  for (const bool sleepSets : {true, false}) {
    const auto dpor = lazyhb::testing::runDpor(program, sleepSets, kCap);
    ASSERT_TRUE(dpor.complete) << "seed " << seed;
    EXPECT_EQ(dpor.distinctStates, naive.distinctStates)
        << "seed " << seed << " sleep=" << sleepSets;
    EXPECT_EQ(dpor.distinctHbrs, naive.distinctHbrs)
        << "seed " << seed << " sleep=" << sleepSets;
    EXPECT_EQ(dpor.distinctLazyHbrs, naive.distinctLazyHbrs)
        << "seed " << seed << " sleep=" << sleepSets;
    EXPECT_LE(dpor.schedulesExecuted, naive.schedulesExecuted);
    EXPECT_EQ(dpor.foundViolation(), naive.foundViolation()) << "seed " << seed;
    EXPECT_EQ(dpor.theorem21.conflicts, 0u);
    EXPECT_EQ(dpor.theorem22.conflicts, 0u);
  }

  for (const auto relation :
       {trace::Relation::Full, trace::Relation::Lazy, trace::Relation::Value}) {
    const auto cached = lazyhb::testing::runCaching(program, relation, kCap);
    const std::string label =
        "seed " + std::to_string(seed) + " relation=" + trace::relationName(relation);
    ASSERT_TRUE(cached.complete) << label;
    EXPECT_EQ(cached.distinctStates, naive.distinctStates) << label;
    if (relation == trace::Relation::Value) {
      EXPECT_EQ(cached.distinctValueClasses, naive.distinctValueClasses) << label;
    } else {
      EXPECT_EQ(cached.distinctLazyHbrs, naive.distinctLazyHbrs) << label;
    }
    EXPECT_EQ(cached.foundViolation(), naive.foundViolation()) << label;
    EXPECT_LE(cached.schedulesExecuted, naive.schedulesExecuted) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramSweep, ::testing::Range(0, 40));

}  // namespace
