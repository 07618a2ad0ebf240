// Shared helpers for the lazyhb test suite.

#pragma once

#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/report.hpp"
#include "explore/dfs_explorer.hpp"
#include "explore/explorer.hpp"
#include "explore/random_explorer.hpp"
#include "runtime/api.hpp"

namespace lazyhb::testing {

inline explore::ExplorerOptions smallOptions(std::uint64_t limit = 200'000) {
  explore::ExplorerOptions options;
  options.scheduleLimit = limit;
  options.maxEventsPerSchedule = 4096;
  options.checkTheorems = true;
  return options;
}

inline explore::ExplorationResult runDfs(const explore::Program& p,
                                         std::uint64_t limit = 200'000) {
  explore::TreeExplorer explorer(smallOptions(limit));
  return explorer.explore(p);
}

inline explore::ExplorationResult runDpor(const explore::Program& p, bool sleepSets = true,
                                          std::uint64_t limit = 200'000) {
  explore::TreeExplorer explorer(smallOptions(limit),
                                 explore::DporOptions{.sleepSets = sleepSets});
  return explorer.explore(p);
}

inline explore::ExplorationResult runCaching(const explore::Program& p, trace::Relation r,
                                             std::uint64_t limit = 200'000) {
  explore::TreeExplorer explorer(smallOptions(limit), r);
  return explorer.explore(p);
}

/// EXPECT_EQ on every count of campaign::forEachCount whose class is
/// `widest` or an earlier one: Contract across incremental modes,
/// Configuration across --jobs, shards and resumes, Scoreboard for two runs
/// that must agree on everything.
inline void expectSameCounts(const explore::ExplorationResult& a,
                             const explore::ExplorationResult& b,
                             campaign::CountClass widest, const std::string& label) {
  campaign::forEachCount(
      [&](const campaign::Count& count, const auto& x, const auto& y) {
        if (count.kind <= widest) {
          EXPECT_EQ(x, y) << label << ": " << count.name();
        }
      },
      a, b);
}

/// The exact program of the paper's Figure 1 (plus the spawn/join scaffold a
/// real program needs): T1 locks m, reads x, unlocks m, writes y; T2 writes
/// z, locks m, reads x, unlocks m.
inline void figure1Program() {
  using namespace lazyhb;
  Shared<int> x{7, "x"};
  Shared<int> y{0, "y"};
  Shared<int> z{0, "z"};
  Mutex m("m");
  auto t2 = spawn([&] {
    z.store(1);
    m.lock();
    (void)x.load();
    m.unlock();
  });
  m.lock();
  (void)x.load();
  m.unlock();
  y.store(1);
  t2.join();
}

}  // namespace lazyhb::testing
