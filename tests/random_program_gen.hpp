// A seeded generator of small well-formed concurrent programs, shared by the
// property sweep (test_random_programs.cpp) and the exact-oracle checks
// (test_trace.cpp): 2-3 threads; reads/writes over a shared variable pool;
// properly nested critical sections over a mutex pool; occasional trylock.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "explore/explorer.hpp"
#include "runtime/api.hpp"
#include "support/rng.hpp"

namespace lazyhb::testing {

struct GenOp {
  enum class Kind : std::uint8_t { Read, Write, Lock, Unlock, TryLockPulse };
  Kind kind = Kind::Read;
  int object = 0;  // var index for Read/Write; mutex index otherwise
};

struct GenProgram {
  int vars = 2;
  int mutexes = 2;
  std::vector<std::vector<GenOp>> threads;
};

/// Generate a structurally valid program: every Lock is closed by a
/// matching Unlock in the same thread (nesting allowed, max depth 2, no
/// re-acquisition of a held mutex).
inline GenProgram generate(std::uint64_t seed) {
  support::Rng rng(seed);
  GenProgram p;
  p.vars = rng.intIn(1, 2);
  p.mutexes = rng.intIn(1, 2);
  const int threadCount = rng.intIn(2, 3);
  for (int t = 0; t < threadCount; ++t) {
    std::vector<GenOp> ops;
    std::vector<int> held;  // lock stack
    const int steps = rng.intIn(2, 4);
    for (int s = 0; s < steps; ++s) {
      const int roll = rng.intIn(0, 9);
      if (roll < 4) {
        ops.push_back({rng.chance(1, 2) ? GenOp::Kind::Read : GenOp::Kind::Write,
                       rng.intIn(0, p.vars - 1)});
      } else if (roll < 7 && held.size() < 2) {
        const int m = rng.intIn(0, p.mutexes - 1);
        bool alreadyHeld = false;
        for (const int h : held) alreadyHeld = alreadyHeld || h == m;
        if (!alreadyHeld) {
          ops.push_back({GenOp::Kind::Lock, m});
          held.push_back(m);
        }
      } else if (roll < 8 && !held.empty()) {
        ops.push_back({GenOp::Kind::Unlock, held.back()});
        held.pop_back();
      } else {
        ops.push_back({GenOp::Kind::TryLockPulse, rng.intIn(0, p.mutexes - 1)});
      }
    }
    while (!held.empty()) {
      ops.push_back({GenOp::Kind::Unlock, held.back()});
      held.pop_back();
    }
    p.threads.push_back(std::move(ops));
  }
  return p;
}

/// Interpret a generated program against the lazyhb API.
inline explore::Program materialize(const GenProgram& gen) {
  return [gen] {
    std::vector<std::unique_ptr<Shared<int>>> vars;
    for (int v = 0; v < gen.vars; ++v) {
      vars.push_back(std::make_unique<Shared<int>>(0, "v"));
    }
    std::vector<std::unique_ptr<Mutex>> mutexes;
    for (int m = 0; m < gen.mutexes; ++m) {
      mutexes.push_back(std::make_unique<Mutex>("m"));
    }
    std::vector<ThreadHandle> workers;
    for (const auto& ops : gen.threads) {
      workers.push_back(spawn([&vars, &mutexes, &ops] {
        for (const GenOp& op : ops) {
          switch (op.kind) {
            case GenOp::Kind::Read:
              (void)vars[static_cast<std::size_t>(op.object)]->load();
              break;
            case GenOp::Kind::Write:
              vars[static_cast<std::size_t>(op.object)]->modify(
                  [](int v) { return v + 1; });
              break;
            case GenOp::Kind::Lock:
              mutexes[static_cast<std::size_t>(op.object)]->lock();
              break;
            case GenOp::Kind::Unlock:
              mutexes[static_cast<std::size_t>(op.object)]->unlock();
              break;
            case GenOp::Kind::TryLockPulse:
              if (mutexes[static_cast<std::size_t>(op.object)]->tryLock()) {
                mutexes[static_cast<std::size_t>(op.object)]->unlock();
              }
              break;
          }
        }
      }));
    }
    for (auto& w : workers) w.join();
  };
}

/// The generator seed of sweep parameter `param`.
inline std::uint64_t sweepSeed(int param) {
  return static_cast<std::uint64_t>(param) * 0x9e3779b97f4a7c15ULL + 1;
}

/// Naive-DFS schedule cap of the sweep: seeds whose space exceeds it are
/// theorem-checked only.
inline constexpr std::uint64_t kSweepCap = 60000;

}  // namespace lazyhb::testing
