// Deeper runtime-engine tests: condvar FIFO and broadcast semantics,
// semaphore counting, nested spawn identity, stack-pool reuse, teardown
// robustness when executions are pruned at every possible depth, and
// enabled-set correctness around blocking operations.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "explore/dfs_explorer.hpp"
#include "explore/replay.hpp"
#include "runtime/api.hpp"
#include "runtime/fiber.hpp"

namespace {

using namespace lazyhb;
using runtime::Config;
using runtime::Execution;
using runtime::Outcome;
using runtime::StackPool;

class FirstEnabled final : public runtime::Scheduler {
 public:
  int pick(Execution& exec) override { return exec.enabled().first(); }
};

/// Picks the highest-numbered enabled thread: children drain before the
/// main thread proceeds (used where main would otherwise starve them by
/// spinning on a condition they have not yet had a chance to establish).
class LastEnabled final : public runtime::Scheduler {
 public:
  int pick(Execution& exec) override {
    const support::ThreadSet enabled = exec.enabled();
    int tid = enabled.first();
    for (int next = enabled.next(tid); next != -1; next = enabled.next(tid)) {
      tid = next;
    }
    return tid;
  }
};

Outcome run(const std::function<void()>& body, runtime::Scheduler& s,
            Execution* out = nullptr) {
  StackPool pool;
  Execution exec(Config{}, pool, nullptr);
  const Outcome outcome = exec.run(body, s);
  if (out != nullptr) {
    // Execution is not copyable; callers use the pointer variant below.
  }
  return outcome;
}

TEST(Runtime, CondVarWakesInFifoOrder) {
  // Three waiters park in order; three signals must wake them in the same
  // order (deterministic wakeup is part of the schedule-invariance story).
  LastEnabled sched;
  StackPool pool;
  Execution exec(Config{}, pool, nullptr);
  const Outcome outcome = exec.run(
      [] {
        Mutex m("m");
        CondVar cv("cv");
        Shared<int> wokenOrder{0, "order"};
        Shared<int> parked{0, "parked"};
        std::vector<ThreadHandle> waiters;
        for (int i = 1; i <= 3; ++i) {
          waiters.push_back(spawn([&, i] {
            LockGuard guard(m);
            parked.fetchAdd(1);
            cv.wait(m);
            // Encode wake order in base 10: first-woken contributes the
            // most significant digit.
            wokenOrder.store(wokenOrder.load() * 10 + i);
          }));
        }
        // Wait until all three are parked (first-enabled scheduling runs
        // each spawned thread to its wait before the main thread proceeds,
        // but the loop makes the invariant explicit).
        while (parked.load() < 3) {
          yield();
        }
        for (int i = 0; i < 3; ++i) {
          LockGuard guard(m);
          cv.signal();
        }
        for (auto& w : waiters) w.join();
        checkAlways(wokenOrder.load() == 123, "FIFO wakeup");
      },
      sched);
  EXPECT_EQ(outcome, Outcome::Terminal);
}

TEST(Runtime, BroadcastWakesAllWaiters) {
  LastEnabled sched;
  EXPECT_EQ(run(
                [] {
                  Mutex m("m");
                  CondVar cv("cv");
                  Shared<int> parked{0, "parked"};
                  Shared<int> woken{0, "woken"};
                  std::vector<ThreadHandle> waiters;
                  for (int i = 0; i < 3; ++i) {
                    waiters.push_back(spawn([&] {
                      LockGuard guard(m);
                      parked.fetchAdd(1);
                      cv.wait(m);
                      woken.fetchAdd(1);
                    }));
                  }
                  while (parked.load() < 3) yield();
                  {
                    LockGuard guard(m);
                    cv.broadcast();
                  }
                  for (auto& w : waiters) w.join();
                  checkAlways(woken.load() == 3, "all woken");
                },
                sched),
            Outcome::Terminal);
}

TEST(Runtime, SemaphoreCountsPermits) {
  FirstEnabled sched;
  EXPECT_EQ(run(
                [] {
                  Semaphore sem(2, "sem");
                  sem.acquire();
                  sem.acquire();  // both immediate permits consumed
                  auto t = spawn([&] { sem.release(); });
                  sem.acquire();  // must block until the child releases
                  t.join();
                },
                sched),
            Outcome::Terminal);
}

TEST(Runtime, NestedSpawnIdentityIsStable) {
  // Grandchildren spawned from a child must get schedule-invariant UIDs:
  // two different schedules of the same program agree on every event's
  // thread UID (checked via the trace fingerprint of a fixed replay).
  auto body = [] {
    Shared<int> sum{0, "sum"};
    auto child = spawn([&] {
      auto grandchild = spawn([&] { sum.fetchAdd(1); });
      grandchild.join();
      sum.fetchAdd(10);
    });
    sum.fetchAdd(100);
    child.join();
  };
  // Two different interleavings that both complete.
  const auto a = explore::replaySchedule(body, {});
  ASSERT_EQ(a.outcome, Outcome::Terminal);
  // All schedules reach the same final sum, and the HBR machinery never
  // confuses the grandchild across schedules (same state fingerprint).
  explore::ExplorerOptions options;
  options.scheduleLimit = 100000;
  explore::TreeExplorer explorer(options);
  const auto result = explorer.explore(body);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.distinctStates, 1u);
}

TEST(Runtime, StackPoolReusesStacks) {
  StackPool pool(64 * 1024);
  EXPECT_EQ(pool.pooledCount(), 0u);
  {
    runtime::Fiber fiber(pool, [] {});
    fiber.resume();
    EXPECT_TRUE(fiber.finished());
  }
  EXPECT_EQ(pool.pooledCount(), 1u);  // returned on destruction
  {
    runtime::Fiber fiber(pool, [] {});
    EXPECT_EQ(pool.pooledCount(), 0u);  // reused, not reallocated
    fiber.resume();
  }
  EXPECT_EQ(pool.pooledCount(), 1u);
}

TEST(Runtime, RearmedFiberRunsItsNewEntryFromTheTop) {
  StackPool pool(64 * 1024);
  std::vector<int> log;
  runtime::Fiber* self = nullptr;
  // First entry: parks once, then returns — the way teardown finishes a
  // fiber, by running it forward to the end of its entry.
  runtime::Fiber fiber(pool, [&] {
    log.push_back(10);
    self->yieldToHost();
    log.push_back(11);
  });
  self = &fiber;
  fiber.resume();
  fiber.resume();
  ASSERT_TRUE(fiber.finished());

  // Second entry, re-armed on the finished fiber: starts from the top and
  // ends by throwing AbandonExecution (a failed checkAlways).
  fiber.rearm([&] {
    log.push_back(20);
    self->yieldToHost();
    log.push_back(21);
    throw runtime::AbandonExecution{};
  });
  EXPECT_FALSE(fiber.finished());
  fiber.resume();
  EXPECT_EQ(log, (std::vector<int>{10, 11, 20}));
  EXPECT_FALSE(fiber.finished());
  fiber.resume();
  ASSERT_TRUE(fiber.finished());

  // Third entry after the abandoned one.
  fiber.rearm([&] { log.push_back(30); });
  fiber.resume();
  EXPECT_TRUE(fiber.finished());
  EXPECT_EQ(log, (std::vector<int>{10, 11, 20, 21, 30}));

  if (runtime::Fiber::kSnapshotSupported) {
    // A fiber dropped mid-entry by a rollback also re-arms cleanly.
    fiber.rearm([&] {
      log.push_back(40);
      self->yieldToHost();
      log.push_back(41);
    });
    fiber.resume();
    fiber.abandonForRollback();
    fiber.rearm([&] { log.push_back(50); });
    fiber.resume();
    EXPECT_TRUE(fiber.finished());
    EXPECT_EQ(log, (std::vector<int>{10, 11, 20, 21, 30, 40, 50}));
  }
  EXPECT_EQ(pool.pooledCount(), 0u);  // one stack throughout
}

/// Abandon an execution after exactly k events; used to sweep teardown
/// through every possible prune depth.
class AbandonAfter final : public runtime::Scheduler {
 public:
  explicit AbandonAfter(std::size_t k) : k_(k) {}
  int pick(Execution& exec) override {
    if (exec.choices().size() >= k_) return kAbandon;
    return exec.enabled().first();
  }

 private:
  std::size_t k_;
};

TEST(Runtime, TeardownSafeAtEveryDepth) {
  // A program using every synchronisation feature; pruning it after each
  // possible event count must neither crash, hang, nor leak fibers.
  auto body = [] {
    Shared<int> x{0, "x"};
    Mutex m("m");
    CondVar cv("cv");
    Semaphore sem(1, "sem");
    auto t1 = spawn([&] {
      LockGuard guard(m);
      while (x.load() == 0) cv.wait(m);
      sem.acquire();
      sem.release();
    });
    auto t2 = spawn([&] {
      LockGuard guard(m);
      x.store(1);
      cv.signal();
    });
    if (m.tryLock()) m.unlock();
    t1.join();
    t2.join();
  };
  StackPool pool;
  for (std::size_t k = 0; k < 40; ++k) {
    Execution exec(Config{}, pool, nullptr);
    AbandonAfter sched(k);
    const Outcome outcome = exec.run(body, sched);
    EXPECT_TRUE(outcome == Outcome::Abandoned || outcome == Outcome::Terminal)
        << "k=" << k;
  }

  // The same sweep on one reused execution: reset() must leave nothing of
  // a pruned run behind, in either teardown mode (immediate, or deferred
  // to the reset for resumable executions).
  for (const bool resumable : {false, true}) {
    if (resumable && !Execution::checkpointingSupported()) continue;
    StackPool reusedPool;
    Execution exec(Config{}, reusedPool, nullptr);
    for (std::size_t k = 0; k < 40; ++k) {
      exec.reset();
      if (resumable) exec.enableResumable();
      AbandonAfter sched(k);
      const Outcome outcome = exec.run(body, sched);
      EXPECT_TRUE(outcome == Outcome::Abandoned || outcome == Outcome::Terminal)
          << "k=" << k << (resumable ? " resumable" : "");
      if (outcome == Outcome::Abandoned) {
        EXPECT_EQ(exec.choices().size(), k);
      }
    }
    // Fibers were recycled through the execution's free list, never
    // returned to the pool.
    EXPECT_EQ(reusedPool.pooledCount(), 0u);
  }
}

TEST(Runtime, EnabledSetTracksBlocking) {
  // Drive a specific schedule and observe enabled() transitions around a
  // lock conflict.
  StackPool pool;
  Execution exec(Config{}, pool, nullptr);
  struct Probe final : runtime::Scheduler {
    bool sawBlockedLock = false;
    int pick(Execution& e) override {
      // While some thread holds m and another has a pending lock on it,
      // that other thread must not be enabled.
      for (int tid = 0; tid < e.threadCount(); ++tid) {
        const auto& op = e.pending(tid);
        if (op.valid && op.kind == runtime::OpKind::Lock &&
            e.object(op.object).a != -1 && !e.enabled().contains(tid)) {
          sawBlockedLock = true;
        }
      }
      return e.enabled().first();
    }
  } sched;
  const Outcome outcome = exec.run(
      [] {
        Mutex m("m");
        Shared<int> x{0, "x"};
        auto t = spawn([&] {
          LockGuard guard(m);
          x.store(1);
        });
        LockGuard guard(m);
        x.store(2);
        // Give the child a chance to be blocked on m while we hold it.
        yield();
        t.join();
      },
      sched);
  // The schedule above deadlocks: main holds m and joins t while t waits
  // for m... actually main unlocks at scope exit after join -> deadlock.
  // Either way the probe must have observed the disabled pending lock.
  (void)outcome;
  EXPECT_TRUE(sched.sawBlockedLock);
}

TEST(Runtime, EnabledOutsidePickIsLive) {
  // Inside Scheduler::pick, enabled() serves the set the scheduling loop
  // computed for that point; everywhere else it must be computed live. An
  // observer reading it on the Unlock event — after the pick that granted
  // the unlock, when the cached set still had the child blocked — must see
  // the waiting locker enabled.
  struct UnlockProbe final : runtime::ExecutionObserver {
    std::vector<support::ThreadSet> atUnlock;
    void onEvent(const Execution& e, const runtime::EventRecord& ev) override {
      if (ev.kind == runtime::OpKind::Unlock && ev.threadIndex == 0) {
        atUnlock.push_back(e.enabled());
      }
    }
  } probe;
  struct Recorder final : runtime::Scheduler {
    std::vector<support::ThreadSet> sets;
    int pick(Execution& e) override {
      sets.push_back(e.enabled());
      return e.enabled().first();  // main first whenever it can run
    }
  } sched;
  StackPool pool;
  Execution exec(Config{}, pool, &probe);
  const Outcome outcome = exec.run(
      [] {
        Mutex m("m");
        m.lock();
        auto t = spawn([&] {
          m.lock();
          m.unlock();
        });
        yield();  // the child publishes its lock and blocks on m
        m.unlock();
        t.join();
      },
      sched);
  EXPECT_EQ(outcome, Outcome::Terminal);
  ASSERT_EQ(probe.atUnlock.size(), 1u);
  EXPECT_TRUE(probe.atUnlock[0].contains(1)) << "the blocked locker is enabled after the unlock";
  // The pick that granted the unlock saw the child blocked.
  bool sawChildBlocked = false;
  for (const support::ThreadSet set : sched.sets) {
    sawChildBlocked = sawChildBlocked || (set.contains(0) && !set.contains(1));
  }
  EXPECT_TRUE(sawChildBlocked);
}

TEST(Runtime, EnabledAroundCheckpointInsidePick) {
  // A resumable scheduler stages a checkpoint inside pick: staging changes
  // nothing enabled() reports. After a rollback, enabled() outside pick is
  // the restored point's set, not a cached one from the deeper run.
  if (!Execution::checkpointingSupported()) {
    GTEST_SKIP() << "resumable executions need fiber snapshots";
  }
  struct Stager final : runtime::Scheduler {
    std::vector<support::ThreadSet> sets;  // per depth, first run
    std::vector<Execution::Snapshot> snapshots;  // per depth, usable ones only
    int pick(Execution& e) override {
      const support::ThreadSet before = e.enabled();
      if (snapshots.size() == e.events().size()) e.checkpoint(snapshots.emplace_back());
      const support::ThreadSet after = e.enabled();
      EXPECT_EQ(before, after) << "depth " << e.events().size();
      if (sets.size() == e.events().size()) sets.push_back(after);
      EXPECT_EQ(sets[e.events().size()], after) << "depth " << e.events().size();
      return after.first();
    }
  } sched;
  StackPool pool;
  Execution exec(Config{}, pool, nullptr);
  exec.enableResumable();
  const auto body = [] {
    Mutex m("m");
    Shared<int> x{0, "x"};
    auto t = spawn([&] {
      LockGuard guard(m);
      x.store(1);
    });
    {
      LockGuard guard(m);
      x.store(2);
    }
    t.join();
  };
  ASSERT_EQ(exec.run(body, sched), Outcome::Terminal);
  ASSERT_GE(sched.sets.size(), 4u);
  EXPECT_TRUE(exec.enabled().empty());  // a finished run has nothing enabled
  for (std::size_t depth = sched.sets.size(); depth-- > 0;) {
    exec.rollbackTo(sched.snapshots[depth]);
    sched.snapshots.resize(depth + 1);  // deeper snapshots are void now
    EXPECT_EQ(exec.enabled(), sched.sets[depth]) << "depth " << depth;
    ASSERT_EQ(exec.resume(sched), Outcome::Terminal);
  }
}

TEST(Runtime, RollbackRejectsSnapshotTakenBeforeReset) {
  if (!Execution::checkpointingSupported()) {
    GTEST_SKIP() << "resumable executions need fiber snapshots";
  }
  struct Stager final : runtime::Scheduler {
    Execution::Snapshot snapshot;  // the first scheduling point
    int pick(Execution& e) override {
      if (snapshot.empty()) e.checkpoint(snapshot);
      return e.enabled().first();
    }
  };
  const auto body = [] {
    Shared<int> x{0, "x"};
    auto t = spawn([&] { x.store(1); });
    x.store(2);
    t.join();
  };
  StackPool pool;
  Execution exec(Config{}, pool, nullptr);
  Stager before;
  exec.enableResumable();
  ASSERT_EQ(exec.run(body, before), Outcome::Terminal);
  EXPECT_GT(before.snapshot.approxBytes(), 0u);
  exec.rollbackTo(before.snapshot);  // usable until the reset
  ASSERT_EQ(exec.resume(before), Outcome::Terminal);

  exec.reset();
  Stager after;
  exec.enableResumable();
  ASSERT_EQ(exec.run(body, after), Outcome::Terminal);
  exec.rollbackTo(after.snapshot);
  ASSERT_EQ(exec.resume(after), Outcome::Terminal);
  EXPECT_DEATH(exec.rollbackTo(before.snapshot), "generation");
}

TEST(Runtime, ViolationSchedulesReplayExactly) {
  auto body = [] {
    Shared<int> x{0, "x"};
    auto t = spawn([&] { x.store(1); });
    const int seen = x.load();
    t.join();
    checkAlways(seen == 0, "main read before child wrote");  // fails sometimes
  };
  explore::ExplorerOptions options;
  options.scheduleLimit = 1000;
  options.stopOnFirstViolation = true;
  explore::TreeExplorer explorer(options);
  const auto result = explorer.explore(body);
  ASSERT_TRUE(result.foundViolation());
  const auto replay = explore::replaySchedule(body, result.violations[0].schedule);
  EXPECT_EQ(replay.outcome, Outcome::AssertionFailure);
  EXPECT_EQ(replay.violationMessage, result.violations[0].message);
}

}  // namespace
