// lazyhb/campaign/work_stealing_pool.hpp
//
// The one thread pool of the code base: the executor behind the campaign
// runner's (program × explorer) matrix and bench/tab_theorem_check's
// per-benchmark runs. A fixed set of OS threads, one task deque per worker,
// with work stealing. Tasks vary wildly in cost (a complete DFS of a
// 2-thread program vs. 100,000 schedules of a contended one), so a single
// shared queue serves long tasks tail-heavy: the last big cell lands on one
// worker while the rest idle. Dealing round-robin and letting idle workers
// steal from the *back* of a victim's deque keeps every hardware thread
// busy until the batch drains. Each worker breaks steal-victim ties with
// its own deterministic RNG, so steal patterns are reproducible run-to-run
// (a shared or unseeded RNG would make them drift between runs).
//
// Tasks are independent and must not throw: an experiment harness has no
// meaningful recovery from a lost result, so an escaping exception
// terminates the process via noexcept.
//
// This pool is deliberately simple — one mutex over the deques, not a
// lock-free Chase–Lev deque. Tasks run for milliseconds to minutes, so
// queue operations are nowhere near the contention regime that justifies
// lock-free structures; what matters is the *stealing policy*, which is
// what balances the load.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "support/rng.hpp"

namespace lazyhb::campaign {

class WorkStealingPool {
 public:
  using Task = std::function<void()>;

  /// Create `workers` OS threads (values < 1 clamp to 1). Threads persist
  /// across run() batches and park on a condition variable between them.
  explicit WorkStealingPool(int workers);

  /// Joins all workers. Must not be called while run() is in flight.
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// Execute every task in `tasks`, blocking until all have finished.
  /// Tasks are dealt round-robin across the worker deques; idle workers
  /// steal from the back of the longest victim deque. Not reentrant.
  void run(std::vector<Task> tasks);

  [[nodiscard]] int workerCount() const noexcept {
    return static_cast<int>(deques_.size());
  }

  /// Tasks executed by a worker other than the one they were dealt to,
  /// accumulated across run() batches. A load-balance diagnostic.
  [[nodiscard]] std::uint64_t tasksStolen() const noexcept {
    return tasksStolen_.load(std::memory_order_relaxed);
  }

 private:
  void workerLoop(std::size_t self);

  /// Pop from our own deque's front, else steal from the back of the
  /// longest other deque (ties broken by our seeded RNG's scan offset).
  /// Returns false when every deque is empty. Caller holds mutex_.
  bool popTask(std::size_t self, Task& task);

  std::vector<std::deque<Task>> deques_;
  std::vector<support::Rng> rngs_;  ///< per-worker, deterministic
  std::vector<std::thread> workers_;

  mutable std::mutex mutex_;  ///< guards deques_, rngs_, counters, lifecycle
  std::condition_variable batchStart_;
  std::condition_variable batchDone_;
  std::uint64_t generation_ = 0;      ///< bumped once per run() batch
  std::size_t remaining_ = 0;         ///< tasks not yet finished this batch
  bool shuttingDown_ = false;

  std::atomic<std::uint64_t> tasksStolen_{0};
};

}  // namespace lazyhb::campaign
