#include "campaign/work_stealing_pool.hpp"

#include <algorithm>

#include "support/diagnostics.hpp"

namespace lazyhb::campaign {

namespace {

/// Roots the per-worker victim-selection RNGs.
constexpr std::uint64_t kVictimSeed = 0x5ca1ab1e0ddba11ULL;

}  // namespace

WorkStealingPool::WorkStealingPool(int workers) {
  const int n = std::max(1, workers);
  deques_.resize(static_cast<std::size_t>(n));
  rngs_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Distinct deterministic stream per worker: splitmix inside Rng spreads
    // the (seed, index) pair, so adjacent indices don't correlate.
    rngs_.emplace_back(kVictimSeed + 0x9e3779b97f4a7c15ULL *
                                         static_cast<std::uint64_t>(i + 1));
  }
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back(
        [this, i] { workerLoop(static_cast<std::size_t>(i)); });
  }
}

WorkStealingPool::~WorkStealingPool() {
  {
    const std::lock_guard<std::mutex> guard(mutex_);
    shuttingDown_ = true;
  }
  batchStart_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void WorkStealingPool::run(std::vector<Task> tasks) {
  if (tasks.empty()) return;
  std::unique_lock<std::mutex> lock(mutex_);
  LAZYHB_CHECK(remaining_ == 0);  // not reentrant
  // Deal round-robin: task i goes to worker i % N, so with stealing off the
  // load still spreads evenly and results never depend on who ran what.
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    deques_[i % deques_.size()].push_back(std::move(tasks[i]));
  }
  remaining_ = tasks.size();
  ++generation_;
  batchStart_.notify_all();
  batchDone_.wait(lock, [this] { return remaining_ == 0; });
}

bool WorkStealingPool::popTask(std::size_t self, Task& task) {
  std::deque<Task>& mine = deques_[self];
  if (!mine.empty()) {
    task = std::move(mine.front());
    mine.pop_front();
    return true;
  }
  // Own deque drained: steal from the back of the longest victim deque (the
  // back holds the tasks its owner would reach last, so stealing there
  // minimises interleaving with the victim's own pops). The scan starts at
  // a per-worker seeded random offset, which breaks length ties without a
  // shared RNG — reproducible for a fixed (worker, call count).
  const std::size_t n = deques_.size();
  const std::size_t offset = n > 1 ? rngs_[self].below(n) : 0;
  std::size_t victim = n;
  std::size_t victimBacklog = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = (offset + k) % n;
    if (i == self) continue;
    if (deques_[i].size() > victimBacklog) {
      victimBacklog = deques_[i].size();
      victim = i;
    }
  }
  if (victim == n) return false;  // every deque is empty
  task = std::move(deques_[victim].back());
  deques_[victim].pop_back();
  tasksStolen_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void WorkStealingPool::workerLoop(std::size_t self) {
  std::uint64_t seenGeneration = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    batchStart_.wait(lock, [this, seenGeneration] {
      return shuttingDown_ || generation_ != seenGeneration;
    });
    if (shuttingDown_) return;
    seenGeneration = generation_;

    // A batch is dealt in full before any worker wakes, so once every deque
    // is empty this worker has nothing left to do until the next batch.
    Task task;
    while (popTask(self, task)) {
      lock.unlock();
      task();  // noexcept contract: a throwing task terminates
      task = nullptr;  // destroy captures outside the lock
      lock.lock();
      if (--remaining_ == 0) batchDone_.notify_all();
    }
  }
}

}  // namespace lazyhb::campaign
