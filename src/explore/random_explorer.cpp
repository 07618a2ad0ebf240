#include "explore/random_explorer.hpp"

namespace lazyhb::explore {

namespace {

class RandomScheduler final : public runtime::Scheduler {
 public:
  explicit RandomScheduler(std::uint64_t seed) : rng_(seed) {}

  int pick(runtime::Execution& exec) override {
    const support::ThreadSet enabled = exec.enabled();
    auto nth = rng_.below(static_cast<std::uint64_t>(enabled.size()));
    int tid = enabled.first();
    while (nth-- > 0) {
      tid = enabled.next(tid);
    }
    return tid;
  }

 private:
  support::Rng rng_;
};

}  // namespace

void RandomExplorer::runSearch(const Program& program) {
  for (std::uint64_t k = 0; mayRunSchedule(); ++k) {
    RandomScheduler scheduler(support::mix64(seed_ + k));
    (void)executeSchedule(program, scheduler);
  }
}

}  // namespace lazyhb::explore
