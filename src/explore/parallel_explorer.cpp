#include "explore/parallel_explorer.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "campaign/work_stealing_pool.hpp"
#include "core/hbr_cache.hpp"
#include "explore/dfs_explorer.hpp"
#include "support/diagnostics.hpp"

namespace lazyhb::explore {

namespace {

/// One subtree of the schedule tree, claimable by any worker: force the
/// choices in `prefix`, then explore every child in `enabled - done` of the
/// node at depth prefix.size(). An empty `enabled` marks the root job (the
/// whole tree; the real enabled set is discovered by the first execution).
struct FrontierJob {
  std::vector<int> prefix;
  support::ThreadSet enabled;
  support::ThreadSet done;
};

/// Stable order for merged violation records: worker completion order is
/// nondeterministic, so the merged list is sorted before the
/// maxViolationsKept cut — workers keep all records so the cut sees the
/// full multiset regardless of sharding. (In caching mode the *reproducer
/// schedules* may still differ between runs — see the header; the counts
/// never do.)
bool violationLess(const ViolationRecord& a, const ViolationRecord& b) {
  return std::tie(a.kind, a.message, a.schedule) <
         std::tie(b.kind, b.message, b.schedule);
}

}  // namespace

/// Everything alive only during one explore() call: the frontier pool, the
/// shared cache, the workers and the global coordination state.
struct ParallelExplorer::Impl {
  Impl(const ExplorerOptions& opts, std::optional<trace::Relation> relation,
       std::uint64_t seed);

  const ExplorerOptions& options;
  campaign::WorkStealingPool pool;
  core::HbrCache cache;  ///< shared; unused (empty) for plain DFS
  std::vector<std::unique_ptr<Worker>> workers;  ///< one per pool thread
  const Program* program = nullptr;

  std::atomic<std::uint64_t> claimed{0};  ///< global budget slots taken
  std::atomic<bool> aborted{false};       ///< budget exceeded: discard all
  std::atomic<std::uint64_t> frontierJobs{0};

  void submitJob(FrontierJob job);
  /// Run `job` on the calling pool thread's worker.
  void runJob(FrontierJob job);
};

/// One pool worker: the sequential tree explorer, fed frontier jobs instead
/// of the whole tree. Its schedules go through ExplorerBase's accounting
/// and its prunes through the shared cache; only the budget claim and
/// stack splitting are its own.
class ParallelExplorer::Worker final : public TreeExplorer {
 public:
  Worker(Impl& impl, const ExplorerOptions& options,
         std::optional<trace::Relation> relation)
      : TreeExplorer(options, relation, &impl.cache), impl_(impl) {}

  void runJob(FrontierJob job);

  // The finished tallies, read by the merge once the pool has drained.
  using ExplorerBase::finishResult;
  using ExplorerBase::terminalClasses;

 protected:
  bool mayRunSchedule() override;
  void scheduleDone(TreeSearchState& state) override;

 private:
  Impl& impl_;
};

ParallelExplorer::Impl::Impl(const ExplorerOptions& opts,
                             std::optional<trace::Relation> relation,
                             std::uint64_t seed)
    : options(opts), pool(opts.workers, seed) {
  const int n = pool.workerCount();
  ExplorerOptions workerOptions = opts;
  // Each worker runs its own replay engine, so the scenario's snapshot
  // budget is split evenly across them — the combined footprint stays
  // what the user asked for, not workers× it (0 stays unlimited).
  if (opts.snapshotBudgetBytes != 0) {
    workerOptions.snapshotBudgetBytes = std::max<std::uint64_t>(
        1, opts.snapshotBudgetBytes / static_cast<std::uint64_t>(n));
  }
  // Keep every violation record: capping per worker would make the
  // post-merge kept set depend on how violations happened to shard across
  // workers. The maxViolationsKept cut is applied once, after the global
  // sort, so the surviving set is a function of the full violation
  // multiset alone — identical at any worker count.
  workerOptions.maxViolationsKept = std::numeric_limits<std::uint32_t>::max();
  workers.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers.push_back(std::make_unique<Worker>(*this, workerOptions, relation));
  }
}

void ParallelExplorer::Impl::submitJob(FrontierJob job) {
  frontierJobs.fetch_add(1, std::memory_order_relaxed);
  pool.submit([this, job = std::move(job)]() mutable {
    runJob(std::move(job));
  });
}

void ParallelExplorer::Impl::runJob(FrontierJob job) {
  const int workerIndex = pool.currentWorkerIndex();
  LAZYHB_CHECK(workerIndex >= 0);
  workers[static_cast<std::size_t>(workerIndex)]->runJob(std::move(job));
}

bool ParallelExplorer::Worker::mayRunSchedule() {
  if (impl_.aborted.load(std::memory_order_relaxed)) return false;
  // Claim a budget slot before executing, like the sequential search checks
  // budgetExhausted() before each schedule. Total demand is
  // order-independent (see header), so whether this trips is a function of
  // the scenario, not of scheduling.
  if (impl_.claimed.fetch_add(1, std::memory_order_relaxed) >=
      impl_.options.scheduleLimit) {
    impl_.aborted.store(true, std::memory_order_relaxed);
    return false;
  }
  return true;
}

/// Stack splitting: when the pool signals an idle worker, give away the
/// unexplored siblings of our shallowest splittable node — the largest
/// subtree we can part with — as one job (the donee can re-split further).
void ParallelExplorer::Worker::scheduleDone(TreeSearchState& state) {
  if (!impl_.pool.hungry()) return;
  for (std::size_t d = 0; d < state.nodes.size(); ++d) {
    SearchNode& node = state.nodes[d];
    const support::ThreadSet stealable = node.enabled.minus(node.done).minus(
        support::ThreadSet::single(node.chosen));
    if (stealable.empty()) continue;

    FrontierJob child;
    child.prefix.reserve(d);
    for (std::size_t i = 0; i < d; ++i) {
      child.prefix.push_back(state.nodes[i].chosen);
    }
    child.enabled = node.enabled;
    child.done = node.enabled.minus(stealable);  // donee owns exactly these
    node.done = node.done.unionWith(stealable);  // we never revisit them
    impl_.submitJob(std::move(child));
    return;
  }
}

void ParallelExplorer::Worker::runJob(FrontierJob job) {
  if (impl_.aborted.load(std::memory_order_relaxed)) return;

  // Rebuild the job's subtree root as a search stack: forced single-choice
  // nodes pin the prefix (advance() can never flip them), then the
  // divergence node carries the children this job owns. The prefix events
  // are replays of work already accounted elsewhere, so checkFromDepth
  // excludes them from prune checks — exactly as the sequential search
  // excludes a schedule's shared prefix after advance().
  TreeSearchState state;
  state.nodes.reserve(job.prefix.size() + 1);
  for (const int choice : job.prefix) {
    SearchNode forced;
    forced.enabled = support::ThreadSet::single(choice);
    forced.chosen = choice;
    state.nodes.push_back(forced);
  }
  if (!job.enabled.empty()) {
    SearchNode divergence;
    divergence.enabled = job.enabled;
    divergence.done = job.done;
    divergence.chosen = job.enabled.minus(job.done).first();
    state.nodes.push_back(divergence);
  }
  state.checkFromDepth = job.prefix.size();

  // This job's tree shares nothing with whatever this worker ran before:
  // divergence is at the root as far as the replay engine is concerned.
  const std::size_t startDepth =
      result().schedulesExecuted > 0 ? prefixEngine().prepareNext(0) : 0;
  (void)searchSubtree(*impl_.program, state, startDepth);
}

ParallelExplorer::ParallelExplorer(ExplorerOptions options,
                                   std::optional<trace::Relation> relation,
                                   std::uint64_t seed)
    : options_(options), relation_(relation), seed_(seed) {
  LAZYHB_CHECK(shardable(options));
}

ParallelExplorer::~ParallelExplorer() = default;

ExplorationResult ParallelExplorer::runSequentialFallback(
    const Program& program) {
  ExplorerOptions sequential = options_;
  sequential.workers = 1;
  ExplorationResult result = TreeExplorer(sequential, relation_).explore(program);
  result.parallel.workers = options_.workers;
  result.parallel.fellBackSequential = true;
  return result;
}

ExplorationResult ParallelExplorer::explore(const Program& program) {
  LAZYHB_CHECK(!explored_);
  explored_ = true;

  Impl impl(options_, relation_, seed_);
  impl.program = &program;

  std::vector<campaign::WorkStealingPool::Task> roots;
  impl.frontierJobs.store(1, std::memory_order_relaxed);
  roots.push_back([&impl] { impl.runJob(FrontierJob{}); });
  impl.pool.run(std::move(roots));

  if (impl.aborted.load(std::memory_order_relaxed)) {
    // The budget bit: parallel order would decide which schedules fit it.
    // Discard everything (including the polluted shared cache — the
    // fallback explorer builds its own) and redo sequentially.
    return runSequentialFallback(program);
  }

  // Deterministic merge. Counts are sums, fingerprint classes are set
  // unions, violations sort lexicographically before the keep-cap, races
  // dedup on the racy object across workers. The cache is shared, so
  // every worker's snapshot of it is the same.
  ExplorationResult result;
  TerminalClasses classes;
  std::unordered_set<runtime::Uid> raceUids;
  result.parallel.workers = impl.pool.workerCount();
  result.parallel.frontierJobs =
      impl.frontierJobs.load(std::memory_order_relaxed);
  const std::vector<std::uint64_t> steals = impl.pool.stealsByWorker();
  for (std::size_t i = 0; i < impl.workers.size(); ++i) {
    Worker& worker = *impl.workers[i];
    const ExplorationResult& part = worker.finishResult();
    result.schedulesExecuted += part.schedulesExecuted;
    result.terminalSchedules += part.terminalSchedules;
    result.violationSchedules += part.violationSchedules;
    result.prunedSchedules += part.prunedSchedules;
    result.totalEvents += part.totalEvents;
    result.eventsElided += part.eventsElided;
    result.eventsReplayed += part.eventsReplayed;
    result.flushEvents += part.flushEvents;
    result.fenceEvents += part.fenceEvents;
    result.maxBufferedStores =
        std::max(result.maxBufferedStores, part.maxBufferedStores);
    result.checkpointStats.enabled =
        result.checkpointStats.enabled || part.checkpointStats.enabled;
    result.checkpointStats.stages += part.checkpointStats.stages;
    result.checkpointStats.bytesStaged += part.checkpointStats.bytesStaged;
    result.checkpointStats.evictions += part.checkpointStats.evictions;
    result.checkpointStats.replayFallbacks +=
        part.checkpointStats.replayFallbacks;
    result.cacheStats = part.cacheStats;
    const TerminalClasses& c = worker.terminalClasses();
    classes.hbrs.insert(c.hbrs.begin(), c.hbrs.end());
    classes.lazyHbrs.insert(c.lazyHbrs.begin(), c.lazyHbrs.end());
    classes.valueClasses.insert(c.valueClasses.begin(), c.valueClasses.end());
    classes.states.insert(c.states.begin(), c.states.end());
    result.violations.insert(result.violations.end(), part.violations.begin(),
                             part.violations.end());
    for (const trace::RaceReport& race : part.races) {
      if (raceUids.insert(race.objectUid).second) {
        result.races.push_back(race);
      }
    }
    result.parallel.byWorker.push_back(
        WorkerShare{part.schedulesExecuted, steals[i]});
  }
  result.distinctHbrs = classes.hbrs.size();
  result.distinctLazyHbrs = classes.lazyHbrs.size();
  result.distinctValueClasses = classes.valueClasses.size();
  result.distinctStates = classes.states.size();
  result.complete = true;

  std::sort(result.violations.begin(), result.violations.end(), violationLess);
  if (result.violations.size() > options_.maxViolationsKept) {
    result.violations.resize(options_.maxViolationsKept);
  }
  std::sort(result.races.begin(), result.races.end(),
            [](const trace::RaceReport& a, const trace::RaceReport& b) {
              return a.objectUid < b.objectUid;
            });
  return result;
}

}  // namespace lazyhb::explore
