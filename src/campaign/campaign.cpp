#include "campaign/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "campaign/checkpoint.hpp"
#include "support/diagnostics.hpp"

namespace lazyhb::campaign {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Find this program's cell for `explorerName` among its row of cells.
const CellResult* cellFor(const std::vector<const CellResult*>& row,
                          const std::string& explorerName) {
  for (const CellResult* cell : row) {
    if (cell->explorer == explorerName) return cell;
  }
  return nullptr;
}

ProgramSummary summarizeProgram(const std::vector<const CellResult*>& row) {
  ProgramSummary s;
  s.id = row.front()->programId;
  s.program = row.front()->program;
  s.family = row.front()->family;
  for (const CellResult* cell : row) {
    s.inequalityHolds = s.inequalityHolds && cell->inequalityHolds();
  }

  if (const CellResult* dpor = cellFor(row, "dpor")) {
    s.hasDpor = true;
    s.dporHbrs = dpor->stats.distinctHbrs;
    s.dporLazyHbrs = dpor->stats.distinctLazyHbrs;
    s.belowDiagonal = s.dporLazyHbrs < s.dporHbrs;
    if (s.dporHbrs > 0) {
      s.redundantHbrPercent = 100.0 *
                              static_cast<double>(s.dporHbrs - s.dporLazyHbrs) /
                              static_cast<double>(s.dporHbrs);
    }
  }

  const CellResult* cachingFull = cellFor(row, "caching-full");
  const CellResult* cachingLazy = cellFor(row, "caching-lazy");
  if (cachingFull != nullptr && cachingLazy != nullptr) {
    s.hasCachingPair = true;
    s.lazyHbrsByFullCaching = cachingFull->stats.distinctLazyHbrs;
    s.lazyHbrsByLazyCaching = cachingLazy->stats.distinctLazyHbrs;
    s.cachingDiffers = s.lazyHbrsByLazyCaching > s.lazyHbrsByFullCaching;
  }

  const CellResult* dfs = cellFor(row, "dfs");
  if (dfs != nullptr && dfs->stats.complete) {
    s.hasDfsBaseline = true;
    s.dfsSchedules = dfs->stats.schedulesExecuted;
    const auto ratio = [&](const CellResult* cell) {
      return (cell == nullptr || cell->stats.schedulesExecuted == 0)
                 ? 0.0
                 : static_cast<double>(s.dfsSchedules) /
                       static_cast<double>(cell->stats.schedulesExecuted);
    };
    s.dporScheduleRatio = ratio(cellFor(row, "dpor"));
    s.cachingLazyScheduleRatio = ratio(cachingLazy);
  }
  return s;
}

}  // namespace

CampaignResult foldCells(std::vector<CellResult> cells,
                         const std::vector<std::string>& explorerOrder) {
  LAZYHB_CHECK(!explorerOrder.empty());
  CampaignResult result;
  result.cells = std::move(cells);

  result.perExplorer.resize(explorerOrder.size());
  for (std::size_t e = 0; e < explorerOrder.size(); ++e) {
    result.perExplorer[e].explorer = explorerOrder[e];
  }
  const auto explorerIndex = [&](const std::string& name) {
    for (std::size_t e = 0; e < explorerOrder.size(); ++e) {
      if (explorerOrder[e] == name) return e;
    }
    LAZYHB_CHECK(false && "cell names an explorer outside the campaign order");
    return std::size_t{0};
  };

  for (const CellResult& cell : result.cells) {
    ExplorerTotals& totals = result.perExplorer[explorerIndex(cell.explorer)];
    ++totals.cells;
    totals.schedules += cell.stats.schedulesExecuted;
    totals.terminal += cell.stats.terminalSchedules;
    totals.pruned += cell.stats.prunedSchedules;
    totals.violations += cell.stats.violationSchedules;
    totals.events += cell.stats.totalEvents;
    totals.eventsElided += cell.stats.eventsElided;
    totals.eventsReplayed += cell.stats.eventsReplayed;
    totals.hbrs += cell.stats.distinctHbrs;
    totals.lazyHbrs += cell.stats.distinctLazyHbrs;
    totals.valueClasses += cell.stats.distinctValueClasses;
    totals.states += cell.stats.distinctStates;
    totals.wallSeconds += cell.wallSeconds;
    totals.cacheEntries += cell.stats.cacheStats.entries;
    totals.cacheHits += cell.stats.cacheStats.hits;
    totals.cacheApproxBytes += cell.stats.cacheStats.approxBytes;
    totals.checkpointStages += cell.stats.checkpointStats.stages;
    totals.checkpointBytesStaged += cell.stats.checkpointStats.bytesStaged;
    totals.checkpointEvictions += cell.stats.checkpointStats.evictions;
    totals.checkpointReplayFallbacks += cell.stats.checkpointStats.replayFallbacks;
    if (!cell.inequalityHolds()) ++totals.inequalityViolations;

    result.totalSchedules += cell.stats.schedulesExecuted;
    result.totalEvents += cell.stats.totalEvents;
    result.totalEventsElided += cell.stats.eventsElided;
    result.totalEventsReplayed += cell.stats.eventsReplayed;
    result.cpuSeconds += cell.wallSeconds;
    if (!cell.inequalityHolds()) ++result.inequalityViolations;
    if (cell.fromCheckpoint) ++result.cellsFromCheckpoint;
    if (cell.timedOut) ++result.cellsTimedOut;
    if (cell.failed()) ++result.cellsFailed;
    if (cell.attempts > 1) ++result.cellsRetried;
  }

  for (ExplorerTotals& totals : result.perExplorer) {
    if (totals.wallSeconds > 0.0) {
      totals.eventsPerSecond =
          static_cast<double>(totals.events) / totals.wallSeconds;
      totals.executedEventsPerSecond =
          static_cast<double>(totals.events - totals.eventsElided) /
          totals.wallSeconds;
    }
  }
  if (result.cpuSeconds > 0.0) {
    result.eventsPerSecond =
        static_cast<double>(result.totalEvents) / result.cpuSeconds;
    result.executedEventsPerSecond =
        static_cast<double>(result.totalEvents - result.totalEventsElided) /
        result.cpuSeconds;
  }

  // Per-program summaries: each maximal run of cells sharing a program id
  // (the cells arrive program-major) is one row — possibly a partial row
  // for a shard's slice, which summarizeProgram handles by section.
  for (std::size_t i = 0; i < result.cells.size();) {
    std::size_t j = i;
    while (j < result.cells.size() &&
           result.cells[j].programId == result.cells[i].programId) {
      ++j;
    }
    std::vector<const CellResult*> row;
    row.reserve(j - i);
    for (std::size_t k = i; k < j; ++k) row.push_back(&result.cells[k]);
    result.programs.push_back(summarizeProgram(row));
    i = j;
  }
  return result;
}

void runTasks(std::vector<std::function<void()>> tasks, int jobs) {
  std::atomic<std::size_t> next{0};
  const auto drain = [&]() noexcept {
    for (std::size_t i = next++; i < tasks.size(); i = next++) tasks[i]();
  };
  const std::size_t count = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(jobs, 1)), tasks.size());
  std::vector<std::jthread> threads;  // joined on every exit path
  for (std::size_t t = 0; t < count; ++t) threads.emplace_back(drain);
}

CampaignResult runCampaign(const CampaignOptions& options) {
  const auto campaignStart = Clock::now();

  if (options.shardCount < 1 || options.shardIndex < 0 ||
      options.shardIndex >= options.shardCount) {
    throw std::invalid_argument(
        "lazyhb: shard index " + std::to_string(options.shardIndex) +
        " out of range for " + std::to_string(options.shardCount) + " shard(s)");
  }

  // The matrix axes, defaults filled in: the journal's manifest records
  // these resolved lists.
  CampaignOptions resolved = options;
  if (resolved.explorers.empty()) resolved.explorers = allExplorers();
  if (resolved.programs.empty()) {
    for (const programs::ProgramSpec& spec : programs::all()) {
      resolved.programs.push_back(&spec);
    }
  }
  const std::vector<ExplorerSpec>& explorers = resolved.explorers;
  const std::vector<const programs::ProgramSpec*>& corpus = resolved.programs;

  int jobs = options.jobs;
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs <= 0) jobs = 1;
  }

  std::vector<std::string> explorerNames;
  explorerNames.reserve(explorers.size());
  for (const ExplorerSpec& spec : explorers) explorerNames.push_back(spec.name);

  // The shard's slice: round-robin over program-major cell indices, so
  // every shard gets a balanced mix of programs and explorers.
  const std::size_t totalCells = corpus.size() * explorers.size();
  std::vector<bool> inShard(totalCells, false);
  std::size_t shardCells = 0;
  for (std::size_t index = 0; index < totalCells; ++index) {
    if (static_cast<int>(index % static_cast<std::size_t>(options.shardCount)) ==
        options.shardIndex) {
      inShard[index] = true;
      ++shardCells;
    }
  }

  // Durability: open (or create) the journal before any cell runs — a
  // config mismatch must fail the campaign up front, not after hours.
  std::unique_ptr<CampaignJournal> journal;
  if (!options.checkpointDir.empty()) {
    journal = std::make_unique<CampaignJournal>(resolved);
  }

  // One slot per matrix cell. Each task writes only its own, and runTasks
  // joins every thread before the fold reads them, so no lock is needed.
  // `filled` is bytes, not vector<bool>: tasks set their flags concurrently.
  std::vector<CellResult> slots(totalCells);
  std::vector<char> filled(totalCells, 0);
  const auto submit = [&](std::size_t index, CellResult cell) {
    slots[index] = std::move(cell);
    filled[index] = 1;
  };
  std::mutex progressMutex;
  std::size_t cellsDone = 0;

  // Serialize every callback (the contract in lazyhb/progress.hpp); the
  // done-count increments under the same lock so consumers see it monotone.
  const auto emitEvent = [&](ProgressEvent event) {
    if (!options.onProgress) return;
    const std::lock_guard<std::mutex> guard(progressMutex);
    event.cellsDone = cellsDone;
    event.cellsTotal = shardCells;
    options.onProgress(event);
  };
  const auto emitFinished = [&](const CellResult& cell) {
    if (!options.onProgress) return;
    const std::lock_guard<std::mutex> guard(progressMutex);
    ProgressEvent event;
    event.kind = ProgressEvent::Kind::CellFinished;
    event.scenario = cell.program;
    event.strategy = cell.explorer;
    event.schedulesExecuted = cell.stats.schedulesExecuted;
    event.scheduleLimit = options.explorer.scheduleLimit;
    event.attempt = cell.attempts;
    event.wallSeconds = cell.wallSeconds;
    event.fromCheckpoint = cell.fromCheckpoint;
    event.cellsDone = ++cellsDone;
    event.cellsTotal = shardCells;
    options.onProgress(event);
  };
  // Count even when no callback is installed: CampaignFinished reads it.
  const auto markDone = [&] {
    const std::lock_guard<std::mutex> guard(progressMutex);
    ++cellsDone;
  };

  std::vector<std::function<void()>> tasks;
  tasks.reserve(shardCells);
  const int maxAttempts = 1 + (options.cellRetries > 0 ? options.cellRetries : 0);
  for (std::size_t p = 0; p < corpus.size(); ++p) {
    for (std::size_t e = 0; e < explorers.size(); ++e) {
      const std::size_t index = p * explorers.size() + e;
      if (!inShard[index]) continue;
      const programs::ProgramSpec* program = corpus[p];
      const ExplorerSpec spec = explorers[e];

      // Resume: a journaled cell is loaded, not re-run.
      if (journal != nullptr && journal->completed(index)) {
        CellResult cell = journal->loaded(index);
        cell.fromCheckpoint = true;
        if (options.onProgress) {
          emitFinished(cell);
        } else {
          markDone();
        }
        submit(index, std::move(cell));
        continue;
      }

      tasks.push_back([&, program, spec, index] {
        CellResult cell;
        cell.programId = program->id;
        cell.program = program->name;
        cell.family = program->family;
        cell.explorer = spec.name;

        // Per-cell options: the checkpointable contract is a property of
        // the program, not of the campaign; the wall-clock budget is the
        // supervisor's.
        explore::ExplorerOptions cellOptions = options.explorer;
        cellOptions.checkpointable = program->checkpointable;
        cellOptions.wallTimeoutSeconds = options.cellTimeoutSeconds;

        {
          ProgressEvent event;
          event.kind = ProgressEvent::Kind::CellStarted;
          event.scenario = cell.program;
          event.strategy = cell.explorer;
          event.scheduleLimit = options.explorer.scheduleLimit;
          emitEvent(std::move(event));
        }

        // The supervisor: re-run a timed-out or throwing cell up to
        // cellRetries extra times; a cell that fails every attempt is
        // recorded with its error and zero counts, and the campaign
        // continues past it.
        int attempt = 0;
        for (;;) {
          ++attempt;
          cell.stats = {};
          cell.error.clear();
          const auto cellStart = Clock::now();
          try {
            auto explorer = spec.create(cellOptions, options.seed);
            cell.stats = explorer->explore(program->body);
          } catch (const std::exception& e) {
            cell.stats = {};
            cell.error = e.what();
          } catch (...) {
            cell.stats = {};
            cell.error = "unknown exception";
          }
          cell.wallSeconds = secondsSince(cellStart);
          if ((cell.failed() || cell.stats.timedOut) && attempt < maxAttempts) {
            ProgressEvent event;
            event.kind = ProgressEvent::Kind::CellRetried;
            event.scenario = cell.program;
            event.strategy = cell.explorer;
            event.schedulesExecuted = cell.stats.schedulesExecuted;
            event.scheduleLimit = options.explorer.scheduleLimit;
            event.attempt = attempt;
            event.wallSeconds = cell.wallSeconds;
            emitEvent(std::move(event));
            continue;
          }
          break;
        }
        cell.attempts = attempt;
        cell.timedOut = cell.stats.timedOut;
        if (cell.wallSeconds > 0.0) {
          cell.eventsPerSecond =
              static_cast<double>(cell.stats.totalEvents) / cell.wallSeconds;
          cell.executedEventsPerSecond =
              static_cast<double>(cell.stats.totalEvents -
                                  cell.stats.eventsElided) /
              cell.wallSeconds;
        }
        if (!cell.failed()) {
          // A timed-out prefix still satisfies the §3 chain (every count is
          // a prefix of the full run's), so the check stays on.
          cell.inequalityDiagnostic = checkCountingChain(
              cell.program, cell.stats, options.explorer.scheduleLimit);
        }

        if (cell.timedOut || cell.failed()) {
          ProgressEvent event;
          event.kind = cell.failed() ? ProgressEvent::Kind::CellFailed
                                     : ProgressEvent::Kind::CellTimedOut;
          event.scenario = cell.program;
          event.strategy = cell.explorer;
          event.schedulesExecuted = cell.stats.schedulesExecuted;
          event.scheduleLimit = options.explorer.scheduleLimit;
          event.attempt = cell.attempts;
          event.wallSeconds = cell.wallSeconds;
          emitEvent(std::move(event));
        }

        // Journal before announcing: once a consumer sees CellFinished the
        // cell must survive a kill.
        if (journal != nullptr) journal->record(index, cell);
        if (options.onProgress) {
          emitFinished(cell);
        } else {
          markDone();
        }
        submit(index, std::move(cell));
      });
    }
  }

  runTasks(std::move(tasks), jobs);

  std::vector<CellResult> cells;
  cells.reserve(shardCells);
  for (std::size_t index = 0; index < totalCells; ++index) {
    if (!inShard[index]) continue;
    LAZYHB_CHECK(filled[index]);  // a task that ended without its cell is a runner bug
    cells.push_back(std::move(slots[index]));
  }
  CampaignResult result = foldCells(std::move(cells), explorerNames);
  result.wallSeconds = secondsSince(campaignStart);
  result.jobs = jobs;
  result.shardIndex = options.shardIndex;
  result.shardCount = options.shardCount;

  if (options.onProgress) {
    ProgressEvent event;
    event.kind = ProgressEvent::Kind::CampaignFinished;
    event.schedulesExecuted = result.totalSchedules;
    event.scheduleLimit = options.explorer.scheduleLimit;
    event.wallSeconds = result.wallSeconds;
    emitEvent(std::move(event));
  }
  return result;
}

std::string checkCountingChain(const std::string& program,
                               const explore::ExplorationResult& stats,
                               std::uint64_t scheduleLimit) {
  auto fail = [&](const char* what) {
    return program + ": counting chain violated (" + what + ")";
  };
  if (stats.distinctValueClasses > 0) {
    if (stats.distinctStates > stats.distinctValueClasses) {
      return fail("#states > #valueClasses");
    }
    if (stats.distinctValueClasses > stats.distinctLazyHbrs) {
      return fail("#valueClasses > #lazyHBRs");
    }
  } else if (stats.distinctStates > stats.distinctLazyHbrs) {
    return fail("#states > #lazyHBRs");
  }
  if (stats.distinctLazyHbrs > stats.distinctHbrs) return fail("#lazyHBRs > #HBRs");
  if (stats.distinctHbrs > stats.schedulesExecuted) return fail("#HBRs > #schedules");
  if (stats.schedulesExecuted > scheduleLimit) return fail("#schedules > limit");
  return std::string();
}

FigureTotals figureTotals(const std::vector<ProgramSummary>& programs) {
  const auto percent = [](std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0
                      : 100.0 * static_cast<double>(part) / static_cast<double>(whole);
  };
  FigureTotals t;
  for (const ProgramSummary& p : programs) {
    if (p.hasDpor) {
      ++t.dporPrograms;
      if (p.belowDiagonal) {
        ++t.belowDiagonal;
        t.hbrsBelow += p.dporHbrs;
        t.redundantHbrs += p.dporHbrs - p.dporLazyHbrs;
      }
    }
    if (p.hasCachingPair) {
      ++t.cachingPrograms;
      if (p.cachingDiffers) {
        ++t.cachingDiffers;
        t.extraLazyHbrs += p.lazyHbrsByLazyCaching - p.lazyHbrsByFullCaching;
        t.regularOnDiffering += p.lazyHbrsByFullCaching;
      } else if (p.lazyHbrsByFullCaching > p.lazyHbrsByLazyCaching) {
        ++t.regularWon;
      }
    }
  }
  t.redundantPercent = percent(t.redundantHbrs, t.hbrsBelow);
  t.extraPercent = percent(t.extraLazyHbrs, t.regularOnDiffering);
  return t;
}

}  // namespace lazyhb::campaign
