#include "campaign/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>

#include "campaign/checkpoint.hpp"
#include "campaign/report.hpp"
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

/// Add the 64-bit counts of `cell` into `sum`; the flags and the TSO buffer
/// high-water mark do not add up and keep their defaults.
void addCounts(explore::ExplorationResult& sum, const explore::ExplorationResult& cell) {
  forEachCount(
      [](const Count&, auto& total, const auto& value) {
        if constexpr (std::is_same_v<std::decay_t<decltype(total)>, std::uint64_t>) {
          total += value;
        }
      },
      sum, cell);
}

/// A lifecycle event about `cell`, as far as the cell has got (a cell that
/// has not run yet reports no schedules, attempt 1 and no wall time).
ProgressEvent cellEvent(ProgressEvent::Kind kind, const CellResult& cell) {
  ProgressEvent event;
  event.kind = kind;
  event.scenario = cell.program;
  event.strategy = cell.explorer;
  event.schedulesExecuted = cell.stats.schedulesExecuted;
  event.attempt = cell.attempts;
  event.wallSeconds = cell.wallSeconds;
  event.fromCheckpoint = cell.fromCheckpoint;
  return event;
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
    addCounts(totals.stats, cell.stats);
    totals.wallSeconds += cell.wallSeconds;
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
          static_cast<double>(totals.stats.totalEvents) / totals.wallSeconds;
      totals.executedEventsPerSecond =
          static_cast<double>(totals.stats.totalEvents - totals.stats.eventsElided) /
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

  // Every progress event passes through here, under one lock: callbacks are
  // serialized (the contract in lazyhb/progress.hpp), and a CellFinished
  // counts its cell under the same lock so consumers see the count
  // monotone. Cells are counted even with no callback installed:
  // CampaignFinished reads the count.
  const auto emit = [&](ProgressEvent event) {
    const std::lock_guard<std::mutex> guard(progressMutex);
    if (event.kind == ProgressEvent::Kind::CellFinished) ++cellsDone;
    if (!options.onProgress) return;
    event.scheduleLimit = options.explorer.scheduleLimit;
    event.cellsDone = cellsDone;
    event.cellsTotal = shardCells;
    options.onProgress(event);
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
        emit(cellEvent(ProgressEvent::Kind::CellFinished, cell));
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

        emit(cellEvent(ProgressEvent::Kind::CellStarted, cell));

        // The supervisor: re-run a timed-out or throwing cell up to
        // cellRetries extra times; a cell that fails every attempt is
        // recorded with its error and zero counts, and the campaign
        // continues past it.
        for (;; ++cell.attempts) {
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
          if ((!cell.failed() && !cell.stats.timedOut) ||
              cell.attempts >= maxAttempts) {
            break;
          }
          emit(cellEvent(ProgressEvent::Kind::CellRetried, cell));
        }
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
          emit(cellEvent(cell.failed() ? ProgressEvent::Kind::CellFailed
                                       : ProgressEvent::Kind::CellTimedOut,
                         cell));
        }

        // Journal before announcing: once a consumer sees CellFinished the
        // cell must survive a kill.
        if (journal != nullptr) journal->record(index, cell);
        emit(cellEvent(ProgressEvent::Kind::CellFinished, cell));
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

  ProgressEvent finished;
  finished.kind = ProgressEvent::Kind::CampaignFinished;
  finished.schedulesExecuted = result.totalSchedules;
  finished.wallSeconds = result.wallSeconds;
  emit(std::move(finished));
  return result;
}

std::string checkCountingChain(const std::string& program,
                               const explore::ExplorationResult& stats,
                               std::uint64_t scheduleLimit) {
  // The theorems first: the chain is their corollary.
  for (const auto& [theorem, checker] :
       {std::pair{"theorem 2.1", &stats.theorem21},
        std::pair{"theorem 2.2", &stats.theorem22},
        std::pair{"value soundness", &stats.theoremValue}}) {
    if (checker->conflicts > 0) {
      return program + ": " + theorem + " violated (" +
             std::to_string(checker->conflicts) + " conflict" +
             (checker->conflicts == 1 ? "" : "s") + ")";
    }
  }
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
