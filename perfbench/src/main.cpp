// perfbench_driver: runs one benchmark workload against the lazyhb campaign
// layer and prints one JSON result line. run.py builds and drives it; see
// README.md for the workloads, the metrics and the modes below.
//
//   --trace 0        repeat the untraced campaign for --seconds; report the
//                    end-to-end metrics (per-cell minima over the repetitions)
//   --trace 1        alternate untraced campaigns and traced passes;
//                    report per-layer metrics and the tracing overhead
//   --setup-probe    exit at the first cell's start, printing its
//                    CLOCK_MONOTONIC time (run.py measures set-up with it)
//   --write-counts   also write the first campaign's per-cell counts
//
// Every campaign cell goes through the correctness gate (gate.cpp); the
// exit status is 1 when any cell fails it.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "campaign/report.hpp"
#include "perfbench.hpp"
#include "programs/registry.hpp"
#include "support/json_writer.hpp"
#include "support/options.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizedBuild = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitizedBuild = true;
#else
constexpr bool kSanitizedBuild = false;
#endif
#else
constexpr bool kSanitizedBuild = false;
#endif

#ifdef NDEBUG
constexpr bool kAssertsOff = true;
#else
constexpr bool kAssertsOff = false;
#endif

#ifdef __clang__
constexpr const char* kCompiler = __VERSION__;
#else
constexpr const char* kCompiler = "GCC " __VERSION__;
#endif

/// Why this build must not be timed, or "" when it may.
std::string unfitBuild() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  const std::string sanitize = PERFBENCH_SANITIZE;
  if (kSanitizedBuild || !(sanitize.empty() || sanitize == "OFF" || sanitize == "0")) {
    return "a sanitizer build";
  }
  if (!kAssertsOff || (type != "Release" && type != "RelWithDebInfo")) {
    return "a '" + type + "' build (Release or RelWithDebInfo required)";
  }
  return "";
}

double seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double peakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// FNV-1a over the gated counts of the cells `select` accepts: equal
/// digests mean byte-identical count sets.
template <typename Select>
std::string countsDigest(const lazyhb::campaign::CampaignResult& result, Select select) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto feed = [&](const std::string& s) {
    for (const unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
  };
  for (const lazyhb::campaign::CellResult& cell : result.cells) {
    if (!select(cell)) continue;
    feed(cell.program + "|" + cell.explorer);
    for (const auto& [name, value] : gatedCounts(cell.stats)) {
      feed("|" + name + "=" + std::to_string(value));
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

void writeCounts(const std::string& path, const Workload& w,
                 const lazyhb::campaign::CampaignResult& result) {
  lazyhb::support::JsonWriter json;
  json.beginObject();
  json.field("workload", w.name);
  json.field("schedule_limit", w.scheduleLimit);
  json.key("cells").beginArray();
  for (const lazyhb::campaign::CellResult& cell : result.cells) {
    json.beginObject();
    json.field("program", cell.program);
    json.field("explorer", cell.explorer);
    json.key("counts").beginObject();
    for (const auto& [name, value] : gatedCounts(cell.stats)) json.field(name, value);
    json.endObject();
    json.endObject();
  }
  json.endArray();
  json.endObject();
  std::ofstream(path) << json.str();
}

lazyhb::campaign::ReportConfig reportConfig(const lazyhb::campaign::CampaignOptions& o) {
  lazyhb::campaign::ReportConfig config;
  config.scheduleLimit = o.explorer.scheduleLimit;
  config.maxEventsPerSchedule = o.explorer.maxEventsPerSchedule;
  config.seed = o.seed;
  config.incremental = o.explorer.incremental;
  config.workers = o.explorer.workers;
  config.snapshotBudgetBytes = o.explorer.snapshotBudgetBytes;
  config.memoryModel = lazyhb::memory::memoryModelName(o.explorer.memoryModel);
  return config;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string joined(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) out += (out.empty() ? "" : ", ") + number(v);
  return out;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  lazyhb::support::Options cli("perfbench_driver",
                               "run one lazyhb benchmark workload (see perfbench/README.md)");
  cli.addString("workload", "", "workload name");
  cli.addInt("seed", 42, "seed of every random walk");
  cli.addInt("seconds", 10, "how long to measure");
  cli.addInt("trace", 0, "0: end-to-end metrics, 1: per-layer metrics");
  cli.addString("reference", "", "reference counts (reference.json)");
  cli.addFlag("setup-probe", "exit at the first cell's start, printing its monotonic time");
  cli.addString("write-counts", "", "also write the first campaign's per-cell counts here");
  if (!cli.parse(argc, argv)) return cli.parseError() ? 2 : 0;

  if (const std::string why = unfitBuild(); !why.empty()) {
    std::fprintf(stderr, "perfbench: refusing to time %s\n", why.c_str());
    return 2;
  }
  const Workload* workload = findWorkload(cli.getString("workload"));
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 cli.getString("workload").c_str());
    return 2;
  }
  const Workload& w = *workload;
  const auto seed = static_cast<std::uint64_t>(cli.getInt("seed"));
  const bool traced = cli.getInt("trace") != 0;
  const double budgetSeconds =
      static_cast<double>(std::max<std::int64_t>(cli.getInt("seconds"), 1));

  (void)lazyhb::programs::all();  // latch the registry
  Reference reference;
  if (std::string error; !reference.load(cli.getString("reference"), &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  lazyhb::campaign::CampaignOptions options = campaignOptions(w, seed);

  if (cli.getFlag("setup-probe")) {
    options.onProgress = [](const lazyhb::ProgressEvent& event) {
      if (event.kind != lazyhb::ProgressEvent::Kind::CellStarted) return;
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now().time_since_epoch())
                          .count();
      std::printf("{\"first_cell_monotonic_ns\": %lld}\n", static_cast<long long>(ns));
      std::fflush(stdout);
      std::_Exit(0);
    };
    (void)lazyhb::campaign::runCampaign(options);
    std::fprintf(stderr, "perfbench: the campaign started no cell\n");
    return 1;
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<double> walls, reportSeconds;
  std::vector<std::vector<double>> cellWalls;  // [cell][repetition]
  std::uint64_t events = 0;
  std::uint64_t executedEvents = 0;
  std::string seededDigest, fixedDigest;
  lazyhb::campaign::CampaignResult first;

  // One untraced campaign, timed and gated.
  const auto campaign = [&] {
    const auto t0 = Clock::now();
    lazyhb::campaign::CampaignResult result = lazyhb::campaign::runCampaign(options);
    const double wall = seconds(Clock::now() - t0);
    walls.push_back(wall);
    cellWalls.resize(result.cells.size());
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
      cellWalls[i].push_back(result.cells[i].wallSeconds);
    }
    events += result.totalEvents;
    executedEvents += result.totalEvents - result.totalEventsElided;
    if (traced) {
      const auto r0 = Clock::now();
      (void)lazyhb::campaign::writeReportJson(result, reportConfig(options));
      reportSeconds.push_back(seconds(Clock::now() - r0));
    }
    attempted += result.cells.size();
    failed += gateCampaign(w, result, reference, seed, &failures);
    if (walls.size() == 1) {
      seededDigest = countsDigest(result, [](const auto& c) { return seeded(c.explorer); });
      fixedDigest = countsDigest(result, [](const auto& c) { return !seeded(c.explorer); });
      if (!cli.getString("write-counts").empty()) {
        writeCounts(cli.getString("write-counts"), w, result);
      }
      first = std::move(result);
    }
  };

  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(budgetSeconds));
  std::vector<Metric> metrics;
  if (!traced) {
    do {
      campaign();
    } while (walls.size() < 3 || Clock::now() < deadline);
    // Each cell's fastest repetition, summed. Other tenants of a shared
    // host only ever slow a cell, for seconds to minutes at a time; the
    // fastest showing of each cell is the estimate they move least, while
    // a change to the code moves every showing. Medians are taken over
    // runs. Every repetition runs the same cells with the same counts, so
    // the rates divide one campaign's events by this wall time.
    double wall = 0.0;
    for (const std::vector<double>& w : cellWalls) wall += *std::min_element(w.begin(), w.end());
    const double reps = static_cast<double>(walls.size());
    metrics = {
        {"wall_s", wall, "s"},
        {"events_per_s", static_cast<double>(events) / reps / wall, "events/s"},
        {"executed_events_per_s", static_cast<double>(executedEvents) / reps / wall,
         "events/s"},
        {"peak_rss_mb", peakRssMiB(), "MiB"},
    };
  } else {
    // Alternate untraced campaigns and traced passes so both see the same
    // host conditions; the overhead is the ratio of their means.
    TracedRun tracedRun(w, seed);
    std::vector<double> tracedWalls;
    do {
      campaign();
      std::vector<std::string> mismatches;
      tracedWalls.push_back(tracedRun.pass(first, &mismatches));
      attempted += tracedRun.cellsPerPass();
      failed += mismatches.size();
      failures.insert(failures.end(), mismatches.begin(), mismatches.end());
    } while (tracedWalls.size() < 2 || Clock::now() < deadline);
    metrics = tracedRun.metrics();
    metrics.insert(
        metrics.end(),
        {
            {"campaign.cells", static_cast<double>(first.cells.size()), "count"},
            {"campaign.report_s", mean(reportSeconds), "s"},
            {"tracing.untraced_wall_s", mean(walls), "s"},
            {"tracing.traced_wall_s", mean(tracedWalls), "s"},
            {"tracing.overhead", mean(tracedWalls) / mean(walls), "ratio"},
            {"tracing.replicated_cells",
             static_cast<double>(tracedRun.replicatedCellsPerPass()), "count"},
        });
  }

  for (std::size_t i = 0; i < failures.size() && i < 20; ++i) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", failures[i].c_str());
  }
  std::string line = "{\"workload\": " + quoted(w.name) +
                     ", \"seed\": " + std::to_string(seed) +
                     ", \"trace\": " + (traced ? "1" : "0") +
                     ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
                     ", \"compiler\": " + quoted(kCompiler) +
                     ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
                     ", \"snapshot_budget_bytes\": " + std::to_string(kSnapshotBudgetBytes) +
                     ", \"repetitions\": " + std::to_string(walls.size()) +
                     ", \"rep_walls_s\": [" + joined(walls) + "]" +
                     ", \"digest_seeded\": " + quoted(seededDigest) +
                     ", \"digest_fixed\": " + quoted(fixedDigest) +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"failures\": [";
  for (std::size_t i = 0; i < failures.size() && i < 20; ++i) {
    line += (i ? ", " : "") + quoted(failures[i]);
  }
  line += "], \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i ? ", " : "") + quoted(metrics[i].name) + ": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": " + quoted(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return failed == 0 ? 0 : 1;
}
