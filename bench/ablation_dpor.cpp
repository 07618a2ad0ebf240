// Ablation of the design choices DESIGN.md calls out, on the full corpus:
//
//   dfs          — naive enumeration (no reduction; the baseline)
//   dpor-nosleep — Flanagan–Godefroid backtracking only
//   dpor         — + sleep sets (default configuration)
//   cache-hbr    — DFS + regular-HBR prefix caching (Musuvathi–Qadeer)
//   cache-lazy   — DFS + lazy-HBR prefix caching (the paper)
//
// For each variant we report total schedules executed, distinct terminal
// lazy HBRs and distinct terminal states across the corpus, plus how many
// benchmarks were fully exhausted within the budget. The interesting read:
// how much of naive's work each reduction avoids. There is no DPOR +
// prefix-cache variant: a cache hit skips a subtree whose races DPOR needs,
// which loses states (lastzero-3 reached 11 of its 12).

#include <cstdio>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "campaign/explorer_spec.hpp"

using namespace lazyhb;

namespace {

/// One variant's row, summed over its campaign cells.
struct Totals {
  std::uint64_t schedules = 0;
  std::uint64_t lazyHbrs = 0;
  std::uint64_t states = 0;
  std::uint64_t violationsFound = 0;  // benchmarks where a violation surfaced
  int complete = 0;
};

/// Display label -> ExplorerSpec mode name. Every variant — including the
/// ablation-only ones — is constructed through the shared factory.
struct Variant {
  const char* label;
  const char* mode;
};

constexpr Variant kVariants[] = {
    {"dfs", "dfs"},
    {"dpor-nosleep", "dpor-nosleep"},
    {"dpor", "dpor"},
    {"cache-hbr", "caching-full"},
    {"cache-lazy", "caching-lazy"},
};

}  // namespace

int main(int argc, char** argv) {
  auto options = bench::corpusOptions(
      "ablation_dpor", "explorer-variant ablation over the corpus");
  if (!options.parse(argc, argv)) return options.parseError() ? 1 : 0;

  std::vector<campaign::ExplorerSpec> explorers;
  for (const Variant& variant : kVariants) {
    const auto parsed = campaign::parseExplorerSpec(variant.mode);
    if (!parsed) {
      std::fprintf(stderr, "unknown explorer mode '%s'\n", variant.mode);
      return 1;
    }
    explorers.push_back(*parsed);
  }
  auto campaignOptions = bench::campaignOptions(options, std::move(explorers));
  // Five explorers over the whole corpus: default to a lighter budget than
  // the figure benches (the regime comparison is identical).
  std::uint64_t& limit = campaignOptions.explorer.scheduleLimit;
  if (limit == 10000) limit = 2000;

  std::printf("Explorer ablation, %llu-schedule budget per benchmark, %zu benchmarks\n\n",
              static_cast<unsigned long long>(limit),
              campaignOptions.programs.size());
  const campaign::CampaignResult result = campaign::runCampaign(campaignOptions);

  support::Table table({"explorer", "schedules(total)", "lazyHBRs(total)",
                        "states(total)", "bug-benchmarks-caught", "exhausted"});
  for (const Variant& variant : kVariants) {
    Totals sum;
    for (const campaign::CellResult& cell : result.cells) {
      if (cell.explorer != variant.mode) continue;
      sum.schedules += cell.stats.schedulesExecuted;
      sum.lazyHbrs += cell.stats.distinctLazyHbrs;
      sum.states += cell.stats.distinctStates;
      sum.violationsFound += cell.stats.foundViolation() ? 1 : 0;
      sum.complete += cell.stats.complete ? 1 : 0;
    }
    table.beginRow();
    table.cell(std::string(variant.label));
    table.cell(sum.schedules);
    table.cell(sum.lazyHbrs);
    table.cell(sum.states);
    table.cell(sum.violationsFound);
    table.cell(static_cast<std::int64_t>(sum.complete));
  }
  bench::emit(table, options.getFlag("csv"));
  return 0;
}
