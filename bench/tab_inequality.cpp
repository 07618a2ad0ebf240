// Reproduction of the paper's §3 counting chain:
//
//     #states <= #valueClasses <= #lazyHBRs <= #HBRs <= #schedules <= limit
//
// verified per benchmark under naive systematic enumeration (the chain is a
// hard invariant of a correct implementation for ANY explorer; enumeration
// gives the densest data). Prints one row per benchmark and fails loudly if
// any link of the chain breaks.

#include <cstdio>

#include "bench_common.hpp"
#include "campaign/explorer_spec.hpp"

using namespace lazyhb;

int main(int argc, char** argv) {
  auto options = bench::corpusOptions(
      "tab_inequality", "per-benchmark verification of the section-3 counting chain");
  if (!options.parse(argc, argv)) return options.parseError() ? 1 : 0;

  auto campaignOptions =
      bench::campaignOptions(options, {*campaign::parseExplorerSpec("dfs")});
  std::uint64_t& limit = campaignOptions.explorer.scheduleLimit;
  if (limit == 10000) limit = 5000;  // naive enumeration default

  std::printf("Counting chain (#states <= #valueClasses <= #lazyHBRs <= #HBRs"
              " <= #schedules),"
              " naive enumeration, %llu-schedule budget\n\n",
              static_cast<unsigned long long>(limit));

  // Each cell's inequalityDiagnostic is core::checkCountingChain of its
  // counts against the budget, checked by the campaign runner.
  const campaign::CampaignResult result = campaign::runCampaign(campaignOptions);

  support::Table table({"id", "benchmark", "#states", "#valueClasses",
                        "#lazyHBRs", "#HBRs", "#schedules", "chain"});
  for (const campaign::CellResult& cell : result.cells) {
    table.beginRow();
    table.cell(static_cast<std::int64_t>(cell.programId));
    table.cell(cell.program);
    table.cell(cell.stats.distinctStates);
    table.cell(cell.stats.distinctValueClasses);
    table.cell(cell.stats.distinctLazyHbrs);
    table.cell(cell.stats.distinctHbrs);
    table.cell(cell.stats.schedulesExecuted);
    table.cell(cell.failed()            ? cell.error
               : cell.inequalityHolds() ? std::string("ok")
                                        : cell.inequalityDiagnostic);
  }
  bench::emit(table, options.getFlag("csv"));

  // A cell whose exploration threw has no counts to check: it fails too.
  const int violations = result.inequalityViolations + result.cellsFailed;
  std::printf("\n%d/%zu benchmarks violate the chain (paper: the chain holds by "
              "construction; any violation is an implementation bug)\n",
              violations, result.cells.size());
  return violations == 0 ? 0 : 1;
}
