// lazyhb/cli/cli.hpp
//
// The unified `lazyhb` command-line driver. Subcommands:
//
//   lazyhb list     — print the registered program corpus
//   lazyhb explore  — run one program under one explorer, print stats
//   lazyhb compare  — run one program under six explorers, one row each
//   lazyhb bench    — run the (program × explorer) campaign matrix in
//                     parallel and emit a machine-readable JSON report
//   lazyhb merge    — merge shard/resume bench reports into one report
//   lazyhb figures  — print the paper's Figure 2, Figure 3, §3 chain and
//                     explorer ablation from bench reports
//   lazyhb replay   — re-execute a recorded schedule and render its trace
//
// Every subcommand builds on support::Options, so `lazyhb <cmd> --help`
// prints the full flag table. Explorer construction goes through the shared
// campaign::ExplorerSpec factory (campaign/explorer_spec.hpp), so the CLI,
// the Session API and the campaign runner accept the same mode names,
// listed once by campaign::explorerNamesHelp().

#pragma once

namespace lazyhb::cli {

/// Entry point: dispatch argv[1] to a subcommand. Returns the process exit
/// status: 0 on success, 2 on usage errors, 1 when a violation was found by
/// `explore --fail-on-violation`, a replay ends in a violation, a bench
/// campaign or a merge sees a §3 inequality violation, reports conflict
/// (different configurations, a duplicate cell with different counts, or a
/// program id that names two programs),
/// or `figures` reads a cell that breaks the §3 chain or failed, and 3 when
/// the arguments were fine but a file could not be read or written, or a
/// file given to `merge` or `figures` is not a schema-v8 report.
[[nodiscard]] int run(int argc, char** argv);

}  // namespace lazyhb::cli
