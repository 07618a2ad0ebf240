// lazyhb/campaign/merge.hpp
//
// Merging schema-v5 campaign reports: the gather half of the shard/merge
// workflow (`lazyhb bench --shard i/N` on N hosts, `lazyhb merge` once).
// The merge is associative and commutative over reports with compatible
// configurations, so shards can be merged in any grouping and order and
// produce the same count set — the property tests/test_resume.cpp checks.
//
// Cell semantics:
//   * disjoint cells — union.
//   * duplicate cells with identical counts — deduplicated (one copy kept,
//     chosen by a deterministic, order-independent preference).
//   * duplicate cells where one copy timed out or failed — the healthy /
//     deeper copy wins (a resumed shard overlaps a partial one).
//   * duplicate CLEAN cells with different counts — a hard error: two
//     complete runs of one configuration can never disagree under the
//     determinism contract, so differing counts mean the inputs lie about
//     their configuration (or a bug worth hearing about).
//   * a program id paired with two names, or a name with two ids, across
//     the inputs — a hard error: the merged report would count one program
//     twice.
//
// Aggregates are never merged numerically: the merged cell set is re-folded
// through campaign::foldCells — the same fold a direct run uses — and every
// cell's §3 chain is re-checked, so a merged report cannot carry totals or
// inequality verdicts its own cells do not support.

#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/report.hpp"

namespace lazyhb::campaign {

/// A merged campaign: the re-folded result, the common configuration, and
/// the provenance block for the output report.
struct MergeOutcome {
  CampaignResult result;
  ReportConfig config;
  MergeProvenance provenance;
};

/// A document that is not a readable schema-v8 report: malformed JSON, a
/// wrong schema or version, or a malformed or incomplete cell.
struct ReportFormatError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Merge parsed-from-disk report documents. `labels[i]` names documents[i]
/// in provenance and error messages (the CLI passes filenames). Throws
/// ReportFormatError when a document cannot be read as a report, and
/// std::runtime_error on incompatible configurations, conflicting
/// duplicate cells or a program id that names two programs.
[[nodiscard]] MergeOutcome mergeReports(const std::vector<std::string>& documents,
                                        const std::vector<std::string>& labels);

}  // namespace lazyhb::campaign
