#include "campaign/explorer_spec.hpp"

#include "explore/dfs_explorer.hpp"
#include "explore/dpor_explorer.hpp"
#include "explore/parallel_explorer.hpp"
#include "explore/random_explorer.hpp"
#include "support/diagnostics.hpp"
#include "support/options.hpp"

namespace lazyhb::campaign {

namespace {

/// The tree explorer keyed on `relation` (nullopt: plain DFS), sharded
/// across options.workers threads when the options allow it. Counts are
/// byte-identical either way, so the choice is an implementation detail.
std::unique_ptr<explore::Explorer> treeExplorer(
    const explore::ExplorerOptions& options,
    std::optional<trace::Relation> relation, std::uint64_t seed) {
  if (explore::ParallelExplorer::shardable(options)) {
    return std::make_unique<explore::ParallelExplorer>(options, relation, seed);
  }
  return std::make_unique<explore::TreeExplorer>(options, relation);
}

}  // namespace

std::unique_ptr<explore::Explorer> ExplorerSpec::create(
    const explore::ExplorerOptions& options, std::uint64_t seed) const {
  // Only the tree searches shard; random's RNG stream and DPOR's
  // visit-ordered backtrack sets keep their sequential explorer regardless
  // of the requested worker count.
  switch (kind) {
    case Kind::Dfs:
      return treeExplorer(options, std::nullopt, seed);
    case Kind::CachingFull:
      return treeExplorer(options, trace::Relation::Full, seed);
    case Kind::CachingLazy:
      return treeExplorer(options, trace::Relation::Lazy, seed);
    case Kind::CachingValue:
      return treeExplorer(options, trace::Relation::Value, seed);
    case Kind::Random:
      return std::make_unique<explore::RandomExplorer>(options, seed);
    case Kind::Dpor:
      return std::make_unique<explore::DporExplorer>(options);
    case Kind::DporNoSleep: {
      explore::DporOptions dpor;
      dpor.sleepSets = false;
      return std::make_unique<explore::DporExplorer>(options, dpor);
    }
    case Kind::DporLazyCache: {
      explore::DporOptions dpor;
      dpor.cachePrefixes = trace::Relation::Lazy;
      return std::make_unique<explore::DporExplorer>(options, dpor);
    }
  }
  LAZYHB_UNREACHABLE("unhandled ExplorerSpec::Kind");
}

const std::vector<ExplorerSpec>& allExplorers() {
  static const std::vector<ExplorerSpec> specs = {
      {ExplorerSpec::Kind::Dfs, "dfs"},
      {ExplorerSpec::Kind::Random, "random"},
      {ExplorerSpec::Kind::Dpor, "dpor"},
      {ExplorerSpec::Kind::CachingFull, "caching-full"},
      {ExplorerSpec::Kind::CachingLazy, "caching-lazy"},
  };
  return specs;
}

const std::vector<ExplorerSpec>& extendedExplorers() {
  static const std::vector<ExplorerSpec> specs = {
      {ExplorerSpec::Kind::DporNoSleep, "dpor-nosleep"},
      {ExplorerSpec::Kind::DporLazyCache, "dpor-lazy-cache"},
      {ExplorerSpec::Kind::CachingValue, "caching-value"},
  };
  return specs;
}

std::optional<ExplorerSpec> parseExplorerSpec(const std::string& name) {
  for (const ExplorerSpec& spec : allExplorers()) {
    if (spec.name == name) return spec;
  }
  for (const ExplorerSpec& spec : extendedExplorers()) {
    if (spec.name == name) return spec;
  }
  return std::nullopt;
}

std::optional<std::vector<ExplorerSpec>> parseExplorerList(const std::string& csv,
                                                           std::string* badName) {
  if (csv.empty()) return allExplorers();
  std::vector<ExplorerSpec> specs;
  for (const std::string& token : support::splitCsv(csv)) {
    const auto spec = parseExplorerSpec(token);
    if (!spec) {
      if (badName != nullptr) *badName = token;
      return std::nullopt;
    }
    specs.push_back(*spec);
  }
  return specs;
}

std::string explorerNamesHelp(bool includeExtended) {
  std::string out;
  for (const ExplorerSpec& spec : allExplorers()) {
    if (!out.empty()) out += ", ";
    out += spec.name;
  }
  if (includeExtended) {
    for (const ExplorerSpec& spec : extendedExplorers()) {
      out += ", " + spec.name;
    }
  }
  return out;
}

}  // namespace lazyhb::campaign
