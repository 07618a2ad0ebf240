#include "campaign/explorer_spec.hpp"

#include "explore/dfs_explorer.hpp"
#include "explore/random_explorer.hpp"
#include "support/diagnostics.hpp"
#include "support/options.hpp"

namespace lazyhb::campaign {

std::unique_ptr<explore::ExplorerBase> ExplorerSpec::create(
    const explore::ExplorerOptions& options, std::uint64_t seed) const {
  LAZYHB_CHECK(options.workers == 1);
  switch (kind) {
    case Kind::Dfs:
      return std::make_unique<explore::TreeExplorer>(options);
    case Kind::CachingFull:
      return std::make_unique<explore::TreeExplorer>(options, trace::Relation::Full);
    case Kind::CachingLazy:
      return std::make_unique<explore::TreeExplorer>(options, trace::Relation::Lazy);
    case Kind::CachingValue:
      return std::make_unique<explore::TreeExplorer>(options, trace::Relation::Value);
    case Kind::Random:
      return std::make_unique<explore::RandomExplorer>(options, seed);
    case Kind::Dpor:
      return std::make_unique<explore::TreeExplorer>(options, explore::DporOptions{});
    case Kind::DporNoSleep:
      return std::make_unique<explore::TreeExplorer>(
          options, explore::DporOptions{.sleepSets = false});
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

std::string explorerNamesHelp() {
  std::string out;
  for (const ExplorerSpec& spec : allExplorers()) out += spec.name + ", ";
  for (const ExplorerSpec& spec : extendedExplorers()) out += spec.name + ", ";
  out.resize(out.size() - 2);
  return out + "; the first " + std::to_string(allExplorers().size()) +
         " make up the default matrix";
}

}  // namespace lazyhb::campaign
