// lazyhb/campaign/explorer_spec.hpp
//
// The one explorer factory shared by the CLI, the Session API, the benches
// and the campaign runner. An ExplorerSpec is a *value* naming an explorer
// configuration; `create()` builds a fresh explorer instance from it.
// Because explorers are single-use (ExplorerBase::explore may run once),
// every campaign cell constructs its own explorer from the spec — which is
// also what makes the (program × explorer) matrix embarrassingly parallel.
//
// The mode names are the strings the CLI accepts for --explorer /
// --explorers: the five canonical modes dfs, random, dpor, caching-full,
// caching-lazy, plus the extended caching-value and dpor-nosleep. Every
// mode but random is one TreeExplorer search.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "explore/explorer.hpp"

namespace lazyhb::campaign {

struct ExplorerSpec {
  enum class Kind : std::uint8_t {
    Dfs,
    Random,
    Dpor,
    CachingFull,
    CachingLazy,
    // Outside the default matrix (extendedExplorers(); select by name):
    DporNoSleep,   ///< ablation: DPOR backtracking without sleep sets
    CachingValue,  ///< value-class caching, coarser than caching-lazy
  };

  Kind kind = Kind::Dfs;
  std::string name;  ///< canonical mode name, e.g. "caching-lazy"

  /// Build a fresh single-use explorer. `seed` affects Kind::Random only.
  /// The tree searches are one TreeExplorer: dfs and caching-full /
  /// caching-lazy / caching-value keyed on no relation or on Full / Lazy /
  /// Value, dpor and dpor-nosleep built from DporOptions (no cache).
  /// `options.workers` must be 1.
  [[nodiscard]] std::unique_ptr<explore::ExplorerBase> create(
      const explore::ExplorerOptions& options, std::uint64_t seed) const;
};

/// The five canonical explorer modes, in the order tables print them.
[[nodiscard]] const std::vector<ExplorerSpec>& allExplorers();

/// The ablation variant "dpor-nosleep" and the observation-centric
/// "caching-value" explorer: constructible through the same factory, excluded from the default campaign matrix so historical
/// reports stay comparable cell-for-cell. Select with --explorers.
[[nodiscard]] const std::vector<ExplorerSpec>& extendedExplorers();

/// Resolve a canonical or extended mode name; nullopt for unknown names.
[[nodiscard]] std::optional<ExplorerSpec> parseExplorerSpec(const std::string& name);

/// Parse a comma-separated mode list ("dpor,caching-lazy"). An empty string
/// selects every mode. Returns nullopt on the first unknown name, copying
/// it into *badName (when non-null) for the error message.
[[nodiscard]] std::optional<std::vector<ExplorerSpec>> parseExplorerList(
    const std::string& csv, std::string* badName = nullptr);

/// Every mode name parseExplorerSpec accepts, the default matrix marked —
/// for help text and unknown-name errors.
[[nodiscard]] std::string explorerNamesHelp();

}  // namespace lazyhb::campaign
