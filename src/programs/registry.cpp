#include "programs/registry.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_set>
#include <utility>

#include "support/diagnostics.hpp"

namespace lazyhb {
namespace programs::detail {
namespace {

/// One registration awaiting the first enumeration.
struct PendingScenario {
  std::string name;
  std::string family;
  std::string description;
  explore::Program body;
  ScenarioTraits traits;
  std::uint64_t seq = 0;  ///< registration order, the rank tie-breaker
};

std::vector<PendingScenario>& pendingScenarios() {
  static std::vector<PendingScenario> pending;
  return pending;
}

bool& registryLatched() {
  static bool latched = false;
  return latched;
}

}  // namespace
}  // namespace programs::detail

namespace programs::detail {
namespace {

void appendPendingScenario(std::string name, std::string family,
                           std::string description, explore::Program body,
                           ScenarioTraits traits) {
  if (registryLatched()) {
    std::fprintf(stderr,
                 "lazyhb: scenario '%s' registered after the registry was "
                 "enumerated; register scenarios at namespace scope via "
                 "LAZYHB_SCENARIO (static initialization)\n",
                 name.c_str());
    LAZYHB_CHECK(!"late scenario registration");
  }
  auto& pending = pendingScenarios();
  PendingScenario scenario;
  scenario.name = std::move(name);
  scenario.family = std::move(family);
  scenario.description = std::move(description);
  scenario.body = std::move(body);
  scenario.traits = traits;
  scenario.seq = pending.size();
  pending.push_back(std::move(scenario));
}

}  // namespace

void registerCorpusScenario(std::string name, std::string family,
                            std::string description, explore::Program body,
                            bool hasKnownBug, bool checkpointable, int rank,
                            bool bugRequiresTso) {
  ScenarioTraits traits;
  traits.hasKnownBug = hasKnownBug;
  traits.bugRequiresTso = bugRequiresTso;
  traits.checkpointable = checkpointable;
  traits.rank = rank;
  appendPendingScenario(std::move(name), std::move(family),
                        std::move(description), std::move(body), traits);
}

}  // namespace programs::detail

void registerScenario(std::string name, std::string family,
                      std::string description, Program body,
                      ScenarioTraits traits) {
  if (traits.rank < kScenarioUserRank) {
    // Sub-user ranks are reserved for the built-in corpus (they are what
    // keeps corpus ids stable at 1..87); clamp rather than abort — the
    // scenario still registers, just after the corpus.
    std::fprintf(stderr,
                 "lazyhb: scenario '%s' asked for reserved rank %d; using %d "
                 "(ranks below %d belong to the built-in corpus)\n",
                 name.c_str(), traits.rank, kScenarioUserRank,
                 kScenarioUserRank);
    traits.rank = kScenarioUserRank;
  }
  programs::detail::appendPendingScenario(std::move(name), std::move(family),
                                          std::move(description),
                                          std::move(body), traits);
}

std::vector<ScenarioInfo> scenarios() {
  std::vector<ScenarioInfo> out;
  out.reserve(programs::all().size());
  for (const programs::ProgramSpec& spec : programs::all()) {
    ScenarioInfo info;
    info.id = spec.id;
    info.name = spec.name;
    info.family = spec.family;
    info.description = spec.description;
    info.hasKnownBug = spec.hasKnownBug;
    info.bugRequiresTso = spec.bugRequiresTso;
    info.checkpointable = spec.checkpointable;
    out.push_back(std::move(info));
  }
  return out;
}

namespace programs {

const std::vector<ProgramSpec>& all() {
  static const std::vector<ProgramSpec> programs = [] {
    // Pull the corpus translation units into the link and make sure their
    // static registrations ran (see registry.hpp).
    detail::linkLockingScenarios();
    detail::linkClassicScenarios();
    detail::linkCondvarScenarios();
    detail::linkLockfreeScenarios();
    detail::linkBuggyScenarios();
    detail::linkWeakMemScenarios();

    auto pending = std::move(detail::pendingScenarios());
    detail::pendingScenarios().clear();
    detail::registryLatched() = true;

    // Rank-major order; seq keeps registration order within a rank (the
    // corpus family TUs hold distinct ranks, so corpus order never depends
    // on link order, and user scenarios of equal rank enumerate in
    // registration order).
    std::sort(pending.begin(), pending.end(),
              [](const detail::PendingScenario& a,
                 const detail::PendingScenario& b) {
                if (a.traits.rank != b.traits.rank) {
                  return a.traits.rank < b.traits.rank;
                }
                return a.seq < b.seq;
              });

    std::vector<ProgramSpec> out;
    out.reserve(pending.size());
    std::unordered_set<std::string> names;
    std::size_t corpus = 0;
    for (auto& scenario : pending) {
      if (!names.insert(scenario.name).second) {
        std::fprintf(stderr, "lazyhb: duplicate scenario name '%s'\n",
                     scenario.name.c_str());
        LAZYHB_CHECK(!"duplicate scenario name");
      }
      if (scenario.traits.rank < kScenarioUserRank) ++corpus;
      ProgramSpec spec;
      spec.id = static_cast<int>(out.size()) + 1;
      spec.name = std::move(scenario.name);
      spec.family = std::move(scenario.family);
      spec.description = std::move(scenario.description);
      spec.body = std::move(scenario.body);
      spec.hasKnownBug = scenario.traits.hasKnownBug;
      spec.bugRequiresTso = scenario.traits.bugRequiresTso;
      spec.checkpointable = scenario.traits.checkpointable;
      out.push_back(std::move(spec));
    }
    // The paper's 79 benchmarks plus the 8-program weak-memory extension.
    LAZYHB_CHECK(corpus == 87);
    return out;
  }();
  return programs;
}

const ProgramSpec* byName(const std::string& name) {
  for (const ProgramSpec& spec : all()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<const ProgramSpec*> byFamily(const std::string& family) {
  std::vector<const ProgramSpec*> out;
  for (const ProgramSpec& spec : all()) {
    if (spec.family == family) out.push_back(&spec);
  }
  return out;
}

bool selectByTokens(const std::vector<std::string>& tokens,
                    std::vector<const ProgramSpec*>& out,
                    std::string* badToken) {
  std::vector<bool> taken(all().size() + 1, false);
  for (const std::string& token : tokens) {
    std::vector<const ProgramSpec*> matched;
    if (const ProgramSpec* named = byName(token)) {
      matched.push_back(named);
    } else {
      matched = byFamily(token);
    }
    if (matched.empty()) {
      if (badToken != nullptr) *badToken = token;
      return false;
    }
    for (const ProgramSpec* spec : matched) {
      if (static_cast<std::size_t>(spec->id) < taken.size() && taken[spec->id]) {
        continue;
      }
      taken[spec->id] = true;
      out.push_back(spec);
    }
  }
  return true;
}

}  // namespace programs
}  // namespace lazyhb
