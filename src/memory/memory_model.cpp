#include "memory/memory_model.hpp"

namespace lazyhb {

const char* memoryModelName(MemoryModel model) noexcept {
  switch (model) {
    case MemoryModel::Sc: return "sc";
    case MemoryModel::Tso: return "tso";
  }
  return "?";
}

namespace memory {

std::optional<MemoryModel> parseMemoryModel(std::string_view name) noexcept {
  if (name == "sc") return MemoryModel::Sc;
  if (name == "tso") return MemoryModel::Tso;
  return std::nullopt;
}

const char* memoryModelNamesHelp() noexcept { return "sc, tso"; }

}  // namespace memory
}  // namespace lazyhb
