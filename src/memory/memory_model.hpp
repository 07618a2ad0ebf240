// lazyhb/memory/memory_model.hpp
//
// The pluggable memory-model subsystem. A memory model decides what a
// Shared<T> write does at commit time and which extra scheduler-visible
// events an execution exposes:
//
//   Sc  — sequential consistency (the default): every write lands in memory
//         immediately; semantics and every observable count are
//         byte-identical to the engine before this subsystem existed.
//   Tso — total store order (x86-style): each thread owns a FIFO store
//         buffer. A Shared<T> store enqueues into the writer's buffer; a
//         separate *flush* event — schedulable like any other event —
//         moves the oldest buffered store to memory. A thread's loads
//         forward from its own buffer (newest matching entry) before
//         falling through to memory, which is exactly the store->load
//         reordering TSO permits. lazyhb::fence() drains the buffer
//         (enabled only when it is empty), restoring SC ordering locally.
//
// Following Lazy TSO Reachability (Bouajjani et al., see PAPERS.md), the
// buffer effects are *lazily enumerated as extra events* rather than baked
// into a product state space: a flush of thread t is encoded as the
// scheduler pick `kFlushPickOffset + t`, so the schedule tree, ThreadSet
// machinery, DPOR backtracking, HBR fingerprints and the incremental
// checkpoint engine all operate on TSO executions unchanged — a flush is
// just one more event with one more "thread" (the flush agent of t).
//
// This header is the subsystem's whole vocabulary; runtime/execution.hpp
// consumes it for the engine semantics. The model enum and its name are
// public (lazyhb/options.hpp): a front end parses a model name once, with
// parseMemoryModel, into RunOptions, and everything below reads the enum.

#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "lazyhb/options.hpp"
#include "support/hash.hpp"

namespace lazyhb::memory {

/// The memory models an Execution can run under (Config::memoryModel): the
/// public enum of lazyhb/options.hpp, with its canonical name.
using lazyhb::MemoryModel;
using lazyhb::memoryModelName;

/// Scheduler picks >= this value denote store-buffer flushes: pick
/// `kFlushPickOffset + t` commits the oldest buffered store of thread t.
/// Real threads are capped at this count under TSO so every pick — thread
/// or flush — fits one support::ThreadSet (64 bits: 32 threads + 32 flush
/// agents) and recorded schedules stay plain vectors of ints.
inline constexpr int kFlushPickOffset = 32;

/// Thread-count cap under TSO (see kFlushPickOffset).
inline constexpr int kTsoMaxRealThreads = kFlushPickOffset;

/// True for picks that denote a flush, not a thread advance.
[[nodiscard]] constexpr bool isFlushPick(int pick) noexcept {
  return pick >= kFlushPickOffset;
}

/// The thread index whose buffer a flush pick drains.
[[nodiscard]] constexpr int flushPickOwner(int pick) noexcept {
  return pick - kFlushPickOffset;
}

/// Schedule-invariant identity of thread t's flush agent: flush events need
/// their own threadUid (their indexInThread counts flushes, not thread
/// events, so sharing the owner's uid would collide labels). Derived from
/// the owner's uid, hence itself schedule-invariant.
[[nodiscard]] constexpr std::uint64_t flushAgentUid(std::uint64_t threadUid) noexcept {
  return support::mix64(threadUid ^ 0xF1A5EDB0FFull);
}

/// Parse a canonical name; nullopt for anything else.
[[nodiscard]] std::optional<MemoryModel> parseMemoryModel(std::string_view name) noexcept;

/// "sc, tso" — for usage strings and unknown-value error messages.
[[nodiscard]] const char* memoryModelNamesHelp() noexcept;

}  // namespace lazyhb::memory
