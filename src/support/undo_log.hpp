// lazyhb/support/undo_log.hpp
//
// The undo log behind incremental prefix replay. A tree search rolls its
// execution and trace recorder back to a staged depth once per sibling;
// copying every object at every stage would cost O(all objects) per stage,
// so each owner instead logs an item's pre-image the first time the item
// changes after a stage, and a rollback replays those pre-images newest
// first. Execution keeps two instances (object table, TSO store buffers),
// TraceRecorder one (object histories).
//
//   mark()         opens a new epoch and returns where the log stands, an
//                  UndoMark the caller keeps in its snapshot. The first
//                  mark() after reset() switches logging on — before it
//                  there is nothing to roll back to, so nothing is logged.
//   log(i, stamp, item)
//                  assigns item i to a PreImage entry on the item's first
//                  change in the current epoch; `stamp` is the item's own
//                  epoch stamp, so later changes in that epoch coalesce.
//                  Epochs are never reused, so a stale stamp needs no
//                  clearing: it simply reads as "not logged this epoch".
//   rollbackTo(m, restore)
//                  hands the entries above `m` to `restore` newest-first and
//                  opens a new epoch, so post-rollback changes log again and
//                  the same mark can be rolled back to once per sibling.
//                  Restoring by swap (swapFields below) consumes the
//                  entry and keeps its vectors' capacity in the pooled
//                  arena.
//   reset()        drops every entry (the arena stays allocated) and
//                  advances the generation, so rollbackTo rejects a mark
//                  taken before it.
//
// A mark taken deeper than the one rolled back to is unusable afterwards
// (its owner drops it), but the entries it covered are not lost: rolling
// back past it to a shallower mark still replays them.

#pragma once

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "support/diagnostics.hpp"

namespace lazyhb::support {

/// A pre-image lists its fields once, in a `tie()` member returning
/// std::tie of every field; swapFields and clearFields derive rollback's
/// restore and a per-execution clear from that one list, so a field added
/// there is restored and cleared everywhere. Both go field by field: the
/// whole-struct std::swap would move each vector three times, and assigning
/// a fresh struct would drop each vector's capacity.
template <class State, class F>
void forEachFieldPair(State& x, State& y, F&& f) {
  auto xs = x.tie();
  auto ys = y.tie();
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (f(std::get<I>(xs), std::get<I>(ys)), ...);
  }(std::make_index_sequence<std::tuple_size_v<decltype(xs)>>{});
}

template <class State>
void swapFields(State& x, State& y) noexcept {
  forEachFieldPair(x, y, [](auto& a, auto& b) { std::swap(a, b); });
}

/// Returns every field of `x` to its default member initializer; vectors
/// are clear()ed and keep their capacity.
template <class State>
void clearFields(State& x) noexcept {
  State initial;
  forEachFieldPair(x, initial, [](auto& field, auto& init) {
    if constexpr (requires { field.clear(); }) {
      field.clear();
    } else {
      field = init;
    }
  });
}

/// Where an UndoLog stood at mark(): its length and the reset generation it
/// belongs to. A default UndoMark (generation 0) was never taken.
struct UndoMark {
  std::size_t size = 0;
  std::uint64_t generation = 0;
};

template <class PreImage>
class UndoLog {
 public:
  void reset() noexcept {
    size_ = 0;
    logging_ = false;
    ++generation_;
  }

  [[nodiscard]] UndoMark mark() noexcept {
    ++epoch_;
    logging_ = true;
    return UndoMark{size_, generation_};
  }

  /// Called before item `index` changes: logs its pre-image (by assigning
  /// the item to a PreImage) unless no mark was taken since the last
  /// reset(), or the item's `stamp` shows it was logged this epoch.
  template <class Item>
  void log(std::int32_t index, std::uint64_t& stamp, const Item& item) {
    if (!logging_ || stamp == epoch_) return;
    stamp = epoch_;
    push(index, item);
  }

  /// Call `restore(index, preImage)` for every entry above `m`, newest
  /// first. `m` must come from this generation and not lie above the log.
  template <class Restore>
  void rollbackTo(const UndoMark& m, Restore&& restore) {
    LAZYHB_CHECK(m.generation == generation_);
    LAZYHB_CHECK(m.size <= size_);
    while (size_ > m.size) {
      Entry& e = entries_[--size_];
      restore(e.index, e.pre);
    }
    ++epoch_;
  }

  /// Live entries: one per item changed per epoch since the marks in use.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  struct Entry {
    std::int32_t index = -1;
    PreImage pre;
  };

  /// log()'s slow path, kept out of line: log() inlines into code whose
  /// stack frames sit on fiber stacks, which every checkpoint copies.
  template <class Item>
  [[gnu::noinline]] void push(std::int32_t index, const Item& item) {
    if (size_ == entries_.size()) entries_.emplace_back();
    Entry& e = entries_[size_++];
    e.index = index;
    e.pre = item;
  }

  std::vector<Entry> entries_;  ///< arena: slots past size_ are spare
  std::size_t size_ = 0;
  std::uint64_t epoch_ = 0;  ///< current epoch; reset() keeps counting
  std::uint64_t generation_ = 1;
  bool logging_ = false;
};

}  // namespace lazyhb::support
