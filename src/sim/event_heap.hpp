// EventHeap: the simulator's pending-event store.
//
// An indexed binary min-heap ordered by (time, seq) over a slot-map of
// stable, generation-checked handles.  Compared with the previous
// std::priority_queue + tombstone-set design:
//
//   * cancel() removes the entry in place in O(log n) — no tombstone is
//     left behind, so cancel-heavy protocol phases (Totem timer churn)
//     no longer grow the queue or the tombstone set without bound;
//   * cancelling an already-fired handle is a generation-checked no-op —
//     the slot's generation was bumped when the event fired, so a stale
//     handle can never hit a recycled slot;
//   * reschedule() re-keys a live entry in place (one sift) instead of a
//     cancel+insert pair — the common path for Totem's token-loss and
//     token-retransmission timers;
//   * the heap array holds 24-byte trivially copyable nodes, so sifting
//     moves small PODs instead of 64+-byte entries whose std::function
//     members drag a type-erased move through every level;
//   * pop() hands the callback out by value — no const_cast on a
//     priority_queue top() (the UB-smell this design replaces).
//
// Determinism: ordering is a strict total order on (time, seq) — seq is
// unique per entry — so pop order is independent of the heap's internal
// layout, slot recycling order, and handle values.  Handles never feed
// into ordering; they exist only so cancel/reschedule can find entries.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/inline_fn.hpp"
#include "common/types.hpp"

namespace cts::sim {

class EventHeap {
 public:
  /// Stable handle: (generation << 32) | (slot index + 1).  Zero is never
  /// produced, so a default-constructed handle is always invalid.
  ///
  /// The handle is the whole record of a pending event.  Once the event
  /// fires or is cancelled, cancel(), reschedule() and live() on its handle
  /// return false and change nothing, so callers keep the handle and no
  /// "armed" flag beside it: cancelling a timer that may have fired is just
  /// cancel(), and "is it pending" is just live().
  ///
  /// Horizon: the slot's generation is 32 bits and moves on each time the
  /// slot is released.  A stale handle could therefore alias a later event
  /// only if its slot were reused 2^32 times while the handle is still
  /// held.  The LIFO free list can route nearly every event of a shallow
  /// queue through one slot, so that is about 4.3 billion events scheduled
  /// after the handle went stale (a perfbench instance schedules about 5
  /// million in total).
  using Handle = std::uint64_t;

  /// The popped front of the queue.
  struct Fired {
    Micros time;
    InlineFn<void()> fn;
  };

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Earliest pending (time); caller must check empty() first.
  [[nodiscard]] Micros top_time() const {
    assert(!heap_.empty());
    return heap_.front().time;
  }

  /// Number of slots ever allocated (live + recycled).  Exposed so tests
  /// can assert that fire/cancel churn recycles slots instead of growing
  /// the arena without bound.
  [[nodiscard]] std::size_t slot_capacity() const { return slots_.size(); }

  /// Schedule `fn` at (time, seq).  The callable is constructed directly in
  /// the slot (no type-erased relocation on the way in).
  template <typename F>
  Handle push(Micros time, std::uint64_t seq, F&& fn) {
    std::uint32_t s;
    if (!free_slots_.empty()) {
      s = free_slots_.back();
      free_slots_.pop_back();
    } else {
      s = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& slot = slots_[s];
    slot.fn.emplace(std::forward<F>(fn));
    heap_.push_back(Node{time, seq, s});
    sift_up(heap_.size() - 1, heap_.back());
    return make_handle(slot.generation, s);
  }

  /// Remove and return the earliest entry.
  Fired pop() {
    assert(!heap_.empty());
    const Node front = heap_.front();
    Slot& slot = slots_[front.slot];
    Fired out{front.time, std::move(slot.fn)};
    release_slot(front.slot);
    remove_at(0);
    return out;
  }

  /// Remove the entry behind `h` in place.  Returns false (and does
  /// nothing) if the handle is stale: already fired, already cancelled, or
  /// never valid.
  bool cancel(Handle h) {
    Slot* slot = resolve(h);
    if (slot == nullptr) return false;
    const std::uint32_t pos = slot->heap_pos;
    slot->fn.reset();
    release_slot(slot_index(h));
    remove_at(pos);
    return true;
  }

  /// Whether `h` still refers to a pending (unfired, uncancelled) entry.
  /// Lifecycle scopes use this to prune stale ids from their registries
  /// without touching the heap structure.
  [[nodiscard]] bool live(Handle h) const {
    if ((h & 0xffffffffu) == 0) return false;
    const std::uint32_t s = slot_index(h);
    if (s >= slots_.size()) return false;
    const Slot& slot = slots_[s];
    return slot.generation == static_cast<std::uint32_t>(h >> 32) && slot.heap_pos != kFreePos;
  }

  /// Re-key the live entry behind `h` to (new_time, new_seq), keeping its
  /// callback and handle.  Returns false if the handle is stale.
  bool reschedule(Handle h, Micros new_time, std::uint64_t new_seq) {
    Slot* slot = resolve(h);
    if (slot == nullptr) return false;
    const std::size_t pos = slot->heap_pos;
    Node node = heap_[pos];
    node.time = new_time;
    node.seq = new_seq;
    sift_either(pos, node);
    return true;
  }

 private:
  struct Node {
    Micros time;
    std::uint64_t seq;  // FIFO tie-break for simultaneous events; unique
    std::uint32_t slot;
  };

  struct Slot {
    std::uint32_t generation = 0;
    std::uint32_t heap_pos = kFreePos;
    InlineFn<void()> fn;
  };

  static constexpr std::uint32_t kFreePos = UINT32_MAX;

  static Handle make_handle(std::uint32_t generation, std::uint32_t slot) {
    return (static_cast<Handle>(generation) << 32) | (static_cast<Handle>(slot) + 1);
  }
  static std::uint32_t slot_index(Handle h) {
    return static_cast<std::uint32_t>((h & 0xffffffffu) - 1);
  }

  /// Map a handle to its live slot, or nullptr if stale/invalid.
  Slot* resolve(Handle h) {
    if ((h & 0xffffffffu) == 0) return nullptr;  // default-constructed id
    const std::uint32_t s = slot_index(h);
    if (s >= slots_.size()) return nullptr;
    Slot& slot = slots_[s];
    if (slot.generation != static_cast<std::uint32_t>(h >> 32)) return nullptr;
    if (slot.heap_pos == kFreePos) return nullptr;
    return &slot;
  }

  /// Bump the generation (invalidating outstanding handles) and recycle.
  void release_slot(std::uint32_t s) {
    Slot& slot = slots_[s];
    ++slot.generation;
    slot.heap_pos = kFreePos;
    free_slots_.push_back(s);
  }

  /// Remove the node at heap position `pos` (its slot is already released):
  /// percolate the last node into the hole.
  void remove_at(std::size_t pos) {
    const std::size_t last = heap_.size() - 1;
    const Node moved = heap_[last];
    heap_.pop_back();
    if (pos != last) sift_either(pos, moved);
  }

  static bool earlier(const Node& a, const Node& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  /// Write `node` at `pos`, maintaining the slot back-pointer.
  void place(std::size_t pos, const Node& node) {
    heap_[pos] = node;
    slots_[node.slot].heap_pos = static_cast<std::uint32_t>(pos);
  }

  // The sifts percolate a hole rather than swapping pairwise: each level
  // costs one 24-byte node copy and one slot back-pointer update instead of
  // a three-copy swap with two updates.  `node` is the entry logically at
  // `pos`; whatever the array holds there is treated as the hole.

  void sift_up(std::size_t pos, const Node node) {
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / 2;
      if (!earlier(node, heap_[parent])) break;
      place(pos, heap_[parent]);
      pos = parent;
    }
    place(pos, node);
  }

  void sift_down(std::size_t pos, const Node node) {
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t kid = 2 * pos + 1;
      if (kid >= n) break;
      const std::size_t r = kid + 1;
      if (r < n && earlier(heap_[r], heap_[kid])) kid = r;
      if (!earlier(heap_[kid], node)) break;
      place(pos, heap_[kid]);
      pos = kid;
    }
    place(pos, node);
  }

  /// Settle `node` at `pos` in whichever direction the heap property needs;
  /// a single parent comparison picks it (they cannot both be violated).
  void sift_either(std::size_t pos, const Node& node) {
    if (pos > 0 && earlier(node, heap_[(pos - 1) / 2])) {
      sift_up(pos, node);
    } else {
      sift_down(pos, node);
    }
  }

  std::vector<Node> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace cts::sim
