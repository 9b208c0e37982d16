// TraceLog: a bounded, deterministic log of typed protocol events.
//
// Every event is stamped with simulated time, so two runs with the same
// seed produce byte-identical traces — tests can assert on *behavior*
// ("no token retransmission happened in the loss-free run", "exactly one
// synchronizer won round k") instead of only on final state.
//
// Storage is an append-only byte stream of about 7 B per record, not one
// 48-byte TraceEvent each, so the trace stays cheap enough to leave on.
// A record is
//
//   kind byte
//   varint(at - previous record's at)
//   varint(node + 1), varint(replica + 1)        (kInvalid wraps to 0)
//   zig-zag varint(a - a of the previous record of the same kind), then b, c
//
// with every difference taken in uint64 wrap arithmetic, so any input
// round-trips exactly: a decreasing `at`, INT64_MIN/MAX, invalid ids.  The
// bytes live in fixed 64 KiB blocks (a record never straddles two), so the
// log grows without copying.  Readers decode through const_iterator, the
// one way to read the log.
//
// Invariant the island merge (obs/merge.cpp) relies on: one log's `at` is
// non-decreasing, because every record() call site stamps the owning
// simulator's now().  The encoding itself does not need it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace cts::obs {

/// Typed protocol events, one per instrumented decision point.  The a/b/c
/// payload slots are event-specific; the meaning of each is documented at
/// the recording site and in EXPERIMENTS.md.
enum class EventKind : std::uint8_t {
  // net
  kNetDrop,            // a=src node, b=payload bytes
  kNetCorrupt,         // a=src node, b=payload bytes
  kNetPartition,       // a=group A size, b=group B size
  kNetHeal,
  // totem
  kTokenPass,          // a=token seq (all-received-up-to), b=ring id
  kTokenRetransmit,    // a=retransmission attempt count
  kMsgRetransmit,      // a=totem seq retransmitted
  kRingChange,         // a=ring id, b=member count, c=1 if primary component
  kWindowStall,        // a=queued messages, b=window budget
  // gcs
  kGcsDeliver,         // a=msg type, b=seq, c=connection id
  kGcsViewChange,      // a=group id, b=member count
  kGcsSendCancelled,   // a=msg type, b=seq (duplicate suppression)
  // cts / ccs
  kCcsRoundStart,      // a=thread id, b=round number
  kCcsRoundComplete,   // a=round number, b=winner replica, c=group clock us
  kSynchronizerWin,    // a=round number, b=thread id
  kCcsSendAvoided,     // a=thread id, b=round number (suppressed duplicate)
  kProposalResent,     // a=thread id, b=round number (new-primary re-issue)
  kSkewSample,         // a=signed skew vs reference us, b=round number
  kCcsReentrantCall,   // a=thread id (always-on invariant violation)
  // replication
  kCheckpointTaken,    // a=checkpoint payload bytes
  kCheckpointApplied,  // a=requests covered by the checkpoint
  kStateTransfer,      // a=log entries shipped
  kFailover,           // a=promotion count at this replica
  kRecoveryStart,
  kRecoveryComplete,   // a=requests replayed or queued
  // oracle
  kOracleViolation,    // a=OrderingOracle::Check that fired
  // multi-group / sharding
  kStampRejected,      // a=connection id, b=payload bytes (malformed stamp)
  kGatewayForward,     // a=origin ring, b=owning ring
  kHandoffExport,      // a=stamp stream tag, b=handoff seq (source release)
  kHandoffAdopt,       // a=stamp stream tag, b=handoff seq (dest adoption)
};

[[nodiscard]] const char* to_string(EventKind k);

struct TraceEvent {
  Micros at = 0;
  EventKind kind{};
  std::uint32_t node = NodeId::kInvalid;
  std::uint32_t replica = ReplicaId::kInvalid;
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int64_t c = 0;
};

/// Write one event as a JSONL row.  With `island`, an "island" field
/// follows "at" (the merged multi-island format, obs/merge.hpp).
void write_jsonl_row(std::ostream& out, const TraceEvent& e,
                     std::optional<std::size_t> island = std::nullopt);

/// Append-only event log with a hard cap: once `max_events` are held, new
/// events are counted in dropped() but not stored, so a long bench cannot
/// grow without bound.  Tests that assert on the trace should also assert
/// dropped() == 0.
class TraceLog {
  /// What the next record's fields are coded against: the previous
  /// record's `at`, and per kind byte the previous a/b/c of that kind.
  struct DeltaBase {
    std::uint64_t at = 0;
    std::array<std::array<std::uint64_t, 3>, 256> abc{};
  };

 public:
  /// Forward iterator over the stored events in record order, decoding
  /// each into a TraceEvent it holds by value.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = TraceEvent;
    using difference_type = std::ptrdiff_t;
    using pointer = const TraceEvent*;
    using reference = const TraceEvent&;

    const_iterator() = default;

    reference operator*() const { return cur_; }
    pointer operator->() const { return &cur_; }
    const_iterator& operator++() {
      if (++index_ < log_->size_) decode();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const const_iterator& x, const const_iterator& y) {
      return x.index_ == y.index_;
    }

   private:
    friend class TraceLog;
    const_iterator(const TraceLog* log, std::size_t index);
    void decode();

    const TraceLog* log_ = nullptr;
    std::size_t index_ = 0;  // of cur_; log_->size() at the end
    std::size_t block_ = 0;  // where the record after cur_ starts
    std::size_t offset_ = 0;
    TraceEvent cur_;
    DeltaBase base_;
  };

  explicit TraceLog(std::size_t max_events = 1u << 19) : max_events_(max_events) {}

  void record(Micros at, EventKind kind, std::uint32_t node, std::uint32_t replica,
              std::int64_t a = 0, std::int64_t b = 0, std::int64_t c = 0) {
    ++recorded_;
    if (size_ >= max_events_) {
      ++dropped_;
      return;
    }
    append(TraceEvent{at, kind, node, replica, a, b, c});
  }

  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size_}; }

  /// Stored events (recorded() - dropped()).
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Total record() calls, including dropped ones.
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }

  /// Events lost to the cap.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Number of stored events of the given kind.
  [[nodiscard]] std::size_t count(EventKind kind) const;

  /// All stored events of the given kind, in record order.
  [[nodiscard]] std::vector<TraceEvent> select(EventKind kind) const;

  void clear() { *this = TraceLog(max_events_); }

  /// One JSON object per line (write_jsonl_row):
  ///   {"at": 1234, "kind": "token_pass", "node": 0, "replica": null,
  ///    "a": 7, "b": 1, "c": 0}
  [[nodiscard]] std::string to_jsonl() const;

 private:
  void append(const TraceEvent& e);

  std::size_t max_events_;
  std::vector<std::unique_ptr<std::uint8_t[]>> blocks_;
  std::size_t tail_ = 0;  // bytes used in blocks_.back()
  DeltaBase base_;
  std::size_t size_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace cts::obs
