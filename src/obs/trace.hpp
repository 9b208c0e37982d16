// TraceLog: a bounded, deterministic log of typed protocol events.
//
// Every event is stamped with simulated time, so two runs with the same
// seed produce byte-identical traces — tests can assert on *behavior*
// ("no token retransmission happened in the loss-free run", "exactly one
// synchronizer won round k") instead of only on final state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
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
 public:
  explicit TraceLog(std::size_t max_events = 1u << 19) : max_events_(max_events) {}

  void record(Micros at, EventKind kind, std::uint32_t node, std::uint32_t replica,
              std::int64_t a = 0, std::int64_t b = 0, std::int64_t c = 0) {
    ++recorded_;
    if (events_.size() >= max_events_) {
      ++dropped_;
      return;
    }
    events_.push_back(TraceEvent{at, kind, node, replica, a, b, c});
  }

  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }

  /// Total record() calls, including dropped ones.
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }

  /// Events lost to the cap.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Number of stored events of the given kind.
  [[nodiscard]] std::size_t count(EventKind kind) const;

  /// All stored events of the given kind, in record order.
  [[nodiscard]] std::vector<TraceEvent> select(EventKind kind) const;

  void clear() {
    events_.clear();
    recorded_ = 0;
    dropped_ = 0;
  }

  /// One JSON object per line (write_jsonl_row):
  ///   {"at": 1234, "kind": "token_pass", "node": 0, "replica": null,
  ///    "a": 7, "b": 1, "c": 0}
  [[nodiscard]] std::string to_jsonl() const;

 private:
  std::size_t max_events_;
  std::vector<TraceEvent> events_;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace cts::obs
