// Multi-group causal timestamps — the paper's Section 5 future work.
//
//   "If there are multiple groups of replicas, the problem of maintaining
//    causal relationships of the consistent group clocks for the different
//    groups arises.  We are currently investigating a solution to this
//    problem that includes the value of the consistent group clock as a
//    timestamp in the user messages multicast to the different groups."
//
// CausalMessenger implements that sketch.  On send, the sending group reads
// its group clock (one CCS round — deterministic across the senders'
// replicas) and prepends it to the payload.  On delivery, the receiving
// group raises its consistent time service's causal floor to the timestamp,
// so every subsequent clock reading in the receiving group exceeds it.
// Because messages are delivered in agreed order, all replicas of the
// receiving group raise the floor at the same point in their operation
// sequence — the group clock stays consistent AND causal:
//
//     send(m) happens-before deliver(m)  =>  ts(m) < any read after deliver(m).
//
// With ROADMAP item 1 this is no longer a demo: every cross-shard path —
// the archipelago ping chain, KV lease transfers, session migrations —
// rides a CausalMessenger stream, so the callbacks follow the move-only
// InlineFn discipline (handoff adopters park single-owner state in them)
// and malformed stamps are counted (multigroup.stamps_rejected) instead of
// silently swallowed.
#pragma once

#include <utility>

#include "common/bytes.hpp"
#include "common/inline_fn.hpp"
#include "cts/consistent_time_service.hpp"
#include "gcs/gcs.hpp"

namespace cts::ccs {

/// A payload carrying the sender group's clock value.
struct StampedPayload {
  Micros timestamp = 0;
  Bytes body;

  [[nodiscard]] Bytes encode() const {
    BytesWriter w;
    w.i64(timestamp);
    w.bytes(body);
    return std::move(w).take();
  }
  static StampedPayload decode(std::span<const std::uint8_t> b) {
    BytesReader r(b);
    StampedPayload p;
    p.timestamp = r.i64();
    p.body = r.bytes();
    return p;
  }
};

/// Sends and receives inter-group messages stamped with the group clock.
class CausalMessenger {
 public:
  /// Called with (header, timestamp, body) for each stamped message
  /// delivered to this group.  Move-only: cross-shard adopters capture
  /// single-owner handoff state.
  using StampedDeliverFn = InlineFn<void(const gcs::Message&, Micros, const Bytes&)>;
  /// Completion of stamp_and_send: receives the timestamp used.
  using StampedDoneFn = InlineFn<void(Micros)>;

  CausalMessenger(gcs::GcsEndpoint& gcs, ConsistentTimeService& time, GroupId my_group,
                  ThreadId thread)
      : gcs_(gcs), time_(time), my_group_(my_group), thread_(thread) {
    time_.register_thread(thread_);
  }

  /// Subscribe to stamped messages addressed to this group on `conn`.
  /// Raising the causal floor happens BEFORE the application callback, so
  /// any clock reading the handler performs already respects causality.
  /// A payload that does not decode as a StampedPayload is rejected,
  /// counted (multigroup.stamps_rejected) and traced — it must NOT raise
  /// the floor, since a garbage timestamp would wedge the group clock.
  void subscribe(ConnectionId conn, StampedDeliverFn fn) {
    gcs_.subscribe(my_group_, [this, conn, fn = std::move(fn)](const gcs::Message& m) mutable {
      if (m.hdr.type != gcs::MsgType::kUserRequest || m.hdr.conn != conn) return;
      StampedPayload p;
      try {
        p = StampedPayload::decode(m.payload);
      } catch (const CodecError&) {
        if (auto* rec = gcs_.recorder()) {
          ++rec->counter("multigroup.stamps_rejected");
          rec->event(obs::EventKind::kStampRejected, gcs_.node_id(), time_.config().replica,
                     m.hdr.conn.value, static_cast<std::int64_t>(m.payload.size()));
        }
        return;
      }
      if (auto* rec = gcs_.recorder()) {
        if (auto* orc = rec->oracle()) {
          orc->on_stamp_observed(my_group_, time_.config().replica, p.timestamp, m.hdr.src_grp);
        }
      }
      time_.advance_causal_floor(p.timestamp);
      if (fn) fn(m, p.timestamp, p.body);
    });
  }

  /// Read the group clock (one CCS round) and multicast `body` to
  /// `dst_group`, stamped with the reading.  `done` receives the timestamp
  /// used.  Deterministic across the sending group's replicas: each replica
  /// obtains the same timestamp and builds an identical message, so the GCS
  /// duplicate suppression collapses the copies.  Returns false (and never
  /// runs `done`) if this stream already has a round in flight — streams
  /// are strictly sequential, like every clock-related operation.
  bool stamp_and_send(GroupId dst_group, ConnectionId conn, MsgSeqNum seq, Bytes body,
                      StampedDoneFn done = nullptr) {
    return time_.start_round(thread_, ClockCallType::kGettimeofday,
                             [this, dst_group, conn, seq, body = std::move(body),
                              done = std::move(done)](Micros ts) mutable {
                               send_stamped(dst_group, conn, seq, std::move(body), ts);
                               if (done) done(ts);
                             });
  }

  /// Awaitable form: `Micros ts = co_await messenger.send(dst, conn, seq,
  /// body);` — resumes (through the node's lifecycle scope) after the
  /// stamped message is multicast, with the timestamp used, or kNoTime if
  /// the stream had a round in flight.  The send happens on the resumed
  /// side of the round, so a replica that crashes mid-round simply never
  /// sends — the surviving replicas' identical copies carry the handoff.
  [[nodiscard]] auto send(GroupId dst_group, ConnectionId conn, MsgSeqNum seq, Bytes body) {
    return time_.get_time(
        thread_, ClockCallType::kGettimeofday,
        [this, dst_group, conn, seq, body = std::move(body)](Micros ts) mutable {
          if (ts != kNoTime) send_stamped(dst_group, conn, seq, std::move(body), ts);
          return ts;
        });
  }

  [[nodiscard]] GroupId group() const { return my_group_; }
  [[nodiscard]] ThreadId stream() const { return thread_; }

 private:
  /// Build and multicast the stamped message — identical bytes at every
  /// replica of the sending group, by construction.
  void send_stamped(GroupId dst_group, ConnectionId conn, MsgSeqNum seq, Bytes body, Micros ts) {
    StampedPayload p;
    p.timestamp = ts;
    p.body = std::move(body);
    gcs::Message m;
    m.hdr.type = gcs::MsgType::kUserRequest;
    m.hdr.src_grp = my_group_;
    m.hdr.dst_grp = dst_group;
    m.hdr.conn = conn;
    m.hdr.tag = thread_;
    m.hdr.seq = seq;
    m.hdr.sender_replica = time_.config().replica;
    m.payload = p.encode();
    gcs_.send(std::move(m));
  }

  gcs::GcsEndpoint& gcs_;
  ConsistentTimeService& time_;
  GroupId my_group_;
  ThreadId thread_;
};

}  // namespace cts::ccs
