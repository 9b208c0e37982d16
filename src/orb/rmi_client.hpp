// Minimal RMI layer — the e*ORB/CORBA stand-in.
//
// A client (possibly unreplicated, like the paper's measurement client)
// invokes remote methods on a replicated server object.  The invocation is
// a kUserRequest multicast on the connection (client group → server group);
// the reply is the first kUserReply with the matching sequence number —
// duplicate replies from active replicas are suppressed by the GCS layer.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "common/unique_fn.hpp"
#include "gcs/gcs.hpp"
#include "sim/simulator.hpp"
#include "sim/task_scope.hpp"

namespace cts::orb {

/// Client-side stub for a replicated server group.
class RmiClient {
 public:
  /// Completion callbacks are move-only (UniqueFn) so the coroutine
  /// awaitables below can park their frame inside with destroy-on-drop
  /// semantics: a client torn down with invocations in flight destroys the
  /// suspended callers instead of leaking them.
  using ReplyFn = UniqueFn<void(const Bytes&)>;
  using TimeoutFn = UniqueFn<void()>;
  /// Single-owner completion for timed invocations: called with the reply,
  /// or with nullptr on timeout.  One callable owns the parked frame, so
  /// there is exactly one owner no matter which way the race resolves.
  using CompleteFn = UniqueFn<void(const Bytes*)>;

  /// `client_group` is this client's own (usually singleton) group; replies
  /// are addressed to it.  `conn` identifies the client→server connection.
  RmiClient(sim::Simulator& sim, gcs::GcsEndpoint& gcs, GroupId client_group,
            GroupId server_group, ConnectionId conn);

  RmiClient(const RmiClient&) = delete;
  RmiClient& operator=(const RmiClient&) = delete;

  ~RmiClient();

  /// Fire an invocation; `on_reply` runs when the (first) reply arrives.
  /// Returns the invocation's sequence number.
  ///
  /// With `timeout_us` > 0 this is a *timed* remote method invocation (one
  /// of the paper's motivating clock uses): if no reply arrives in time,
  /// `on_timeout` fires instead and a late reply is discarded.  The timer
  /// here is the CLIENT's — the client is unreplicated, so its local clock
  /// is safe to use; replicated SERVERS must use GroupTimerService.
  MsgSeqNum invoke(Bytes request, ReplyFn on_reply, Micros timeout_us = 0,
                   TimeoutFn on_timeout = nullptr);

  /// Single-callback form: `complete` receives &reply, or nullptr on
  /// timeout.  The awaitables use this so exactly one callable ever owns
  /// the parked coroutine frame.
  MsgSeqNum invoke_complete(Bytes request, CompleteFn complete, Micros timeout_us = 0);

  /// Awaitable form: `Bytes reply = co_await client.call(request);`
  /// The completion owns the parked frame, and the resume is owned by the
  /// client node's lifecycle scope (TaskScope::await_callback).
  [[nodiscard]] auto call(Bytes request) {
    return gcs_.scope().await_callback<Bytes>(
        [this, request = std::move(request)](auto done) mutable {
          invoke_complete(std::move(request),
                          // Never null: only a timed invocation completes with nullptr.
                          [done = std::move(done)](const Bytes* r) mutable { done(*r); });
        });
  }

  /// Awaitable timed invocation; resumes with nullopt on timeout.
  [[nodiscard]] auto call_with_timeout(Bytes request, Micros timeout_us) {
    return gcs_.scope().await_callback<std::optional<Bytes>>(
        [this, request = std::move(request), timeout_us](auto done) mutable {
          invoke_complete(
              std::move(request),
              [done = std::move(done)](const Bytes* r) mutable {
                done(r != nullptr ? std::optional<Bytes>(*r) : std::nullopt);
              },
              timeout_us);
        });
  }

  [[nodiscard]] std::uint64_t invocations() const { return next_seq_ - 1; }
  [[nodiscard]] std::uint64_t replies() const { return replies_; }
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }

 private:
  /// One in-flight invocation: the (single-owner) completion plus its
  /// timeout timer, if timed.  The timer is scope-owned and cancelled when
  /// the reply wins the race or the client is destroyed.
  struct Outstanding {
    CompleteFn complete;
    sim::Simulator::EventId timer{};
    bool timed = false;
  };

  void on_message(const gcs::Message& m);

  sim::Simulator& sim_;
  gcs::GcsEndpoint& gcs_;
  GroupId client_group_;
  GroupId server_group_;
  ConnectionId conn_;
  MsgSeqNum next_seq_ = 1;
  std::map<MsgSeqNum, Outstanding> outstanding_;
  std::uint64_t replies_ = 0;
  std::uint64_t timeouts_ = 0;
};

}  // namespace cts::orb
