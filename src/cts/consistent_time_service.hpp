// The Consistent Time Service — the paper's primary contribution.
//
// One ConsistentTimeService instance runs per replica.  It renders
// clock-related operations deterministic across the replica group by
// running the Consistent Clock Synchronization algorithm of Section 3:
//
//   * each clock-related operation starts a new round;
//   * the replica reads its physical hardware clock, adds its clock offset
//     to form the local logical clock value, and proposes it for the group
//     clock in a CCS message multicast with reliable total order;
//   * the proposal ordered FIRST wins the round — its sender is the round's
//     synchronizer — and every replica returns that value and re-derives
//     its own offset as (group clock − its own physical clock);
//   * a replica that already has a matching CCS message buffered does not
//     send at all, and a replica whose copy is still queued when the winner
//     is delivered cancels it (the GCS layer's duplicate suppression) — so
//     roughly one CCS message hits the wire per round.
//
// Replication styles (Section 2 / 3.3):
//   * Active: every replica competes to be the synchronizer.
//   * Passive / semi-active: only the primary sends; a backup that takes
//     over after a primary crash first checks its input buffer and only
//     sends if the old primary's message never made it.
//
// Recovery (Section 3.2): during state transfer a special CCS round is run;
// the recovering replica does not compete, it adopts the delivered group
// clock value to initialize its offset.
//
// Drift compensation (Section 3.3): optional strategies — add a mean delay
// (fixed, or estimated online) to the offset each time it is recalculated,
// or nudge each proposal a small proportion toward an external drift-free
// reference (NTP/GPS).  An optional fast-forward guard bounds how far a
// single (possibly stepped) proposal may yank the group clock ahead.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "clock/physical_clock.hpp"
#include "common/inline_fn.hpp"
#include "common/types.hpp"
#include "cts/ccs_message.hpp"
#include "gcs/gcs.hpp"
#include "obs/recorder.hpp"
#include "sim/simulator.hpp"
#include "sim/task_scope.hpp"

namespace cts::ccs {

/// How the replica group is organized (paper Section 2).
enum class ReplicationStyle : std::uint8_t {
  kActive,      // all replicas process and compete to be synchronizer
  kPassive,     // only the primary processes; backups apply checkpoints
  kSemiActive,  // all process, but only the primary decides (Delta-4)
};

/// Optional strategies for bounding group-clock drift (paper Section 3.3).
enum class DriftCompensation : std::uint8_t {
  kNone,               // plain algorithm: group clock lags real time
  kMeanDelay,          // add a FIXED mean round delay to the offset each round
  kAdaptiveMeanDelay,  // estimate the mean round delay online (EWMA) instead
  kReferenceBias,      // blend each proposal toward an NTP/GPS reference
};

struct CtsConfig {
  GroupId group;
  ConnectionId ccs_conn;  // the group's self-connection for CCS traffic
  ReplicaId replica;
  ReplicationStyle style = ReplicationStyle::kActive;

  DriftCompensation drift = DriftCompensation::kNone;
  /// kMeanDelay: estimate of (communication + processing) delay per round.
  Micros mean_delay_us = 0;
  /// kAdaptiveMeanDelay: EWMA smoothing factor for the online estimate.
  double adaptive_alpha = 0.05;
  /// kReferenceBias: fraction of (reference − proposal) added per round.
  double reference_gain = 0.0;

  /// Optional fast-forward guard (0 = off): a delivered proposal may not
  /// advance the group clock by more than this in one round.  Bounds the
  /// damage of a replica whose hardware clock was stepped far ahead (the
  /// paper's Section 1 warns fast-forward causes "unnecessary time-outs").
  /// Applied in delivery order, so every replica clamps identically.
  Micros max_forward_jump_us = 0;
};

/// Everything observers (benches, tests) want to know about one completed
/// round of the CCS algorithm at this replica.
struct RoundResult {
  MsgSeqNum round = 0;
  ThreadId thread;
  ClockCallType call_type = ClockCallType::kGettimeofday;
  Micros group_clock = 0;        // the agreed value returned to the caller
  Micros physical_clock = 0;     // this replica's hw reading for the round
  Micros offset_after = 0;       // my_clock_offset after the update
  ReplicaId winner_replica;      // the synchronizer of the round
  NodeId winner_node;
  bool i_sent = false;           // whether this replica multicast a proposal
  bool special = false;
};

/// Aggregate per-replica statistics.
struct CtsStats {
  std::uint64_t rounds_completed = 0;
  std::uint64_t rounds_won = 0;        // this replica was the synchronizer
  std::uint64_t sends_initiated = 0;   // CCS messages this replica queued
  std::uint64_t sends_avoided = 0;     // buffer already held the round's msg
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t special_rounds = 0;
  std::uint64_t reentrant_rejected = 0;  // start_round while a round was in flight
  std::uint64_t proposals_resent = 0;    // re-issued by a freshly promoted primary
};

/// Parked continuation of an in-flight CCS round: either a plain callback
/// (replication control paths) or a suspended coroutine awaiting the round's
/// group-clock value.  Move-only with destroy-on-drop semantics for the
/// coroutine case — if the service is torn down with a round still in
/// flight, dropping the continuation destroys the suspended frame instead
/// of leaking it (the same discipline sim::Simulator::CoroResume applies to
/// dropped events).
class RoundContinuation {
 public:
  /// Move-only: round completions are single-owner by construction (each
  /// fires exactly once), and callers park move-only state — handoff
  /// payloads, pending-reply completions — inside them.
  using DoneFn = InlineFn<void(Micros)>;

  RoundContinuation() = default;
  /// Callback form.
  RoundContinuation(DoneFn f) : cb_(std::move(f)) {}  // NOLINT(google-explicit-constructor)
  /// Coroutine form (how get_time() parks its caller): on completion
  /// writes the value through `out` (which must point into the suspended
  /// frame) and resumes `h` through the event queue.  The resume event is
  /// owned by the replica's lifecycle scope, so a node that crashes between
  /// a round completing and its caller resuming destroys the frame instead
  /// of running dead-node code.
  RoundContinuation(std::coroutine_handle<> h, Micros* out, sim::TaskScope& scope)
      : coro_(h), out_(out), scope_(&scope) {}

  RoundContinuation(RoundContinuation&& o) noexcept
      : cb_(std::move(o.cb_)),
        coro_(std::exchange(o.coro_, nullptr)),
        out_(o.out_),
        scope_(o.scope_) {
    o.cb_ = nullptr;
  }
  RoundContinuation& operator=(RoundContinuation&& o) noexcept {
    if (this != &o) {
      drop();
      cb_ = std::move(o.cb_);
      o.cb_ = nullptr;
      coro_ = std::exchange(o.coro_, nullptr);
      out_ = o.out_;
      scope_ = o.scope_;
    }
    return *this;
  }
  RoundContinuation(const RoundContinuation&) = delete;
  RoundContinuation& operator=(const RoundContinuation&) = delete;
  ~RoundContinuation() { drop(); }

  [[nodiscard]] explicit operator bool() const {
    return coro_ != nullptr || static_cast<bool>(cb_);
  }

  /// Complete the round.  Consumes the continuation: afterwards every
  /// member is null, so a (buggy) second invocation is a no-op rather than
  /// a write through a dangling pointer into a freed frame.
  void operator()(Micros v) {
    if (coro_) {
      *std::exchange(out_, nullptr) = v;
      std::exchange(scope_, nullptr)
          ->after(0, sim::Simulator::CoroResume{std::exchange(coro_, nullptr)});
    } else if (cb_) {
      auto f = std::move(cb_);
      cb_ = nullptr;
      f(v);
    }
  }

  /// Whether this continuation owns a suspended coroutine frame (the
  /// shutdown hook counts those when abandoning in-flight rounds).
  [[nodiscard]] bool is_coroutine() const { return coro_ != nullptr; }

  /// Disown the continuation WITHOUT running or destroying it.  Rejection
  /// paths use this: the awaiter that parked the coroutine handle keeps
  /// ownership of the suspended frame (it resumes it with kNoTime), so the
  /// by-value continuation must not destroy the frame when it goes out of
  /// scope — that would leave the awaiter writing into, and resuming, a
  /// freed frame.
  void release() {
    coro_ = nullptr;
    out_ = nullptr;
    scope_ = nullptr;
    cb_ = nullptr;
  }

 private:
  void drop() {
    if (coro_) std::exchange(coro_, nullptr).destroy();
  }

  DoneFn cb_;
  std::coroutine_handle<> coro_;
  Micros* out_ = nullptr;
  sim::TaskScope* scope_ = nullptr;
};

class ConsistentTimeService {
 public:
  using DoneFn = RoundContinuation::DoneFn;
  using RoundObserver = std::function<void(const RoundResult&)>;

  ConsistentTimeService(sim::Simulator& sim, gcs::GcsEndpoint& gcs, clock::PhysicalClock& clk,
                        CtsConfig cfg);
  ~ConsistentTimeService();

  ConsistentTimeService(const ConsistentTimeService&) = delete;
  ConsistentTimeService& operator=(const ConsistentTimeService&) = delete;

  // --- Thread registration ---------------------------------------------------

  /// Register an application thread.  The paper requires all threads that
  /// perform clock-related operations to be created in the same order at
  /// every replica, so the thread identifier is a consistent cross-replica
  /// name.  Registration drains any CCS messages that arrived early and
  /// were parked in the common input buffer.
  void register_thread(ThreadId t);

  // --- The clock-related operation ---------------------------------------------

  /// Start a round of the CCS algorithm for `thread` and invoke `done` with
  /// the consistent group clock value once the first matching CCS message
  /// is delivered.  This is the callback form of get_grp_clock_time().
  ///
  /// Clock-related operations within a thread are strictly sequential
  /// (paper Section 3.1).  If `thread` already has a round in flight the
  /// call is rejected: it logs an error, leaves the in-flight round (and
  /// its DoneFn) untouched, never invokes `done`, and returns false.  This
  /// check is always on — it is a caller bug that a release build must not
  /// turn into a silently clobbered callback.
  bool start_round(ThreadId thread, ClockCallType call_type, DoneFn done);

  /// Awaitable form for simulated logical threads, and the one clock-round
  /// awaiter every facade (TimeSyscalls, ConsistentIdGenerator,
  /// CausalMessenger) is built on:
  ///   Micros now = co_await svc.get_time(thread);
  /// The caller's frame is parked in the round with destroy-on-drop
  /// semantics (a service torn down mid-round cannot leak it) and resumes
  /// through the replica's scope with `then(group_clock)`.  A rejected
  /// round (one already in flight on `thread`) resumes with
  /// `then(kNoTime)` rather than suspending forever.
  template <typename Then = std::identity>
  struct TimeAwaiter {
    ConsistentTimeService& svc;
    ThreadId thread;
    ClockCallType call_type;
    Then then;
    Micros value = 0;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      if (!svc.start_round_impl(thread, call_type, RoundContinuation{h, &value, svc.scope_})) {
        value = kNoTime;
        svc.scope_.after(0, sim::Simulator::CoroResume{h});
      }
    }
    auto await_resume() { return then(value); }
  };

  template <typename Then = std::identity>
  [[nodiscard]] TimeAwaiter<Then> get_time(ThreadId thread,
                                           ClockCallType ct = ClockCallType::kGettimeofday,
                                           Then then = {}) {
    return TimeAwaiter<Then>{*this, thread, ct, std::move(then)};
  }

  // --- Primary/backup control (passive & semi-active) ---------------------------

  /// Mark this replica as the primary.  On promotion, any round that is
  /// blocked waiting and has an empty input buffer re-sends its proposal
  /// (the old primary died before its CCS message was ordered).
  void set_primary(bool primary);
  [[nodiscard]] bool is_primary() const { return primary_; }

  // --- Recovery (Section 3.2) -----------------------------------------------------

  /// At an existing replica: run the special CCS round that is taken
  /// immediately before the state-transfer checkpoint.  `done` fires when
  /// the round completes at this replica.  Special rounds are serialized
  /// by the state-transfer protocol; like start_round(), a call while one
  /// is already in flight is rejected with a loud error and returns false.
  bool run_special_round(DoneFn done);

  /// At a recovering replica: enter recovery mode.  The replica will not
  /// compete; the next special-round CCS message initializes its offset.
  void begin_recovery(DoneFn initialized = nullptr);
  [[nodiscard]] bool recovering() const { return recovering_; }

  /// Serialize the CTS portion of a replica checkpoint: the per-thread
  /// round numbers (the offset is deliberately NOT transferred — it is
  /// local to each replica's own physical clock).
  [[nodiscard]] Bytes checkpoint() const;
  void restore(const Bytes& state);

  // --- Introspection ------------------------------------------------------------------

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  /// The replica's node lifecycle scope (reached through the GCS endpoint's
  /// TotemNode).  Awaiters and facades above the CTS schedule their resume
  /// trampolines here so they die with the node.
  [[nodiscard]] sim::TaskScope& scope() { return scope_; }
  [[nodiscard]] Micros clock_offset() const { return my_clock_offset_; }
  /// Current online estimate of the per-round delay (kAdaptiveMeanDelay).
  [[nodiscard]] double estimated_round_delay() const { return estimated_round_delay_us_; }
  [[nodiscard]] Micros last_group_clock() const { return last_group_clock_; }
  [[nodiscard]] const CtsStats& stats() const { return stats_; }
  [[nodiscard]] const CtsConfig& config() const { return cfg_; }

  /// Observer invoked at every completed round (benchmarks, tests).
  void set_round_observer(RoundObserver obs) { observer_ = std::move(obs); }

  /// Attach (or detach, with nullptr) an observability recorder.
  void set_recorder(obs::Recorder* rec);

  /// Attach the external reference time source used by the kReferenceBias
  /// drift-compensation strategy.
  void set_reference(clock::ReferenceTimeSource* ref) { reference_ = ref; }

  // --- Multi-group causality (paper Section 5, future work) --------------------

  /// Raise the causal floor: every subsequent proposal from this replica is
  /// at least `ts + 1`.  Call this when delivering a message from another
  /// group that carries that group's clock value as a timestamp; because
  /// the delivery order is agreed, every replica raises the floor at the
  /// same point in its operation sequence, so the group clock stays
  /// consistent AND causally ahead of the remote timestamp.
  void advance_causal_floor(Micros ts) {
    if (causal_floor_ == kNoTime || ts > causal_floor_) causal_floor_ = ts;
  }
  [[nodiscard]] Micros causal_floor() const { return causal_floor_; }

  /// Thread id reserved for the state-transfer special round.
  static constexpr ThreadId kSpecialThread{0xfffffffe};

 private:
  struct BufferedMsg {
    CcsPayload payload;
    MsgSeqNum seq = 0;
    ReplicaId sender_replica;
    NodeId sender_node;
  };

  /// Per-thread consistent clock synchronization handler (paper 3.1).
  struct CcsHandler {
    ThreadId my_thread_id;
    MsgSeqNum my_round_number = 0;
    MsgSeqNum last_seq_seen = 0;  // duplicate detection
    std::deque<BufferedMsg> my_input_buffer;

    // State of the in-progress round, if a caller is blocked.  Dropping a
    // parked coroutine continuation destroys its frame (no leak on
    // teardown mid-round).
    RoundContinuation waiting;
    Micros pc_at_round = 0;
    Micros proposed_at_round = 0;
    ClockCallType call_type = ClockCallType::kGettimeofday;
    bool sent_this_round = false;
  };

  bool start_round_impl(ThreadId thread, ClockCallType call_type, RoundContinuation done);
  void on_ccs_delivered(const gcs::Message& m);
  void recv_into_handler(CcsHandler& h, BufferedMsg msg);
  void try_complete(CcsHandler& h);
  void send_proposal(CcsHandler& h, bool special);
  [[nodiscard]] Micros propose_local_clock(Micros physical);
  /// Fail-stop teardown (the scope's shutdown hook): drop every parked
  /// round continuation — destroying suspended caller frames — and the
  /// recovery-complete callback.  A dead replica answers no rounds.
  void abandon_inflight_rounds();

  sim::Simulator& sim_;
  gcs::GcsEndpoint& gcs_;
  clock::PhysicalClock& clock_;
  CtsConfig cfg_;
  sim::TaskScope& scope_;
  sim::TaskScope::HookId shutdown_hook_ = 0;

  Micros my_clock_offset_ = 0;  // paper: my_clock_offset
  std::map<ThreadId, CcsHandler> handlers_;
  std::map<ThreadId, std::deque<BufferedMsg>> common_input_buffer_;

  // Monotonicity guard, applied in delivery order (identical at every
  // replica): the group clock never moves backwards even if proposals from
  // concurrent threads interleave adversarially.
  Micros last_group_clock_ = kNoTime;

  // Lower bound on proposals, raised by timestamps observed on inter-group
  // messages (Section 5).
  Micros causal_floor_ = kNoTime;

  // kAdaptiveMeanDelay: online EWMA of the per-round offset loss.
  double estimated_round_delay_us_ = 0.0;
  Micros prev_raw_offset_ = kNoTime;

  bool primary_ = true;  // meaningful for passive/semi-active styles
  bool recovering_ = false;
  DoneFn recovery_done_;

  clock::ReferenceTimeSource* reference_ = nullptr;
  RoundObserver observer_;
  CtsStats stats_;

  obs::Recorder* rec_ = nullptr;
  obs::OrderingOracle* orc_ = nullptr;  // cached from rec_ in set_recorder()
  // Hot-path counters, resolved once in set_recorder().
  obs::Counter* c_rounds_ = nullptr;
  obs::Counter* c_wins_ = nullptr;
  obs::Counter* c_sends_ = nullptr;
  obs::Counter* c_avoided_ = nullptr;
  obs::Counter* c_duplicates_ = nullptr;
  obs::Counter* c_reentrant_ = nullptr;
  Histogram* h_skew_ = nullptr;
};

}  // namespace cts::ccs
