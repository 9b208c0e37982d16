// Baseline clock services the paper argues against (Section 1).  The
// plainest baseline — every replica answering from its own hardware clock —
// needs no service: it is app::local_time_server_factory.
//
// 1. PrimaryBackupClockService — the prior-art approach of [9] and [3]:
//    the primary reads its physical hardware clock and conveys the value to
//    the backups through the ordered multicast; backups adopt it.  This
//    solves per-reading consensus, but when the primary crashes the new
//    primary answers from its OWN raw physical clock — there is no offset
//    maintenance — so consecutive readings across a failover can roll back
//    or jump far forward (the clock roll-back / fast-forward anomalies the
//    paper's introduction describes).
//
// 2. NtpDisciplinedClock — a software clock slewed toward an external
//    drift-free reference, modeling "closely synchronizing the physical
//    hardware clocks using NTP/GPS" (Section 1).  Used to show that the
//    primary/backup anomaly shrinks but does not disappear, and that even
//    perfectly synchronized clocks cannot make replicas deterministic
//    (Figure 1's asynchrony argument).
#pragma once

#include <deque>
#include <functional>
#include <map>

#include "clock/physical_clock.hpp"
#include "common/inline_fn.hpp"
#include "common/types.hpp"
#include "gcs/gcs.hpp"
#include "sim/simulator.hpp"
#include "sim/task_scope.hpp"

namespace cts::baseline {

/// The primary/backup clock-distribution approach of [9]: the primary's raw
/// physical clock reading is multicast; backups adopt it.  No offsets, no
/// competition, no continuity across failover.
class PrimaryBackupClockService {
 public:
  /// Move-only so get_time() below can park its coroutine frame inside
  /// with destroy-on-drop semantics (same discipline as the CTS's
  /// RoundContinuation): tearing the service down mid-reading destroys the
  /// suspended caller instead of leaking it.
  using DoneFn = InlineFn<void(Micros)>;
  /// The clock read by the primary.  Usually a PhysicalClock, but the
  /// failover ablation also runs this baseline over an NTP-disciplined
  /// clock ("alleviated by closely synchronizing the clocks", Section 1).
  using ClockFn = std::function<Micros()>;

  PrimaryBackupClockService(sim::Simulator& sim, gcs::GcsEndpoint& gcs, ClockFn read_clock,
                            GroupId group, ConnectionId conn, ReplicaId replica);

  PrimaryBackupClockService(sim::Simulator& sim, gcs::GcsEndpoint& gcs,
                            clock::PhysicalClock& clk, GroupId group, ConnectionId conn,
                            ReplicaId replica)
      : PrimaryBackupClockService(
            sim, gcs, [&clk] { return clk.read(); }, group, conn, replica) {}

  /// Perform one clock-related operation for `thread`; `done` receives the
  /// value the group agrees on for this reading.
  void read(ThreadId thread, DoneFn done);

  /// Promote/demote this replica.  Promotion re-issues the reading for any
  /// blocked operation — from this replica's OWN raw clock, which is
  /// precisely what makes the baseline unsafe.
  void set_primary(bool primary);
  [[nodiscard]] bool is_primary() const { return primary_; }

  /// Awaitable wrapper, mirroring ConsistentTimeService::get_time.  The
  /// completion owns the parked frame; the resume is owned by the node's
  /// lifecycle scope (TaskScope::await_callback).
  [[nodiscard]] auto get_time(ThreadId t) {
    return gcs_.scope().await_callback<Micros>([this, t](auto done) { read(t, std::move(done)); });
  }

 private:
  struct PerThread {
    MsgSeqNum seq = 0;
    std::deque<Micros> buffer;
    DoneFn waiting;
    bool sent = false;
  };

  void on_delivered(const gcs::Message& m);
  void send_reading(ThreadId t, PerThread& pt);
  void try_complete(PerThread& pt);

  sim::Simulator& sim_;
  gcs::GcsEndpoint& gcs_;
  ClockFn read_clock_;
  GroupId group_;
  ConnectionId conn_;
  ReplicaId replica_;
  bool primary_ = false;
  std::map<ThreadId, PerThread> threads_;
};

/// A hardware clock disciplined toward an external reference by periodic
/// slewing — the NTP stand-in.  Bounded error, but still a *local* clock:
/// two disciplined clocks still disagree by up to twice the residual error.
class NtpDisciplinedClock {
 public:
  struct Config {
    Micros poll_interval_us = 1'000'000;  // sync once per simulated second
    double gain = 0.5;                    // fraction of the error removed per poll
  };

  NtpDisciplinedClock(sim::Simulator& sim, clock::PhysicalClock& clk,
                      clock::ReferenceTimeSource& ref, Config cfg);
  NtpDisciplinedClock(sim::Simulator& sim, clock::PhysicalClock& clk,
                      clock::ReferenceTimeSource& ref)
      : NtpDisciplinedClock(sim, clk, ref, Config{}) {}

  /// Disciplined reading: physical clock + accumulated correction.
  [[nodiscard]] Micros read() const { return clock_.read() + correction_; }

  /// Current correction (for instrumentation).
  [[nodiscard]] Micros correction() const { return correction_; }

  /// Stop the discipline loop (host crash).
  void stop() { stopped_ = true; }

 private:
  void poll();

  sim::Simulator& sim_;
  clock::PhysicalClock& clock_;
  clock::ReferenceTimeSource& ref_;
  Config cfg_;
  Micros correction_ = 0;
  bool stopped_ = false;
};

}  // namespace cts::baseline
