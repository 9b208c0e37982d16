// Deterministic discrete-event simulator.
//
// Everything the paper runs on a four-machine testbed runs here inside one
// process: simulated hosts, the LAN, Totem daemons, replicas, and clients
// are all driven from a single time-ordered event queue.  Determinism is
// total — same seed, same schedule, same results — which is what makes the
// agreement/monotonicity property tests meaningful.
//
// The queue is an EventHeap (indexed binary heap + slot map): scheduling is
// allocation-free for hot-path closures (InlineFn keeps captures up to 48
// bytes inline), cancel() removes entries in place instead of leaving
// tombstones, and reschedule() re-keys a live timer without a cancel+insert
// pair.  Ordering is a strict total order on (time, seq), so the schedule
// is byte-identical to the previous priority_queue implementation.
//
// Two programming models are supported:
//   * callback timers (`at` / `after` / `cancel` / `reschedule`) — used by
//     protocol code (Totem token timeouts, retransmission timers);
//   * C++20 coroutines (`co_await sim.delay(d)`, and the scope-owned
//     awaiters in task_scope.hpp) — used by application-level logical
//     threads, which in the paper block in get_grp_clock_time() until the
//     first CCS message of the round arrives.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <limits>
#include <utility>

#include "common/inline_fn.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/event_heap.hpp"

namespace cts::sim {

class Simulator;

/// Fire-and-forget coroutine used for simulated logical threads.
///
/// The coroutine starts eagerly and destroys its own frame when it runs to
/// completion (final_suspend is suspend_never), so there is no join handle;
/// completion is observed through ordinary simulation state.
struct Task {
  struct promise_type {
    Task get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };
};

/// The event queue and simulated clock.
class Simulator {
 public:
  using EventFn = InlineFn<void()>;

  /// Handle for cancelling or rescheduling a scheduled callback.  A
  /// default-constructed EventId is never valid; a fired or cancelled id
  /// goes stale (its slot generation moves on) and is safely rejected.
  struct EventId {
    std::uint64_t id = 0;
  };

  explicit Simulator(std::uint64_t seed = 1) : rng_(seed) {}

  /// Current simulated time in microseconds since simulation start.
  [[nodiscard]] Micros now() const { return now_; }

  /// Schedule `fn` at absolute simulated time `t` (>= now).  The callable
  /// is forwarded all the way into the event heap's slot, so hot-path
  /// closures are constructed exactly once and never relocated.
  template <typename F>
  EventId at(Micros t, F&& fn) {
    assert(t >= now_);
    return EventId{heap_.push(t, seq_++, std::forward<F>(fn))};
  }

  /// Schedule `fn` after `delay` microseconds.
  template <typename F>
  EventId after(Micros delay, F&& fn) {
    return at(now_ + delay, std::forward<F>(fn));
  }

  /// Cancel a previously scheduled callback; a no-op if it already fired
  /// (or was already cancelled).  The entry is removed in place — repeated
  /// cancel-after-fire churn leaves nothing behind.  Returns true only if a
  /// pending event was actually removed, so callers (TaskScope::shutdown)
  /// can count real cancellations.
  ///
  /// Determinism: cancel consumes no sequence number, so cancellation
  /// sweeps never perturb the numbering of later-scheduled events.
  bool cancel(EventId ev) { return heap_.cancel(ev.id); }

  /// Whether `ev` is still pending (scheduled, unfired, uncancelled).
  [[nodiscard]] bool scheduled(EventId ev) const { return heap_.live(ev.id); }

  /// Move a still-pending callback to absolute time `t` (>= now), keeping
  /// its callback and handle.  Returns false if the event already fired or
  /// was cancelled — the caller should schedule a fresh one.
  ///
  /// Determinism: a successful reschedule consumes exactly one sequence
  /// number, the same as the cancel+at() pair it replaces (cancel consumes
  /// none), so timer-heavy schedules are unchanged byte for byte.
  bool reschedule(EventId ev, Micros t) {
    assert(t >= now_);
    if (!heap_.reschedule(ev.id, t, seq_)) return false;
    ++seq_;
    return true;
  }

  /// Run the next pending event.  Returns false if the queue is empty.
  bool step() {
    if (heap_.empty()) return false;
    EventHeap::Fired f = heap_.pop();
    assert(f.time >= now_);
    now_ = f.time;
    ++executed_;
    f.fn();
    return true;
  }

  /// Run until the queue is empty or `max_events` have fired.
  /// Returns the number of events executed.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX) {
    std::uint64_t n = 0;
    while (n < max_events && step()) ++n;
    return n;
  }

  /// Run all events with time <= t, then set now() = t.
  void run_until(Micros t) {
    while (!heap_.empty() && heap_.top_time() <= t) step();
    if (now_ < t) now_ = t;
  }

  /// Run every pending event with time strictly below `bound` and leave
  /// now() at the last fired event (events at exactly `bound` stay queued
  /// and now() is NOT advanced to the bound).  This is the island epoch
  /// primitive: under the conservative time-window barrier (doc/PARALLEL.md)
  /// an island may only execute events that predate the earliest possible
  /// cross-island delivery, which can land at exactly `bound`.
  /// Returns the number of events executed.
  std::uint64_t run_events_before(Micros bound) {
    std::uint64_t n = 0;
    while (!heap_.empty() && heap_.top_time() < bound) {
      step();
      ++n;
    }
    return n;
  }

  /// Advance now() to `t` without running anything.  Only legal when no
  /// pending event predates `t` — the coordinator uses this once per
  /// run_until() to line every island's clock up on the final bound, the
  /// same "idle time passes" rule run_until() applies to a single simulator.
  void advance_to(Micros t) {
    assert(heap_.empty() || heap_.top_time() >= t);
    if (now_ < t) now_ = t;
  }

  /// Run for `d` microseconds of simulated time.  Saturates at the Micros
  /// horizon instead of wrapping: `run_for(max)` late in a long run means
  /// "run everything ever scheduled", not signed overflow into the past.
  void run_for(Micros d) {
    constexpr Micros kHorizon = std::numeric_limits<Micros>::max();
    run_until(d >= kHorizon - now_ ? kHorizon : now_ + d);
  }

  /// Number of scheduled-but-unfired events.  Cancelled events are removed
  /// immediately, so this is the exact live queue depth.
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

  /// Time of the earliest pending event.  Only meaningful when
  /// pending() > 0; the island coordinator reads it to compute the next
  /// conservative window.
  [[nodiscard]] Micros next_event_time() const { return heap_.top_time(); }

  /// Total events executed since construction (the obs layer exports this
  /// as the `sim.events_executed` counter).
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Event-slot arena size (live + recycled); grows only with the peak
  /// number of simultaneously pending events.  For tests and diagnostics.
  [[nodiscard]] std::size_t slot_capacity() const { return heap_.slot_capacity(); }

  /// Root RNG for the experiment; fork() per-component streams from it.
  Rng& rng() { return rng_; }

  // --- Coroutine support -------------------------------------------------

  /// Event callback that resumes a suspended coroutine when fired — and
  /// destroys the suspended frame instead if the event is dropped unfired
  /// (cancelled, or the simulator is torn down with the event pending), so
  /// awaiting coroutines cannot leak their frames.
  struct CoroResume {
    std::coroutine_handle<> h;
    explicit CoroResume(std::coroutine_handle<> hh) noexcept : h(hh) {}
    CoroResume(CoroResume&& o) noexcept : h(std::exchange(o.h, nullptr)) {}
    CoroResume(const CoroResume&) = delete;
    CoroResume& operator=(const CoroResume&) = delete;
    CoroResume& operator=(CoroResume&&) = delete;
    ~CoroResume() {
      if (h) h.destroy();
    }
    void operator()() { std::exchange(h, nullptr).resume(); }
  };

  /// Awaitable that resumes the coroutine after `d` simulated microseconds.
  struct DelayAwaiter {
    Simulator& sim;
    Micros d;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { sim.after(d, CoroResume{h}); }
    void await_resume() const noexcept {}
  };

  /// `co_await sim.delay(d)` — suspend the logical thread for d us.
  DelayAwaiter delay(Micros d) { return DelayAwaiter{*this, d}; }

 private:
  Micros now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  EventHeap heap_;
  Rng rng_;
};

}  // namespace cts::sim
