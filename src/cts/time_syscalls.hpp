// Library-interpositioning facade for clock-related system calls.
//
// The paper's implementation (Section 4.1) interposes on the libc symbols
// gettimeofday(), time() and ftime() with LD_PRELOAD so the application is
// unchanged; each interposed call carries a unique type identifier in the
// CCS message.  In the simulation, application code receives a TimeSyscalls
// object instead of calling libc; each method corresponds to one interposed
// symbol, carries its own ClockCallType, and drives one round of the CCS
// algorithm.  The returned value respects the original call's resolution
// (microseconds / seconds / milliseconds).
#pragma once

#include "cts/consistent_time_service.hpp"

namespace cts::ccs {

/// A timeval-like result for gettimeofday().
struct TimeVal {
  std::int64_t tv_sec = 0;
  std::int64_t tv_usec = 0;
  friend bool operator==(const TimeVal&, const TimeVal&) = default;

  [[nodiscard]] Micros total_us() const { return tv_sec * 1'000'000 + tv_usec; }
  static TimeVal from_us(Micros us) { return TimeVal{us / 1'000'000, us % 1'000'000}; }
};

/// A timeb-like result for ftime().
struct TimeB {
  std::int64_t time = 0;      // seconds
  std::uint16_t millitm = 0;  // milliseconds
  friend bool operator==(const TimeB&, const TimeB&) = default;

  [[nodiscard]] Micros total_us() const {
    return time * 1'000'000 + static_cast<Micros>(millitm) * 1'000;
  }
  static TimeB from_us(Micros us) {
    return TimeB{us / 1'000'000, static_cast<std::uint16_t>((us / 1'000) % 1'000)};
  }
};

/// Per-thread interposed syscall table.  One instance per application
/// thread of a replica, bound to that thread's identifier (the identifier
/// that rides in CCS headers).
class TimeSyscalls {
 public:
  TimeSyscalls(ConsistentTimeService& svc, ThreadId thread) : svc_(svc), thread_(thread) {
    svc_.register_thread(thread_);
  }

  /// gettimeofday(2): microsecond resolution.
  // detlint:allow(wall-clock): interposed-symbol facade — reads the CCS
  // group clock, never the host clock; the name mirrors the libc symbol.
  auto gettimeofday() {
    return svc_.get_time(thread_, ClockCallType::kGettimeofday, TimeVal::from_us);
  }

  /// time(2): whole seconds.
  // detlint:allow(wall-clock): interposed-symbol facade — reads the CCS
  // group clock, never the host clock; the name mirrors the libc symbol.
  auto time() {
    return svc_.get_time(thread_, ClockCallType::kTime,
                         [](Micros us) -> std::int64_t { return us / 1'000'000; });
  }

  /// ftime(3): millisecond resolution.
  // detlint:allow(wall-clock): interposed-symbol facade — reads the CCS
  // group clock, never the host clock; the name mirrors the libc symbol.
  auto ftime() { return svc_.get_time(thread_, ClockCallType::kFtime, TimeB::from_us); }

  /// clock_gettime(2) with CLOCK_REALTIME: microseconds (ns granularity is
  /// below the simulation's resolution).
  // detlint:allow(wall-clock): interposed-symbol facade — reads the CCS
  // group clock, never the host clock; the name mirrors the libc symbol.
  auto clock_gettime() { return svc_.get_time(thread_, ClockCallType::kClockGettime); }

  [[nodiscard]] ThreadId thread() const { return thread_; }

 private:
  ConsistentTimeService& svc_;
  ThreadId thread_;
};

}  // namespace cts::ccs
