// run_indexed: run independent jobs (seeds, configs) across worker threads.
//
// Each index is a self-contained job that builds its own world — its own
// Simulator, Testbed, Recorder — runs it, and stores its result in slot i
// of a vector the caller sized up front.  Jobs share nothing, so they are
// embarrassingly parallel; the only determinism hazard is result order,
// and the slot-per-index rule fixes it by construction: the results are
// identical for any worker count, any completion order, any machine.
//
// This is the cheap half of the parallel simulator (doc/PARALLEL.md; the
// island coordinator in sim/parallel.hpp is the deep half): seed sweeps
// get multi-core wall-clock wins with zero changes to the simulator.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace cts::sim {

/// Call fn(i) exactly once for every i in [0, n) on up to `jobs` workers
/// (clamped to n; 0 counts as 1).  One worker runs every index inline on
/// the caller, in order.  Workers claim indices from a shared counter —
/// claim order is racy, so fn(i) must touch only state owned by index i.
template <class Fn>
void run_indexed(std::size_t n, unsigned jobs, const Fn& fn) {
  const std::size_t workers = std::min<std::size_t>(jobs == 0 ? 1 : jobs, n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(work);
  work();
  for (std::thread& th : pool) th.join();
}

}  // namespace cts::sim
