// IslandCoordinator: conservative-window parallel execution of disjoint
// simulation islands, byte-identical to serial execution.
//
// An *island* is one self-contained Simulator — its own EventHeap, its own
// RNG stream, its own TaskScope roots — hosting a subsystem (one Totem ring
// and everything above it) that interacts with other islands only through
// explicitly posted cross-island messages.  The coordinator advances all
// islands in lockstep epochs:
//
//   1. every cross-island message carries at least `window_floor_us` of
//      latency, so if T0 is the earliest pending event anywhere, no event
//      executed this epoch can cause a delivery before T0 + floor;
//   2. each epoch, every island therefore executes exactly the events with
//      time < W, where W = min(T0 + floor, bound) — independently, in
//      parallel, with zero shared state;
//   3. at the barrier the coordinator drains the mailboxes in canonical
//      (src, dst, FIFO) cell order into the destination heaps, then
//      recomputes T0.
//
// Determinism: an island's schedule is a function of its own heap contents
// and the mailbox drains.  Neither depends on the number of worker threads:
// epoch windows are pure virtual-time arithmetic, and the drain order is
// fixed by (src, dst, FIFO) cell order — a message's destination-side
// sequence number (the FIFO tie-break within a timestamp) is assigned at
// the single-threaded barrier, never by thread arrival order.  Hence a run
// with N workers fires exactly the events, in exactly the order, of the
// serial run — traces and metrics are byte-identical (proven by the
// double-run test in tests/parallel_sim_test.cpp; doc/PARALLEL.md has the
// full argument).
//
// Threading model: islands are pinned to workers (island i runs on worker
// i % threads for the life of the run), worker 0 being the coordinating
// thread itself, so threads == 1 spawns nothing and executes the islands
// in index order on the caller — the exact serial path.  Mailbox cells are
// (src, dst) pairs written only by src's worker during an epoch and read
// only by the coordinator at the barrier.  The barrier is two atomics:
// the coordinator writes the window and then bumps the epoch generation
// with release order, which every worker reads with acquire before it
// touches an island; each worker's `fetch_sub` of the pending count is a
// release, and the RMWs form one release sequence, so the coordinator's
// acquire load that reads 0 happens-after every worker's epoch — mailbox
// writes included.  The whole scheme is data-race-free (the TSan CI leg
// runs the parallel suite at CTS_SIM_THREADS=3 and 4).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/inline_fn.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace cts::sim {

/// Index of an island within its coordinator.
using IslandId = std::uint32_t;

/// Worker-thread count for parallel runs: the CTS_SIM_THREADS environment
/// variable when set to a positive integer, otherwise `fallback`.
/// 1 (the default everywhere) means fully serial execution.
inline unsigned threads_from_env(unsigned fallback = 1) {
  const char* env = std::getenv("CTS_SIM_THREADS");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const unsigned long v = std::strtoul(env, &end, 10);
  if (end == env || *end != '\0' || v == 0 || v > 1024) return fallback;
  return static_cast<unsigned>(v);
}

class IslandCoordinator {
 public:
  struct Stats {
    std::uint64_t epochs = 0;          // barrier windows executed
    std::uint64_t posts = 0;           // cross-island messages posted
    std::uint64_t events_executed = 0; // events fired under the coordinator
  };

  /// `window_floor_us` is the minimum latency of every cross-island post —
  /// the conservative lookahead that makes the epoch windows safe.  Must be
  /// at least 1 (an island may never affect another in the same instant).
  explicit IslandCoordinator(Micros window_floor_us) : floor_(window_floor_us) {
    assert(floor_ >= 1);
  }

  IslandCoordinator(const IslandCoordinator&) = delete;
  IslandCoordinator& operator=(const IslandCoordinator&) = delete;

  ~IslandCoordinator() { stop_workers(); }

  /// Register an island.  All islands must be registered before the first
  /// run_until(); the returned id is the island's permanent index.
  IslandId add_island(Simulator& sim) {
    assert(!running_started_ && "add_island after the first run_until");
    const auto id = static_cast<IslandId>(islands_.size());
    islands_.push_back(&sim);
    const std::size_t k = islands_.size();
    mail_ = std::vector<std::vector<Entry>>(k * k);
    return id;
  }

  [[nodiscard]] std::size_t island_count() const { return islands_.size(); }
  [[nodiscard]] Micros window_floor() const { return floor_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Requested worker count for subsequent runs (clamped to the island
  /// count at run time; 1 = serial).  Callable between runs, not during one.
  void set_threads(unsigned n) {
    assert(!in_epoch_);
    requested_threads_ = n == 0 ? 1 : n;
  }
  [[nodiscard]] unsigned threads() const { return requested_threads_; }

  /// Post `fn` to run on island `dst` at absolute (destination) time
  /// `deliver_at`.  Must be called from island `src`'s execution (its
  /// worker thread, during an epoch, or any single-threaded setup phase
  /// outside run_until), and the delivery must respect the window floor:
  /// deliver_at >= src.now() + window_floor().  The callable must own its
  /// captures — it is executed (or destroyed unfired) on another thread.
  template <typename F>
  void post(IslandId src, IslandId dst, Micros deliver_at, F&& fn) {
    assert(src < islands_.size() && dst < islands_.size());
    assert(deliver_at >= islands_[src]->now() + floor_ &&
           "cross-island delivery below the conservative window floor");
    auto& cell = mail_[src * islands_.size() + dst];
    cell.push_back(Entry{deliver_at, InlineFn<void()>(std::forward<F>(fn))});
  }

  /// Run every island up to and including virtual time `t` (the multi-island
  /// analogue of Simulator::run_until): all events with time <= t fire, and
  /// every island's now() ends at exactly t.
  void run_until(Micros t) {
    running_started_ = true;
    ensure_workers();
    if (step_window_ != 0) {  // finish the epoch a step() left open
      for (; step_island_ < islands_.size(); ++step_island_) {
        stats_.events_executed += islands_[step_island_]->run_events_before(step_window_);
      }
      step_window_ = 0;
    }
    drain_mailboxes();
    for (;;) {
      Micros t0 = kInf;
      for (Simulator* s : islands_) {
        if (s->pending() > 0 && s->next_event_time() < t0) t0 = s->next_event_time();
      }
      if (t0 == kInf || t0 > t) break;
      const Micros w = std::min(sat_add(t0, floor_), sat_add(t, 1));
      execute_epoch(w);
      ++stats_.epochs;
      drain_mailboxes();
    }
    for (Simulator* s : islands_) s->advance_to(t);
    now_ = t;
  }

  /// Run for `d` microseconds of virtual time past the current bound.
  void run_for(Micros d) { run_until(sat_add(now_, d)); }

  /// Execute exactly ONE event, following the identical canonical schedule
  /// run_until() produces: epochs in window order, islands in index order
  /// within an epoch, each island's events in its own heap order.  Serial
  /// only (the whole point is a deterministic event-index grid for fault
  /// sweeps — see tests/handoff_sweep_test.cpp).  Returns false when no
  /// event remains at or before `t`; islands are then advanced to `t`.
  /// run_until() may be called afterwards — it first finishes any epoch a
  /// step() left open, so stepping K events and then running to completion
  /// executes the same schedule as a plain run with a K-indexed
  /// intervention.
  bool step(Micros t) {
    assert(effective_threads() == 1 && "step() is serial-only");
    running_started_ = true;
    for (;;) {
      if (step_window_ == 0) {  // open the next epoch
        drain_mailboxes();
        Micros t0 = kInf;
        for (Simulator* s : islands_) {
          if (s->pending() > 0 && s->next_event_time() < t0) t0 = s->next_event_time();
        }
        if (t0 == kInf || t0 > t) {
          for (Simulator* s : islands_) s->advance_to(t);
          now_ = t;
          return false;
        }
        step_window_ = std::min(sat_add(t0, floor_), sat_add(t, 1));
        step_island_ = 0;
        ++stats_.epochs;
      }
      for (; step_island_ < islands_.size(); ++step_island_) {
        Simulator* s = islands_[step_island_];
        if (s->pending() > 0 && s->next_event_time() < step_window_) {
          s->step();
          ++stats_.events_executed;
          return true;
        }
      }
      step_window_ = 0;  // epoch exhausted; open the next one
    }
  }

  /// The coordinator's virtual-time cursor: the bound of the last
  /// run_until().  Islands' own now() match it between runs.
  [[nodiscard]] Micros now() const { return now_; }

 private:
  struct Entry {
    Micros at;
    InlineFn<void()> fn;
  };

  static constexpr Micros kInf = std::numeric_limits<Micros>::max();

  static Micros sat_add(Micros a, Micros b) { return a > kInf - b ? kInf : a + b; }

  /// Schedule all queued cross-island messages into their destination heaps
  /// in canonical (src, post order) order — dst-side sequence numbers (the
  /// simultaneous-event tie break) are assigned here, single-threaded, so
  /// they are identical for every worker count.
  void drain_mailboxes() {
    const std::size_t k = islands_.size();
    for (std::size_t src = 0; src < k; ++src) {
      for (std::size_t dst = 0; dst < k; ++dst) {
        auto& cell = mail_[src * k + dst];
        for (Entry& e : cell) {
          // A post made during single-threaded setup may predate an
          // island's clock; deliver it as soon as the destination allows.
          const Micros at = std::max(e.at, islands_[dst]->now());
          islands_[dst]->at(at, std::move(e.fn));
          ++stats_.posts;
        }
        cell.clear();
      }
    }
  }

  void execute_epoch(Micros w) {
    const unsigned n = effective_threads();
    if (n <= 1) {
      for (Simulator* s : islands_) stats_.events_executed += s->run_events_before(w);
      return;
    }
    in_epoch_ = true;
    window_ = w;
    pending_.store(n - 1, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    // Worker 0 is this thread: islands 0, n, 2n, ...
    std::uint64_t fired = 0;
    for (std::size_t i = 0; i < islands_.size(); i += n) {
      fired += islands_[i]->run_events_before(w);
    }
    await(pending_, [](unsigned left) { return left == 0; });
    for (unsigned id = 1; id < n; ++id) fired += fired_by_worker_[id];
    stats_.events_executed += fired;
    in_epoch_ = false;
  }

  [[nodiscard]] unsigned effective_threads() const {
    const auto k = static_cast<unsigned>(islands_.size());
    return std::min(requested_threads_, k == 0 ? 1u : k);
  }

  void ensure_workers() {
    const unsigned want = effective_threads();
    if (want == spawned_threads_) return;
    stop_workers();
    spawned_threads_ = want;
    if (want <= 1) return;
    stop_ = false;
    spin_ = want <= available_cpus();
    fired_by_worker_.assign(want, 0);
    // A worker starts from the generation current at its spawn, passed in
    // rather than read on the new thread: a read there could already see
    // the first epoch's bump and then wait for the one after it.
    const std::uint32_t gen = epoch_.load(std::memory_order_relaxed);
    for (unsigned id = 1; id < want; ++id) {
      workers_.emplace_back([this, id, want, gen] { worker_loop(id, want, gen); });
    }
  }

  void worker_loop(unsigned id, unsigned n, std::uint32_t seen) {
    for (;;) {
      seen = await(epoch_, [seen](std::uint32_t g) { return g != seen; });
      if (stop_) return;
      std::uint64_t fired = 0;
      for (std::size_t i = id; i < islands_.size(); i += n) {
        fired += islands_[i]->run_events_before(window_);
      }
      fired_by_worker_[id] = fired;
      if (pending_.fetch_sub(1, std::memory_order_release) == 1) pending_.notify_one();
    }
  }

  void stop_workers() {
    if (workers_.empty()) return;
    stop_ = true;
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    for (std::thread& th : workers_) th.join();
    workers_.clear();
  }

  /// Wait until `done(word)` holds and return the value that satisfied it,
  /// read with acquire order.  Pause-spins, then yields, then parks on the
  /// word; the epoch work is a few microseconds, so most waits end before
  /// the park.  Spinning is skipped when the pool outnumbers the CPUs this
  /// process may run on: a spinning waiter would then hold the CPU a peer
  /// needs to finish its islands.
  template <typename T, typename Done>
  T await(const std::atomic<T>& word, Done done) const {
    T v = word.load(std::memory_order_acquire);
    if (spin_) {
      for (unsigned i = 0; i < kSpinPauses && !done(v); ++i) {
        cpu_relax();
        v = word.load(std::memory_order_acquire);
      }
      for (unsigned i = 0; i < kSpinYields && !done(v); ++i) {
        std::this_thread::yield();
        v = word.load(std::memory_order_acquire);
      }
    }
    while (!done(v)) {
      word.wait(v, std::memory_order_acquire);
      v = word.load(std::memory_order_acquire);
    }
    return v;
  }

  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }

  /// CPUs this process may run on: its affinity mask where the platform
  /// has one (taskset, cgroup cpusets), else the hardware thread count.
  static unsigned available_cpus() {
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    }
#endif
    return std::max(1u, std::thread::hardware_concurrency());
  }

  // Spin budget per wait, before parking: 512 pauses (~8 µs at ~15 ns a
  // pause on a recent x86), then 8 yields.  A longer spin covers more of
  // the per-epoch waits on an idle host, but beside a CPU-bound process it
  // costs more than it saves: spinning threads then lose the CPU to it for
  // whole scheduler slices, which parked threads win back on wake-up.  At
  // 4 workers on 8x3 KV, 2048 pauses and 64 yields doubled start() beside
  // one busy loop (74 ms against the mutex barrier's 34 ms); 512 and 8
  // match the mutex barrier there and halve it on an idle host.
  static constexpr unsigned kSpinPauses = 512;
  static constexpr unsigned kSpinYields = 8;

  Micros floor_;
  Micros now_ = 0;
  std::vector<Simulator*> islands_;
  std::vector<std::vector<Entry>> mail_;     // mail_[src * K + dst]
  Stats stats_;
  bool running_started_ = false;
  bool in_epoch_ = false;

  unsigned requested_threads_ = 1;
  unsigned spawned_threads_ = 1;
  bool spin_ = false;

  // step() epoch cursor: the open window (0 = none) and the island the next
  // single-step resumes at.  Serial-only state; see step().
  Micros step_window_ = 0;
  std::size_t step_island_ = 0;

  // Barrier.  The coordinator writes window_ and stop_ before bumping
  // epoch_ (release); worker `id` writes fired_by_worker_[id] before its
  // pending_ decrement (release).  The two atomics sit on their own cache
  // lines: workers spin on one while they decrement the other.
  Micros window_ = 0;
  bool stop_ = false;
  std::vector<std::uint64_t> fired_by_worker_;
  alignas(64) std::atomic<std::uint32_t> epoch_{0};
  alignas(64) std::atomic<unsigned> pending_{0};
  std::vector<std::thread> workers_;  // after everything its threads use
};

}  // namespace cts::sim
