// Ablation: clock continuity across primary failover (paper Section 1).
//
// Three ways to give a replica group a clock:
//   A. primary/backup distribution of the primary's RAW hardware clock
//      (prior art [9]/[3]) — roll-back / fast-forward on failover;
//   B. the same, but with NTP-disciplined hardware clocks — the anomaly
//      shrinks to the residual synchronization error, but does not vanish;
//   C. the Consistent Time Service — offsets absorb the clock gap, the
//      group clock is monotone by construction.
//
// For each scheme we run many failovers and report the discontinuity
// (first reading after failover − last reading before), minus the real
// elapsed time between the two readings, so 0 is perfect continuity.
#include <cstdio>
#include <memory>
#include <vector>

#include "app/testbed.hpp"
#include "obs/recorder.hpp"
#include "baseline/baseline_clocks.hpp"

using namespace cts;
using namespace cts::app;

namespace {

constexpr int kFailovers = 30;

struct Stats {
  std::vector<Micros> discontinuities;  // adjusted for elapsed real time
  int rollbacks = 0;

  void add(Micros d) {
    discontinuities.push_back(d);
    if (d < 0) ++rollbacks;
  }
  [[nodiscard]] Micros worst_back() const {
    Micros w = 0;
    for (auto d : discontinuities) w = std::min(w, d);
    return w;
  }
  [[nodiscard]] Micros worst_fwd() const {
    Micros w = 0;
    for (auto d : discontinuities) w = std::max(w, d);
    return w;
  }
  [[nodiscard]] double mean_abs() const {
    double acc = 0;
    for (auto d : discontinuities) acc += std::abs((double)d);
    return discontinuities.empty() ? 0 : acc / (double)discontinuities.size();
  }
};

/// One failover trial of the primary/backup baseline (raw or NTP clocks).
Micros pb_trial(bool ntp, std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim, {});
  totem::TotemConfig tcfg;
  tcfg.universe = {NodeId{0}, NodeId{1}, NodeId{2}};

  std::vector<std::unique_ptr<totem::TotemNode>> totems;
  std::vector<std::unique_ptr<gcs::GcsEndpoint>> eps;
  std::vector<std::unique_ptr<clock::PhysicalClock>> clocks;
  std::vector<std::unique_ptr<clock::ReferenceTimeSource>> refs;
  std::vector<std::unique_ptr<baseline::NtpDisciplinedClock>> ntps;
  std::vector<std::unique_ptr<baseline::PrimaryBackupClockService>> svcs;

  Rng crng(seed * 31 + 7);
  for (std::uint32_t i = 0; i < 3; ++i) {
    totems.push_back(std::make_unique<totem::TotemNode>(sim, net, NodeId{i}, tcfg));
    eps.push_back(std::make_unique<gcs::GcsEndpoint>(sim, *totems.back()));
    clocks.push_back(
        std::make_unique<clock::PhysicalClock>(sim, clock::random_clock_config(crng)));
    baseline::PrimaryBackupClockService::ClockFn fn;
    if (ntp) {
      refs.push_back(std::make_unique<clock::ReferenceTimeSource>(sim, crng.fork(), 500));
      ntps.push_back(
          std::make_unique<baseline::NtpDisciplinedClock>(sim, *clocks.back(), *refs.back()));
      fn = [c = ntps.back().get()] { return c->read(); };
    } else {
      fn = [c = clocks.back().get()] { return c->read(); };
    }
    svcs.push_back(std::make_unique<baseline::PrimaryBackupClockService>(
        sim, *eps.back(), std::move(fn), GroupId{1}, ConnectionId{50}, ReplicaId{i}));
  }
  svcs[0]->set_primary(true);
  for (auto& t : totems) t->start();
  // Let the ring form and (for NTP) the discipline converge.
  sim.run_for(ntp ? 20'000'000 : 200'000);

  // Both replicas perform the same sequence of reads; the primary's logical
  // thread dies with its host at the crash.
  std::vector<Micros> readings;
  std::vector<Micros> read_real_time;
  bool primary_dead = false;
  auto reader = [&](std::uint32_t r, bool record) -> sim::Task {
    for (int i = 0; i < 12; ++i) {
      co_await sim.delay(1'000);
      if (r == 0 && primary_dead) co_return;
      const Micros v = co_await svcs[r]->get_time(ThreadId{0});
      if (record) {
        readings.push_back(v);
        read_real_time.push_back(sim.now());
      }
    }
  };
  reader(0, false);
  reader(1, true);
  while (readings.size() < 10 && sim.now() < 120'000'000) sim.run_until(sim.now() + 1'000);

  // Crash the primary, promote the first backup, keep reading.
  primary_dead = true;
  totems[0]->crash();
  clocks[0]->fail();
  svcs[1]->set_primary(true);
  const Micros last_before = readings.empty() ? kNoTime : readings.back();
  const Micros last_before_real = readings.empty() ? 0 : read_real_time.back();

  // Wait out the ring reconfiguration so the comparison isolates the CLOCK
  // discontinuity (the Section 1 anomaly) from failover-detection latency.
  Micros first_after = kNoTime, first_after_real = 0;
  auto reader2 = [&]() -> sim::Task {
    co_await sim.delay(15'000);
    first_after = co_await svcs[1]->get_time(ThreadId{0});
    first_after_real = sim.now();
  };
  reader2();
  sim.run_for(10'000'000);
  if (first_after == kNoTime || last_before == kNoTime) return 0;
  return (first_after - last_before) - (first_after_real - last_before_real);
}

/// One failover trial of the Consistent Time Service (semi-active).
Micros cts_trial(std::uint64_t seed) {
  TestbedConfig cfg;
  cfg.servers = 3;
  cfg.style = replication::ReplicationStyle::kSemiActive;
  cfg.seed = seed;
  cfg.max_clock_offset_us = 500'000;
  Testbed tb(cfg);
  tb.start();

  std::vector<Micros> times, reals;
  bool crashed = false;
  auto driver = [&]() -> sim::Task {
    for (int i = 0; i < 16; ++i) {
      co_await tb.sim().delay(1'000);
      Bytes r = co_await tb.client().call(make_get_time_request());
      BytesReader rd(r);
      times.push_back(rd.i64() * 1'000'000 + rd.i64());
      reals.push_back(tb.sim().now());
      if (i == 9) {
        for (std::uint32_t s = 0; s < 3; ++s) {
          if (tb.server(s).is_primary()) tb.crash_server(s);
        }
        crashed = true;
      }
    }
  };
  driver();
  while (times.size() < 16 && tb.sim().now() < 240'000'000) {
    tb.sim().run_until(tb.sim().now() + 10'000);
  }
  if (!crashed || times.size() < 12) return 0;
  static int obs_run = 0;
  obs::export_from_env({&tb.recorder()}, "bench_ablation_failover.cts" + std::to_string(obs_run++));
  // Discontinuity across the failover boundary (readings 10 and 11).
  return (times[10] - times[9]) - (reals[10] - reals[9]);
}

}  // namespace

int main() {
  std::printf("# Ablation: clock continuity across primary failover, %d trials each\n", kFailovers);
  std::printf("# discontinuity = (reading_after - reading_before) - elapsed_real_time, us\n");
  std::printf("# negative = roll-back (the Section 1 anomaly), 0 = perfect continuity\n\n");

  Stats raw, ntp, cts;
  for (int t = 0; t < kFailovers; ++t) {
    raw.add(pb_trial(false, 1000 + t));
    ntp.add(pb_trial(true, 2000 + t));
    cts.add(cts_trial(3000 + t));
  }

  std::printf("%-34s %10s %12s %12s %12s\n", "scheme", "rollbacks", "worst_back", "worst_fwd",
              "mean_|d|");
  std::printf("%-34s %10d %12lld %12lld %12.1f\n", "primary/backup, raw clocks [9]",
              raw.rollbacks, (long long)raw.worst_back(), (long long)raw.worst_fwd(),
              raw.mean_abs());
  std::printf("%-34s %10d %12lld %12lld %12.1f\n", "primary/backup, NTP clocks",
              ntp.rollbacks, (long long)ntp.worst_back(), (long long)ntp.worst_fwd(),
              ntp.mean_abs());
  std::printf("%-34s %10d %12lld %12lld %12.1f\n", "consistent time service (ours)",
              cts.rollbacks, (long long)cts.worst_back(), (long long)cts.worst_fwd(),
              cts.mean_abs());
  std::printf("\nexpected shape: raw clocks roll back by up to the clock offset (~hundreds of\n"
              "ms); NTP shrinks the anomaly to the residual sync error; the consistent time\n"
              "service never rolls back (discontinuity >= 0, bounded by round latency).\n");
  return 0;
}
