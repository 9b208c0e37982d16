// Benchmark: replica recovery and new-clock integration (paper Section 3.2).
//
// Repeatedly crashes and recovers a replica of a 3-way active group while a
// client keeps invoking the time server, and reports per recovery:
//   * the state-transfer duration (GET_STATE multicast -> fully recovered),
//   * the number of requests queued during the transfer and drained after,
//   * the recovered replica's first group-clock reading vs the last group
//     clock before the checkpoint (monotonicity across recovery),
//   * end-to-end monotonicity of the client-visible timestamps.
#include <cstdio>
#include <vector>

#include "app/testbed.hpp"
#include "obs/recorder.hpp"

using namespace cts;
using namespace cts::app;

namespace {
constexpr int kCycles = 10;
}

int main() {
  TestbedConfig cfg;
  cfg.servers = 3;
  cfg.seed = 11;
  Testbed tb(cfg);
  tb.start();

  std::vector<Bytes> replies;
  bool stop = false;
  auto driver = [&]() -> sim::Task {
    while (!stop) {
      co_await tb.sim().delay(500);
      replies.push_back(co_await tb.client().call(make_get_time_request()));
    }
  };
  driver();

  std::printf("# Recovery benchmark: %d crash/recover cycles on a 3-way active group\n\n",
              kCycles);
  std::printf("%-7s %-8s %12s %14s %16s\n", "cycle", "victim", "transfer_us", "drained_reqs",
              "offset_after_us");

  for (int cycle = 0; cycle < kCycles; ++cycle) {
    const std::uint32_t victim = static_cast<std::uint32_t>(cycle % 3);
    // Let traffic flow, then crash.
    tb.sim().run_for(20'000);
    tb.crash_server(victim);
    tb.sim().run_for(30'000);  // group reconfigures, traffic continues

    bool recovered = false;
    const Micros t0 = tb.sim().now();
    tb.restart_server(victim, [&] { recovered = true; });
    while (!recovered && tb.sim().now() < t0 + 300'000'000) {
      tb.sim().run_until(tb.sim().now() + 500);
    }
    const Micros transfer = tb.sim().now() - t0;
    const Micros offset = tb.server(victim).time_service().clock_offset();
    const auto drained = tb.server(victim).stats().requests_processed;
    std::printf("%-7d r%-7u %12lld %14llu %16lld\n", cycle + 1, victim + 1, (long long)transfer,
                (unsigned long long)drained, (long long)offset);
  }

  stop = true;
  tb.sim().run_for(5'000'000);

  // Verify global monotonicity of everything the client saw.
  Micros prev = 0;
  std::size_t violations = 0;
  for (const auto& r : replies) {
    BytesReader rd(r);
    const Micros t = rd.i64() * 1'000'000 + rd.i64();
    if (t <= prev) ++violations;
    prev = t;
  }
  std::printf("\nclient received %zu replies across %d recoveries; monotonicity violations: %zu "
              "(expected 0)\n",
              replies.size(), kCycles, violations);

  // Replica state equality after the dust settles.
  const bool equal01 = tb.server_app(0).time_history() == tb.server_app(1).time_history();
  const bool equal12 = tb.server_app(1).time_history() == tb.server_app(2).time_history();
  std::printf("replica state identical after final recovery: %s\n",
              (equal01 && equal12) ? "yes" : "NO (bug)");
  obs::export_from_env({&tb.recorder()}, "bench_recovery");
  return 0;
}
