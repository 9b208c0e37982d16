// Benchmark: graceful degradation under packet loss and membership churn.
//
// The paper's testbed is a quiet LAN with no faults during the
// measurement; this bench answers the production question it leaves open:
// what happens to the consistent time service when the network misbehaves?
//
// Sweeps packet-loss rates (Totem recovers via token-carried
// retransmission requests) and adds a churn scenario (a replica crashing
// and recovering every 150 ms).  Reported: client-visible latency,
// completed invocations, monotonicity violations (must be 0), and CCS wire
// cost per round.
#include <cstdio>
#include <vector>

#include "app/testbed.hpp"
#include "obs/recorder.hpp"
#include "common/histogram.hpp"

using namespace cts;
using namespace cts::app;

namespace {

constexpr int kInvocations = 600;

struct Row {
  double loss;
  bool churn;
  double mean_us;
  Micros p99;
  std::size_t completed;
  std::size_t violations;
  double ccs_per_round;
  bool consistent;
};

sim::Task churn_loop(Testbed& tb, bool& stop) {
  std::uint32_t victim = 2;
  while (!stop) {
    co_await tb.sim().delay(150'000);
    if (stop) co_return;
    tb.crash_server(victim);
    co_await tb.sim().delay(50'000);
    if (stop) co_return;
    bool recovered = false;
    tb.restart_server(victim, [&recovered] { recovered = true; });
    // Wait for recovery before the next cycle, but bound it.
    for (int i = 0; i < 2000 && !recovered && !stop; ++i) co_await tb.sim().delay(1'000);
  }
}

Row run(double loss, bool churn) {
  TestbedConfig cfg;
  cfg.servers = 3;
  cfg.seed = 31;
  cfg.net.loss_probability = loss;
  Testbed tb(cfg);
  tb.start();

  Histogram lat(20, 60'000);
  std::vector<Micros> stamps;
  bool done = false;
  auto driver = [&]() -> sim::Task {
    for (int i = 0; i < kInvocations; ++i) {
      co_await tb.sim().delay(500);
      const Micros t0 = tb.sim().now();
      const Bytes r = co_await tb.client().call(make_get_time_request());
      lat.add(tb.sim().now() - t0);
      BytesReader rd(r);
      stamps.push_back(rd.i64() * 1'000'000 + rd.i64());
    }
    done = true;
  };
  bool stop_churn = false;
  driver();
  if (churn) churn_loop(tb, stop_churn);
  const Micros deadline = tb.sim().now() + 600'000'000;
  while (!done && tb.sim().now() < deadline) tb.sim().run_until(tb.sim().now() + 1'000'000);
  stop_churn = true;
  tb.sim().run_for(5'000'000);

  std::size_t violations = 0;
  for (std::size_t i = 1; i < stamps.size(); ++i) violations += (stamps[i] <= stamps[i - 1]);

  std::uint64_t wire = 0, rounds = 0;
  for (std::uint32_t s = 0; s < 3; ++s) {
    if (!tb.clock_of(tb.server_node(s)).alive()) continue;
    wire += tb.gcs_of(tb.server_node(s)).stats().on_wire(gcs::MsgType::kCcs);
    rounds = std::max(rounds, tb.server(s).time_service().stats().rounds_completed);
  }
  bool consistent = true;
  const TimeServerApp* first = nullptr;
  for (std::uint32_t s = 0; s < 3; ++s) {
    if (!tb.clock_of(tb.server_node(s)).alive() || !tb.server(s).recovered()) continue;
    auto& a = tb.server_app(s);
    if (!first) first = &a;
    else consistent &= (a.time_history() == first->time_history());
  }
  Row row;
  row.loss = loss;
  row.churn = churn;
  row.mean_us = lat.mean();
  row.p99 = lat.percentile(0.99);
  row.completed = stamps.size();
  row.violations = violations;
  row.ccs_per_round = rounds ? (double)wire / (double)rounds : 0.0;
  row.consistent = consistent;
  static int obs_run = 0;
  obs::export_from_env({&tb.recorder()}, "bench_fault_injection.run" + std::to_string(obs_run++));
  return row;
}

}  // namespace

int main() {
  std::printf("# Fault injection: the consistent time service under loss and churn\n");
  std::printf("# %d invocations per row; 3-way active group\n\n", kInvocations);
  std::printf("%-8s %-7s %10s %8s %10s %12s %12s %12s\n", "loss", "churn", "mean_us",
              "p99_us", "completed", "violations", "ccs/round", "consistent");
  for (double loss : {0.0, 0.01, 0.02, 0.05, 0.10}) {
    const Row r = run(loss, false);
    std::printf("%-8.2f %-7s %10.1f %8lld %10zu %12zu %12.3f %12s\n", r.loss, "no", r.mean_us,
                (long long)r.p99, r.completed, r.violations, r.ccs_per_round,
                r.consistent ? "yes" : "NO");
  }
  const Row c = run(0.01, true);
  std::printf("%-8.2f %-7s %10.1f %8lld %10zu %12zu %12.3f %12s\n", c.loss, "yes", c.mean_us,
              (long long)c.p99, c.completed, c.violations, c.ccs_per_round,
              c.consistent ? "yes" : "NO");
  std::printf(
      "\nexpected shape: up to ~5%% loss the retransmission machinery absorbs everything —\n"
      "all invocations complete, zero monotonicity violations, ~1 CCS message/round, and\n"
      "replicas stay identical, at a smoothly growing latency.  10%% loss exceeds the\n"
      "reliable-channel envelope the paper assumes (Section 2): membership churn with\n"
      "bounded recovery retries can break virtual synchrony, and the harness REPORTS the\n"
      "resulting divergence instead of hiding it.\n");
  return 0;
}
