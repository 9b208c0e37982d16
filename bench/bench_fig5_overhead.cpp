// Reproduces paper Figure 5 and the Section 4.3 CCS-message counts.
//
// Setup (paper Section 4.2): a CORBA client on node n0 (the ring leader)
// makes 10,000 remote method invocations on a three-way actively replicated
// server (replicas on n1, n2, n3).  The remote method returns the current
// time; the server simply calls gettimeofday().  The probability density
// function of the end-to-end latency is measured at the client, with and
// without the consistent time service running.
//
// Expected shape (paper Section 4.3):
//   * the consistent time service adds ~300us to the end-to-end latency,
//     caused primarily by one additional token circulation;
//   * the total number of CCS messages on the wire equals the number of
//     rounds; the per-node split is extremely skewed (paper: 1 / 9,977 /
//     22) because duplicate suppression cancels the slower replicas'
//     copies.
#include <cstdio>
#include <string>
#include <vector>

#include "app/testbed.hpp"
#include "obs/recorder.hpp"
#include "common/histogram.hpp"

using namespace cts;
using namespace cts::app;

namespace {

constexpr int kInvocations = 10'000;

struct RunResult {
  Histogram latency{10, 3'000};
  std::vector<std::uint64_t> ccs_on_wire;  // per server node
};

sim::Task client_loop(Testbed& tb, int n, Histogram& hist, bool& done) {
  for (int i = 0; i < n; ++i) {
    const Micros t0 = tb.sim().now();
    (void)co_await tb.client().call(make_get_time_request());
    hist.add(tb.sim().now() - t0);
  }
  done = true;
}

RunResult run(bool with_cts) {
  TestbedConfig cfg;
  cfg.servers = 3;
  cfg.seed = 2003;
  if (!with_cts) cfg.factory = local_time_server_factory();
  Testbed tb(cfg);
  tb.start();

  RunResult res;
  bool done = false;
  client_loop(tb, kInvocations, res.latency, done);
  while (!done) tb.sim().run_until(tb.sim().now() + 1'000'000);
  tb.sim().run_for(2'000'000);

  for (std::uint32_t s = 0; s < tb.server_count(); ++s) {
    res.ccs_on_wire.push_back(tb.gcs_of(tb.server_node(s)).stats().on_wire(gcs::MsgType::kCcs));
  }
  obs::export_from_env({&tb.recorder()}, with_cts ? "bench_fig5_overhead.with_cts" : "bench_fig5_overhead.without_cts");
  return res;
}

}  // namespace

int main() {
  std::printf("# Figure 5: end-to-end latency PDF at the client, %d invocations\n", kInvocations);
  std::printf("# 3-way actively replicated time server; client on the ring leader n0\n\n");

  RunResult with = run(/*with_cts=*/true);
  RunResult without = run(/*with_cts=*/false);

  std::printf("## Summary\n");
  std::printf("%-28s %10s %10s %10s %10s\n", "configuration", "mean_us", "p50_us", "p99_us",
              "mode_us");
  std::printf("%-28s %10.1f %10lld %10lld %10lld\n", "without consistent time svc",
              without.latency.mean(), (long long)without.latency.percentile(0.5),
              (long long)without.latency.percentile(0.99), (long long)without.latency.mode_bin());
  std::printf("%-28s %10.1f %10lld %10lld %10lld\n", "with consistent time svc",
              with.latency.mean(), (long long)with.latency.percentile(0.5),
              (long long)with.latency.percentile(0.99), (long long)with.latency.mode_bin());
  std::printf("CTS overhead (mean): %.1f us   (paper: ~300 us, one extra token circulation)\n\n",
              with.latency.mean() - without.latency.mean());

  std::printf("## CCS messages on the wire per server node (paper: 1 / 9,977 / 22)\n");
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < with.ccs_on_wire.size(); ++s) {
    std::printf("  n%zu: %llu\n", s + 1, (unsigned long long)with.ccs_on_wire[s]);
    total += with.ccs_on_wire[s];
  }
  std::printf("  total: %llu (rounds: %d; without suppression it would be %d)\n\n",
              (unsigned long long)total, kInvocations, 3 * kInvocations);

  std::printf("## PDF rows (bin_us  density)\n");
  std::printf("%s\n", with.latency.table("with consistent time service").c_str());
  std::printf("%s\n", without.latency.table("without consistent time service").c_str());
  return 0;
}
