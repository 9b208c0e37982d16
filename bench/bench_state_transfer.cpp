// Benchmark: state-transfer cost vs replica state size (Section 3.2).
//
// Sweeps the size of the replica state and measures the full recovery
// cycle — GET_STATE ordering, the special CCS round, checkpoint
// serialization, fragmentation onto the wire (one MTU per fragment), and
// the drain of requests queued during the transfer.
//
// Expected shape: transfer time ≈ a fixed protocol cost (ring re-join +
// barrier + special round) plus a linear wire term (state bytes at
// 12.5 B/us on the 100 Mb/s LAN, serialized through the sender's NIC).
#include <cstdio>

#include "app/testbed.hpp"
#include "obs/recorder.hpp"

using namespace cts;
using namespace cts::app;

namespace {

struct Row {
  std::size_t state_entries;
  std::size_t checkpoint_bytes;
  std::uint64_t fragments;
  Micros transfer_us;
  bool consistent;
};

Row run(std::uint32_t entries) {
  TestbedConfig cfg;
  cfg.servers = 3;
  cfg.seed = 17;
  Testbed tb(cfg);
  tb.start();

  // Build up `entries` history entries of replica state.
  bool filled = false;
  tb.client().invoke(make_burst_request(entries), [&](const Bytes&) { filled = true; });
  while (!filled) tb.sim().run_until(tb.sim().now() + 1'000'000);
  tb.sim().run_for(1'000'000);

  tb.crash_server(2);
  tb.sim().run_for(2'000'000);

  const auto frags_before = tb.gcs_of(tb.server_node(0)).stats().fragments_sent +
                            tb.gcs_of(tb.server_node(1)).stats().fragments_sent;

  bool recovered = false;
  const Micros t0 = tb.sim().now();
  tb.restart_server(2, [&] { recovered = true; });
  const Micros deadline = tb.sim().now() + 600'000'000;
  while (!recovered && tb.sim().now() < deadline) tb.sim().run_until(tb.sim().now() + 1'000);
  const Micros transfer = tb.sim().now() - t0;
  tb.sim().run_for(2'000'000);

  const auto frags_after = tb.gcs_of(tb.server_node(0)).stats().fragments_sent +
                           tb.gcs_of(tb.server_node(1)).stats().fragments_sent;

  Row row;
  row.state_entries = entries;
  // The checkpoint is dominated by the history: 8 bytes per entry.
  row.checkpoint_bytes = static_cast<std::size_t>(entries) * 8 + 64;
  row.fragments = frags_after - frags_before;
  row.transfer_us = transfer;
  row.consistent = tb.server_app(2).time_history() == tb.server_app(0).time_history();
  obs::export_from_env({&tb.recorder()}, "bench_state_transfer.entries" + std::to_string(entries));
  return row;
}

}  // namespace

int main() {
  std::printf("# State transfer cost vs replica state size (Section 3.2 recovery)\n");
  std::printf("# 3-way active group; replica 3 crashes and rejoins via GET_STATE\n\n");
  std::printf("%-14s %16s %12s %14s %12s\n", "state_entries", "ckpt_bytes(~)", "fragments",
              "transfer_us", "consistent");
  for (std::uint32_t n : {100u, 500u, 2'000u, 8'000u, 20'000u}) {
    const Row r = run(n);
    std::printf("%-14zu %16zu %12llu %14lld %12s\n", r.state_entries, r.checkpoint_bytes,
                (unsigned long long)r.fragments, (long long)r.transfer_us,
                r.consistent ? "yes" : "NO");
  }
  std::printf("\nexpected shape: fixed protocol cost (~ms: ring re-join + quiescence barrier\n"
              "+ special CCS round) plus a linear wire term (~0.08 us/byte at 100 Mb/s,\n"
              "visible once the checkpoint spans many fragments).\n");
  return 0;
}
