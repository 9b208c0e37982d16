// Calibration benchmark: Totem token-passing time distribution.
//
// The paper relies on the measurement from [20]: "the peak probability
// density of the token passing time on our testbed is approximately 51us".
// Every inter-op delay in the evaluation is sized "comparable to the
// token-passing time", so the simulated Totem must land in the same
// regime.  This benchmark runs an idle 4-node ring and reports the per-hop
// token latency distribution.
#include <cstdio>
#include <memory>
#include <vector>

#include "common/histogram.hpp"
#include "net/network.hpp"
#include "obs/recorder.hpp"
#include "sim/simulator.hpp"
#include "totem/totem.hpp"

using namespace cts;

int main() {
  constexpr std::size_t kNodes = 4;
  constexpr int kHops = 100'000;

  sim::Simulator sim(7);
  net::Network net(sim, {});
  obs::Recorder rec(sim);
  net.set_recorder(&rec);
  totem::TotemConfig tcfg;
  for (std::uint32_t i = 0; i < kNodes; ++i) tcfg.universe.push_back(NodeId{i});

  std::vector<std::unique_ptr<totem::TotemNode>> nodes;
  Histogram per_hop(1, 200);      // 1us bins
  Histogram rotation(5, 2'000);   // full circulations
  Micros last_receipt = kNoTime;
  std::vector<Micros> receipt_at_n0;

  for (std::uint32_t i = 0; i < kNodes; ++i) {
    nodes.push_back(std::make_unique<totem::TotemNode>(sim, net, NodeId{i}, tcfg));
    nodes.back()->set_recorder(&rec);
    nodes.back()->set_token_observer([&, i] {
      const Micros now = sim.now();
      if (last_receipt != kNoTime) per_hop.add(now - last_receipt);
      last_receipt = now;
      if (i == 0) receipt_at_n0.push_back(now);
    });
  }
  for (auto& n : nodes) n->start();
  sim.run_for(100'000);  // ring formation
  last_receipt = kNoTime;
  receipt_at_n0.clear();

  while (per_hop.count() < kHops) sim.run_for(1'000'000);
  for (std::size_t i = 1; i < receipt_at_n0.size(); ++i) {
    rotation.add(receipt_at_n0[i] - receipt_at_n0[i - 1]);
  }

  std::printf("# Totem single-ring token latency, %zu idle nodes, %d hops\n\n", kNodes, kHops);
  std::printf("per-hop token passing time: mean=%.1f us, mode=%lld us, p50=%lld us, p99=%lld us\n",
              per_hop.mean(), (long long)per_hop.mode_bin(), (long long)per_hop.percentile(0.5),
              (long long)per_hop.percentile(0.99));
  std::printf("(paper [20]: peak probability density ~51 us per hop)\n\n");
  std::printf("full rotation (%zu hops): mean=%.1f us, mode=%lld us\n\n", kNodes,
              rotation.mean(), (long long)rotation.mode_bin());
  std::printf("%s\n", per_hop.table("per-hop token latency PDF").c_str());
  obs::export_from_env({&rec}, "bench_token_ring");
  return 0;
}
