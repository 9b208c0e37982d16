// Reproduces paper Figure 6: skew and drift of the consistent time service.
//
// Setup (paper Section 4.2, experiment 2): one remote invocation triggers a
// sequence of 10,000 clock-related operations at each server replica, with
// a random busy-wait between consecutive operations (60-400us, comparable
// to the token-passing time) so the synchronizer rotates randomly.
//
// Output:
//   (a) the interval between two consecutive clock-related operations at
//       each replica, measured with the physical hardware clock and with
//       the group clock, for the first 20 rounds;
//   (b) the clock offset of the replica that wins the first round, over
//       the first 20 rounds (expected: occasionally increasing, overall
//       decreasing trend);
//   (c) normalized physical hardware clocks vs the group clock (expected:
//       the group clock runs slower than real time).
#include <cstdio>
#include <vector>

#include "app/testbed.hpp"
#include "obs/recorder.hpp"

using namespace cts;
using namespace cts::app;

namespace {

constexpr int kRounds = 10'000;
constexpr int kShow = 20;

struct PerRound {
  Micros group_clock = 0;
  Micros physical_clock = 0;
  Micros offset_after = 0;
  std::uint32_t winner = 0;
};

}  // namespace

int main() {
  TestbedConfig cfg;
  cfg.servers = 3;
  cfg.seed = 42;
  // The paper synchronizes replica 1's clock with real time; the others
  // are unsynchronized.  Random offsets model that; drift stays realistic.
  Testbed tb(cfg);

  std::vector<std::vector<PerRound>> rounds(3);
  for (std::uint32_t s = 0; s < 3; ++s) {
    tb.server(s).time_service().set_round_observer([&rounds, s](const ccs::RoundResult& rr) {
      rounds[s].push_back(
          PerRound{rr.group_clock, rr.physical_clock, rr.offset_after, rr.winner_replica.value});
    });
  }
  tb.start();

  bool done = false;
  tb.client().invoke(make_burst_request(kRounds), [&](const Bytes&) { done = true; });
  while (!done) tb.sim().run_until(tb.sim().now() + 1'000'000);
  tb.sim().run_for(2'000'000);

  std::printf("# Figure 6: first %d rounds of the consistent clock synchronization algorithm\n",
              kShow);
  std::printf("# (%d total rounds; inter-op busy-wait 60-400us as in the paper)\n\n", kRounds);

  // --- (a) clock-read intervals -------------------------------------------------
  std::printf("## (a) Interval between consecutive clock-related operations (us)\n");
  std::printf("%-6s %-8s", "round", "winner");
  for (int s = 1; s <= 3; ++s) std::printf("  r%d_phys r%d_group", s, s);
  std::printf("\n");
  for (int k = 1; k < kShow; ++k) {
    std::printf("%-6d r%-7u", k + 1, rounds[0][k].winner + 1);
    for (std::uint32_t s = 0; s < 3; ++s) {
      const Micros dp = rounds[s][k].physical_clock - rounds[s][k - 1].physical_clock;
      const Micros dg = rounds[s][k].group_clock - rounds[s][k - 1].group_clock;
      std::printf("  %7lld %8lld", (long long)dp, (long long)dg);
    }
    std::printf("\n");
  }

  // --- (b) offset of the first-round winner -------------------------------------
  const std::uint32_t w0 = rounds[0][0].winner;
  std::printf("\n## (b) Clock offset at the first-round winner (replica %u), per round\n",
              w0 + 1);
  std::printf("%-6s %12s %10s\n", "round", "offset_us", "delta");
  Micros prev_off = 0;
  int increases = 0;
  for (int k = 0; k < kShow; ++k) {
    const Micros off = rounds[w0][k].offset_after;
    std::printf("%-6d %12lld %10lld\n", k + 1, (long long)off, (long long)(k ? off - prev_off : 0));
    if (k > 0 && off > prev_off) ++increases;
    prev_off = off;
  }
  int increases_total = 0;
  for (int k = 1; k < kRounds; ++k) {
    if (rounds[w0][k].offset_after > rounds[w0][k - 1].offset_after) ++increases_total;
  }
  std::printf("offset increased in %d of the first %d rounds; %d of all %d rounds "
              "(paper: rare increases, overall decreasing)\n",
              increases, kShow, increases_total, kRounds);
  std::printf("offset after round 1: %lld us; after round %d: %lld us\n",
              (long long)rounds[w0][0].offset_after, kRounds,
              (long long)rounds[w0][kRounds - 1].offset_after);

  // --- (c) normalized clocks vs group clock --------------------------------------
  std::printf("\n## (c) Normalized clocks per round (us since each clock's initial round)\n");
  std::printf("%-6s %10s %10s %10s %10s\n", "round", "group", "r1_phys", "r2_phys", "r3_phys");
  for (int k = 0; k < kShow; ++k) {
    std::printf("%-6d %10lld", k + 1,
                (long long)(rounds[0][k].group_clock - rounds[0][0].group_clock));
    for (std::uint32_t s = 0; s < 3; ++s) {
      std::printf(" %10lld",
                  (long long)(rounds[s][k].physical_clock - rounds[s][0].physical_clock));
    }
    std::printf("\n");
  }

  // Long-horizon drift summary (the visible gap in the paper's plot).
  const Micros grp_span = rounds[0][kRounds - 1].group_clock - rounds[0][0].group_clock;
  const Micros phys_span =
      rounds[0][kRounds - 1].physical_clock - rounds[0][0].physical_clock;
  std::printf("\n## Drift summary over %d rounds\n", kRounds);
  std::printf("physical clock span: %lld us, group clock span: %lld us\n", (long long)phys_span,
              (long long)grp_span);
  std::printf("group clock ran %lld us slower than the physical clocks "
              "(paper: 'the group clock runs slower than real time')\n",
              (long long)(phys_span - grp_span));

  // Winner distribution (paper: 'the synchronizer ... is constantly
  // changing from one replica to another').
  std::uint64_t wins[3] = {0, 0, 0};
  for (int k = 0; k < kRounds; ++k) ++wins[rounds[0][k].winner];
  std::printf("\n## Synchronizer distribution over %d rounds\n", kRounds);
  for (int s = 0; s < 3; ++s) {
    std::printf("  replica %d: %llu wins\n", s + 1, (unsigned long long)wins[s]);
  }
  obs::export_from_env({&tb.recorder()}, "bench_fig6_skew_drift");
  return 0;
}
