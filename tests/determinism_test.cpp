// Whole-stack determinism: identical seeds must reproduce identical
// executions — replies, replica state, wire statistics — even through
// fault schedules.  This property is what makes every other test in the
// repository meaningful (a flaky simulation cannot assert agreement), and
// it is the property a user relies on when replaying a failure from a
// seed.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <utility>

#include "app/kv_store.hpp"
#include "app/testbed.hpp"

namespace cts::app {
namespace {

using replication::ReplicationStyle;

struct Trace {
  std::vector<Micros> stamps;
  std::vector<std::uint64_t> digests;   // per live replica
  std::uint64_t ccs_wire = 0;
  std::uint64_t packets = 0;

  friend bool operator==(const Trace&, const Trace&) = default;
};

Trace run_time_server(std::uint64_t seed, ReplicationStyle style, bool with_faults) {
  TestbedConfig cfg;
  cfg.seed = seed;
  cfg.style = style;
  if (style == ReplicationStyle::kPassive) cfg.checkpoint_every = 5;
  Testbed tb(cfg);
  tb.start();

  Trace t;
  bool done = false;
  auto driver = [&]() -> sim::Task {
    for (int i = 0; i < 30; ++i) {
      co_await tb.sim().delay(700);
      const Bytes r = co_await tb.client().call(make_get_time_request());
      BytesReader rd(r);
      t.stamps.push_back(rd.i64() * 1'000'000 + rd.i64());
      if (with_faults && i == 10) tb.crash_server(2);
      if (with_faults && i == 18) tb.restart_server(2);
    }
    done = true;
  };
  driver();
  const Micros deadline = tb.sim().now() + 300'000'000;
  while (!done && tb.sim().now() < deadline) tb.sim().run_until(tb.sim().now() + 100'000);
  tb.sim().run_for(5'000'000);

  for (std::uint32_t s = 0; s < 3; ++s) {
    if (!tb.clock_of(tb.server_node(s)).alive() || !tb.server(s).recovered()) continue;
    std::uint64_t d = 1469598103ULL;
    for (Micros v : tb.server_app(s).time_history()) {
      d ^= static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ULL + (d << 6);
    }
    t.digests.push_back(d);
    t.ccs_wire += tb.gcs_of(tb.server_node(s)).stats().on_wire(gcs::MsgType::kCcs);
  }
  t.packets = tb.net().stats().packets_sent;
  // Fail-stop tripwire: even on the fault schedules, no replica ever read
  // its hardware clock while crashed.
  for (std::uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(tb.clock_of(tb.server_node(s)).reads_after_failure(), 0u) << "server " << s;
  }
  return t;
}

TEST(DeterminismTest, ActiveStyleBitIdenticalAcrossRuns) {
  const Trace a = run_time_server(11, ReplicationStyle::kActive, false);
  const Trace b = run_time_server(11, ReplicationStyle::kActive, false);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.stamps.size(), 30u);
}

TEST(DeterminismTest, SemiActiveStyleBitIdenticalAcrossRuns) {
  const Trace a = run_time_server(12, ReplicationStyle::kSemiActive, false);
  const Trace b = run_time_server(12, ReplicationStyle::kSemiActive, false);
  EXPECT_EQ(a, b);
}

TEST(DeterminismTest, PassiveStyleBitIdenticalAcrossRuns) {
  const Trace a = run_time_server(13, ReplicationStyle::kPassive, false);
  const Trace b = run_time_server(13, ReplicationStyle::kPassive, false);
  EXPECT_EQ(a, b);
}

TEST(DeterminismTest, IdenticalEvenThroughCrashAndRecovery) {
  const Trace a = run_time_server(14, ReplicationStyle::kActive, true);
  const Trace b = run_time_server(14, ReplicationStyle::kActive, true);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.stamps.size(), 30u);
}

TEST(DeterminismTest, DifferentSeedsProduceDifferentSchedules) {
  const Trace a = run_time_server(15, ReplicationStyle::kActive, false);
  const Trace b = run_time_server(16, ReplicationStyle::kActive, false);
  // Same workload, different jitter/clock draws: the value sequences must
  // differ (if they didn't, the "randomness" would not be exercising
  // anything).
  EXPECT_NE(a.stamps, b.stamps);
}

TEST(DeterminismTest, PartitionAndHealScheduleIsSeedStable) {
  // Regression for the hash-map iteration-order hazard: partition() and
  // heal() rebuild component_of_, and broadcast() draws per-receiver
  // randomness while walking handlers_ — both must iterate in NodeId order
  // for the post-heal schedule to replay from the seed.
  auto run = [](std::uint64_t seed) {
    TestbedConfig cfg;
    cfg.seed = seed;
    Testbed tb(cfg);
    tb.start();

    Trace t;
    bool done = false;
    auto driver = [&]() -> sim::Task {
      for (int i = 0; i < 24; ++i) {
        co_await tb.sim().delay(700);
        const Bytes r = co_await tb.client().call(make_get_time_request());
        BytesReader rd(r);
        t.stamps.push_back(rd.i64() * 1'000'000 + rd.i64());
        // Isolate server 2 mid-run, then heal: the survivors re-form the
        // ring, and the healed node merges back in.
        if (i == 8) tb.net().partition({std::vector<NodeId>{tb.server_node(2)}});
        if (i == 16) tb.net().heal();
      }
      done = true;
    };
    driver();
    const Micros deadline = tb.sim().now() + 300'000'000;
    while (!done && tb.sim().now() < deadline) tb.sim().run_until(tb.sim().now() + 100'000);
    tb.sim().run_for(5'000'000);

    for (std::uint32_t s = 0; s < 3; ++s) {
      if (!tb.clock_of(tb.server_node(s)).alive() || !tb.server(s).recovered()) continue;
      std::uint64_t d = 1469598103ULL;
      for (Micros v : tb.server_app(s).time_history()) {
        d ^= static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ULL + (d << 6);
      }
      t.digests.push_back(d);
      t.ccs_wire += tb.gcs_of(tb.server_node(s)).stats().on_wire(gcs::MsgType::kCcs);
    }
    t.packets = tb.net().stats().packets_sent;
    return t;
  };
  const Trace a = run(27);
  const Trace b = run(27);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.stamps.size(), 24u);
}

TEST(DeterminismTest, ExportedArtifactsAreByteIdenticalAcrossRuns) {
  // The acceptance bar for the observability layer: two identical-seed runs
  // must export byte-identical metrics JSON and trace JSONL, so a run can
  // be diffed against a replay with plain cmp(1).
  auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  auto run = [&](const std::string& label) {
    TestbedConfig cfg;
    cfg.seed = 31;
    Testbed tb(cfg);
    tb.start();
    bool done = false;
    auto driver = [&]() -> sim::Task {
      for (int i = 0; i < 12; ++i) {
        co_await tb.sim().delay(900);
        co_await tb.client().call(make_get_time_request());
      }
      done = true;
    };
    driver();
    const Micros deadline = tb.sim().now() + 120'000'000;
    while (!done && tb.sim().now() < deadline) tb.sim().run_until(tb.sim().now() + 100'000);
    tb.sim().run_for(2'000'000);
    const std::string metrics = label + ".metrics.json";
    const std::string trace = label + ".trace.jsonl";
    EXPECT_TRUE(tb.recorder().export_files(metrics, trace));
    return std::make_pair(slurp(metrics), slurp(trace));
  };
  const auto a = run("det_export_a");
  const auto b = run("det_export_b");
  ASSERT_FALSE(a.first.empty());
  ASSERT_FALSE(a.second.empty());
  EXPECT_EQ(a.first, b.first) << "metrics JSON differs between identical-seed runs";
  EXPECT_EQ(a.second, b.second) << "trace JSONL differs between identical-seed runs";
}

TEST(DeterminismTest, KvWorkloadIdenticalAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    TestbedConfig cfg;
    cfg.seed = seed;
    cfg.factory = kv_store_factory();
    cfg.lanes = 2;
    cfg.lane_fn = kv_lane_of;
    Testbed tb(cfg);
    tb.start();
    Rng rng(99);
    int done_count = 0;
    for (int i = 0; i < 25; ++i) {
      const std::string key = std::string("k").append(std::to_string(rng.below(6)));
      Bytes req = (i % 3 == 0) ? kv_acquire(key, 1 + rng.below(2), 5'000)
                               : kv_put(key, std::string("v").append(std::to_string(i)));
      tb.client().invoke(std::move(req), [&](const Bytes&) { ++done_count; });
    }
    const Micros deadline = tb.sim().now() + 120'000'000;
    while (done_count < 25 && tb.sim().now() < deadline) {
      tb.sim().run_until(tb.sim().now() + 100'000);
    }
    tb.sim().run_for(5'000'000);
    std::vector<std::uint64_t> digests;
    for (std::uint32_t s = 0; s < 3; ++s) {
      for (std::uint32_t sh = 0; sh < 2; ++sh) {
        digests.push_back(static_cast<KvStoreApp&>(tb.server(s).app(sh)).state_digest());
      }
    }
    return digests;
  };
  EXPECT_EQ(run(21), run(21));
}

}  // namespace
}  // namespace cts::app
