// Tests for the observability layer: metrics registry, bounded trace log,
// JSON export of one or many recorders — and trace-based *behavioral*
// assertions over the protocol stack (a loss-free run retransmits nothing;
// exactly one synchronizer wins each CCS round; a promoted passive backup
// re-issues exactly one pending proposal; reentrant clock calls are
// rejected loudly, not silently).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "clock/physical_clock.hpp"
#include "common/rng.hpp"
#include "cts/consistent_time_service.hpp"
#include "gcs/gcs.hpp"
#include "net/network.hpp"
#include "obs/recorder.hpp"
#include "sim/simulator.hpp"
#include "totem/totem.hpp"

namespace cts::obs {
namespace {

using ccs::ConsistentTimeService;
using ccs::CtsConfig;
using ccs::ReplicationStyle;

constexpr GroupId kGroup{1};
constexpr ConnectionId kCcsConn{100};
constexpr ThreadId kThread0{0};

// --- Pure-unit: registry and trace log ------------------------------------------

TEST(MetricsRegistryTest, CounterIsStableAndNamed) {
  MetricsRegistry reg;
  Counter& c = reg.counter("layer.widgets");
  ++c;
  c += 4;
  EXPECT_EQ(reg.value("layer.widgets"), 5u);
  EXPECT_EQ(&reg.counter("layer.widgets"), &c);  // get-or-create returns the same slot
  EXPECT_EQ(reg.value("layer.missing"), 0u);     // value() never creates
}

TEST(MetricsRegistryTest, JsonContainsCountersGaugesHistograms) {
  MetricsRegistry reg;
  reg.counter("a.b") += 3;
  reg.set_gauge("g", -7);
  reg.histogram("h", 10, 100).add(42);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"a.b\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"g\": -7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"h\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos) << json;
}

TEST(TraceLogTest, CapsStorageButCountsEverything) {
  TraceLog log(4);
  for (int i = 0; i < 4; ++i) {
    log.record(i, EventKind::kTokenPass, 0, ReplicaId::kInvalid, i);
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.dropped(), 0u);
  for (int i = 4; i < 6; ++i) {
    log.record(i, EventKind::kTokenPass, 0, ReplicaId::kInvalid, i);
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.recorded(), 6u);
  EXPECT_EQ(log.dropped(), 2u);
  EXPECT_EQ(log.count(EventKind::kTokenPass), 4u);
  std::int64_t expect = 0;
  for (const TraceEvent& e : log) {
    EXPECT_EQ(e.at, expect);
    EXPECT_EQ(e.a, expect);
    ++expect;
  }
  EXPECT_EQ(expect, 4);
}

void expect_same(const TraceEvent& got, const TraceEvent& want, std::size_t i) {
  EXPECT_EQ(got.at, want.at) << "record " << i;
  EXPECT_EQ(got.kind, want.kind) << "record " << i;
  EXPECT_EQ(got.node, want.node) << "record " << i;
  EXPECT_EQ(got.replica, want.replica) << "record " << i;
  EXPECT_EQ(got.a, want.a) << "record " << i;
  EXPECT_EQ(got.b, want.b) << "record " << i;
  EXPECT_EQ(got.c, want.c) << "record " << i;
}

/// Decode the whole log and compare it field by field with `want`.
void expect_log_equals(const TraceLog& log, const std::vector<TraceEvent>& want) {
  ASSERT_EQ(log.size(), want.size());
  std::size_t i = 0;
  for (const TraceEvent& e : log) {
    ASSERT_LT(i, want.size());
    expect_same(e, want[i], i);
    if (::testing::Test::HasFailure()) return;
    ++i;
  }
  EXPECT_EQ(i, want.size());
}

/// a + d without signed overflow (the drawn values sit at the int64 limits).
std::int64_t wrap_add(std::int64_t a, std::int64_t d) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) + static_cast<std::uint64_t>(d));
}

/// Rng-drawn records covering every corner of the delta-varint encoding:
/// every kind byte (unknown ones too), INT64_MIN/MAX and 0 payloads, invalid
/// and almost-invalid ids, and equal, increasing and decreasing times.
std::vector<TraceEvent> random_events(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const auto payload = [&rng](std::int64_t prev) -> std::int64_t {
    switch (rng.below(6)) {
      case 0: return kMin;
      case 1: return kMax;
      case 2: return 0;
      case 3: return wrap_add(prev, rng.range(-3, 3));  // near the previous value
      case 4: return rng.range(-1000, 1000);
      default: return static_cast<std::int64_t>(rng.next());
    }
  };
  const auto id = [&rng](std::uint32_t invalid) -> std::uint32_t {
    switch (rng.below(4)) {
      case 0: return invalid;
      case 1: return invalid - 1;
      case 2: return static_cast<std::uint32_t>(rng.below(8));
      default: return static_cast<std::uint32_t>(rng.next());
    }
  };
  std::vector<TraceEvent> out;
  out.reserve(n);
  TraceEvent prev;
  for (std::size_t i = 0; i < n; ++i) {
    TraceEvent e;
    switch (rng.below(5)) {
      case 0: e.at = prev.at; break;
      case 1: e.at = wrap_add(prev.at, rng.range(1, 1000)); break;
      case 2: e.at = wrap_add(prev.at, -rng.range(1, 1000)); break;
      case 3: e.at = rng.below(2) ? kMin : kMax; break;
      default: e.at = static_cast<Micros>(rng.next()); break;
    }
    e.kind = static_cast<EventKind>(rng.below(2) ? rng.below(256) : rng.below(4));
    e.node = id(NodeId::kInvalid);
    e.replica = id(ReplicaId::kInvalid);
    e.a = payload(prev.a);
    e.b = payload(prev.b);
    e.c = payload(prev.c);
    out.push_back(e);
    prev = e;
  }
  return out;
}

TEST(TraceLogTest, RandomRecordsRoundTripExactly) {
  const std::vector<TraceEvent> want = random_events(17, 200'000);
  TraceLog log(want.size());
  for (const TraceEvent& e : want) log.record(e.at, e.kind, e.node, e.replica, e.a, e.b, e.c);
  EXPECT_EQ(log.dropped(), 0u);
  expect_log_equals(log, want);
  // Every kind byte was drawn, unknown ones included.
  std::vector<bool> seen(256, false);
  for (const TraceEvent& e : want) seen[static_cast<std::uint8_t>(e.kind)] = true;
  EXPECT_EQ(std::count(seen.begin(), seen.end(), true), 256);
}

TEST(TraceLogTest, ClearResetsTheDeltaState) {
  TraceLog log;
  for (const TraceEvent& e : random_events(3, 1000)) {
    log.record(e.at, e.kind, e.node, e.replica, e.a, e.b, e.c);
  }
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.recorded(), 0u);
  EXPECT_TRUE(log.begin() == log.end());
  const std::vector<TraceEvent> want = random_events(4, 1000);
  for (const TraceEvent& e : want) log.record(e.at, e.kind, e.node, e.replica, e.a, e.b, e.c);
  expect_log_equals(log, want);
}

TEST(TraceLogTest, JsonlNamesKindsAndNullsInvalidIds) {
  TraceLog log;
  log.record(12, EventKind::kSynchronizerWin, NodeId::kInvalid, 2, 7, 0, 0);
  const std::string jsonl = log.to_jsonl();
  EXPECT_NE(jsonl.find("\"kind\": \"synchronizer_win\""), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"node\": null"), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"replica\": 2"), std::string::npos) << jsonl;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(ExportTest, RecorderCountPicksTheFormat) {
  sim::Simulator sim_a(1), sim_b(2);
  Recorder a{sim_a}, b{sim_b};
  a.counter("island.a") += 1;
  b.counter("island.b") += 2;
  sim_a.at(5, [&a] { a.event(EventKind::kTokenPass, NodeId{0}); });
  sim_b.at(3, [&b] { b.event(EventKind::kTokenPass, NodeId{1}); });
  sim_a.run_until(10);
  sim_b.run_until(10);
  const std::string base = ::testing::TempDir() + "obs_test_export";

  // One recorder: its own registry (simulator stats synced in) and trace.
  ASSERT_TRUE(export_files({&a}, base + "1.metrics.json", base + "1.trace.jsonl"));
  const std::string one = slurp(base + "1.metrics.json");
  EXPECT_EQ(one, a.metrics().to_json());
  EXPECT_NE(one.find("\"sim.events_executed\": 1"), std::string::npos) << one;
  EXPECT_EQ(slurp(base + "1.trace.jsonl"), a.trace().to_jsonl());

  // Two: the island merge, ordered by time across islands.
  ASSERT_TRUE(export_files({&a, &b}, base + "2.metrics.json", base + "2.trace.jsonl"));
  EXPECT_EQ(slurp(base + "2.metrics.json"), merged_metrics_json({&a, &b}));
  const std::string merged = slurp(base + "2.trace.jsonl");
  EXPECT_EQ(merged, merged_trace_jsonl({&a, &b}));
  EXPECT_EQ(merged.rfind("{\"at\": 3, \"island\": 1,", 0), 0u) << merged;

  // An empty path skips that file; an unwritable one reports failure.
  EXPECT_TRUE(export_files({&a}, "", ""));
  EXPECT_FALSE(export_files({&a}, base + "-missing-dir/m.json", ""));
  for (const char* f : {"1.metrics.json", "1.trace.jsonl", "2.metrics.json", "2.trace.jsonl"}) {
    std::remove((base + f).c_str());
  }
}

// --- Behavioral: full CTS rig with a shared recorder ------------------------------

/// N hosts — Totem node, GCS endpoint, drifting physical clock, and a
/// ConsistentTimeService each — all observed by one Recorder, mirroring how
/// the Testbed wires its layers.
struct Rig {
  sim::Simulator sim;
  net::Network net;
  Recorder rec{sim};
  std::vector<std::unique_ptr<totem::TotemNode>> totems;
  std::vector<std::unique_ptr<gcs::GcsEndpoint>> eps;
  std::vector<std::unique_ptr<clock::PhysicalClock>> clocks;
  std::vector<std::unique_ptr<ConsistentTimeService>> svcs;
  std::vector<std::vector<Micros>> readings;

  explicit Rig(std::size_t n, ReplicationStyle style = ReplicationStyle::kActive,
               std::uint64_t seed = 1)
      : sim(seed), net(sim, {}) {
    net.set_recorder(&rec);
    totem::TotemConfig tcfg;
    for (std::uint32_t i = 0; i < n; ++i) tcfg.universe.push_back(NodeId{i});
    readings.resize(n);
    Rng clock_rng(seed * 7919 + 13);
    for (std::uint32_t i = 0; i < n; ++i) {
      totems.push_back(std::make_unique<totem::TotemNode>(sim, net, NodeId{i}, tcfg));
      eps.push_back(std::make_unique<gcs::GcsEndpoint>(sim, *totems.back()));
      eps.back()->set_recorder(&rec);  // wires the Totem node too
      clocks.push_back(std::make_unique<clock::PhysicalClock>(
          sim, clock::random_clock_config(clock_rng)));
      CtsConfig cfg;
      cfg.group = kGroup;
      cfg.ccs_conn = kCcsConn;
      cfg.replica = ReplicaId{i};
      cfg.style = style;
      svcs.push_back(
          std::make_unique<ConsistentTimeService>(sim, *eps.back(), *clocks.back(), cfg));
      svcs.back()->set_recorder(&rec);
      if (style != ReplicationStyle::kActive) svcs.back()->set_primary(i == 0);
    }
  }

  void start(Micros settle = 100'000) {
    for (std::uint32_t i = 0; i < totems.size(); ++i) {
      totems[i]->start();
      eps[i]->join_group(kGroup, ReplicaId{i});
    }
    sim.run_for(settle);
  }

  sim::Task reader(std::uint32_t i, int ops) {
    Rng rng(1000 + i);
    for (int k = 0; k < ops; ++k) {
      co_await sim.delay(rng.range(60, 400));
      readings[i].push_back(co_await svcs[i]->get_time(kThread0));
    }
  }

  void run_readers(int ops, Micros budget = 60'000'000) {
    for (std::uint32_t i = 0; i < svcs.size(); ++i) reader(i, ops);
    const Micros deadline = sim.now() + budget;
    while (sim.now() < deadline) {
      sim.run_until(sim.now() + 10'000);
      bool all_done = true;
      for (auto& r : readings) all_done &= (r.size() >= static_cast<std::size_t>(ops));
      if (all_done) return;
    }
  }
};

TEST(ObsTraceTest, LossFreeRunHasNoDropsRetransmitsOrStalledWindows) {
  Rig rig(3);
  rig.start();
  rig.run_readers(40);
  ASSERT_EQ(rig.readings[0].size(), 40u);

  const TraceLog& t = rig.rec.trace();
  // Negative space: a perfect network and an idle-enough ring mean nothing
  // was lost or corrupted, and the token never had to be resent.
  EXPECT_EQ(t.count(EventKind::kNetDrop), 0u);
  EXPECT_EQ(t.count(EventKind::kNetCorrupt), 0u);
  EXPECT_EQ(t.count(EventKind::kTokenRetransmit), 0u);
  // Message retransmits can occur even without loss: per-receiver jitter
  // lets the token overtake a multicast still in flight (~2.5 sigma tail),
  // and the receiver then requests the not-yet-arrived seq on the token.
  // Loss-free, that stays a rare accident — bounded, not zero.
  EXPECT_LE(t.count(EventKind::kMsgRetransmit), 2u);
  // Positive space: the run actually exercised the stack.
  EXPECT_GT(t.count(EventKind::kTokenPass), 0u);
  EXPECT_GT(t.count(EventKind::kGcsDeliver), 0u);
  EXPECT_GT(t.count(EventKind::kCcsRoundComplete), 0u);
  EXPECT_EQ(t.dropped(), 0u);

  // Metrics agree with the trace.
  EXPECT_EQ(rig.rec.metrics().value("net.packets_dropped"), 0u);
  EXPECT_GT(rig.rec.metrics().value("totem.token_passes"), 0u);
  EXPECT_GT(rig.rec.metrics().value("gcs.delivered"), 0u);
}

TEST(ObsTraceTest, ExactlyOneSynchronizerWinsEachRound) {
  Rig rig(3);
  rig.start();
  rig.run_readers(60);
  ASSERT_EQ(rig.readings[0].size(), 60u);

  // kSynchronizerWin is recorded only at the replica whose proposal was
  // ordered first, so group-wide each (round, thread) must appear exactly
  // once even though all three replicas complete every round.
  std::map<std::pair<std::int64_t, std::int64_t>, int> wins;
  for (const TraceEvent& e : rig.rec.trace().select(EventKind::kSynchronizerWin)) {
    ++wins[{e.a, e.b}];
  }
  EXPECT_GE(wins.size(), 60u);
  for (const auto& [key, n] : wins) {
    EXPECT_EQ(n, 1) << "round " << key.first << " thread " << key.second
                    << " won at " << n << " replicas";
  }

  // Every round completion (at every replica) carries a skew sample.
  EXPECT_EQ(rig.rec.trace().count(EventKind::kSkewSample),
            rig.rec.trace().count(EventKind::kCcsRoundComplete));
}

TEST(ObsTraceTest, PassiveFailoverReissuesExactlyOnePendingProposal) {
  // Paper Section 3.3: backups never transmit CCS proposals; when the
  // primary dies before its proposal for an in-flight round was delivered,
  // the promoted backup must send one — exactly one — so the round
  // completes with a consistent group clock at every survivor.
  Rig rig(3, ReplicationStyle::kPassive);
  rig.start();

  // Warm-up round with the primary alive: everyone reads once.
  rig.run_readers(1);
  ASSERT_EQ(rig.readings[0].size(), 1u);
  ASSERT_EQ(rig.readings[1], rig.readings[0]);
  ASSERT_EQ(rig.rec.trace().count(EventKind::kProposalResent), 0u);

  // Both backups start round 2; the primary never does, and crashes.
  rig.reader(1, 1);
  rig.reader(2, 1);
  rig.sim.run_for(5'000);  // backups are now blocked waiting for a proposal
  ASSERT_EQ(rig.readings[1].size(), 1u);
  rig.totems[0]->crash();
  rig.clocks[0]->fail();
  rig.sim.run_for(2'000'000);  // ring reforms without n0
  ASSERT_EQ(rig.readings[1].size(), 1u) << "round must not complete before promotion";

  // Promote backup 1: it re-issues the pending proposal for round 2.
  rig.svcs[1]->set_primary(true);
  const Micros deadline = rig.sim.now() + 30'000'000;
  while (rig.sim.now() < deadline &&
         (rig.readings[1].size() < 2 || rig.readings[2].size() < 2)) {
    rig.sim.run_until(rig.sim.now() + 10'000);
  }

  ASSERT_EQ(rig.readings[1].size(), 2u);
  ASSERT_EQ(rig.readings[2].size(), 2u);
  // Consistent group clock across the survivors, and monotone per replica.
  EXPECT_EQ(rig.readings[1][1], rig.readings[2][1]);
  EXPECT_GT(rig.readings[1][1], rig.readings[1][0]);

  const auto resent = rig.rec.trace().select(EventKind::kProposalResent);
  ASSERT_EQ(resent.size(), 1u);
  EXPECT_EQ(resent[0].replica, 1u);
  EXPECT_EQ(resent[0].a, kThread0.value);  // thread
  EXPECT_EQ(resent[0].b, 2);               // round number
  EXPECT_EQ(rig.svcs[1]->stats().proposals_resent, 1u);
}

TEST(ObsTraceTest, ReentrantClockCallIsRejectedLoudly) {
  // The NDEBUG-vanishing assert is gone: a second clock-related operation
  // on a thread with a round in flight is rejected with an error return
  // and a trace event, in every build mode.
  Rig rig(2);
  rig.start();

  Micros first = kNoTime;
  const bool ok = rig.svcs[0]->start_round(kThread0, ccs::ClockCallType::kGettimeofday,
                                           [&](Micros v) { first = v; });
  ASSERT_TRUE(ok);
  const bool second = rig.svcs[0]->start_round(kThread0, ccs::ClockCallType::kTime,
                                               [](Micros) { FAIL() << "must never run"; });
  EXPECT_FALSE(second);
  EXPECT_EQ(rig.svcs[0]->stats().reentrant_rejected, 1u);
  EXPECT_EQ(rig.rec.trace().count(EventKind::kCcsReentrantCall), 1u);
  EXPECT_EQ(rig.rec.metrics().value("cts.reentrant_rejected"), 1u);

  // The original round is unharmed and still completes.
  rig.reader(1, 1);  // the peer must also participate for the round to finish
  rig.sim.run_for(10'000'000);
  EXPECT_NE(first, kNoTime);
}

}  // namespace
}  // namespace cts::obs
