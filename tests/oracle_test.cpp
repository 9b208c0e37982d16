// Tests for the runtime ordering oracle (doc/STATIC_ANALYSIS.md).
//
// Three layers of coverage:
//   1. Injection: every check is driven directly (abort disabled) with a
//      violating history, proving the check actually fires — an oracle
//      that never fires is indistinguishable from one that verifies
//      nothing.
//   2. Negative controls: legal histories (including restarts, which
//      legitimately rewind cursors and round numbers) produce zero
//      violations.  The bounded-history tests repeat both at a scale that
//      crosses the pruning schedule, and check that landing on forgotten
//      history fires.
//   3. End-to-end: a randomized crash/restart fuzz over the full Testbed
//      stack with the oracle live on every delivery, and the sending-
//      representative crash handoff across groups (paper Section 5).
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "app/kv_store.hpp"
#include "app/testbed.hpp"
#include "app/time_server.hpp"
#include "clock/physical_clock.hpp"
#include "cts/consistent_time_service.hpp"
#include "cts/multigroup.hpp"
#include "gcs/gcs.hpp"
#include "net/network.hpp"
#include "obs/oracle.hpp"
#include "obs/recorder.hpp"
#include "sim/simulator.hpp"
#include "totem/totem.hpp"

namespace cts::obs {
namespace {

using Check = OrderingOracle::Check;

constexpr GroupId kGrp{1};
constexpr ConnectionId kConn{100};
constexpr ThreadId kThread{0};
constexpr std::uint8_t kType = 3;

/// A directly driven oracle with abort disabled, so violating histories
/// return instead of killing the test process.
struct OracleRig {
  sim::Simulator sim{1};
  MetricsRegistry metrics;
  TraceLog trace;
  OrderingOracle orc{sim, metrics, trace, /*abort_on_violation=*/false};

  /// Install one ring view of nodes 0..n-1 at every member.
  void view(std::uint32_t n) {
    std::vector<NodeId> members;
    for (std::uint32_t i = 0; i < n; ++i) members.push_back(NodeId{i});
    for (const NodeId m : members) orc.on_view_installed(m, /*ring_id=*/1, members);
  }

  /// Each of `nodes` delivers seqs [from, to] in order, and its Totem
  /// discards two seqs behind, as the safe horizon lags delivery.
  void deliver_range(std::initializer_list<std::uint32_t> nodes, MsgSeqNum from, MsgSeqNum to,
                     std::uint8_t salt = 0) {
    for (MsgSeqNum s = from; s <= to; ++s) {
      for (const std::uint32_t n : nodes) {
        deliver(n, s, static_cast<std::uint8_t>(s + salt), /*sender=*/0);
        if (s > 2) orc.on_totem_discard(NodeId{n}, s - 2);
      }
    }
  }

  /// Every replica in 0..n-1 proposes and completes rounds [from, to].
  void complete_rounds(std::uint32_t n, MsgSeqNum from, MsgSeqNum to, Micros value_base = 0) {
    for (MsgSeqNum round = from; round <= to; ++round) {
      const auto value = value_base + static_cast<Micros>(round) * 1'000;
      for (std::uint32_t rep = 0; rep < n; ++rep) {
        orc.on_ccs_send(kGrp, ReplicaId{rep}, kThread, round, value, false);
      }
      for (std::uint32_t rep = 0; rep < n; ++rep) {
        orc.on_round_complete(kGrp, ReplicaId{rep}, kThread, round, value, ReplicaId{0}, false);
      }
    }
  }

  [[nodiscard]] bool logged(const std::string& text) const {
    for (const auto& v : orc.violation_log()) {
      if (v.detail.find(text) != std::string::npos) return true;
    }
    return false;
  }

  /// Deliver `seq` at `node`; Totem carries it at the same seq.
  void deliver(std::uint32_t node, MsgSeqNum seq, std::uint8_t payload_byte,
               std::uint32_t sender = 9) {
    const std::uint8_t payload[1] = {payload_byte};
    orc.on_gcs_deliver(NodeId{node}, kGrp, kConn, kType, kThread, seq, NodeId{sender}, payload,
                       /*totem_seq=*/seq);
  }
};

// --- Total order ---------------------------------------------------------------

TEST(OracleInjection, OutOfOrderDeliveryFires) {
  OracleRig r;
  r.deliver(0, 1, 7);
  r.deliver(0, 2, 8);  // canonical order: seq1 then seq2
  r.deliver(1, 2, 8);
  r.deliver(1, 1, 7);  // node 1 sees them reversed
  EXPECT_EQ(r.orc.violations(Check::kTotalOrder), 1u);
  ASSERT_FALSE(r.orc.violation_log().empty());
  EXPECT_EQ(r.orc.violation_log().front().check, Check::kTotalOrder);
}

TEST(OracleInjection, PayloadDivergenceFires) {
  OracleRig r;
  r.deliver(0, 1, 7);
  r.deliver(1, 1, 8);  // same key, different bytes
  EXPECT_EQ(r.orc.violations(Check::kTotalOrder), 1u);
}

TEST(OracleNegative, AgreeingDeliveriesAreClean) {
  OracleRig r;
  for (std::uint32_t node : {0u, 1u, 2u}) {
    for (MsgSeqNum s = 1; s <= 4; ++s) r.deliver(node, s, static_cast<std::uint8_t>(s));
  }
  EXPECT_EQ(r.orc.violations(), 0u);
  EXPECT_GT(r.orc.checks_run(), 0u);
}

TEST(OracleNegative, NodeResetAllowsRedelivery) {
  OracleRig r;
  r.deliver(0, 1, 7);
  r.deliver(0, 2, 8);
  // Restart: recovery legitimately redelivers from an earlier point.
  r.orc.on_node_reset(NodeId{0});
  r.deliver(0, 1, 7);
  r.deliver(0, 2, 8);
  EXPECT_EQ(r.orc.violations(), 0u);
}

// --- Membership ----------------------------------------------------------------

TEST(OracleInjection, DeliveryFromOutsideViewFires) {
  OracleRig r;
  const std::vector<NodeId> members = {NodeId{0}, NodeId{1}};
  r.orc.on_view_installed(NodeId{0}, /*ring_id=*/7, members);
  r.deliver(0, 1, 7, /*sender=*/5);  // node 5 is not in the view
  EXPECT_EQ(r.orc.violations(Check::kMembership), 1u);
}

TEST(OracleNegative, MemberDeliveryIsClean) {
  OracleRig r;
  const std::vector<NodeId> members = {NodeId{0}, NodeId{1}};
  r.orc.on_view_installed(NodeId{0}, 7, members);
  r.deliver(0, 1, 7, /*sender=*/1);
  EXPECT_EQ(r.orc.violations(), 0u);
}

// --- Round agreement -----------------------------------------------------------

TEST(OracleInjection, ConflictingRoundValueFires) {
  OracleRig r;
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 1, 1'000, ReplicaId{0}, false);
  r.orc.on_round_complete(kGrp, ReplicaId{1}, kThread, 1, 1'001, ReplicaId{0}, false);
  EXPECT_EQ(r.orc.violations(Check::kAgreement), 1u);
}

TEST(OracleInjection, ConflictingSynchronizerFires) {
  OracleRig r;
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 1, 1'000, ReplicaId{0}, false);
  r.orc.on_round_complete(kGrp, ReplicaId{1}, kThread, 1, 1'000, ReplicaId{2}, false);
  EXPECT_EQ(r.orc.violations(Check::kAgreement), 1u);
}

// --- Clock monotonicity --------------------------------------------------------

TEST(OracleInjection, GroupClockRegressionFires) {
  OracleRig r;
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 1, 1'000, ReplicaId{0}, false);
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 2, 900, ReplicaId{0}, false);
  EXPECT_GE(r.orc.violations(Check::kClockMonotonicity), 1u);
}

TEST(OracleInjection, RepeatedRoundNumberFires) {
  OracleRig r;
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 2, 1'000, ReplicaId{0}, false);
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 2, 1'100, ReplicaId{0}, false);
  EXPECT_GE(r.orc.violations(Check::kClockMonotonicity), 1u);
}

TEST(OracleNegative, ReplicaResetResyncsRoundNumbersButNotValues) {
  OracleRig r;
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 5, 1'000, ReplicaId{0}, false);
  r.orc.on_replica_reset(kGrp, ReplicaId{0});
  // The rebuilt replica resumes from a checkpointed round counter...
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 3, 1'200, ReplicaId{0}, false);
  EXPECT_EQ(r.orc.violations(), 0u);
  // ...but its clock values must still move forward.
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 4, 800, ReplicaId{0}, false);
  EXPECT_GE(r.orc.violations(Check::kClockMonotonicity), 1u);
}

// --- Causal floor --------------------------------------------------------------

TEST(OracleInjection, ProposalAtOrBelowFloorFires) {
  OracleRig r;
  r.orc.on_stamp_observed(kGrp, ReplicaId{0}, 500);
  r.orc.on_ccs_send(kGrp, ReplicaId{0}, kThread, 1, /*proposed=*/500, false);  // == floor
  EXPECT_EQ(r.orc.violations(Check::kCausalFloor), 1u);
  r.orc.on_ccs_send(kGrp, ReplicaId{0}, kThread, 2, /*proposed=*/400, false);  // < floor
  EXPECT_EQ(r.orc.violations(Check::kCausalFloor), 2u);
}

TEST(OracleInjection, CompletionClampedBelowFloorFires) {
  OracleRig r;
  r.orc.on_stamp_observed(kGrp, ReplicaId{0}, 500);
  r.orc.on_ccs_send(kGrp, ReplicaId{0}, kThread, 1, /*proposed=*/600, false);
  EXPECT_EQ(r.orc.violations(), 0u);
  // The fast-forward guard clamped the winner's value below its own floor.
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 1, /*value=*/450, ReplicaId{0}, false);
  EXPECT_EQ(r.orc.violations(Check::kCausalFloor), 1u);
}

TEST(OracleNegative, ClampAboveFloorOnlyCounts) {
  OracleRig r;
  r.orc.on_stamp_observed(kGrp, ReplicaId{0}, 400);
  r.orc.on_ccs_send(kGrp, ReplicaId{0}, kThread, 1, /*proposed=*/600, false);
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 1, /*value=*/500, ReplicaId{0}, false);
  EXPECT_EQ(r.orc.violations(), 0u);
  EXPECT_EQ(r.metrics.counter("oracle.floor_checks_clamped").value, 1);
}

TEST(OracleNegative, ProposalAboveFloorIsClean) {
  OracleRig r;
  r.orc.on_stamp_observed(kGrp, ReplicaId{0}, 500);
  r.orc.on_ccs_send(kGrp, ReplicaId{0}, kThread, 1, 501, false);
  EXPECT_EQ(r.orc.violations(), 0u);
}

// --- Checkpoint chains ---------------------------------------------------------

TEST(OracleInjection, BrokenChainLinkFires) {
  OracleRig r;
  const std::vector<CheckpointLink> chain = {{10, 111, 0, 1'111}, {20, 222, 9'999, 2'222}};
  r.orc.on_checkpoint_chain(kGrp, ReplicaId{0}, chain, /*verified=*/true);
  EXPECT_EQ(r.orc.violations(Check::kCheckpoint), 1u);
}

TEST(OracleInjection, DecreasingCoverageFires) {
  OracleRig r;
  const std::vector<CheckpointLink> chain = {{20, 111, 0, 1'111}, {10, 222, 1'111, 2'222}};
  r.orc.on_checkpoint_chain(kGrp, ReplicaId{0}, chain, true);
  EXPECT_EQ(r.orc.violations(Check::kCheckpoint), 1u);
}

TEST(OracleInjection, UnverifiedChainFires) {
  OracleRig r;
  const std::vector<CheckpointLink> chain = {{10, 111, 0, 1'111}};
  r.orc.on_checkpoint_chain(kGrp, ReplicaId{0}, chain, /*verified=*/false);
  EXPECT_EQ(r.orc.violations(Check::kCheckpoint), 1u);
}

TEST(OracleInjection, CoverageRollbackWithinIncarnationFires) {
  OracleRig r;
  const std::vector<CheckpointLink> fresh = {{20, 111, 0, 1'111}};
  const std::vector<CheckpointLink> stale = {{10, 222, 0, 2'222}};
  r.orc.on_checkpoint_chain(kGrp, ReplicaId{0}, fresh, true);
  r.orc.on_checkpoint_chain(kGrp, ReplicaId{0}, stale, true);
  EXPECT_EQ(r.orc.violations(Check::kCheckpoint), 1u);
}

TEST(OracleNegative, StaleDiskAfterRestartIsClean) {
  OracleRig r;
  const std::vector<CheckpointLink> fresh = {{20, 111, 0, 1'111}};
  const std::vector<CheckpointLink> stale = {{10, 222, 0, 2'222}};
  r.orc.on_checkpoint_chain(kGrp, ReplicaId{0}, fresh, true);
  // A cold start from a stale disk re-adopts older coverage, then catches
  // up via state transfer; that is not a rollback.
  r.orc.on_replica_reset(kGrp, ReplicaId{0});
  r.orc.on_checkpoint_chain(kGrp, ReplicaId{0}, stale, true);
  EXPECT_EQ(r.orc.violations(), 0u);
}

TEST(OracleInjection, NonIncreasingRecoveryEpochFires) {
  OracleRig r;
  r.orc.on_recovery_epoch(kGrp, ReplicaId{0}, 5);
  r.orc.on_recovery_epoch(kGrp, ReplicaId{0}, 5);
  EXPECT_EQ(r.orc.violations(Check::kCheckpoint), 1u);
  r.orc.on_recovery_epoch(kGrp, ReplicaId{0}, 4);
  EXPECT_EQ(r.orc.violations(Check::kCheckpoint), 2u);
}

// --- Group cold restart --------------------------------------------------------

TEST(OracleNegative, GroupResetClearsAgreementAndCanon) {
  OracleRig r;
  r.deliver(0, 1, 7);
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 1, 1'000, ReplicaId{0}, false);
  // Total failure: connection sequences and round numbers restart, values
  // climb above everything handed out before.
  r.orc.on_node_reset(NodeId{0});
  r.orc.on_replica_reset(kGrp, ReplicaId{0});
  r.orc.on_group_reset(kGrp);
  r.deliver(0, 1, 9);  // same key, new payload: a NEW message, not divergence
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 1, 2'000, ReplicaId{0}, false);
  EXPECT_EQ(r.orc.violations(), 0u);
}

TEST(OracleInjection, GroupResetStillRequiresValueMonotonicity) {
  OracleRig r;
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 1, 2'000, ReplicaId{0}, false);
  r.orc.on_replica_reset(kGrp, ReplicaId{0});
  r.orc.on_group_reset(kGrp);
  // The restored state must force the clock above pre-outage readings.
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 1, 1'500, ReplicaId{0}, false);
  EXPECT_GE(r.orc.violations(Check::kClockMonotonicity), 1u);
}

// --- Bounded history -----------------------------------------------------------
//
// Enough traffic to cross the doubling pruning schedule many times over;
// the bound on retained history is far below it.

constexpr MsgSeqNum kScale = 4'000;
constexpr std::size_t kBounded = 200;

TEST(OracleInjection, SyncedRedeliveryOfForgottenKeyFires) {
  OracleRig r;
  r.view(3);
  r.deliver_range({0, 1, 2}, 1, kScale);
  EXPECT_EQ(r.orc.violations(), 0u);
  EXPECT_LT(r.orc.history_entries(), kBounded);
  r.deliver(0, 5, 5, /*sender=*/0);  // every member passed seq 5 long ago
  EXPECT_EQ(r.orc.violations(Check::kTotalOrder), 1u);
  EXPECT_EQ(r.orc.violations(), 1u);
  EXPECT_TRUE(r.logged("delivery of forgotten key on grp 1 conn 100 type 3 tag 0 seq 5"));
}

TEST(OracleInjection, ReusedKeyWithNewPayloadAfterEveryMemberPassedFires) {
  // A promoted primary that restarts a stream's seqs sends old keys with
  // new bytes; a node whose GCS filter restarted with it delivers them.
  OracleRig r;
  r.view(3);
  r.deliver_range({0, 1, 2}, 1, kScale);
  r.orc.on_node_reset(NodeId{2});
  r.deliver(2, 1, 0xEE, /*sender=*/0);
  EXPECT_EQ(r.orc.violations(Check::kTotalOrder), 1u);
  EXPECT_TRUE(r.logged("delivery of forgotten key on grp 1 conn 100 type 3 tag 0 seq 1"));
  // Inside the re-send window the original payload is still there to
  // compare against.
  r.orc.on_node_reset(NodeId{2});
  r.deliver(2, kScale - 1, 0xEE, /*sender=*/0);
  EXPECT_EQ(r.orc.violations(Check::kTotalOrder), 2u);
  EXPECT_TRUE(r.logged("payload divergence on grp 1 conn 100 type 3 tag 0 seq " +
                       std::to_string(kScale - 1)));
}

TEST(OracleInjection, CompletionOfForgottenRoundFires) {
  OracleRig r;
  r.complete_rounds(3, 1, kScale);
  EXPECT_EQ(r.orc.violations(), 0u);
  EXPECT_LT(r.orc.history_entries(), kBounded);
  // A rebuilt replica re-runs round 3 with a fresh (higher) value.
  r.orc.on_replica_reset(kGrp, ReplicaId{1});
  r.orc.on_round_complete(kGrp, ReplicaId{1}, kThread, 3, (kScale + 1) * 1'000, ReplicaId{0},
                          false);
  EXPECT_EQ(r.orc.violations(Check::kAgreement), 1u);
  EXPECT_EQ(r.orc.violations(), 1u);
  EXPECT_TRUE(r.logged("round (thread 0, seq 3) on grp 1"));
}

TEST(OracleNegative, ViewMemberWithoutCursorHoldsWatermark) {
  OracleRig r;
  r.view(3);
  r.deliver_range({0, 1}, 1, kScale);  // node 2 is in the view but silent
  EXPECT_GE(r.orc.history_entries(), kScale);
  r.deliver_range({2}, 1, kScale);  // ...and catches up late
  EXPECT_EQ(r.orc.violations(), 0u);
  // Once it has discarded too, the history shrinks back.
  r.deliver_range({0, 1, 2}, kScale + 1, 3 * kScale);
  EXPECT_EQ(r.orc.violations(), 0u);
  EXPECT_LT(r.orc.history_entries(), kBounded);
}

TEST(OracleNegative, StaleCursorOfCrashedMemberHoldsWatermark) {
  OracleRig r;
  r.view(3);
  r.deliver_range({0, 1, 2}, 1, 1'000);
  // Node 2 crashes: no more deliveries or discards, still in every view.
  r.deliver_range({0, 1}, 1'001, kScale);
  EXPECT_GE(r.orc.history_entries(), kScale - 1'000);
  // It restarts and is redelivered from just past its last discard.
  r.orc.on_node_reset(NodeId{2});
  r.deliver_range({2}, 999, kScale);
  EXPECT_EQ(r.orc.violations(), 0u);
}

TEST(OracleNegative, NodeResetAllowsRedeliveryAtScale) {
  OracleRig r;
  r.view(3);
  r.deliver_range({0, 1, 2}, 1, kScale);
  EXPECT_LT(r.orc.history_entries(), kBounded);
  // Restart: the node is redelivered what Totem still holds, and the
  // replies a promoted backup re-sends from its cache.
  r.orc.on_node_reset(NodeId{0});
  for (MsgSeqNum s = kScale - OrderingOracle::kResendWindow + 1; s <= kScale; ++s) {
    r.deliver(0, s, static_cast<std::uint8_t>(s), /*sender=*/0);
  }
  EXPECT_EQ(r.orc.violations(), 0u);
}

TEST(OracleNegative, ReplicaResetResyncsRoundNumbersButNotValuesAtScale) {
  OracleRig r;
  r.complete_rounds(3, 1'000, 1'000 + kScale);
  EXPECT_LT(r.orc.history_entries(), kBounded);
  r.orc.on_replica_reset(kGrp, ReplicaId{0});
  // The rebuilt replica resumes from a checkpointed round counter below
  // anything recorded: never recorded, so not forgotten...
  const Micros last = (1'000 + kScale) * 1'000;
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 3, last + 200, ReplicaId{0}, false);
  EXPECT_EQ(r.orc.violations(), 0u);
  // ...but its clock values must still move forward.
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 4, 800, ReplicaId{0}, false);
  EXPECT_GE(r.orc.violations(Check::kClockMonotonicity), 1u);
  EXPECT_EQ(r.orc.violations(Check::kAgreement), 0u);
}

TEST(OracleNegative, GroupResetClearsAgreementAndCanonAtScale) {
  OracleRig r;
  r.view(3);
  r.deliver_range({0, 1, 2}, 1, kScale);
  r.complete_rounds(3, 1, kScale);
  EXPECT_LT(r.orc.history_entries(), kBounded);
  // Total failure: connection sequences and round numbers restart (also
  // below everything forgotten), values climb above everything before.
  for (std::uint32_t i = 0; i < 3; ++i) {
    r.orc.on_node_reset(NodeId{i});
    r.orc.on_replica_reset(kGrp, ReplicaId{i});
  }
  r.orc.on_group_reset(kGrp);
  r.deliver_range({0, 1, 2}, 1, kScale, /*salt=*/1);  // same keys, new payloads
  r.complete_rounds(3, 1, kScale, /*value_base=*/kScale * 1'000);
  EXPECT_EQ(r.orc.violations(), 0u);
  EXPECT_LT(r.orc.history_entries(), kBounded);
}

// --- Bookkeeping ---------------------------------------------------------------

TEST(OracleTest, ViolationCountersAndNamesLineUp) {
  OracleRig r;
  r.orc.on_stamp_observed(kGrp, ReplicaId{0}, 500);
  r.orc.on_ccs_send(kGrp, ReplicaId{0}, kThread, 1, 100, false);
  EXPECT_EQ(r.metrics.counter("oracle.violations").value, 1);
  EXPECT_EQ(r.metrics.counter("oracle.violations.causal_floor").value, 1);
  EXPECT_EQ(r.metrics.counter("oracle.checks_run").value,
            static_cast<std::int64_t>(r.orc.checks_run()));
  EXPECT_EQ(std::string(OrderingOracle::check_name(Check::kCausalFloor)), "causal_floor");
  ASSERT_EQ(r.orc.violation_log().size(), 1u);
  EXPECT_FALSE(r.orc.violation_log().front().detail.empty());
}

}  // namespace
}  // namespace cts::obs

// --- End-to-end: fuzzed crash/restart under the live oracle --------------------

namespace cts::app {
namespace {

struct OracleFuzzParam {
  std::uint64_t seed;
  double loss;
  std::uint32_t lanes;
};

class OracleCrashFuzz : public ::testing::TestWithParam<OracleFuzzParam> {};

// The Testbed's default oracle aborts on the first violation, so merely
// finishing is already a verdict; the explicit zero-violation assert below
// documents the invariant and catches an oracle that was never wired.
TEST_P(OracleCrashFuzz, RandomizedFaultScheduleStaysClean) {
  const auto p = GetParam();
  TestbedConfig cfg;
  cfg.servers = 3;
  cfg.seed = p.seed;
  cfg.factory = kv_store_factory();
  cfg.lanes = p.lanes;
  if (p.lanes > 1) cfg.lane_fn = kv_lane_of;
  cfg.net.loss_probability = p.loss;
  Testbed tb(cfg);
  tb.start();
  auto* orc = tb.recorder().oracle();
  ASSERT_NE(orc, nullptr) << "Testbed should enable the oracle by default";

  Rng fuzz(p.seed * 31 + 7);
  int issued = 0, answered = 0;
  bool down[3] = {false, false, false};
  bool recovering[3] = {false, false, false};
  for (int step = 0; step < 80; ++step) {
    tb.sim().run_for(fuzz.range(500, 5'000));
    const auto dice = fuzz.below(10);
    if (dice == 0) {
      int live = 0;
      for (bool d : down) live += !d;
      const auto victim = fuzz.below(3);
      if (live > 2 && !down[victim] && !recovering[victim]) {
        down[victim] = true;
        tb.crash_server(static_cast<std::uint32_t>(victim));
      }
    } else if (dice == 1) {
      for (std::uint32_t v = 0; v < 3; ++v) {
        if (down[v] && !recovering[v]) {
          recovering[v] = true;
          tb.restart_server(v, [&, v] {
            down[v] = false;
            recovering[v] = false;
          });
          break;
        }
      }
    } else {
      ++issued;
      tb.client().invoke(kv_put(std::string("k").append(std::to_string(fuzz.below(8))), "v", 0),
                         [&](const Bytes&) { ++answered; });
    }
  }
  for (std::uint32_t v = 0; v < 3; ++v) {
    if (down[v] && !recovering[v]) {
      recovering[v] = true;
      tb.restart_server(v, [&, v] {
        down[v] = false;
        recovering[v] = false;
      });
    }
  }
  const Micros deadline = tb.sim().now() + 600'000'000;
  while (tb.sim().now() < deadline && answered < issued) {
    tb.sim().run_until(tb.sim().now() + 100'000);
  }

  EXPECT_GT(answered, 0) << "seed " << p.seed << ": no progress under the oracle";
  EXPECT_GT(orc->checks_run(), 0u);
  EXPECT_EQ(orc->violations(), 0u) << "seed " << p.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, OracleCrashFuzz,
    ::testing::Values(OracleFuzzParam{31, 0.0, 1}, OracleFuzzParam{32, 0.02, 1},
                      OracleFuzzParam{33, 0.05, 2}, OracleFuzzParam{34, 0.05, 4}),
    [](const ::testing::TestParamInfo<OracleFuzzParam>& i) {
      return "seed" + std::to_string(i.param.seed) + "_loss" +
             std::to_string(static_cast<int>(i.param.loss * 100)) + "_sh" +
             std::to_string(i.param.lanes);
    });

// --- End-to-end: bounded history on the paper's Figure 5 set-up -----------------

sim::Task get_time_loop(Testbed& tb, int ops, int& done) {
  for (int i = 0; i < ops; ++i) {
    co_await tb.client().call(make_get_time_request());
    ++done;
  }
}

TEST(OracleMemory, HistoryStaysBoundedUnderBackToBackGetTime) {
  // 1 ring x 3 active TimeServerApp replicas, one client issuing GET_TIME
  // back to back.  Unpruned, the history grows by several entries per op
  // (a request, a reply, a round and its proposals); pruned, its peak over
  // the last stretch before 4N ops stays where it was before N.
  Testbed tb(TestbedConfig{});
  tb.start();
  const auto* orc = tb.recorder().oracle();
  ASSERT_NE(orc, nullptr);
  constexpr int kOps = 1'000;
  int done = 0;
  get_time_loop(tb, 4 * kOps, done);
  const auto peak_until = [&](int target) {
    std::size_t peak = 0;
    const Micros deadline = tb.sim().now() + 60'000'000;
    while (done < target && tb.sim().now() < deadline) {
      tb.sim().run_until(tb.sim().now() + 1'000);
      if (done > target - kOps / 2) peak = std::max(peak, orc->history_entries());
    }
    return peak;
  };
  const std::size_t peak_n = peak_until(kOps);
  const std::size_t peak_4n = peak_until(4 * kOps);
  ASSERT_EQ(done, 4 * kOps);
  EXPECT_EQ(orc->violations(), 0u);
  EXPECT_GT(orc->checks_run(), static_cast<std::uint64_t>(4 * kOps));
  EXPECT_LE(peak_4n, peak_n + 32) << "peak near N: " << peak_n << ", near 4N: " << peak_4n;
  EXPECT_LT(peak_4n, static_cast<std::size_t>(kOps));
}

}  // namespace
}  // namespace cts::app

// --- End-to-end: representative crash mid inter-group handoff ------------------

namespace cts::ccs {
namespace {

constexpr GroupId kGroupA{10};
constexpr GroupId kGroupB{11};
constexpr ConnectionId kCcsConnA{100};
constexpr ConnectionId kCcsConnB{101};
constexpr ConnectionId kInterConn{200};
constexpr ThreadId kThread{0};

sim::Task read_clock_push(ConsistentTimeService& svc, std::vector<Micros>& out) {
  out.push_back(co_await svc.get_time(kThread));
}

/// Two replica groups (2 replicas each) on one 4-node ring, with a live
/// (non-aborting) oracle observing every layer.  Group A's clocks run
/// ahead of group B's so an unstamped handoff WOULD violate causality.
struct ObservedTwoGroupRig {
  sim::Simulator sim{1};
  net::Network net;
  obs::Recorder rec{sim};
  obs::OrderingOracle* orc;
  std::vector<std::unique_ptr<totem::TotemNode>> totems;
  std::vector<std::unique_ptr<gcs::GcsEndpoint>> eps;
  std::vector<std::unique_ptr<clock::PhysicalClock>> clocks;
  std::vector<std::unique_ptr<ConsistentTimeService>> svcs;  // 0,1=A; 2,3=B
  std::vector<std::unique_ptr<CausalMessenger>> messengers;

  explicit ObservedTwoGroupRig(Micros gap_us) : net(sim, {}) {
    orc = &rec.enable_oracle(/*abort_on_violation=*/false);
    totem::TotemConfig tcfg;
    for (std::uint32_t i = 0; i < 4; ++i) tcfg.universe.push_back(NodeId{i});
    for (std::uint32_t i = 0; i < 4; ++i) {
      const bool in_a = i < 2;
      totems.push_back(std::make_unique<totem::TotemNode>(sim, net, NodeId{i}, tcfg));
      eps.push_back(std::make_unique<gcs::GcsEndpoint>(sim, *totems.back()));
      eps.back()->set_recorder(&rec);
      clock::ClockConfig ccfg;
      ccfg.initial_offset_us = in_a ? gap_us : 0;
      clocks.push_back(std::make_unique<clock::PhysicalClock>(sim, ccfg));
      CtsConfig cfg;
      cfg.group = in_a ? kGroupA : kGroupB;
      cfg.ccs_conn = in_a ? kCcsConnA : kCcsConnB;
      cfg.replica = ReplicaId{i % 2};
      svcs.push_back(
          std::make_unique<ConsistentTimeService>(sim, *eps.back(), *clocks.back(), cfg));
      svcs.back()->set_recorder(&rec);
      messengers.push_back(
          std::make_unique<CausalMessenger>(*eps.back(), *svcs.back(), cfg.group, kThread));
    }
    for (std::uint32_t i = 0; i < 4; ++i) {
      totems[i]->start();
      eps[i]->join_group(i < 2 ? kGroupA : kGroupB, ReplicaId{i % 2});
    }
    sim.run_for(100'000);
  }
};

TEST(OracleMultigroupTest, RepresentativeCrashMidHandoffKeepsCausality) {
  // Group A is 300ms ahead.  Both A replicas start the same stamped send;
  // A's representative (node 0) crashes while the stamping round is in
  // flight.  The backup replica's identical message completes the handoff,
  // the ring reconfigures around the dead node, and the oracle must see a
  // fully causal history: zero floor violations, zero anything else.
  ObservedTwoGroupRig rig(300'000);

  Micros a_ts = 0;
  std::vector<Micros> b_reads;
  for (std::uint32_t i : {2u, 3u}) {
    rig.messengers[i]->subscribe(kInterConn, [&, i](const gcs::Message&, Micros, const Bytes&) {
      read_clock_push(*rig.svcs[i], b_reads);
    });
  }
  for (std::uint32_t i : {0u, 1u}) {
    rig.messengers[i]->stamp_and_send(kGroupB, kInterConn, 1, Bytes{42},
                                      [&](Micros ts) { a_ts = ts; });
  }
  // Fail-stop A's representative before the stamping round can settle: the
  // proposal is on the wire, the stamped user message is not.
  rig.sim.after(2'000, [&] {
    rig.orc->on_node_reset(NodeId{0});
    rig.totems[0]->scope().shutdown();
  });
  rig.sim.run_for(20'000'000);

  ASSERT_NE(a_ts, 0) << "the surviving A replica never completed the stamping round";
  ASSERT_EQ(b_reads.size(), 2u) << "stamped handoff lost in the crash";
  for (const Micros b : b_reads) {
    EXPECT_GT(b, a_ts) << "B read below the stamp: causality broken by the crash";
  }
  EXPECT_EQ(rig.orc->violations(obs::OrderingOracle::Check::kCausalFloor), 0u);
  EXPECT_EQ(rig.orc->violations(), 0u);
  EXPECT_GT(rig.orc->checks_run(), 0u);
}

}  // namespace
}  // namespace cts::ccs
