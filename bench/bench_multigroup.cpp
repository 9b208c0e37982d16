// Benchmark: multi-group causality (paper Section 5, future work).
//
// Two replicated services share one ring; the sender group's clocks run
// AHEAD of the receiver group's by a configurable gap.  The sender reads
// its group clock and notifies the receiver, which logs the event with its
// own group clock.  A causality violation = the log entry is timestamped
// at or before the event that caused it.
//
// Sweep: the inter-group clock gap, with plain messages vs CausalMessenger
// stamping.  Expected shape: plain messages violate causality as soon as
// the gap exceeds the round latency (~100 per cent beyond a few hundred
// microseconds); stamped messages never violate it, at the cost of raising
// the receiver's clock.
#include <cstdio>
#include <memory>
#include <vector>

#include "clock/physical_clock.hpp"
#include "cts/consistent_time_service.hpp"
#include "cts/multigroup.hpp"
#include "gcs/gcs.hpp"
#include "net/network.hpp"
#include "obs/recorder.hpp"
#include "sim/simulator.hpp"
#include "totem/totem.hpp"

using namespace cts;
using namespace cts::ccs;

namespace {

constexpr GroupId kSender{10};
constexpr GroupId kReceiver{11};
constexpr ConnectionId kSenderCcs{100};
constexpr ConnectionId kReceiverCcs{101};
constexpr ConnectionId kEvents{200};
constexpr ThreadId kThread{0};
constexpr int kEvents_n = 50;

struct Result {
  int violations = 0;
  Micros mean_skew = 0;  // receiver reading − event timestamp (can be < 0)
};

sim::Task log_event(ConsistentTimeService& svc, Micros event_ts, std::vector<Micros>& skews,
                    int* violations) {
  const Micros entry = co_await svc.get_time(kThread);
  skews.push_back(entry - event_ts);
  if (entry <= event_ts) ++*violations;
}

Result run(Micros gap_us, bool stamped, std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim, {});
  obs::Recorder rec(sim);
  net.set_recorder(&rec);
  totem::TotemConfig tcfg;
  for (std::uint32_t i = 0; i < 4; ++i) tcfg.universe.push_back(NodeId{i});

  std::vector<std::unique_ptr<totem::TotemNode>> totems;
  std::vector<std::unique_ptr<gcs::GcsEndpoint>> eps;
  std::vector<std::unique_ptr<clock::PhysicalClock>> clocks;
  std::vector<std::unique_ptr<ConsistentTimeService>> svcs;
  std::vector<std::unique_ptr<CausalMessenger>> msgrs;

  for (std::uint32_t i = 0; i < 4; ++i) {
    const bool sender = i < 2;
    totems.push_back(std::make_unique<totem::TotemNode>(sim, net, NodeId{i}, tcfg));
    eps.push_back(std::make_unique<gcs::GcsEndpoint>(sim, *totems.back()));
    clock::ClockConfig ccfg;
    ccfg.initial_offset_us = sender ? gap_us : 0;
    clocks.push_back(std::make_unique<clock::PhysicalClock>(sim, ccfg));
    CtsConfig cfg;
    cfg.group = sender ? kSender : kReceiver;
    cfg.ccs_conn = sender ? kSenderCcs : kReceiverCcs;
    cfg.replica = ReplicaId{i % 2};
    svcs.push_back(std::make_unique<ConsistentTimeService>(sim, *eps.back(), *clocks.back(), cfg));
    eps.back()->set_recorder(&rec);
    svcs.back()->set_recorder(&rec);
    msgrs.push_back(std::make_unique<CausalMessenger>(*eps.back(), *svcs.back(), cfg.group,
                                                      kThread));
  }
  for (std::uint32_t i = 0; i < 4; ++i) {
    totems[i]->start();
    eps[i]->join_group(i < 2 ? kSender : kReceiver, ReplicaId{i % 2});
  }
  sim.run_for(100'000);

  Result res;
  std::vector<Micros> skews;

  // Receiver replica 2 logs each event (replica 3 mirrors the read so the
  // receiver group stays in agreement).
  auto attach_receiver = [&](std::uint32_t i, bool record) {
    if (stamped) {
      msgrs[i]->subscribe(kEvents, [&, i, record](const gcs::Message&, Micros ts, const Bytes&) {
        static std::vector<Micros> sink;
        static int sink_v = 0;
        log_event(*svcs[i], ts, record ? skews : sink, record ? &res.violations : &sink_v);
      });
    } else {
      eps[i]->subscribe(kReceiver, [&, i, record](const gcs::Message& m) {
        if (m.hdr.conn != kEvents || m.hdr.type != gcs::MsgType::kUserRequest) return;
        static std::vector<Micros> sink;
        static int sink_v = 0;
        BytesReader r(m.payload);
        log_event(*svcs[i], r.i64(), record ? skews : sink, record ? &res.violations : &sink_v);
      });
    }
  };
  attach_receiver(2, true);
  attach_receiver(3, false);

  // Sender replicas emit kEvents_n stamped (or plain) notifications.
  auto sender_loop = [&](std::uint32_t i) -> sim::Task {
    for (int k = 0; k < kEvents_n; ++k) {
      co_await sim.delay(2'000);
      if (stamped) {
        msgrs[i]->stamp_and_send(kReceiver, kEvents, static_cast<MsgSeqNum>(k + 1), Bytes{1});
      } else {
        // Plain: still read the clock (same logical op) but carry the
        // timestamp as opaque payload only.
        const Micros ts = co_await svcs[i]->get_time(kThread);
        BytesWriter w;
        w.i64(ts);
        gcs::Message m;
        m.hdr.type = gcs::MsgType::kUserRequest;
        m.hdr.src_grp = kSender;
        m.hdr.dst_grp = kReceiver;
        m.hdr.conn = kEvents;
        m.hdr.tag = kThread;
        m.hdr.seq = static_cast<MsgSeqNum>(k + 1);
        m.hdr.sender_replica = svcs[i]->config().replica;
        m.payload = std::move(w).take();
        eps[i]->send(std::move(m));
      }
    }
  };
  sender_loop(0);
  sender_loop(1);
  sim.run_for(60'000'000);

  if (!skews.empty()) {
    double acc = 0;
    for (auto s : skews) acc += static_cast<double>(s);
    res.mean_skew = static_cast<Micros>(acc / static_cast<double>(skews.size()));
  }
  static int obs_run = 0;
  obs::export_from_env({&rec}, "bench_multigroup.run" + std::to_string(obs_run++));
  return res;
}

}  // namespace

int main() {
  std::printf("# Multi-group causality: violation rate vs inter-group clock gap\n");
  std::printf("# %d events per cell; violation = receiver's reading <= sender's timestamp\n\n",
              kEvents_n);
  std::printf("%-12s | %14s %14s | %14s %14s\n", "gap_us", "plain_viol", "plain_skew_us",
              "stamped_viol", "stamped_skew_us");
  for (Micros gap : {0LL, 500LL, 5'000LL, 50'000LL, 500'000LL}) {
    const Result plain = run(gap, false, 1);
    const Result stamped = run(gap, true, 1);
    std::printf("%-12lld | %7d/%-6d %14lld | %7d/%-6d %14lld\n", (long long)gap,
                plain.violations, kEvents_n, (long long)plain.mean_skew, stamped.violations,
                kEvents_n, (long long)stamped.mean_skew);
  }
  std::printf("\nexpected shape: plain messages violate causality once the gap exceeds the\n"
              "round latency; stamped messages (CausalMessenger) never do — the receiver's\n"
              "clock is advanced past each observed timestamp.\n");
  return 0;
}
