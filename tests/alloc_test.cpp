// Allocation-accounting tests for the hot-path overhaul: this binary
// replaces the global operator new/delete with byte-counting versions and
// asserts the zero-copy / allocation-free contracts directly:
//
//   * a broadcast allocates the payload buffer ONCE, shared read-only by
//     every receiver (historically: one copy per receiver plus one per
//     scheduled delivery closure);
//   * a unicast send allocates the payload once, not twice (the historical
//     double copy: caller -> send() -> deliver closure);
//   * scheduling events whose closures fit InlineFn's 48-byte inline buffer
//     allocates nothing at steady state (the event arena is warm);
//   * the trace log stores a record in at most 16 bytes (a TraceEvent is
//     48), and the island merge holds one cursor per island, not one
//     pointer per event;
//   * an idle Totem token hop allocates exactly one block, its sealed
//     packet, and a token retransmission allocates nothing: it re-sends
//     that same block.
//
// Every measurement runs after a warm-up round so one-time arena growth
// (event-heap slots, NIC queues) is excluded; what remains is the per-send
// cost the tentpole optimizes.  The counters live in this test binary only;
// nothing in the library links against them.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "net/network.hpp"
#include "obs/recorder.hpp"
#include "sim/simulator.hpp"
#include "totem/totem.hpp"

namespace {

std::atomic<std::uint64_t> g_alloc_calls{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::uint64_t> g_payload_sized_allocs{0};  // >= kPayloadThreshold

constexpr std::size_t kPayloadThreshold = 1300;  // just under the 1400B MTU payloads below

void note_alloc(std::size_t n) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (n >= kPayloadThreshold) g_payload_sized_allocs.fetch_add(1, std::memory_order_relaxed);
}

struct AllocSnapshot {
  std::uint64_t calls;
  std::uint64_t bytes;
  std::uint64_t payload_sized;
};

AllocSnapshot snap() {
  return {g_alloc_calls.load(), g_alloc_bytes.load(), g_payload_sized_allocs.load()};
}

}  // namespace

// GCC pairs new-expressions with the replaced operator delete below and
// (wrongly) warns that free() does not match; malloc/free is exactly what
// both replacements use.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  note_alloc(n);
  void* p = std::malloc(n ? n : 1);
  if (!p) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t n) {
  note_alloc(n);
  void* p = std::malloc(n ? n : 1);
  if (!p) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cts::net {
namespace {

TEST(AllocTest, BroadcastPayloadAllocatedOnceForAllReceivers) {
  sim::Simulator sim{1};
  NetworkConfig cfg;
  Network net(sim, cfg);
  std::size_t delivered = 0;
  std::size_t delivered_bytes = 0;
  for (std::uint32_t i = 0; i < 9; ++i) {
    net.attach(NodeId{i}, [&](NodeId, const SharedBytes& b) {
      ++delivered;
      delivered_bytes += b.size();
    });
  }
  net.broadcast(NodeId{0}, Bytes(1400, 0x5a));  // warm-up: grows arenas once
  sim.run();
  ASSERT_EQ(delivered, 8u);

  const AllocSnapshot before = snap();
  net.broadcast(NodeId{0}, Bytes(1400, 0x5a));
  sim.run();
  const AllocSnapshot after = snap();
  ASSERT_EQ(delivered, 16u);
  ASSERT_EQ(delivered_bytes, 16u * 1400u);
  // Exactly one payload-sized buffer: the Bytes constructed above.  Every
  // receiver observed the same refcounted allocation.
  EXPECT_EQ(after.payload_sized - before.payload_sized, 1u);
}

TEST(AllocTest, UnicastPayloadAllocatedOnceNotTwice) {
  sim::Simulator sim{1};
  NetworkConfig cfg;
  Network net(sim, cfg);
  std::size_t delivered_bytes = 0;
  net.attach(NodeId{0}, [&](NodeId, const SharedBytes&) {});
  net.attach(NodeId{1}, [&](NodeId, const SharedBytes& b) { delivered_bytes += b.size(); });
  net.send(NodeId{0}, NodeId{1}, Bytes(2048, 0x11));  // warm-up
  sim.run();
  ASSERT_EQ(delivered_bytes, 2048u);

  const AllocSnapshot before = snap();
  net.send(NodeId{0}, NodeId{1}, Bytes(2048, 0x11));
  sim.run();
  const AllocSnapshot after = snap();
  ASSERT_EQ(delivered_bytes, 2u * 2048u);
  // The historical path copied the payload into the deliver closure on top
  // of the caller's buffer; the SharedBytes path allocates exactly once.
  EXPECT_EQ(after.payload_sized - before.payload_sized, 1u);
}

TEST(AllocTest, InlineEventSchedulingIsAllocationFreeAtSteadyState) {
  sim::Simulator sim{1};
  std::uint64_t fired = 0;
  struct Capture {  // the counter pointer + 32 bytes of payload = 40 bytes
    std::uint64_t* fired;
    std::uint64_t pad[4];
  };
  static_assert(sizeof(Capture) <= sim::Simulator::EventFn::kInlineSize);
  auto schedule_round = [&] {
    for (int i = 0; i < 256; ++i) {
      sim.after(static_cast<cts::Micros>(i % 7),
                [c = Capture{&fired, {1, 2, 3, 4}}] { ++*c.fired; });
    }
    sim.run();
  };
  schedule_round();  // warm-up: grows the heap array and slot arena once
  const AllocSnapshot before = snap();
  schedule_round();
  const AllocSnapshot after = snap();
  EXPECT_EQ(fired, 512u);
  EXPECT_EQ(after.calls - before.calls, 0u)
      << "scheduling inline-capture events allocated " << (after.bytes - before.bytes)
      << " bytes at steady state";
}

TEST(AllocTest, BroadcastDeliveryClosuresDoNotAllocateAtSteadyState) {
  // End-to-end: after warm-up, a broadcast's per-receiver deliveries ride
  // entirely on inline closures + the shared payload.  Handing the payload
  // in by move leaves only the SharedBytes control block as a permissible
  // small allocation; the buffer itself is moved, the closures are inline.
  sim::Simulator sim{1};
  NetworkConfig cfg;
  Network net(sim, cfg);
  std::size_t delivered = 0;
  for (std::uint32_t i = 0; i < 9; ++i) {
    net.attach(NodeId{i}, [&](NodeId, const SharedBytes&) { ++delivered; });
  }
  Bytes payload(1400, 0x33);
  net.broadcast(NodeId{0}, payload);  // warm-up (copies: payload reused below)
  sim.run();
  const AllocSnapshot before = snap();
  net.broadcast(NodeId{0}, std::move(payload));
  sim.run();
  const AllocSnapshot after = snap();
  ASSERT_EQ(delivered, 16u);
  EXPECT_EQ(after.payload_sized - before.payload_sized, 0u);
  EXPECT_LE(after.calls - before.calls, 2u)
      << "broadcast delivery allocated " << (after.bytes - before.bytes) << " bytes";
}

}  // namespace
}  // namespace cts::net

namespace cts::obs {
namespace {

/// Record `n` records shaped like a Figure 5 run's trace: token passes,
/// GCS deliveries and CCS rounds with their skew samples, a few hundred
/// microseconds apart on three nodes.
void record_fig5_shaped(TraceLog& log, std::size_t n, Micros start, std::uint32_t seed) {
  Micros at = start;
  std::int64_t seq = 0;
  std::int64_t round = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto node = static_cast<std::uint32_t>((i + seed) % 3);
    at += static_cast<Micros>((i * 37 + seed) % 400);
    switch (i % 6) {
      case 0: log.record(at, EventKind::kTokenPass, node, ReplicaId::kInvalid, ++seq, 4); break;
      case 1:
      case 2: log.record(at, EventKind::kGcsDeliver, node, node, 3, seq, 100); break;
      case 3: log.record(at, EventKind::kCcsRoundStart, node, node, 0, ++round); break;
      case 4:
        log.record(at, EventKind::kCcsRoundComplete, node, node, round, node, at + 1'234'567);
        break;
      default:
        log.record(at, EventKind::kSkewSample, node, node,
                   static_cast<std::int64_t>((i * 7919) % 200) - 100, round);
        break;
    }
  }
}

TEST(AllocTest, TraceLogStoresARecordInAtMostSixteenBytes) {
  constexpr std::size_t kRecords = std::size_t{1} << 16;
  TraceLog log;
  const AllocSnapshot before = snap();
  record_fig5_shaped(log, kRecords, 0, 0);
  const AllocSnapshot after = snap();
  ASSERT_EQ(log.size(), kRecords);
  EXPECT_LE(after.bytes - before.bytes, 16 * kRecords)
      << (after.bytes - before.bytes) << " bytes for " << kRecords << " records";
}

TEST(AllocTest, IslandMergeExportKeepsSortedOrderWithOneCursorPerIsland) {
  constexpr std::size_t kIslands = 3;
  constexpr std::size_t kPerIsland = 20'000;
  std::vector<std::unique_ptr<sim::Simulator>> sims;
  std::vector<std::unique_ptr<Recorder>> recs;
  std::vector<Recorder*> islands;
  for (std::uint32_t i = 0; i < kIslands; ++i) {
    sims.push_back(std::make_unique<sim::Simulator>(i + 1));
    recs.push_back(std::make_unique<Recorder>(*sims.back()));
    islands.push_back(recs.back().get());
    // Same start and the same step pattern for islands 0 and 2: many rows
    // tie on `at` across islands.
    record_fig5_shaped(recs.back()->trace(), kPerIsland, 1'000, i == 1 ? 1 : 0);
  }

  // Reference: every event tagged and sorted by (at, island, position).
  std::vector<std::tuple<Micros, std::size_t, std::size_t, TraceEvent>> all;
  for (std::size_t i = 0; i < kIslands; ++i) {
    std::size_t pos = 0;
    for (const TraceEvent& e : islands[i]->trace()) all.emplace_back(e.at, i, pos++, e);
  }
  std::sort(all.begin(), all.end(), [](const auto& x, const auto& y) {
    return std::tie(std::get<0>(x), std::get<1>(x), std::get<2>(x)) <
           std::tie(std::get<0>(y), std::get<1>(y), std::get<2>(y));
  });
  std::ostringstream want;
  for (const auto& [at, island, pos, e] : all) write_jsonl_row(want, e, island);
  // Compared by hand: gtest's diff of two multi-megabyte strings is
  // quadratic.
  const std::string merged = merged_trace_jsonl(islands);
  const std::string expect = want.str();
  EXPECT_EQ(merged.size(), expect.size());
  const auto diff = std::mismatch(merged.begin(), merged.end(), expect.begin(), expect.end());
  EXPECT_TRUE(diff.first == merged.end())
      << "first difference at byte " << (diff.first - merged.begin()) << ": "
      << std::string(diff.first, std::min(diff.first + 120, merged.end()));

  // The file export holds a cursor per island, not a 24-byte tag per event.
  const std::string path = ::testing::TempDir() + "alloc_test_merge.trace.jsonl";
  const AllocSnapshot before = snap();
  ASSERT_TRUE(export_files(islands, "", path));
  const AllocSnapshot after = snap();
  std::remove(path.c_str());
  EXPECT_LT(after.bytes - before.bytes, 24 * kIslands * kPerIsland / 4)
      << "merged export allocated " << (after.bytes - before.bytes) << " bytes";
}

}  // namespace
}  // namespace cts::obs

namespace cts::totem {
namespace {

/// Three Totem nodes on one LAN, booted and left idle until the ring has
/// formed and the token circulates at steady state.
struct IdleRing {
  sim::Simulator sim{1};
  net::Network net{sim, net::NetworkConfig{}};
  std::vector<std::unique_ptr<TotemNode>> nodes;

  IdleRing() {
    TotemConfig cfg;
    cfg.universe = {NodeId{0}, NodeId{1}, NodeId{2}};
    for (const NodeId n : cfg.universe) nodes.push_back(std::make_unique<TotemNode>(sim, net, n, cfg));
    for (auto& n : nodes) n->start();
    sim.run_for(200'000);  // form the ring, then warm every arena
  }

  [[nodiscard]] bool operational() const {
    return std::all_of(nodes.begin(), nodes.end(),
                       [](const auto& n) { return n->state() == TotemNode::State::kOperational; });
  }

  [[nodiscard]] std::uint64_t tokens_sent() const {
    std::uint64_t sum = 0;
    for (const auto& n : nodes) sum += n->stats().tokens_sent;
    return sum;
  }
};

TEST(AllocTest, IdleTokenHopAllocatesOnlyItsSealedPacket) {
  // A hop is receive (unseal + decode), hold (a timer closure kept inline
  // in its event slot) and forward (encode + send).  The packet is built in
  // place in one refcounted block, so that block is the hop's only
  // allocation (a vector-backed packet costs two: the buffer and its
  // control block).
  IdleRing ring;
  ASSERT_TRUE(ring.operational());
  const std::uint64_t sent_before = ring.tokens_sent();
  const AllocSnapshot before = snap();
  ring.sim.run_for(20'000);
  const AllocSnapshot after = snap();
  const std::uint64_t hops = ring.tokens_sent() - sent_before;
  ASSERT_TRUE(ring.operational());
  ASSERT_GT(hops, 100u);
  EXPECT_EQ(after.calls - before.calls, hops)
      << hops << " token hops allocated " << (after.bytes - before.bytes) << " bytes";
}

TEST(AllocTest, TokenRetransmissionResendsTheSealedPacketWithoutAllocating) {
  IdleRing ring;
  ASSERT_TRUE(ring.operational());
  // Deafen node 1: its NIC now hands packets to this sniffer instead of its
  // Totem daemon, so node 0's next token to it goes unanswered and node 0
  // retransmits it after token_retrans_timeout_us.
  std::vector<SharedBytes> from0;
  from0.reserve(16);
  ring.net.attach(NodeId{1}, [&](NodeId src, const SharedBytes& p) {
    if (src == NodeId{0}) from0.push_back(p);
  });
  while (from0.empty()) ring.sim.run_for(10);
  const std::uint64_t retrans_before = ring.nodes[0]->stats().token_retransmissions;
  const AllocSnapshot before = snap();
  ring.sim.run_for(TotemConfig{}.token_retrans_timeout_us + 100);
  const AllocSnapshot after = snap();
  ASSERT_EQ(ring.nodes[0]->stats().token_retransmissions, retrans_before + 1);
  ASSERT_EQ(from0.size(), 2u);
  EXPECT_EQ(from0[1].data(), from0[0].data()) << "the retransmission re-encoded the token";
  EXPECT_EQ(from0[1], from0[0]);
  EXPECT_EQ(after.calls - before.calls, 0u)
      << "token retransmission allocated " << (after.bytes - before.bytes) << " bytes";
}

}  // namespace
}  // namespace cts::totem
