// A replicated key-value store with lease-based ownership — a realistic
// application of the consistent time service.
//
// Leases are the classic place where clock non-determinism corrupts
// replicated state: "is this lease still valid?" is answered by comparing
// a clock reading against the expiry.  If replicas read their own hardware
// clocks, one replica grants a lease another replica still considers held,
// and the copies of the store diverge.  KvStoreApp answers every such
// question with the GROUP clock, so all replicas make identical lease
// decisions, and lease expiry (driven by GroupTimerService) fires at the
// same logical instant everywhere.
//
// Operations (all requests arrive in agreed total order):
//   PUT key value [owner]   — write; fails if the key is leased to someone
//                             else and the lease has not expired
//   GET key                 — read value + version (no clock round)
//   DEL key [owner]         — delete, same lease check as PUT
//   ACQUIRE key owner ttl   — take the lease if free / expired / yours;
//                             reply carries the expiry in group time
//   RELEASE key owner       — drop the lease if held by `owner`
//   STATS                   — deterministic state digest (for tests)
//   MIGRATE key dst_ring    — cross-shard lease transfer (sharded mode):
//                             release the entry here, hand it to the owning
//                             ring as a causally stamped two-phase handoff
//                             (doc/SHARDING.md)
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "app/topology.hpp"
#include "cts/group_timers.hpp"
#include "cts/multigroup.hpp"
#include "cts/time_syscalls.hpp"
#include "gcs/gcs.hpp"
#include "replication/replica.hpp"

namespace cts::app {

enum class KvOp : std::uint8_t {
  kPut = 1,
  kGet = 2,
  kDelete = 3,
  kAcquire = 4,
  kRelease = 5,
  kStats = 6,
  kMigrate = 7,
};

enum class KvStatus : std::uint8_t {
  kOk = 0,
  kNotFound = 1,
  kLeaseHeld = 2,   // someone else's unexpired lease blocks the write
  kLeaseDenied = 3, // acquire refused
  kBadRequest = 4,
  kRetry = 5,       // transient: the handoff stamp stream was busy
};

[[nodiscard]] const char* to_string(KvStatus s);

// --- Client-side request builders / reply parsers ------------------------------

Bytes kv_put(const std::string& key, const std::string& value, std::uint64_t owner = 0);
Bytes kv_get(const std::string& key);
Bytes kv_del(const std::string& key, std::uint64_t owner = 0);
Bytes kv_acquire(const std::string& key, std::uint64_t owner, Micros ttl_us);
Bytes kv_release(const std::string& key, std::uint64_t owner);
Bytes kv_stats();
Bytes kv_migrate(const std::string& key, std::uint32_t dst_ring);

struct KvReply {
  KvStatus status = KvStatus::kBadRequest;
  std::string value;        // kGet
  std::uint64_t version = 0;
  Micros lease_expiry = 0;  // kAcquire (group time)
  std::uint64_t key_count = 0;     // kStats
  std::uint64_t state_digest = 0;  // kStats

  static KvReply parse(const Bytes& b);
};

// --- The replicated store --------------------------------------------------------

class KvStoreApp : public replication::Replica {
 public:
  struct Options {
    /// Lease-expiry sweep granularity for the deterministic timers.
    Micros timer_poll_us = 1'000;
    /// Sharded deployment (nullptr = single-ring; no handoff stream is
    /// built and the app behaves exactly as before).  When set, the app
    /// opens a CausalMessenger on the ShardMap's KV handoff stream for
    /// ring `ring`: MIGRATE exports entries to other rings and adoption
    /// installs entries stamped by them.  The map must outlive the app.
    /// Handoff-enabled managers must run with lanes = 1 — the handoff
    /// stamp stream is per ring, not per processing lane.
    const ShardMap* shard_map = nullptr;
    std::size_t ring = 0;
  };

  KvStoreApp(replication::ReplicaContext& ctx, Options opt);

  void handle_request(const SharedBytes& request, std::function<void(Bytes)> done) override;
  [[nodiscard]] Bytes checkpoint() const override;
  void restore(const Bytes& state) override;

  // Introspection for tests (all replica-deterministic).
  [[nodiscard]] std::uint64_t state_digest() const;
  [[nodiscard]] std::size_t key_count() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t leases_expired() const { return leases_expired_; }
  [[nodiscard]] std::uint64_t handoffs_out() const { return handoffs_out_; }
  [[nodiscard]] std::uint64_t handoffs_in() const { return handoffs_in_; }
  [[nodiscard]] bool has_key(const std::string& key) const { return entries_.count(key) != 0; }

 private:
  struct Entry {
    std::string value;
    std::uint64_t version = 0;
    std::uint64_t lease_owner = 0;  // 0 = unleased
    Micros lease_expiry = 0;        // group time
    std::uint64_t lease_grant = 0;  // distinguishes successive leases
  };

  sim::Task serve(SharedBytes request, std::function<void(Bytes)> done);
  [[nodiscard]] bool lease_blocks(const Entry& e, std::uint64_t owner, Micros now) const;
  void arm_expiry(const std::string& key, std::uint64_t grant, Micros expiry);
  /// Destination side of a handoff: install the stamped record.  Runs in
  /// agreed delivery order, AFTER the causal floor was raised to the
  /// transfer stamp — so any reading taken after adoption exceeds it.
  void adopt_handoff(const gcs::Message& m, Micros stamp, const Bytes& record);

  replication::ReplicaContext& ctx_;
  ccs::TimeSyscalls sys_;
  ccs::GroupTimerService timers_;
  Options opt_;

  std::map<std::string, Entry> entries_;
  std::uint64_t grant_counter_ = 0;
  std::uint64_t leases_expired_ = 0;

  // Cross-shard handoff stream (sharded mode only; see doc/SHARDING.md).
  std::unique_ptr<ccs::CausalMessenger> handoff_;
  std::uint64_t handoff_seq_ = 0;  // checkpointed: survives failover
  std::uint64_t handoffs_out_ = 0;
  std::uint64_t handoffs_in_ = 0;
};

replication::ReplicaFactory kv_store_factory(KvStoreApp::Options opt = {});

/// Deterministic request→lane routing for multi-lane KV replicas: hashes
/// the key, so all operations on one key share one processing thread.
std::uint32_t kv_lane_of(const gcs::Message& m);

}  // namespace cts::app
