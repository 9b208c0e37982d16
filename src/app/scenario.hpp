// One scenario engine for the command-line driver and the tests.
//
// A ScenarioSpec is the whole ctsim option set: topology, replication
// style, workload, network and clock conditions, and a fault schedule.
// run_scenario() builds the world it describes — one Testbed for a single
// ring, an Archipelago of islands for more — drives the client workload to
// completion, checks it, writes the requested observability exports and
// returns a ScenarioReport.  run_sweep() runs the same spec once per seed
// through sim::run_indexed; the reports come back in seed-list order for
// any worker count.
//
// parse_scenario_args() is the shared command-line parser: it validates
// every value and every cross-option rule, so a spec it returns always
// runs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "cts/consistent_time_service.hpp"
#include "replication/replica_manager.hpp"
#include "sim/parallel.hpp"

namespace cts::app {

/// Crash or recover one server replica of ring 0 at an absolute simulated
/// time (a time before the end of start-up fires as soon as it ends).
struct FaultEvent {
  enum class Kind { kCrash, kRecover } kind;
  std::uint32_t replica;
  Micros at_us;
};

struct ScenarioSpec {
  std::size_t servers = 3;
  replication::ReplicationStyle style = replication::ReplicationStyle::kActive;
  int invocations = 1000;
  Micros think_us = 500;
  std::uint64_t seed = 1;
  double loss = 0.0;
  Micros max_clock_offset_us = 500'000;
  double max_drift_ppm = 50.0;
  std::uint32_t checkpoint_every = 5;
  ccs::DriftCompensation drift = ccs::DriftCompensation::kNone;
  Micros mean_delay_us = 40;
  double reference_gain = 0.1;
  std::vector<FaultEvent> faults;
  bool verbose = false;  // narrate faults; keep per-ring recorder summaries
  /// Request-processing lanes per replica (single ring only).
  std::uint32_t lanes = 1;
  /// rings > 1 runs an Archipelago (one Totem ring per island, causally
  /// stamped inter-ring traffic) instead of one Testbed.
  std::size_t rings = 1;
  /// Island worker threads (doc/PARALLEL.md).  Defaults to CTS_SIM_THREADS
  /// or 1; any value produces the same schedule byte for byte.
  unsigned threads = sim::threads_from_env(1);
  bool durable = false;  // stable storage + cold-startable (single ring only)
  bool kv = false;       // run the KV workload instead of the time server
  /// With rings > 1 and kv: fraction of each client's requests aimed at
  /// keys another ring owns, to exercise the gateway router's forwarding.
  double remote_fraction = 0.5;
  std::string metrics_json;  // write obs metrics JSON here ("" = off)
  std::string trace_jsonl;   // write obs trace JSONL here ("" = off)
};

struct RingReport {
  std::size_t replies = 0;
  double lat_mean_us = 0;
  Micros lat_p50_us = 0, lat_p99_us = 0, lat_max_us = 0;
  std::size_t monotonicity_violations = 0;  // time server: stamps not increasing
  bool consistent = true;                   // live replicas hold the same state
  std::uint64_t stamped_deliveries = 0;     // inter-ring pings received
  bool operator==(const RingReport&) const = default;
};

/// Single-ring runs only: one row per server replica.
struct ReplicaReport {
  bool alive = true, primary = false;
  std::uint64_t processed = 0, replayed = 0, checkpoints_taken = 0, checkpoints_applied = 0;
  std::uint64_t rounds = 0, rounds_won = 0, sends = 0, sends_avoided = 0;
  Micros clock_offset_us = 0;
  bool operator==(const ReplicaReport&) const = default;
};

struct ScenarioReport {
  std::uint64_t seed = 0;
  std::vector<RingReport> rings;
  std::vector<ReplicaReport> replicas;
  std::uint64_t ccs_rounds = 0, ccs_messages = 0;  // single ring
  std::uint64_t events = 0;                        // simulator events, all rings
  std::uint64_t link_frames = 0, link_bytes = 0;   // multi-ring: inter-ring link
  std::uint64_t epochs = 0, posts = 0, coordinated_events = 0;  // multi-ring coordinator
  std::uint64_t gateway_forwards = 0, gateway_misroutes = 0, cross_shard = 0;
  std::uint64_t oracle_violations = 0;
  /// The exit gate: monotone time, consistent replicas, no oracle
  /// violation and, with more than one ring, live inter-ring traffic, no
  /// cross-shard causality violation and (KV) live gateway forwards.
  bool ok = false;
  std::vector<std::string> summaries;  // per-ring recorder summaries (verbose only)
  bool operator==(const ScenarioReport&) const = default;

  [[nodiscard]] std::size_t monotonicity_violations() const;
  [[nodiscard]] bool consistent() const;
  /// One JSON object on one line, no trailing newline.
  [[nodiscard]] std::string json_row() const;
};

/// Run one spec.  CTS_OBS_DIR exports are written as <dir>/<obs_label>.*.
ScenarioReport run_scenario(const ScenarioSpec& spec, const std::string& obs_label = "ctsim");

/// Run `spec` once per seed on up to `jobs` workers; each run's CTS_OBS_DIR
/// label is "ctsim.seed<N>".  The spec's metrics_json/trace_jsonl name one
/// file, so they must be empty when there is more than one seed.
std::vector<ScenarioReport> run_sweep(const ScenarioSpec& spec,
                                      const std::vector<std::uint64_t>& seeds, unsigned jobs);

/// A parsed command line: the spec, plus the seed list of a sweep (empty
/// for a single run), its worker count and its output file ("" = stdout).
struct ScenarioArgs {
  ScenarioSpec spec;
  std::vector<std::uint64_t> seeds;
  unsigned jobs = 1;
  std::string out;
};

/// Parse ctsim's arguments (without argv[0]).  Returns nullopt and sets
/// `error` to a one-line message on any malformed value or rejected
/// combination.
std::optional<ScenarioArgs> parse_scenario_args(const std::vector<std::string>& args,
                                                std::string& error);

}  // namespace cts::app
