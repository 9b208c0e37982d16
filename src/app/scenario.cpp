#include "app/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <type_traits>

#include "app/archipelago.hpp"
#include "app/kv_store.hpp"
#include "app/testbed.hpp"
#include "app/topology.hpp"
#include "common/histogram.hpp"
#include "obs/recorder.hpp"
#include "sim/sweep.hpp"

namespace cts::app {
namespace {

using replication::ReplicationStyle;

/// The KV request mix: a third each of PUT, GET and a short lease ACQUIRE.
Bytes kv_mix(Rng& rng, const std::string& key, int i) {
  switch (rng.below(3)) {
    case 0: return kv_put(key, std::string("v") + std::to_string(i));
    case 1: return kv_get(key);
    default: return kv_acquire(key, 1 + rng.below(4), 10'000);
  }
}

// `done` is one byte (not vector<bool>) so multi-ring runs can keep one
// flag per ring without adjacent flags sharing a word across workers.
sim::Task client_loop(Testbed& tb, const ScenarioSpec& s, std::vector<Micros>& stamps,
                      Histogram& lat, std::uint8_t& done) {
  Rng rng(s.seed * 17 + 3);
  for (int i = 0; i < s.invocations; ++i) {
    co_await tb.sim().delay(s.think_us);
    const Micros t0 = tb.sim().now();
    if (s.kv) {
      const std::string key = "k" + std::to_string(rng.below(32));
      (void)co_await tb.client().call(kv_mix(rng, key, i));
      lat.add(tb.sim().now() - t0);
    } else {
      const Bytes r = co_await tb.client().call(make_get_time_request());
      lat.add(tb.sim().now() - t0);
      BytesReader rd(r);
      stamps.push_back(rd.i64() * 1'000'000 + rd.i64());
    }
  }
  done = 1;
}

// Sharded KV workload for the multi-ring mode: ring r's client mixes
// ring-local keys with keys other rings own; every request goes through the
// gateway router, which serves local keys on this ring and forwards the
// rest to the owning ring (gateway.forwards / gateway.misroutes).
sim::Task kv_loop_sharded(Archipelago& ar, std::size_t r, const ScenarioSpec& s, Histogram& lat,
                          std::uint8_t& done) {
  const ShardMap& map = ar.shard_map();
  Rng rng(s.seed * 17 + 3 + r * 101);
  for (int i = 0; i < s.invocations; ++i) {
    co_await ar.ring(r).sim().delay(s.think_us);
    // Draw keys until the local/remote choice matches the configured mix.
    const bool want_remote =
        map.rings() > 1 && static_cast<double>(rng.below(1000)) < s.remote_fraction * 1000;
    std::string key;
    do {
      key = std::string("k") + std::to_string(rng.below(64));
    } while ((map.shard_of_key(key) != r) == !want_remote);
    Bytes req = kv_mix(rng, key, i);
    const Micros t0 = ar.ring(r).sim().now();
    (void)co_await ar.router(r).call(std::move(req));
    lat.add(ar.ring(r).sim().now() - t0);
  }
  done = 1;
}

/// The one fault scheduler: each fault hits replica `f.replica` of ring 0
/// at its absolute time, or at once if start-up already ran past it.
template <class Apply>
void schedule_faults(const ScenarioSpec& s, sim::Simulator& sim, const Apply& apply) {
  for (const FaultEvent& f : s.faults) {
    // detlint:allow(scoped-timer): the fault driver sits outside every
    // node; its events must outlive the crash they cause
    sim.at(std::max(sim.now(), f.at_us), [&apply, f, verbose = s.verbose] {
      if (verbose) {
        std::printf("[%lld us] %s replica %u\n", (long long)f.at_us,
                    f.kind == FaultEvent::Kind::kCrash ? "crash" : "recover", f.replica);
      }
      apply(f);
    });
  }
}

// Every live, recovered replica must hold the same state as the first one
// (every lane's KV digest, or the time server's history); passive backups
// hold checkpointed state, not live history, so they sit out.
bool replicas_consistent(Testbed& tb, const ScenarioSpec& s) {
  bool consistent = true;
  std::optional<std::uint32_t> first;
  for (std::uint32_t r = 0; r < tb.server_count(); ++r) {
    if (!tb.clock_of(tb.server_node(r)).alive() || !tb.server(r).recovered()) continue;
    if (s.style == ReplicationStyle::kPassive && !tb.server(r).is_primary()) continue;
    if (!first) {
      first = r;
    } else if (s.kv) {
      for (std::uint32_t l = 0; l < tb.server(r).lane_count(); ++l) {
        consistent &= static_cast<KvStoreApp&>(tb.server(r).app(l)).state_digest() ==
                      static_cast<KvStoreApp&>(tb.server(*first).app(l)).state_digest();
      }
    } else {
      consistent &= tb.server_app(r).time_history() == tb.server_app(*first).time_history();
    }
  }
  return consistent;
}

/// One ring's checks and latency, plus its share of the report's totals.
RingReport ring_report(Testbed& tb, const ScenarioSpec& s, const std::vector<Micros>& stamps,
                       const Histogram& lat, ScenarioReport& rep) {
  RingReport ring;
  ring.replies = lat.count();
  ring.lat_mean_us = lat.mean();
  ring.lat_p50_us = lat.percentile(0.5);
  ring.lat_p99_us = lat.percentile(0.99);
  ring.lat_max_us = lat.max();
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    ring.monotonicity_violations += (stamps[i] <= stamps[i - 1]);
  }
  ring.consistent = replicas_consistent(tb, s);
  rep.events += tb.sim().events_executed();
  if (const auto* orc = tb.recorder().oracle()) {
    rep.oracle_violations += orc->violations();
    rep.cross_shard += orc->cross_shard_violations();
  }
  return ring;
}

void finish(ScenarioReport& rep, const ScenarioSpec& s) {
  std::uint64_t stamped = 0;
  for (const RingReport& r : rep.rings) stamped += r.stamped_deliveries;
  rep.ok = rep.monotonicity_violations() == 0 && rep.consistent() &&
           rep.oracle_violations == 0 &&
           (s.rings == 1 ||
            (stamped > 0 && rep.cross_shard == 0 && (!s.kv || rep.gateway_forwards > 0)));
}

/// The run's one export: the --metrics-json/--trace-jsonl files, the
/// CTS_* environment files (both in the format the recorder count picks,
/// obs/merge.hpp) and, with --verbose, one summary per recorder.  A trace
/// file cut at the per-ring cap says so on stderr.
void export_run(const ScenarioSpec& s, const std::vector<obs::Recorder*>& recs,
                const std::string& obs_label, ScenarioReport& rep) {
  if (!obs::export_files(recs, s.metrics_json, s.trace_jsonl)) {
    std::fprintf(stderr, "warning: could not write --metrics-json/--trace-jsonl\n");
  }
  obs::export_from_env(recs, obs_label);
  const auto env_set = [](const char* name) {
    const char* v = std::getenv(name);
    return v != nullptr && *v != '\0';
  };
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  for (const obs::Recorder* rec : recs) {
    recorded += rec->trace().recorded();
    dropped += rec->trace().dropped();
  }
  if (dropped > 0 &&
      (!s.trace_jsonl.empty() || env_set("CTS_OBS_DIR") || env_set("CTS_TRACE_JSONL"))) {
    std::fprintf(stderr,
                 "note: trace cut at its cap: %llu events recorded, %llu dropped (not in the "
                 "export)\n",
                 static_cast<unsigned long long>(recorded),
                 static_cast<unsigned long long>(dropped));
  }
  if (s.verbose) {
    for (obs::Recorder* rec : recs) rep.summaries.push_back(rec->summary());
  }
}

constexpr Micros kDeadline = 600'000'000'000LL;

ScenarioReport run_testbed(const ScenarioSpec& s, const std::string& obs_label) {
  TestbedConfig cfg;
  cfg.servers = s.servers;
  cfg.style = s.style;
  cfg.seed = s.seed;
  cfg.net.loss_probability = s.loss;
  cfg.max_clock_offset_us = s.max_clock_offset_us;
  cfg.max_drift_ppm = s.max_drift_ppm;
  cfg.checkpoint_every = s.checkpoint_every;
  cfg.drift = s.drift;
  cfg.mean_delay_us = s.mean_delay_us;
  cfg.reference_gain = s.reference_gain;
  cfg.lanes = s.lanes;
  if (s.lanes > 1) cfg.lane_fn = kv_lane_of;
  cfg.with_stable_storage = s.durable;
  if (s.durable) cfg.persist_every = 10;
  if (s.kv) cfg.factory = kv_store_factory();
  Testbed tb(cfg);

  clock::ReferenceTimeSource ref(tb.sim(), Rng(s.seed * 31 + 5), 200);
  if (s.drift == ccs::DriftCompensation::kReferenceBias) {
    for (std::uint32_t r = 0; r < tb.server_count(); ++r) {
      tb.server(r).time_service().set_reference(&ref);
    }
  }
  tb.start();
  const auto apply = [&tb](const FaultEvent& f) {
    if (f.kind == FaultEvent::Kind::kCrash) tb.crash_server(f.replica);
    else tb.restart_server(f.replica);
  };
  schedule_faults(s, tb.sim(), apply);

  std::vector<Micros> stamps;
  Histogram lat(10, 10'000);
  std::uint8_t done = 0;
  client_loop(tb, s, stamps, lat, done);
  while (!done && tb.sim().now() < kDeadline) tb.sim().run_until(tb.sim().now() + 1'000'000);
  tb.sim().run_for(2'000'000);

  ScenarioReport rep;
  rep.seed = s.seed;
  rep.rings.push_back(ring_report(tb, s, stamps, lat, rep));
  for (std::uint32_t r = 0; r < tb.server_count(); ++r) {
    auto& m = tb.server(r);
    const auto& st = m.stats();
    const auto& ts = m.time_service().stats();
    rep.ccs_messages += tb.gcs_of(tb.server_node(r)).stats().on_wire(gcs::MsgType::kCcs);
    rep.ccs_rounds = std::max(rep.ccs_rounds, ts.rounds_completed);
    rep.replicas.push_back(ReplicaReport{
        tb.clock_of(tb.server_node(r)).alive(), m.is_primary(), st.requests_processed,
        st.requests_replayed, st.checkpoints_taken, st.checkpoints_applied, ts.rounds_completed,
        ts.rounds_won, ts.sends_initiated, ts.sends_avoided, m.time_service().clock_offset()});
  }
  finish(rep, s);
  export_run(s, {&tb.recorder()}, obs_label, rep);
  return rep;
}

// Multi-ring mode: N Totem rings as parallel islands, each with its own
// client workload, plus a cross-ring stamped ping chain (ring r -> r+1).
// Any thread count yields the identical schedule (doc/PARALLEL.md); the
// merged metrics/trace exports are likewise byte-stable.
ScenarioReport run_archipelago(const ScenarioSpec& s, const std::string& obs_label) {
  ArchipelagoConfig acfg;
  acfg.topo = TopologySpec{s.rings, s.servers, /*with_client=*/true};
  acfg.style = s.style;
  acfg.seed = s.seed;
  acfg.net.loss_probability = s.loss;
  acfg.threads = s.threads;
  if (s.kv) {
    acfg.app = [](const ShardMap& map, std::size_t ring) {
      KvStoreApp::Options kopt;
      kopt.shard_map = &map;
      kopt.ring = ring;
      return kv_store_factory(kopt);
    };
  }
  Archipelago ar(acfg);
  ar.start();
  const auto apply = [&ar](const FaultEvent& f) {
    if (f.kind == FaultEvent::Kind::kCrash) ar.crash_server(0, f.replica);
    else ar.restart_server(0, f.replica);
  };
  schedule_faults(s, ar.ring(0).sim(), apply);

  // Per-ring client workloads (each written/read only by its ring's island;
  // done flags are one byte per ring, read between runs).
  std::vector<std::vector<Micros>> stamps(s.rings);
  std::vector<Histogram> lat(s.rings, Histogram(10, 10'000));
  std::vector<std::uint8_t> done(s.rings, 0);
  for (std::size_t r = 0; r < s.rings; ++r) {
    if (s.kv) {
      kv_loop_sharded(ar, r, s, lat[r], done[r]);
    } else {
      client_loop(ar.ring(r), s, stamps[r], lat[r], done[r]);
    }
  }

  // Cross-ring ping chain: 20 stamped broadcasts per ring over the first
  // two seconds, ring r -> ring (r+1) % N.
  const Micros t0 = ar.now();
  for (std::size_t r = 0; r < s.rings; ++r) {
    for (int k = 0; k < 20; ++k) {
      ar.stamped_broadcast_at(t0 + 100'000 * (k + 1) + static_cast<Micros>(r) * 7'000, r,
                              (r + 1) % s.rings, Bytes{static_cast<std::uint8_t>(k)});
    }
  }

  const auto all_done = [&done] {
    return std::all_of(done.begin(), done.end(), [](std::uint8_t d) { return d != 0; });
  };
  while (!all_done() && ar.now() < kDeadline) ar.run_until(ar.now() + 1'000'000);
  ar.run_for(2'000'000);

  ScenarioReport rep;
  rep.seed = s.seed;
  for (std::size_t r = 0; r < s.rings; ++r) {
    auto& tb = ar.ring(r);
    rep.rings.push_back(ring_report(tb, s, stamps[r], lat[r], rep));
    rep.rings.back().stamped_deliveries = ar.stamped_deliveries(r);
    rep.gateway_forwards += tb.recorder().counter("gateway.forwards").value;
    rep.gateway_misroutes += tb.recorder().counter("gateway.misroutes").value;
  }
  const auto link = ar.link().total_stats();
  const auto& cstats = ar.coordinator().stats();
  rep.link_frames = link.frames_sent;
  rep.link_bytes = link.bytes_sent;
  rep.epochs = cstats.epochs;
  rep.posts = cstats.posts;
  rep.coordinated_events = cstats.events_executed;
  finish(rep, s);
  export_run(s, ar.recorders(), obs_label, rep);
  return rep;
}

// --- Argument parsing --------------------------------------------------------

template <class T>
bool parse_num(const std::string& v, T& out) {
  const char* end = v.data() + v.size();
  const auto [p, ec] = std::from_chars(v.data(), end, out);
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(out)) return false;
  }
  return ec == std::errc() && p == end && !v.empty();
}

/// "<number>[s|ms|us]"; a bare number is microseconds.
bool parse_time(const std::string& v, Micros& out) {
  double x = 0;
  const char* end = v.data() + v.size();
  const auto [p, ec] = std::from_chars(v.data(), end, x);
  const std::string unit(p, end);
  const double scale = unit == "s"                     ? 1e6
                       : unit == "ms"                  ? 1e3
                       : unit.empty() || unit == "us" ? 1
                                                       : 0;
  if (ec != std::errc() || scale == 0 || !(x >= 0) || x * scale > 1e18) return false;
  out = static_cast<Micros>(x * scale);
  return true;
}

bool parse_fault(const std::string& v, FaultEvent::Kind kind, std::vector<FaultEvent>& out) {
  const auto at = v.find('@');
  FaultEvent f{kind, 0, 0};
  if (at == std::string::npos || !parse_num(v.substr(0, at), f.replica) ||
      !parse_time(v.substr(at + 1), f.at_us)) {
    return false;
  }
  out.push_back(f);
  return true;
}

bool parse_seed_list(const std::string& v, std::vector<std::uint64_t>& out) {
  out.clear();
  for (std::size_t p = 0;;) {
    const auto comma = v.find(',', p);
    std::uint64_t seed = 0;
    if (!parse_num(v.substr(p, comma == std::string::npos ? comma : comma - p), seed)) return false;
    if (std::find(out.begin(), out.end(), seed) != out.end()) return false;  // one label per seed
    out.push_back(seed);
    if (comma == std::string::npos) return true;
    p = comma + 1;
  }
}

}  // namespace

std::size_t ScenarioReport::monotonicity_violations() const {
  std::size_t n = 0;
  for (const RingReport& r : rings) n += r.monotonicity_violations;
  return n;
}

bool ScenarioReport::consistent() const {
  return std::all_of(rings.begin(), rings.end(), [](const RingReport& r) { return r.consistent; });
}

std::string ScenarioReport::json_row() const {
  std::uint64_t replies = 0, stamped = 0;
  for (const RingReport& r : rings) {
    replies += r.replies;
    stamped += r.stamped_deliveries;
  }
  const auto field = [](const char* name, auto v) {
    return std::string(", \"") + name + "\": " + std::to_string(v);
  };
  const auto flag = [](const char* name, bool v) {
    return std::string(", \"") + name + "\": " + (v ? "true" : "false");
  };
  return "{\"seed\": " + std::to_string(seed) + field("rings", rings.size()) +
         field("replies", replies) + field("events", events) +
         field("monotonicity_violations", monotonicity_violations()) +
         flag("consistent", consistent()) + field("stamped_deliveries", stamped) +
         field("gateway_forwards", gateway_forwards) + field("cross_shard", cross_shard) +
         field("oracle_violations", oracle_violations) + flag("ok", ok) + "}";
}

ScenarioReport run_scenario(const ScenarioSpec& spec, const std::string& obs_label) {
  return spec.rings > 1 ? run_archipelago(spec, obs_label) : run_testbed(spec, obs_label);
}

std::vector<ScenarioReport> run_sweep(const ScenarioSpec& spec,
                                      const std::vector<std::uint64_t>& seeds, unsigned jobs) {
  std::vector<ScenarioReport> reports(seeds.size());
  sim::run_indexed(seeds.size(), jobs, [&](std::size_t i) {
    ScenarioSpec s = spec;
    s.seed = seeds[i];
    reports[i] = run_scenario(s, "ctsim.seed" + std::to_string(s.seed));  // slot i is job i's
  });
  return reports;
}

std::optional<ScenarioArgs> parse_scenario_args(const std::vector<std::string>& args,
                                                std::string& error) {
  ScenarioArgs a;
  ScenarioSpec& s = a.spec;
  std::size_t nseeds = 0;
  unsigned jobs = 0;  // 0: not given
  const auto fail = [&error](std::string msg) {
    error = std::move(msg);
    return std::nullopt;
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& opt = args[i];
    if (opt == "--durable" || opt == "--kv" || opt == "--verbose") {
      (opt == "--durable" ? s.durable : opt == "--kv" ? s.kv : s.verbose) = true;
      continue;
    }
    const bool has_value = i + 1 < args.size();
    const std::string v = has_value ? args[++i] : std::string();
    bool ok = true;
    if (opt == "--servers") ok = parse_num(v, s.servers) && s.servers >= 1;
    else if (opt == "--style") {
      if (v == "active") s.style = ReplicationStyle::kActive;
      else if (v == "semiactive") s.style = ReplicationStyle::kSemiActive;
      else if (v == "passive") s.style = ReplicationStyle::kPassive;
      else ok = false;
    } else if (opt == "--invocations") ok = parse_num(v, s.invocations) && s.invocations >= 0;
    else if (opt == "--think") ok = parse_time(v, s.think_us);
    else if (opt == "--seed") ok = parse_num(v, s.seed);
    else if (opt == "--loss") ok = parse_num(v, s.loss) && s.loss >= 0 && s.loss <= 1;
    else if (opt == "--clock-offset") ok = parse_time(v, s.max_clock_offset_us);
    else if (opt == "--clock-drift") ok = parse_num(v, s.max_drift_ppm) && s.max_drift_ppm >= 0;
    else if (opt == "--checkpoint-every") ok = parse_num(v, s.checkpoint_every);
    else if (opt == "--drift") {
      if (v == "none") s.drift = ccs::DriftCompensation::kNone;
      else if (v == "mean") s.drift = ccs::DriftCompensation::kMeanDelay;
      else if (v == "reference") s.drift = ccs::DriftCompensation::kReferenceBias;
      else ok = false;
    } else if (opt == "--mean-delay") ok = parse_time(v, s.mean_delay_us);
    else if (opt == "--reference-gain") {
      ok = parse_num(v, s.reference_gain) && s.reference_gain >= 0;
    } else if (opt == "--crash") ok = parse_fault(v, FaultEvent::Kind::kCrash, s.faults);
    else if (opt == "--recover") ok = parse_fault(v, FaultEvent::Kind::kRecover, s.faults);
    else if (opt == "--lanes") ok = parse_num(v, s.lanes) && s.lanes >= 1;
    else if (opt == "--rings") ok = parse_num(v, s.rings) && s.rings >= 1;
    else if (opt == "--topology") {
      const auto topo = TopologySpec::parse(v);
      ok = topo.has_value();
      if (ok) {
        s.rings = topo->rings;
        s.servers = topo->servers;
      }
    } else if (opt == "--threads") ok = parse_num(v, s.threads) && s.threads >= 1;
    else if (opt == "--metrics-json") s.metrics_json = v;
    else if (opt == "--trace-jsonl") s.trace_jsonl = v;
    else if (opt == "--seeds") ok = parse_num(v, nseeds) && nseeds >= 1;
    else if (opt == "--seed-list") ok = parse_seed_list(v, a.seeds);
    else if (opt == "--jobs") ok = parse_num(v, jobs) && jobs >= 1;
    else if (opt == "--out") a.out = v;
    else return fail("unknown option '" + opt + "'");
    if (!has_value) return fail(opt + " needs a value");
    if (!ok) return fail("invalid value '" + v + "' for " + opt);
  }

  if (a.seeds.empty()) {
    for (std::uint64_t seed = 1; seed <= nseeds; ++seed) a.seeds.push_back(seed);
  }
  if (a.seeds.empty() && (jobs != 0 || !a.out.empty())) {
    return fail("--jobs and --out need --seeds or --seed-list");
  }
  a.jobs = jobs != 0 ? jobs : std::max(1u, std::thread::hardware_concurrency());
  if (a.seeds.size() > 1) {
    // Every seed would write the same file, or interleave with the rows.
    if (s.verbose) return fail("--verbose needs a single seed");
    if (!s.metrics_json.empty() || !s.trace_jsonl.empty()) {
      return fail("--metrics-json and --trace-jsonl need a single seed (use CTS_OBS_DIR)");
    }
    if (std::getenv("CTS_METRICS_JSON") != nullptr || std::getenv("CTS_TRACE_JSONL") != nullptr) {
      return fail("CTS_METRICS_JSON and CTS_TRACE_JSONL need a single seed (use CTS_OBS_DIR)");
    }
  }
  for (const FaultEvent& f : s.faults) {
    if (f.replica >= s.servers) {
      return fail("fault references replica " + std::to_string(f.replica) + " but there are only " +
                  std::to_string(s.servers));
    }
  }
  if (s.rings > 1 && (s.durable || s.lanes > 1)) {
    return fail("--rings > 1 does not support --durable/--lanes");
  }
  if (s.style == ReplicationStyle::kPassive && s.lanes > 1) {
    return fail("--style passive supports only one lane");
  }
  return a;
}

}  // namespace cts::app
