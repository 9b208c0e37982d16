// perfbench_e2e — one instance of one end-to-end benchmark workload.
//
// It reaches the stack only through public entry points:
// Testbed / Archipelago construction and start(), run_until slices,
// RmiClient::call / GatewayRouter::call, crash_server / restart_server and
// Recorder export.  It times those calls from outside and reads the layers'
// public stats (TotemStats, GcsStats, CtsStats, ManagerStats, NetworkStats,
// IslandCoordinator::Stats, InterIslandLink::total_stats, Recorder counters,
// OrderingOracle::checks_run).
//
// Output on stdout: a plan line ({"plan": ...}, flushed before anything
// runs, so a caller still learns how many ops were attempted when the
// armed oracle aborts the process) and then one result line.  run.py in
// this directory runs instances, aggregates them and checks them; see
// README.md here for the workloads and metrics.
//
//   perfbench_e2e --workload NAME --seed N [--workers N] [--oracle 0|1]
//                 [--clock cts|local] [--spans PATH] [--export-dir DIR]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "app/archipelago.hpp"
#include "app/kv_store.hpp"
#include "app/testbed.hpp"
#include "app/topology.hpp"
#include "obs/recorder.hpp"
#include "sim/parallel.hpp"

using namespace cts;
using namespace cts::app;
using replication::ReplicationStyle;

namespace {

// --- Workloads -----------------------------------------------------------------

struct Workload {
  const char* name;
  std::size_t rings = 1;
  std::size_t servers = 3;
  ReplicationStyle style = ReplicationStyle::kActive;
  bool kv = false;         // lease KV instead of GET_TIME
  bool leases = false;     // KV mix: put/get/acquire 1:1:1 (else put/get 1:1)
  int ops_per_client = 0;  // one closed-loop client per ring
  Micros think_us = 0;
  double loss = 0.0;
  std::uint32_t checkpoint_every = 0;
  // Crash one replica per cycle in rotation, on durable storage (persist
  // every 10 requests), and export metrics.json + trace.jsonl at the end.
  bool churn = false;
  int pings_per_ring = 0;  // stamped cross-ring pings (ring r -> r+1)
  Micros slice_us = 0;     // host-rate sample length, in sim time
  Micros deadline_us = 0;  // sim time after start() by which every op must reply
};

// Churn cycle: replica (k mod servers) crashes 1 s into cycle k and restarts
// 2 s later, so every cycle (= one host-rate slice) carries a full
// crash/restart/recovery.
constexpr Micros kCycleUs = 4'000'000;
constexpr Micros kCrashAtUs = 1'000'000;
constexpr Micros kDownUs = 2'000'000;
constexpr Micros kSettleUs = 2'000'000;  // >= the GET_STATE retry interval
constexpr int kKeys = 64;
// Setup is milliseconds long, so each instance times several and reports all.
constexpr int kSetups = 5;

// The first three are the gated workloads (BENCHMARK.json).  Their KV
// clients mix put/get only.  The last three add lease acquires, as the KV
// workloads were first specified; at commit 755c646 they fail on some
// seeds (lease expiry diverges across replicas: kv_sharded_8x3,
// kv_churn_semiactive) or on every seed (passive restart after a promotion:
// kv_churn_passive).  They stay runnable so the defects stay visible;
// README.md has the repro for each.
constexpr Workload kWorkloads[] = {
    {.name = "fig5_time_1x3", .ops_per_client = 100'000, .slice_us = 2'000'000,
     .deadline_us = 200'000'000},
    {.name = "kv_putget_sharded_8x3", .rings = 8, .kv = true, .ops_per_client = 6'000,
     .think_us = 500, .pings_per_ring = 20, .slice_us = 500'000, .deadline_us = 120'000'000},
    {.name = "kv_putget_churn_semiactive", .style = ReplicationStyle::kSemiActive, .kv = true,
     .ops_per_client = 120'000, .think_us = 500, .loss = 0.01, .churn = true,
     .slice_us = kCycleUs, .deadline_us = 600'000'000},
    {.name = "kv_sharded_8x3", .rings = 8, .kv = true, .leases = true, .ops_per_client = 6'000,
     .think_us = 500, .pings_per_ring = 20, .slice_us = 500'000, .deadline_us = 120'000'000},
    {.name = "kv_churn_semiactive", .style = ReplicationStyle::kSemiActive, .kv = true,
     .leases = true, .ops_per_client = 40'000, .think_us = 500, .loss = 0.01, .churn = true,
     .slice_us = kCycleUs, .deadline_us = 240'000'000},
    {.name = "kv_churn_passive", .style = ReplicationStyle::kPassive, .kv = true, .leases = true,
     .ops_per_client = 40'000, .think_us = 500, .loss = 0.01, .checkpoint_every = 5,
     .churn = true, .slice_us = kCycleUs, .deadline_us = 240'000'000},
};

struct Options {
  const Workload* w = nullptr;
  std::uint64_t seed = 1;
  unsigned workers = 0;  // 0 = min(4, hardware threads)
  bool oracle = true;
  bool local_clock = false;
  std::string spans_path;
  std::string export_dir;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_e2e: %s\n"
               "usage: perfbench_e2e --workload NAME --seed N [--workers N] [--oracle 0|1]\n"
               "                     [--clock cts|local] [--spans PATH] [--export-dir DIR]\n"
               "workloads:",
               msg);
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t number(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  try {
    const std::uint64_t n = std::stoull(v, &used);
    if (used == v.size() && v[0] != '-') return n;
  } catch (const std::exception&) {
  }
  usage((flag + " takes a non-negative integer, not \"" + v + "\"").c_str());
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      for (const auto& w : kWorkloads) {
        if (v == w.name) o.w = &w;
      }
      if (o.w == nullptr) usage(("unknown workload " + v).c_str());
    } else if (a == "--seed") {
      o.seed = number(a, v);
    } else if (a == "--workers") {
      o.workers = static_cast<unsigned>(std::min<std::uint64_t>(number(a, v), 64));
    } else if (a == "--oracle") {
      o.oracle = v != "0";
    } else if (a == "--clock") {
      if (v != "cts" && v != "local") usage("--clock takes cts or local");
      o.local_clock = v == "local";
    } else if (a == "--spans") {
      o.spans_path = v;
    } else if (a == "--export-dir") {
      o.export_dir = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (o.w == nullptr) usage("--workload is required");
  if (o.local_clock && o.w->kv) usage("--clock local applies to the time-server workload only");
  if (o.workers == 0) o.workers = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  return o;
}

// --- Host clocks ------------------------------------------------------------------

using HostClock = std::chrono::steady_clock;

double seconds_since(HostClock::time_point t0) {
  return std::chrono::duration<double>(HostClock::now() - t0).count();
}

/// Process CPU time (user + sys, all threads).  The same quantity getrusage
/// reports, read from the clock the kernel keeps at nanosecond resolution:
/// getrusage rounds to the scheduler tick, which is coarse for 0.1 s slices.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- Spans (kept in memory, written once at the end) ------------------------------

struct Span {
  const char* kind;
  double host_t0 = 0, host_t1 = 0;  // host seconds since the instance began
  Micros sim_t0 = 0, sim_t1 = 0;
  std::string extra;  // pre-rendered JSON members, without braces
};

// --- Per-op records -----------------------------------------------------------------

enum class OpKind : std::uint8_t { kGetTime, kPut, kGet, kAcquire };
const char* to_string(OpKind k) {
  switch (k) {
    case OpKind::kGetTime: return "get_time";
    case OpKind::kPut: return "put";
    case OpKind::kGet: return "get";
    case OpKind::kAcquire: return "acquire";
  }
  return "?";
}

struct OpRecord {
  Micros t0;
  Micros t1;
  OpKind kind;
  bool remote;
  bool ok;
};

/// One ring's client state.  Written only by that ring's island worker while
/// the simulation runs; read by Instance::run between slices.
struct ClientState {
  std::vector<OpRecord> ops;
  Micros last_reading = 0;  // previous GET_TIME result (µs since the epoch)
  bool done = false;
};

// --- Layer counts -------------------------------------------------------------------

/// Every count the benchmark reads, summed over rings.  Snapshotted after
/// start() and at the end of the measured phase; per-op figures use the delta.
struct Counts {
  std::uint64_t events = 0, net_packets = 0, net_bytes = 0, net_dropped = 0;
  std::uint64_t link_frames = 0, link_bytes = 0, epochs = 0, posts = 0;
  std::uint64_t totem_msgs = 0, totem_frames = 0, rotations = 0, retransmits = 0,
                ring_changes = 0;
  std::uint64_t gcs_delivered = 0, gcs_dups = 0, gcs_attempted = 0, gcs_cancelled = 0,
                ccs_on_wire = 0;
  std::uint64_t cts_rounds = 0, cts_special = 0, cts_resent = 0;
  std::uint64_t promotions = 0, state_transfers = 0, replayed = 0, checkpoints = 0,
                checkpoints_rejected = 0, persists = 0;
  std::uint64_t forwards = 0, trace_recorded = 0, oracle_checks = 0;

  // Every field, in declaration order, for subtraction and JSON output.
  template <typename F>
  void each(F&& f) {
    f("events", events); f("net_packets", net_packets); f("net_bytes", net_bytes);
    f("net_dropped", net_dropped); f("link_frames", link_frames); f("link_bytes", link_bytes);
    f("epochs", epochs); f("posts", posts); f("totem_msgs", totem_msgs);
    f("totem_frames", totem_frames); f("rotations", rotations); f("retransmits", retransmits);
    f("ring_changes", ring_changes); f("gcs_delivered", gcs_delivered); f("gcs_dups", gcs_dups);
    f("gcs_attempted", gcs_attempted); f("gcs_cancelled", gcs_cancelled);
    f("ccs_on_wire", ccs_on_wire); f("cts_rounds", cts_rounds); f("cts_special", cts_special);
    f("cts_resent", cts_resent); f("promotions", promotions);
    f("state_transfers", state_transfers); f("replayed", replayed);
    f("checkpoints", checkpoints); f("checkpoints_rejected", checkpoints_rejected);
    f("persists", persists); f("forwards", forwards); f("trace_recorded", trace_recorded);
    f("oracle_checks", oracle_checks);
  }
};

/// Stats of GCS endpoints and replica managers that a restart destroyed;
/// added back so the totals cover the whole run.
struct Retired {
  std::uint64_t gcs_attempted = 0, gcs_cancelled = 0, ccs_on_wire = 0;
  std::uint64_t cts_special = 0, cts_resent = 0, replayed = 0, persists = 0;
};

// --- One instance ---------------------------------------------------------------------

class Instance {
 public:
  explicit Instance(const Options& o) : o_(o), w_(*o.w), clients_(w_.rings) {
    for (auto& c : clients_) c.ops.reserve(static_cast<std::size_t>(w_.ops_per_client));
  }

  int run();

 private:
  Testbed& ring(std::size_t r) { return ar_ ? ar_->ring(r) : *tb_; }
  Micros now() { return ar_ ? ar_->now() : tb_->sim().now(); }
  void run_until(Micros t) {
    if (ar_) ar_->run_until(t);
    else tb_->sim().run_until(t);
  }
  double host_now() const { return seconds_since(t_begin_); }

  void construct();
  void schedule_churn(Micros t0);
  void retire(std::uint32_t s);
  sim::Task client(std::size_t r);
  Counts snapshot();
  std::uint64_t replies() const;
  std::uint64_t events();
  bool all_done() const;
  void check(std::vector<std::string>& failures, std::uint64_t& failed_ops);
  void span(const char* kind, double h0, double h1, Micros s0, Micros s1, std::string extra = {});
  bool write_spans() const;

  const Options& o_;
  const Workload& w_;
  HostClock::time_point t_begin_ = HostClock::now();
  std::unique_ptr<Testbed> tb_;
  std::unique_ptr<Archipelago> ar_;
  std::vector<ClientState> clients_;
  Retired retired_;
  std::vector<Micros> restart_at_;       // per replica, sim time of the pending restart
  std::vector<double> recovery_ms_;      // restart -> recovered callback, sim ms
  std::uint64_t restarts_ = 0;
  bool churning_ = true;  // cleared when the clients finish
  std::vector<Span> spans_;
};

void Instance::span(const char* kind, double h0, double h1, Micros s0, Micros s1,
                    std::string extra) {
  if (o_.spans_path.empty()) return;
  spans_.push_back(Span{kind, h0, h1, s0, s1, std::move(extra)});
}

void Instance::construct() {
  if (w_.rings > 1) {
    ArchipelagoConfig acfg;
    acfg.topo = TopologySpec{w_.rings, w_.servers, /*with_client=*/true};
    acfg.style = w_.style;
    acfg.seed = o_.seed;
    acfg.net.loss_probability = w_.loss;
    acfg.threads = o_.workers;
    acfg.oracle = o_.oracle;
    acfg.app = [](const ShardMap& map, std::size_t r) {
      KvStoreApp::Options kopt;
      kopt.shard_map = &map;
      kopt.ring = r;
      return kv_store_factory(kopt);
    };
    ar_ = std::make_unique<Archipelago>(std::move(acfg));
    return;
  }
  TestbedConfig cfg;
  cfg.servers = w_.servers;
  cfg.style = w_.style;
  cfg.seed = o_.seed;
  cfg.net.loss_probability = w_.loss;
  cfg.checkpoint_every = w_.checkpoint_every;
  cfg.with_stable_storage = w_.churn;
  if (w_.churn) cfg.persist_every = 10;
  cfg.oracle = o_.oracle;
  if (w_.kv) cfg.factory = kv_store_factory();
  else if (o_.local_clock) cfg.factory = local_time_server_factory();
  tb_ = std::make_unique<Testbed>(std::move(cfg));
}

void Instance::retire(std::uint32_t s) {
  Testbed& tb = *tb_;
  const auto& g = tb.gcs_of(tb.server_node(s)).stats();
  for (std::size_t t = 0; t < 16; ++t) {
    retired_.gcs_attempted += g.sent_attempted[t];
    retired_.gcs_cancelled += g.sent_cancelled[t];
  }
  retired_.ccs_on_wire += g.on_wire(gcs::MsgType::kCcs);
  const auto& c = tb.server(s).time_service().stats();
  retired_.cts_special += c.special_rounds;
  retired_.cts_resent += c.proposals_resent;
  const auto& m = tb.server(s).stats();
  retired_.replayed += m.requests_replayed;
  retired_.persists += m.checkpoints_persisted;
}

void Instance::schedule_churn(Micros t0) {
  Testbed& tb = *tb_;
  restart_at_.assign(w_.servers, -1);
  const int cycles = static_cast<int>(w_.deadline_us / kCycleUs);
  for (int k = 0; k < cycles; ++k) {
    const auto s = static_cast<std::uint32_t>(static_cast<std::size_t>(k) % w_.servers);
    const Micros crash = t0 + k * kCycleUs + kCrashAtUs;
    tb.sim().at(crash, [this, s] {
      if (!churning_) return;
      const double h = host_now();
      const Micros at = tb_->sim().now();
      tb_->crash_server(s);
      span("fault.crash", h, host_now(), at, at, "\"replica\":" + std::to_string(s));
    });
    tb.sim().at(crash + kDownUs, [this, s] {
      if (!churning_) return;
      const double h = host_now();
      const Micros at = tb_->sim().now();
      retire(s);
      restart_at_[s] = at;
      ++restarts_;
      tb_->restart_server(s, [this, s] {
        const Micros done = tb_->sim().now();
        recovery_ms_.push_back(static_cast<double>(done - restart_at_[s]) / 1000.0);
        span("fault.recovered", host_now(), host_now(), restart_at_[s], done,
             "\"replica\":" + std::to_string(s));
        restart_at_[s] = -1;
      });
      span("fault.restart", h, host_now(), at, at, "\"replica\":" + std::to_string(s));
    });
  }
}

sim::Task Instance::client(std::size_t r) {
  Testbed& tb = ring(r);
  ClientState& cs = clients_[r];
  const ShardMap* map = ar_ ? &ar_->shard_map() : nullptr;
  Rng rng(o_.seed * 17 + 3 + r * 101);
  for (int i = 0; i < w_.ops_per_client; ++i) {
    if (w_.think_us > 0) co_await tb.sim().delay(w_.think_us);
    OpKind kind = OpKind::kGetTime;
    bool remote = false;
    Bytes req;
    if (w_.kv) {
      // Every other request targets a key another ring owns: exactly half
      // remote, so the local/remote split does not vary with the seed.  Keys
      // are drawn until the owner matches.
      const bool want_remote = map != nullptr && i % 2 == 1;
      std::string key;
      do {
        key = "k" + std::to_string(rng.below(kKeys));
        remote = map != nullptr && map->shard_of_key(key) != r;
      } while (remote != want_remote);
      switch (rng.below(w_.leases ? 3 : 2)) {
        case 0: kind = OpKind::kPut; req = kv_put(key, "v" + std::to_string(i)); break;
        case 1: kind = OpKind::kGet; req = kv_get(key); break;
        default:
          kind = OpKind::kAcquire;
          req = kv_acquire(key, 1 + rng.below(4), 10'000);
          break;
      }
    } else {
      req = make_get_time_request();
    }
    const Micros t0 = tb.sim().now();
    Bytes reply;
    if (ar_) reply = co_await ar_->router(r).call(std::move(req));
    else reply = co_await tb.client().call(std::move(req));
    bool ok = true;
    try {
      if (w_.kv) {
        const KvStatus st = KvReply::parse(reply).status;
        ok = st != KvStatus::kBadRequest && st != KvStatus::kRetry;
      } else {
        BytesReader rd(reply);
        const Micros sec = rd.i64();
        const Micros reading = sec * 1'000'000 + rd.i64();
        // Strictly increasing per client; the local-clock control makes no
        // such promise (paper Section 4.2), so it is not judged.
        ok = o_.local_clock || reading > cs.last_reading;
        cs.last_reading = reading;
      }
    } catch (const CodecError&) {
      ok = false;
    }
    cs.ops.push_back(OpRecord{t0, tb.sim().now(), kind, remote, ok});
  }
  cs.done = true;
}

std::uint64_t Instance::replies() const {
  std::uint64_t n = 0;
  for (const auto& c : clients_) n += c.ops.size();
  return n;
}

std::uint64_t Instance::events() {
  std::uint64_t n = 0;
  for (std::size_t r = 0; r < w_.rings; ++r) n += ring(r).sim().events_executed();
  return n;
}

bool Instance::all_done() const {
  return std::all_of(clients_.begin(), clients_.end(), [](const auto& c) { return c.done; });
}

Counts Instance::snapshot() {
  Counts c;
  for (std::size_t r = 0; r < w_.rings; ++r) {
    Testbed& tb = ring(r);
    obs::Recorder& rec = tb.recorder();
    c.events += tb.sim().events_executed();
    const auto& ns = tb.net().stats();
    c.net_packets += ns.packets_sent;
    c.net_bytes += ns.bytes_sent;
    c.net_dropped += ns.packets_dropped;
    const std::uint32_t nodes = static_cast<std::uint32_t>(w_.servers) + 1;
    for (std::uint32_t n = 0; n < nodes; ++n) {
      const auto& ts = tb.totem_of(n).stats();
      c.totem_msgs += ts.msgs_multicast;
      c.totem_frames += ts.batch_frames_sent;
      const auto& g = tb.gcs_of(n).stats();
      for (std::size_t t = 0; t < 16; ++t) {
        c.gcs_attempted += g.sent_attempted[t];
        c.gcs_cancelled += g.sent_cancelled[t];
      }
      if (n > 0) c.ccs_on_wire += g.on_wire(gcs::MsgType::kCcs);
    }
    for (std::uint32_t s = 0; s < tb.server_count(); ++s) {
      const auto& cts = tb.server(s).time_service().stats();
      c.cts_special += cts.special_rounds;
      c.cts_resent += cts.proposals_resent;
      c.replayed += tb.server(s).stats().requests_replayed;
      c.persists += tb.server(s).stats().checkpoints_persisted;
    }
    c.rotations += rec.counter("totem.token_rotations").value;
    c.retransmits += rec.counter("totem.msgs_retransmitted").value;
    c.ring_changes += rec.counter("totem.ring_changes").value;
    c.gcs_delivered += rec.counter("gcs.delivered").value;
    c.gcs_dups += rec.counter("gcs.duplicates_dropped").value;
    // Each CCS round has exactly one synchronizer, so the winners' tally is
    // the group's round count even while replicas come and go.
    c.cts_rounds += rec.counter("cts.rounds_won").value;
    c.promotions += rec.counter("repl.promotions").value;
    c.state_transfers += rec.counter("repl.state_transfers_served").value;
    c.checkpoints += rec.counter("repl.checkpoints_taken").value;
    c.checkpoints_rejected += rec.counter("repl.checkpoints_rejected").value;
    c.forwards += rec.counter("gateway.forwards").value;
    c.trace_recorded += rec.trace().recorded();
    if (const auto* orc = rec.oracle()) c.oracle_checks += orc->checks_run();
  }
  c.gcs_attempted += retired_.gcs_attempted;
  c.gcs_cancelled += retired_.gcs_cancelled;
  c.ccs_on_wire += retired_.ccs_on_wire;
  c.cts_special += retired_.cts_special;
  c.cts_resent += retired_.cts_resent;
  c.replayed += retired_.replayed;
  c.persists += retired_.persists;
  if (ar_) {
    const auto link = ar_->link().total_stats();
    c.link_frames = link.frames_sent;
    c.link_bytes = link.bytes_sent;
    c.epochs = ar_->coordinator().stats().epochs;
    c.posts = ar_->coordinator().stats().posts;
  }
  return c;
}

void Instance::check(std::vector<std::string>& failures, std::uint64_t& failed_ops) {
  for (std::size_t r = 0; r < w_.rings; ++r) {
    Testbed& tb = ring(r);
    ClientState& cs = clients_[r];
    std::uint64_t ring_failed = static_cast<std::uint64_t>(w_.ops_per_client) - cs.ops.size();
    for (const auto& op : cs.ops) ring_failed += op.ok ? 0 : 1;
    if (cs.ops.size() < static_cast<std::size_t>(w_.ops_per_client)) {
      failures.push_back("ring " + std::to_string(r) + ": " +
                         std::to_string(w_.ops_per_client - static_cast<int>(cs.ops.size())) +
                         " ops got no reply before the deadline");
    }
    // Live, recovered replicas must agree with the first live one (passive
    // backups hold checkpointed state, not live state, and are skipped).
    // The local-clock control diverges by design and is not judged.
    bool agree = true;
    int live = 0;
    std::string states;  // per-replica summary for the failure message
    const KvStoreApp* first_kv = nullptr;
    const TimeServerApp* first_ts = nullptr;
    for (std::uint32_t s = 0; s < tb.server_count() && !o_.local_clock; ++s) {
      if (!tb.clock_of(tb.server_node(s)).alive() || !tb.server(s).recovered()) continue;
      if (w_.style == ReplicationStyle::kPassive && !tb.server(s).is_primary()) continue;
      ++live;
      if (w_.kv) {
        const auto& a = static_cast<const KvStoreApp&>(tb.server(s).app());
        states += " r" + std::to_string(s) + "=" + std::to_string(a.state_digest());
        if (first_kv == nullptr) first_kv = &a;
        else agree &= a.state_digest() == first_kv->state_digest();
      } else {
        const auto& a = tb.server_app(s);
        states += " r" + std::to_string(s) + "=" + std::to_string(a.time_history().size());
        if (first_ts == nullptr) first_ts = &a;
        else agree &= a.time_history() == first_ts->time_history();
      }
    }
    if (!o_.local_clock && live == 0) {
      failures.push_back("ring " + std::to_string(r) + ": no live recovered replica");
      agree = false;
    }
    if (!agree) {
      failures.push_back("ring " + std::to_string(r) + ": live replicas disagree:" + states);
      ring_failed = static_cast<std::uint64_t>(w_.ops_per_client);
    }
    if (const auto* orc = tb.recorder().oracle()) {
      if (orc->violations() + orc->cross_shard_violations() > 0) {
        failures.push_back("ring " + std::to_string(r) + ": oracle reported violations");
        ring_failed = static_cast<std::uint64_t>(w_.ops_per_client);
      }
    }
    if (ar_ && w_.pings_per_ring > 0) {
      // Every replica of the receiving ring delivers every stamped ping.
      const auto want = static_cast<std::uint64_t>(w_.pings_per_ring) * w_.servers;
      if (ar_->stamped_deliveries(r) != want) {
        failures.push_back("ring " + std::to_string(r) + ": " +
                           std::to_string(ar_->stamped_deliveries(r)) + " of " +
                           std::to_string(want) + " stamped ping deliveries");
      }
    }
    failed_ops += ring_failed;
  }
  if (restarts_ > recovery_ms_.size()) {
    failures.push_back(std::to_string(restarts_ - recovery_ms_.size()) +
                       " restarted replicas never recovered");
  }
}

bool Instance::write_spans() const {
  std::FILE* f = std::fopen(o_.spans_path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& s : spans_) {
    std::fprintf(f,
                 "{\"kind\":\"%s\",\"host_t0\":%.9f,\"host_t1\":%.9f,\"sim_t0\":%lld,"
                 "\"sim_t1\":%lld%s%s}\n",
                 s.kind, s.host_t0, s.host_t1, static_cast<long long>(s.sim_t0),
                 static_cast<long long>(s.sim_t1), s.extra.empty() ? "" : ",", s.extra.c_str());
  }
  for (std::size_t r = 0; r < clients_.size(); ++r) {
    const auto& ops = clients_[r].ops;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      std::fprintf(f,
                   "{\"kind\":\"client.op\",\"sim_t0\":%lld,\"sim_t1\":%lld,\"ring\":%zu,"
                   "\"inv\":%zu,\"op\":\"%s\",\"route\":\"%s\",\"ok\":%s}\n",
                   static_cast<long long>(ops[i].t0), static_cast<long long>(ops[i].t1), r,
                   i + 1, to_string(ops[i].kind), ops[i].remote ? "remote" : "local",
                   ops[i].ok ? "true" : "false");
    }
  }
  return std::fclose(f) == 0;
}

// --- JSON helpers -------------------------------------------------------------------

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Nearest-rank percentile of a sorted sample.
Micros percentile(const std::vector<Micros>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(sorted.size()));
  return sorted[std::min(rank, sorted.size() - 1)];
}

int Instance::run() {
  std::printf("{\"plan\":{\"workload\":\"%s\",\"ops\":%llu}}\n", w_.name,
              static_cast<unsigned long long>(w_.ops_per_client) * w_.rings);
  std::fflush(stdout);

  // --- Setup, timed kSetups times; the last deployment runs the workload ---
  std::vector<double> construct_s, start_s;
  double h0 = 0;
  for (int k = 0; k < kSetups; ++k) {
    ar_.reset();
    tb_.reset();
    h0 = host_now();
    construct();
    construct_s.push_back(host_now() - h0);
    span("setup.construct", h0, h0 + construct_s.back(), 0, now());
    h0 = host_now();
    if (ar_) ar_->start();
    else tb_->start();
    start_s.push_back(host_now() - h0);
    span("setup.start", h0, h0 + start_s.back(), 0, now());
  }

  // --- Workload ---
  const Micros t0 = now();
  for (std::size_t r = 0; r < w_.rings; ++r) client(r);
  if (ar_) {
    // Cross-ring ping chain: pings_per_ring stamped broadcasts per ring,
    // 100 ms apart, ring r -> ring (r+1) % rings.
    for (std::size_t r = 0; r < w_.rings; ++r) {
      for (int k = 0; k < w_.pings_per_ring; ++k) {
        ar_->stamped_broadcast_at(t0 + 100'000 * (k + 1) + static_cast<Micros>(r) * 7'000, r,
                                  (r + 1) % w_.rings, Bytes{static_cast<std::uint8_t>(k)});
      }
    }
  }
  if (w_.churn) schedule_churn(t0);

  // --- Measured phase: fixed sim-time slices until every client is done ---
  Counts c0 = snapshot();
  std::ostringstream slices;
  std::size_t nslices = 0;
  const double measure_h0 = host_now();
  const double cpu0 = process_cpu_s();
  Micros sim_at = t0;
  while (!all_done() && sim_at < t0 + w_.deadline_us) {
    const std::uint64_t ops_before = replies();
    const std::uint64_t ev_before = events();
    const double hs = host_now();
    const double cs = process_cpu_s();
    run_until(sim_at + w_.slice_us);
    const double he = host_now();
    const double ce = process_cpu_s();
    const std::uint64_t ops = replies() - ops_before;
    const std::uint64_t ev = events() - ev_before;
    // The slice in which the last client finishes is partly idle; it is
    // reported but flagged so rate statistics can leave it out.
    const bool full = !all_done();
    slices << (nslices++ ? "," : "") << "[" << ops << "," << num(he - hs) << "," << num(ce - cs)
           << "," << ev << "," << (full ? 1 : 0) << "]";
    span("run.slice", hs, he, sim_at, sim_at + w_.slice_us,
         "\"events\":" + std::to_string(ev) + ",\"ops\":" + std::to_string(ops));
    sim_at += w_.slice_us;
  }
  const double measure_s = host_now() - measure_h0;
  const double measure_cpu_s = process_cpu_s() - cpu0;
  Counts c1 = snapshot();
  std::uint64_t peak_pending = 0;
  std::uint64_t trace_dropped = 0;
  for (std::size_t r = 0; r < w_.rings; ++r) {
    peak_pending += ring(r).sim().slot_capacity();
    trace_dropped += ring(r).recorder().trace().dropped();
  }

  // Stop the fault schedule (a replica that is down stays down) and let the
  // group go quiet: in-flight requests and lease timers finish, and a
  // restarted replica completes its recovery, before the consistency check.
  // Not part of the measured phase.
  churning_ = false;
  run_until(now() + kSettleUs);

  // --- Export (churn workloads) ---
  double export_s = 0;
  std::uint64_t export_bytes = 0;
  if (w_.churn && !o_.export_dir.empty()) {
    const std::string m = o_.export_dir + "/" + w_.name + ".metrics.json";
    const std::string t = o_.export_dir + "/" + w_.name + ".trace.jsonl";
    h0 = host_now();
    const bool ok = tb_->recorder().export_files(m, t);
    export_s = host_now() - h0;
    span("export", h0, h0 + export_s, now(), now());
    if (!ok) {
      std::fprintf(stderr, "perfbench_e2e: could not write %s / %s\n", m.c_str(), t.c_str());
      return 1;
    }
    export_bytes = std::filesystem::file_size(m) + std::filesystem::file_size(t);
  }

  // --- Correctness ---
  h0 = host_now();
  std::vector<std::string> failures;
  std::uint64_t failed_ops = 0;
  check(failures, failed_ops);
  span("check", h0, host_now(), now(), now(),
       "\"failures\":" + std::to_string(failures.size()));

  // --- Sim-time latency (exact) ---
  std::vector<Micros> lat, lat_local, lat_remote;
  Micros outage = 0;
  for (const auto& cs : clients_) {
    Micros prev = -1;
    for (const auto& op : cs.ops) {
      lat.push_back(op.t1 - op.t0);
      (op.remote ? lat_remote : lat_local).push_back(op.t1 - op.t0);
      if (prev >= 0) outage = std::max(outage, op.t1 - prev);
      prev = op.t1;
    }
  }
  for (auto* v : {&lat, &lat_local, &lat_remote}) std::sort(v->begin(), v->end());
  std::vector<double> rec = recovery_ms_;
  std::sort(rec.begin(), rec.end());

  const bool spans_ok = o_.spans_path.empty() || write_spans();
  if (!spans_ok) failures.push_back("could not write spans to " + o_.spans_path);

  // --- Result line ---
  std::ostringstream out;
  out << "{\"workload\":\"" << w_.name << "\",\"seed\":" << o_.seed
      << ",\"workers\":" << (ar_ ? o_.workers : 1u) << ",\"oracle\":" << (o_.oracle ? 1 : 0)
      << ",\"clock\":\"" << (o_.local_clock ? "local" : "cts") << "\""
      << ",\"build\":{\"compiler\":\"" << PERFBENCH_COMPILER << "\",\"type\":\""
      << PERFBENCH_BUILD_TYPE << "\"}"
      << ",\"ops_planned\":" << w_.ops_per_client * static_cast<long long>(w_.rings)
      << ",\"ops_done\":" << replies() << ",\"ops_failed\":" << failed_ops << ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    out << (i ? "," : "") << "\"" << failures[i] << "\"";
  }
  auto list = [](const std::vector<double>& v) {
    std::string sl = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) sl += ",";
      sl += num(v[i]);
    }
    return sl + "]";
  };
  out << "],\"host\":{\"construct_s\":" << list(construct_s)
      << ",\"start_s\":" << list(start_s) << ",\"measure_s\":" << num(measure_s) << ",\"measure_cpu_s\":" << num(measure_cpu_s)
      << ",\"export_s\":" << num(export_s) << ",\"peak_rss_mb\":" << num(peak_rss_mb())
      << ",\"slices\":[" << slices.str() << "]}"
      << ",\"sim\":{\"lat_n\":" << lat.size() << ",\"lat_p50_us\":" << percentile(lat, 0.5)
      << ",\"lat_p99_us\":" << percentile(lat, 0.99)
      << ",\"lat_p999_us\":" << percentile(lat, 0.999)
      << ",\"outage_ms\":" << num(static_cast<double>(outage) / 1000.0)
      << ",\"local_n\":" << lat_local.size() << ",\"local_p50_us\":" << percentile(lat_local, 0.5)
      << ",\"remote_n\":" << lat_remote.size()
      << ",\"remote_p50_us\":" << percentile(lat_remote, 0.5) << ",\"restarts\":" << restarts_
      << ",\"recovery_n\":" << rec.size() << ",\"recovery_p50_ms\":"
      << num(rec.empty() ? 0.0 : rec[rec.size() / 2])
      << ",\"recovery_max_ms\":" << num(rec.empty() ? 0.0 : rec.back())
      << ",\"peak_pending\":" << peak_pending << ",\"trace_dropped\":" << trace_dropped
      << ",\"export_bytes\":" << export_bytes << "},\"counts\":{";
  bool first = true;
  c1.each([&](const char* name, std::uint64_t& v) {
    out << (first ? "" : ",") << "\"" << name << "\":" << v;
    first = false;
  });
  out << "},\"counts_before\":{";
  first = true;
  Counts cb = c0;
  cb.each([&](const char* name, std::uint64_t& v) {
    out << (first ? "" : ",") << "\"" << name << "\":" << v;
    first = false;
  });
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  return failures.empty() && failed_ops == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  Instance inst(o);
  return inst.run();
}
