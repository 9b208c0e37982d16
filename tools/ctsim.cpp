// ctsim — scenario driver for the consistent time service stack.
//
// Runs the full simulated testbed (client + replicated time server or KV
// store) under a user-specified topology, replication style, workload,
// network conditions and fault schedule, then reports latency, CCS
// traffic, drift and consistency checks.  With --seeds/--seed-list it runs
// the same scenario once per seed across --jobs workers and writes one
// JSON row per seed, identical for any worker count.  The engine is
// app/scenario.hpp; this file parses, runs and prints.
//
// Examples:
//   ctsim --servers 5 --invocations 2000
//   ctsim --style passive --checkpoint-every 10 --crash 0@200ms --invocations 500
//   ctsim --servers 3 --loss 0.02 --crash 2@100ms --recover 2@400ms --seed 9
//   ctsim --style semiactive --drift mean --mean-delay 45 --invocations 10000
//   ctsim --topology 4x3 --kv --seeds 8 --jobs 4 --out sweep.jsonl
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "app/scenario.hpp"

using namespace cts;
using namespace cts::app;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --servers N             server replicas (default 3)\n"
      "  --style S               active | semiactive | passive (default active)\n"
      "  --invocations N         client invocations (default 1000)\n"
      "  --think US              client think time between invocations, us (default 500)\n"
      "  --seed N                experiment seed (default 1)\n"
      "  --loss P                packet loss probability (default 0)\n"
      "  --clock-offset US       max initial hw clock offset, us (default 500000)\n"
      "  --clock-drift PPM       max hw clock drift, ppm (default 50)\n"
      "  --checkpoint-every N    passive checkpoint cadence, requests (default 5)\n"
      "  --drift D               none | mean | reference (drift compensation)\n"
      "  --mean-delay US         mean-delay compensation constant (default 40)\n"
      "  --reference-gain G      reference-bias gain (default 0.1)\n"
      "  --crash R@T             crash replica R at time T (e.g. 2@100ms, 0@1s; units s|ms|us)\n"
      "  --recover R@T           recover replica R at time T\n"
      "  --lanes N               request-processing lanes per replica (default 1)\n"
      "  --rings N               Totem rings; >1 runs the multi-ring archipelago (default 1)\n"
      "  --topology RxS          shorthand for --rings R --servers S (\"4x6\"; bare \"R\" ok)\n"
      "  --threads N             island worker threads, identical schedule for any N\n"
      "                          (default CTS_SIM_THREADS or 1)\n"
      "  --durable               stable storage: persist checkpoints to local disk\n"
      "  --kv                    drive the lease KV store instead of the time server\n"
      "  --metrics-json PATH     write per-layer metrics (counters/gauges/histograms) as JSON\n"
      "  --trace-jsonl PATH      write the structured event trace as JSON lines\n"
      "  --verbose               per-event narration\n"
      "  --seeds N               sweep: run seeds 1..N, one JSON row each\n"
      "  --seed-list A,B         sweep: run exactly these seeds (overrides --seeds)\n"
      "  --jobs N                sweep worker threads (default: hardware concurrency)\n"
      "  --out PATH              sweep: write the JSON rows here (default stdout)\n",
      argv0);
  std::exit(2);
}

const char* style_name(replication::ReplicationStyle s) {
  return s == replication::ReplicationStyle::kActive       ? "active"
         : s == replication::ReplicationStyle::kSemiActive ? "semiactive"
                                                           : "passive";
}

void print_testbed(const ScenarioSpec& s, const ScenarioReport& rep) {
  const RingReport& ring = rep.rings[0];
  std::printf("# ctsim  servers=%zu style=%s invocations=%d seed=%llu loss=%.3f\n\n", s.servers,
              style_name(s.style), s.invocations, (unsigned long long)s.seed, s.loss);
  std::printf("end-to-end latency: mean=%.1f us  p50=%lld  p99=%lld  max=%lld\n", ring.lat_mean_us,
              (long long)ring.lat_p50_us, (long long)ring.lat_p99_us, (long long)ring.lat_max_us);
  if (!s.kv) {
    std::printf("replies: %zu of %d;  monotonicity violations: %zu\n", ring.replies, s.invocations,
                ring.monotonicity_violations);
  }
  std::printf("CCS rounds: %llu;  CCS messages on the wire: %llu (%.3f per round)\n",
              (unsigned long long)rep.ccs_rounds, (unsigned long long)rep.ccs_messages,
              rep.ccs_rounds ? (double)rep.ccs_messages / (double)rep.ccs_rounds : 0.0);
  std::printf("replica state consistent: %s\n", ring.consistent ? "yes" : "NO");

  std::printf("\nper-replica detail:\n");
  for (std::size_t r = 0; r < rep.replicas.size(); ++r) {
    const ReplicaReport& x = rep.replicas[r];
    std::printf(
        "  r%zu%-2s processed=%llu replayed=%llu ckpt=%llu/%llu rounds=%llu won=%llu "
        "sends=%llu avoided=%llu offset=%lld\n",
        r + 1, !x.alive ? "✗" : x.primary ? "*" : "", (unsigned long long)x.processed,
        (unsigned long long)x.replayed, (unsigned long long)x.checkpoints_taken,
        (unsigned long long)x.checkpoints_applied, (unsigned long long)x.rounds,
        (unsigned long long)x.rounds_won, (unsigned long long)x.sends,
        (unsigned long long)x.sends_avoided, (long long)x.clock_offset_us);
  }
  if (s.verbose) std::printf("\n%s", rep.summaries[0].c_str());
}

void print_archipelago(const ScenarioSpec& s, const ScenarioReport& rep) {
  std::printf("# ctsim  rings=%zu servers=%zu style=%s invocations=%d seed=%llu loss=%.3f "
              "threads=%u\n\n",
              s.rings, s.servers, style_name(s.style), s.invocations, (unsigned long long)s.seed,
              s.loss, s.threads);
  for (std::size_t r = 0; r < rep.rings.size(); ++r) {
    const RingReport& ring = rep.rings[r];
    std::printf("ring %zu: replies=%zu/%d  latency mean=%.1f us p99=%lld  "
                "monotonicity violations=%zu  consistent=%s  stamped-deliveries=%llu\n",
                r, ring.replies, s.invocations, ring.lat_mean_us, (long long)ring.lat_p99_us,
                ring.monotonicity_violations, ring.consistent ? "yes" : "NO",
                (unsigned long long)ring.stamped_deliveries);
  }
  std::printf("\ncross-ring: %llu frames (%llu bytes) over the link;  "
              "coordinator: %llu epochs, %llu posts, %llu events\n",
              (unsigned long long)rep.link_frames, (unsigned long long)rep.link_bytes,
              (unsigned long long)rep.epochs, (unsigned long long)rep.posts,
              (unsigned long long)rep.coordinated_events);
  std::printf("gateway: forwards=%llu misroutes=%llu;  oracle.cross_shard=%llu\n",
              (unsigned long long)rep.gateway_forwards, (unsigned long long)rep.gateway_misroutes,
              (unsigned long long)rep.cross_shard);
  std::printf("total monotonicity violations: %zu;  all rings consistent: %s\n",
              rep.monotonicity_violations(), rep.consistent() ? "yes" : "NO");
  if (s.verbose) {
    for (std::size_t r = 0; r < rep.summaries.size(); ++r) {
      std::printf("\n--- ring %zu ---\n%s", r, rep.summaries[r].c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const auto args = parse_scenario_args(std::vector<std::string>(argv + 1, argv + argc), error);
  if (!args) {
    std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
    usage(argv[0]);
  }
  const ScenarioSpec& spec = args->spec;

  if (args->seeds.empty()) {
    const ScenarioReport rep = run_scenario(spec);
    if (spec.rings > 1) print_archipelago(spec, rep);
    else print_testbed(spec, rep);
    return rep.ok ? 0 : 1;
  }

  const auto reports = run_sweep(spec, args->seeds, args->jobs);
  std::string rows;
  bool ok = true;
  for (const ScenarioReport& rep : reports) {
    rows += rep.json_row() + "\n";
    ok = ok && rep.ok;
  }
  std::FILE* f = args->out.empty() ? stdout : std::fopen(args->out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", args->out.c_str());
    return 2;
  }
  std::fputs(rows.c_str(), f);
  if (f != stdout) std::fclose(f);
  std::fprintf(stderr, "ctsim: %zu scenarios, %u jobs, %s\n", reports.size(), args->jobs,
               ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}
