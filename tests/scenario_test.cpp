// Tests for the scenario engine behind ctsim (app/scenario.hpp): the
// consistency judgement, seed sweeps, exports (flag and environment files
// alike, one ring or many) and the command-line parser's rejections.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "app/scenario.hpp"

namespace cts::app {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::optional<ScenarioArgs> parse(std::vector<std::string> args, std::string& error) {
  return parse_scenario_args(args, error);
}

TEST(ScenarioTest, CrashedServerZeroSemiActiveKvIsConsistent) {
  // Server 0 is down for most of the run, so its state is stale; the check
  // must compare the live replicas with each other, not with server 0.
  ScenarioSpec s;
  s.style = replication::ReplicationStyle::kSemiActive;
  s.kv = true;
  s.invocations = 2000;
  s.faults.push_back(FaultEvent{FaultEvent::Kind::kCrash, 0, 1'000'000});
  const ScenarioReport rep = run_scenario(s);
  ASSERT_EQ(rep.replicas.size(), 3u);
  EXPECT_FALSE(rep.replicas[0].alive);
  EXPECT_EQ(rep.rings.at(0).replies, 2000u);
  EXPECT_TRUE(rep.consistent());
  EXPECT_TRUE(rep.ok);
}

TEST(ScenarioTest, SweepRowsMatchAcrossJobsAndSingleRuns) {
  ScenarioSpec s;
  s.kv = true;
  s.loss = 0.01;
  s.invocations = 100;
  const std::vector<std::uint64_t> seeds{3, 1, 4, 2};
  const auto serial = run_sweep(s, seeds, 1);
  const auto parallel = run_sweep(s, seeds, 4);
  ASSERT_EQ(serial.size(), seeds.size());
  ASSERT_EQ(parallel.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(serial[i].seed, seeds[i]);
    EXPECT_TRUE(serial[i].ok) << serial[i].json_row();
    EXPECT_EQ(serial[i].json_row(), parallel[i].json_row());
    EXPECT_EQ(serial[i], parallel[i]);
    ScenarioSpec one = s;
    one.seed = seeds[i];
    EXPECT_EQ(run_scenario(one), serial[i]) << "seed " << seeds[i];
  }
  EXPECT_NE(serial[0].json_row(), serial[1].json_row());  // the seed matters
}

TEST(ScenarioTest, MergedExportsIdenticalAcrossIslandWorkers) {
  const std::string dir = ::testing::TempDir();
  std::vector<std::string> metrics, traces;
  std::vector<ScenarioReport> reports;
  for (const unsigned threads : {1u, 4u}) {
    ScenarioSpec s;
    s.rings = 4;
    s.kv = true;
    s.invocations = 60;
    s.threads = threads;
    s.metrics_json = dir + "scenario_test_w" + std::to_string(threads) + ".metrics.json";
    s.trace_jsonl = dir + "scenario_test_w" + std::to_string(threads) + ".trace.jsonl";
    reports.push_back(run_scenario(s));
    metrics.push_back(slurp(s.metrics_json));
    traces.push_back(slurp(s.trace_jsonl));
    std::remove(s.metrics_json.c_str());
    std::remove(s.trace_jsonl.c_str());
  }
  EXPECT_TRUE(reports[0].ok);
  EXPECT_GT(reports[0].gateway_forwards, 0u);
  EXPECT_EQ(reports[0].cross_shard, 0u);
  EXPECT_FALSE(metrics[0].empty());
  EXPECT_FALSE(traces[0].empty());
  EXPECT_EQ(metrics[0], metrics[1]);
  EXPECT_EQ(traces[0], traces[1]);
  EXPECT_EQ(reports[0].json_row(), reports[1].json_row());
}

TEST(ScenarioTest, FlagExportsEqualEnvExports) {
  // --metrics-json/--trace-jsonl and CTS_OBS_DIR write the same documents,
  // for one ring (one recorder) and for four (the island merge).
  const std::string dir = ::testing::TempDir();
  ASSERT_EQ(::setenv("CTS_OBS_DIR", dir.c_str(), 1), 0);
  for (const std::size_t rings : {1u, 4u}) {
    ScenarioSpec s;
    s.rings = rings;
    s.kv = true;
    s.invocations = 40;
    const std::string label = "scenario_test_env" + std::to_string(rings);
    const std::string env = dir + "/" + label;
    const std::string flag = dir + "scenario_test_flag" + std::to_string(rings);
    s.metrics_json = flag + ".metrics.json";
    s.trace_jsonl = flag + ".trace.jsonl";
    EXPECT_TRUE(run_scenario(s, label).ok) << rings << " ring(s)";
    const std::string metrics = slurp(s.metrics_json);
    EXPECT_NE(metrics.find("\"sim.events_executed\""), std::string::npos) << metrics;
    EXPECT_EQ(metrics, slurp(env + ".metrics.json")) << rings << " ring(s)";
    EXPECT_FALSE(slurp(s.trace_jsonl).empty());
    EXPECT_EQ(slurp(s.trace_jsonl), slurp(env + ".trace.jsonl")) << rings << " ring(s)";
    for (const std::string& f : {s.metrics_json, s.trace_jsonl, env + ".metrics.json",
                                 env + ".trace.jsonl"}) {
      std::remove(f.c_str());
    }
  }
  ASSERT_EQ(::unsetenv("CTS_OBS_DIR"), 0);
}

TEST(ScenarioTest, TraceExportSaysOnStderrWhenTheCapCutIt) {
  // The trace cap is 2^19 events per ring; ~44 events an invocation puts
  // 15000 invocations well past it and 40 well short.
  const std::string path = ::testing::TempDir() + "scenario_test_cap.trace.jsonl";
  for (const int invocations : {15'000, 40}) {
    ScenarioSpec s;
    s.invocations = invocations;
    s.trace_jsonl = path;
    ::testing::internal::CaptureStderr();
    const ScenarioReport rep = run_scenario(s);
    const std::string err = ::testing::internal::GetCapturedStderr();
    std::remove(path.c_str());
    EXPECT_TRUE(rep.ok) << invocations;
    const bool capped = invocations > 40;
    EXPECT_EQ(err.find("note: trace cut at its cap: ") != std::string::npos, capped) << err;
    EXPECT_EQ(err.find(" dropped (not in the export)\n") != std::string::npos, capped) << err;
  }
}

TEST(ScenarioArgsTest, ParsesEveryOptionKind) {
  std::string error;
  const auto a = parse({"--kv", "--lanes", "4", "--durable", "--crash", "1@100ms", "--recover",
                        "1@200us", "--loss", "0.01", "--think", "2s", "--mean-delay", "45",
                        "--style", "semiactive", "--drift", "mean"},
                       error);
  ASSERT_TRUE(a) << error;
  EXPECT_TRUE(a->spec.kv);
  EXPECT_TRUE(a->spec.durable);
  EXPECT_EQ(a->spec.lanes, 4u);
  ASSERT_EQ(a->spec.faults.size(), 2u);
  EXPECT_EQ(a->spec.faults[0].kind, FaultEvent::Kind::kCrash);
  EXPECT_EQ(a->spec.faults[0].at_us, 100'000);
  EXPECT_EQ(a->spec.faults[1].kind, FaultEvent::Kind::kRecover);
  EXPECT_EQ(a->spec.faults[1].at_us, 200);
  EXPECT_DOUBLE_EQ(a->spec.loss, 0.01);
  EXPECT_EQ(a->spec.think_us, 2'000'000);
  EXPECT_EQ(a->spec.mean_delay_us, 45);
  EXPECT_EQ(a->spec.style, replication::ReplicationStyle::kSemiActive);
  EXPECT_EQ(a->spec.drift, ccs::DriftCompensation::kMeanDelay);
  EXPECT_TRUE(a->seeds.empty());

  const auto t = parse({"--topology", "4x5", "--seeds", "3", "--jobs", "2"}, error);
  ASSERT_TRUE(t) << error;
  EXPECT_EQ(t->spec.rings, 4u);
  EXPECT_EQ(t->spec.servers, 5u);
  EXPECT_EQ(t->seeds, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(t->jobs, 2u);

  const auto l = parse({"--seeds", "8", "--seed-list", "9,5", "--metrics-json", "m.json"}, error);
  EXPECT_FALSE(l);  // the list overrides --seeds, and two seeds cannot share one file
  const auto one = parse({"--seed-list", "9", "--metrics-json", "m.json"}, error);
  ASSERT_TRUE(one) << error;
  EXPECT_EQ(one->seeds, std::vector<std::uint64_t>{9});
}

TEST(ScenarioArgsTest, RejectsMalformedAndContradictoryArguments) {
  const std::vector<std::vector<std::string>> bad = {
      {"--servers", "abc"},                   // not a number (used to throw)
      {"--crash", "x@1s"},                    // not a replica (used to throw)
      {"--crash", "0@1sec"},                  // unknown unit (used to mean 1 us)
      {"--crash", "0"},                       // no time
      {"--servers", "0"},                     // no replicas (used to spin)
      {"--seeds", "0x"},                      // trailing garbage (used to run nothing)
      {"--seeds", "0"},                       // no seeds
      {"--seed-list", "3,,5"},                // empty list entry
      {"--seed-list", "3,5,3"},               // one export label per seed
      {"--style", "passive", "--lanes", "2"}, // passive has one lane
      {"--seeds", "2", "--metrics-json", "m.json"},
      {"--seed-list", "3,5", "--trace-jsonl", "t.jsonl"},
      {"--seeds", "2", "--verbose"},          // narration would interleave with the rows
      {"--crash", "3@1s"},                    // replica out of range (3 servers)
      {"--servers", "5", "--recover", "5@1s"},
      {"--rings", "2", "--durable"},
      {"--topology", "2x3", "--lanes", "2"},
      {"--jobs", "4"},                        // only for sweeps
      {"--out", "rows.jsonl"},
      {"--loss", "1.5"},
      {"--invocations", "-1"},
      {"--think", "-5ms"},
      {"--threads", "0"},
      {"--topology", "4y3"},
      {"--style", "fast"},
      {"--drift", "sometimes"},
      {"--servers"},                          // missing value
      {"--bogus"},
  };
  for (const auto& args : bad) {
    std::string error;
    std::string joined;
    for (const auto& a : args) joined += a + " ";
    EXPECT_FALSE(parse(args, error)) << joined;
    EXPECT_FALSE(error.empty()) << joined;
    EXPECT_EQ(error.find('\n'), std::string::npos) << joined;
  }
}

TEST(ScenarioArgsTest, RejectsEnvExportPathsForMultiSeedRuns) {
  std::string error;
  ASSERT_EQ(::setenv("CTS_METRICS_JSON", "m.json", 1), 0);
  EXPECT_FALSE(parse({"--seeds", "2"}, error));
  EXPECT_TRUE(parse({"--seeds", "1"}, error)) << error;
  ASSERT_EQ(::unsetenv("CTS_METRICS_JSON"), 0);
  EXPECT_TRUE(parse({"--seeds", "2"}, error)) << error;
}

}  // namespace
}  // namespace cts::app
