// sim::run_indexed: the seed-sweep runner behind ctsim --seeds.  The sweep
// rows themselves (identical for any --jobs) are checked end to end by
// ScenarioTest.SweepRowsMatchAcrossJobsAndSingleRuns.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "sim/sweep.hpp"

namespace cts {
namespace {

TEST(ScenarioSweep, ResultsKeepRegistrationOrder) {
  constexpr std::size_t kScenarios = 16;
  // Each index owns its slot, so the results read back in index order for
  // any worker count, whatever order the workers claimed the indices in.
  for (unsigned jobs : {1u, 4u, 16u, 32u}) {
    std::vector<std::size_t> results(kScenarios, 0);
    sim::run_indexed(kScenarios, jobs, [&](std::size_t i) { results[i] = i * i; });
    for (std::size_t i = 0; i < kScenarios; ++i) {
      EXPECT_EQ(results[i], i * i) << "jobs " << jobs << " index " << i;
    }
  }
}

TEST(ScenarioSweep, AllScenariosRunExactlyOnce) {
  constexpr std::size_t kScenarios = 25;
  // 32 workers is more than there are indices: the pool is clamped to 25.
  for (unsigned jobs : {1u, 4u, 32u}) {
    std::atomic<std::size_t> runs{0};
    std::vector<int> calls(kScenarios, 0);
    sim::run_indexed(kScenarios, jobs, [&](std::size_t i) {
      runs.fetch_add(1, std::memory_order_relaxed);
      ++calls[i];
    });
    EXPECT_EQ(runs.load(), kScenarios) << "jobs " << jobs;
    for (std::size_t i = 0; i < kScenarios; ++i) {
      EXPECT_EQ(calls[i], 1) << "jobs " << jobs << " index " << i;
    }
  }

  // One worker runs every index inline on the caller, in order.
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  sim::run_indexed(5, 1, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace cts
