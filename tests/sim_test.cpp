// Unit tests for the discrete-event simulator: ordering, cancellation,
// coroutine delays and the scope-owned callback awaiter.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/task_scope.hpp"

namespace cts::sim {
namespace {

TEST(SimulatorTest, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(30, [&] { order.push_back(3); });
  sim.at(10, [&] { order.push_back(1); });
  sim.at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(SimulatorTest, SimultaneousEventsFireFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) sim.at(5, [&, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, AfterSchedulesRelativeToNow) {
  Simulator sim;
  Micros fired_at = -1;
  sim.at(100, [&] { sim.after(50, [&] { fired_at = sim.now(); }); });
  sim.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(SimulatorTest, RunForSaturatesAtTheMicrosHorizon) {
  Simulator sim;
  constexpr Micros kMax = std::numeric_limits<Micros>::max();
  bool fired = false;
  sim.at(1'000, [&] { fired = true; });
  sim.run_until(500);
  // now + max would wrap into the past; run_for must clamp to the horizon
  // and mean "run everything ever scheduled".
  sim.run_for(kMax);
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), kMax);
  sim.run_for(kMax);  // already at the horizon: stays put
  EXPECT_EQ(sim.now(), kMax);
  // Events scheduled AT the horizon still run.
  bool late = false;
  sim.after(0, [&] { late = true; });
  sim.run_for(1);
  EXPECT_TRUE(late);
  EXPECT_EQ(sim.now(), kMax);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  auto id = sim.after(10, [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelAfterFireIsANoop) {
  Simulator sim;
  bool fired = false;
  auto id = sim.after(10, [&] { fired = true; });
  sim.run();
  sim.cancel(id);  // must not crash or corrupt
  EXPECT_TRUE(fired);
  sim.after(5, [] {});
  EXPECT_EQ(sim.run(), 1u);
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  std::vector<Micros> fired;
  sim.at(10, [&] { fired.push_back(10); });
  sim.at(20, [&] { fired.push_back(20); });
  sim.at(30, [&] { fired.push_back(30); });
  sim.run_until(25);
  EXPECT_EQ(fired, (std::vector<Micros>{10, 20}));
  EXPECT_EQ(sim.now(), 25);
  sim.run();
  EXPECT_EQ(fired.back(), 30);
}

TEST(SimulatorTest, RunUntilInclusiveOfBoundary) {
  Simulator sim;
  bool fired = false;
  sim.at(25, [&] { fired = true; });
  sim.run_until(25);
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, RunForAdvancesRelative) {
  Simulator sim;
  sim.run_until(100);
  bool fired = false;
  sim.after(10, [&] { fired = true; });
  sim.run_for(10);
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), 110);
}

TEST(SimulatorTest, RunRespectsMaxEvents) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 10; ++i) sim.at(i, [&] { ++count; });
  EXPECT_EQ(sim.run(3), 3u);
  EXPECT_EQ(count, 3);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.after(1, chain);
  };
  sim.after(1, chain);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), 100);
}

TEST(SimulatorTest, RngIsDeterministicPerSeed) {
  Simulator a(99), b(99);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.rng().next(), b.rng().next());
}

// --- Coroutines ---------------------------------------------------------------

Task delay_then_mark(Simulator& sim, Micros d, bool& done, Micros& at) {
  co_await sim.delay(d);
  done = true;
  at = sim.now();
}

TEST(SimulatorCoroTest, DelayResumesAtTheRightTime) {
  Simulator sim;
  bool done = false;
  Micros at = -1;
  delay_then_mark(sim, 42, done, at);
  EXPECT_FALSE(done);  // coroutine suspended at the delay
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(at, 42);
}

Task sequential_delays(Simulator& sim, std::vector<Micros>& trace) {
  co_await sim.delay(10);
  trace.push_back(sim.now());
  co_await sim.delay(20);
  trace.push_back(sim.now());
  co_await sim.delay(30);
  trace.push_back(sim.now());
}

TEST(SimulatorCoroTest, SequentialDelaysAccumulate) {
  Simulator sim;
  std::vector<Micros> trace;
  sequential_delays(sim, trace);
  sim.run();
  EXPECT_EQ(trace, (std::vector<Micros>{10, 30, 60}));
}

// --- TaskScope::await_callback ---------------------------------------------------

struct FrameProbe {
  bool* destroyed;
  ~FrameProbe() { *destroyed = true; }
};

using IntCompletion = TaskScope::Completion<int>;

/// Awaits one callback whose completion the test holds in `slot`.
Task await_slot(TaskScope& scope, std::optional<IntCompletion>& slot, bool* destroyed,
                int* resumes, int* value) {
  FrameProbe probe{destroyed};
  *value = co_await scope.await_callback<int>(
      [&slot](IntCompletion done) { slot.emplace(std::move(done)); });
  ++*resumes;
}

struct AwaitCallbackRig {
  bool destroyed = false;  // declared first: outlives the frame it observes
  int resumes = 0;
  int value = 0;
  Simulator sim;
  TaskScope scope{sim};
  std::optional<IntCompletion> slot;

  AwaitCallbackRig() { await_slot(scope, slot, &destroyed, &resumes, &value); }
};

TEST(TaskScopeAwaitCallbackTest, CompletionResumesOnceThroughOneScopeEvent) {
  AwaitCallbackRig r;
  ASSERT_TRUE(r.slot.has_value());
  EXPECT_EQ(r.sim.pending(), 0u);  // parked in the completion, not the heap
  (*r.slot)(42);
  EXPECT_EQ(r.resumes, 0);  // the resume is an event, never inline
  EXPECT_EQ(r.sim.pending(), 1u);
  EXPECT_EQ(r.scope.tracked(), 1u);  // ... owned by the scope
  EXPECT_EQ(r.sim.run(), 1u);
  EXPECT_EQ(r.resumes, 1);
  EXPECT_EQ(r.value, 42);
  EXPECT_TRUE(r.destroyed);  // ran to completion
  r.slot.reset();            // a spent completion owns nothing
  EXPECT_EQ(r.sim.run(), 0u);
  EXPECT_EQ(r.resumes, 1);
}

Task await_dropped_at_once(TaskScope& scope, bool* destroyed, int* resumes) {
  FrameProbe probe{destroyed};
  (void)co_await scope.await_callback<int>([](IntCompletion) {});
  ++*resumes;
}

TEST(TaskScopeAwaitCallbackTest, DroppedCompletionDestroysTheFrame) {
  AwaitCallbackRig r;
  ASSERT_TRUE(r.slot.has_value());
  EXPECT_FALSE(r.destroyed);
  r.slot.reset();  // the callback API gives up without answering
  EXPECT_TRUE(r.destroyed);
  EXPECT_EQ(r.sim.run(), 0u);
  EXPECT_EQ(r.resumes, 0);

  // A starter that drops the completion before returning destroys the
  // frame inside await_suspend (ASan checks nothing touches it after).
  bool destroyed = false;
  int resumes = 0;
  await_dropped_at_once(r.scope, &destroyed, &resumes);
  EXPECT_TRUE(destroyed);
  EXPECT_EQ(r.sim.run(), 0u);
  EXPECT_EQ(resumes, 0);
}

TEST(TaskScopeAwaitCallbackTest, ShutdownBetweenCompletionAndResumeDestroysTheFrame) {
  AwaitCallbackRig r;
  (*r.slot)(7);  // value stored, resume event pending
  ASSERT_FALSE(r.destroyed);
  r.scope.shutdown();  // the node crashes before its thread resumes
  EXPECT_TRUE(r.destroyed);
  EXPECT_EQ(r.scope.timers_cancelled_on_shutdown(), 1u);
  EXPECT_EQ(r.scope.frames_destroyed_on_shutdown(), 0u);  // swept, not hook-dropped
  EXPECT_EQ(r.sim.run(), 0u);
  EXPECT_EQ(r.resumes, 0);
}

}  // namespace
}  // namespace cts::sim
