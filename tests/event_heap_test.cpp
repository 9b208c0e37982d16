// Unit tests for the simulator's EventHeap (indexed binary heap + slot map)
// and the InlineFn callback type it stores: strict (time, seq) pop order,
// in-place cancellation from every heap position, in-place reschedule, slot
// recycling under fire/cancel churn, and a randomized differential check
// against a std::multimap oracle.  The InlineFn cases also cover the
// callable's other role, the move-only completion callbacks the layers
// above the simulator exchange: arguments, return values and
// destroy-on-drop of a parked coroutine frame.
#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/inline_fn.hpp"
#include "common/rng.hpp"
#include "sim/event_heap.hpp"
#include "sim/simulator.hpp"

namespace cts::sim {
namespace {

// Convenience: push an entry that appends `tag` to `order` when popped.
EventHeap::Handle push_tag(EventHeap& h, Micros t, std::uint64_t seq, std::vector<int>& order,
                           int tag) {
  return h.push(t, seq, [&order, tag] { order.push_back(tag); });
}

TEST(EventHeapTest, PopsInTimeOrder) {
  EventHeap h;
  std::vector<int> order;
  push_tag(h, 30, 0, order, 3);
  push_tag(h, 10, 1, order, 1);
  push_tag(h, 20, 2, order, 2);
  while (!h.empty()) h.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventHeapTest, EqualTimesPopInFifoSeqOrder) {
  EventHeap h;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) push_tag(h, 100, static_cast<std::uint64_t>(i), order, i);
  while (!h.empty()) h.pop().fn();
  std::vector<int> expect;
  for (int i = 0; i < 16; ++i) expect.push_back(i);
  EXPECT_EQ(order, expect);
}

TEST(EventHeapTest, CancelTopMiddleAndLast) {
  // Build a heap whose array layout we can reason about: pushing 1..7 in
  // increasing time order leaves position 0 = earliest and position n-1 =
  // one of the leaves.  Cancel the top, an interior entry, and the final
  // array element; the rest must still pop in order.
  EventHeap h;
  std::vector<int> order;
  std::vector<EventHeap::Handle> handles;
  for (int i = 1; i <= 7; ++i) {
    handles.push_back(push_tag(h, 10 * i, static_cast<std::uint64_t>(i), order, i));
  }
  EXPECT_TRUE(h.cancel(handles[0]));  // top (time 10)
  EXPECT_TRUE(h.cancel(handles[3]));  // interior (time 40)
  EXPECT_TRUE(h.cancel(handles[6]));  // last array slot (time 70)
  EXPECT_EQ(h.size(), 4u);
  while (!h.empty()) h.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 5, 6}));
}

TEST(EventHeapTest, CancelIsGenerationCheckedAfterFire) {
  EventHeap h;
  std::vector<int> order;
  const auto a = push_tag(h, 10, 0, order, 1);
  h.pop().fn();  // `a` fires
  // The slot is recycled by the next push; the stale handle must not be
  // able to cancel the new occupant.
  const auto b = push_tag(h, 20, 1, order, 2);
  EXPECT_FALSE(h.cancel(a));
  EXPECT_EQ(h.size(), 1u);
  h.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_FALSE(h.cancel(b));  // fired handles are stale too
}

TEST(EventHeapTest, CancelTwiceIsIdempotent) {
  EventHeap h;
  std::vector<int> order;
  const auto a = push_tag(h, 10, 0, order, 1);
  EXPECT_TRUE(h.cancel(a));
  EXPECT_FALSE(h.cancel(a));
  EXPECT_TRUE(h.empty());
}

TEST(EventHeapTest, DefaultHandleNeverResolves) {
  EventHeap h;
  std::vector<int> order;
  push_tag(h, 10, 0, order, 1);
  EXPECT_FALSE(h.cancel(EventHeap::Handle{}));
  EXPECT_FALSE(h.reschedule(EventHeap::Handle{}, 5, 99));
  EXPECT_EQ(h.size(), 1u);
}

TEST(EventHeapTest, RescheduleLaterKeepsCallbackAndReorders) {
  EventHeap h;
  std::vector<int> order;
  const auto a = push_tag(h, 10, 0, order, 1);
  push_tag(h, 20, 1, order, 2);
  EXPECT_TRUE(h.reschedule(a, 30, 2));  // 1 moves behind 2
  while (!h.empty()) h.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EventHeapTest, RescheduleEarlierKeepsCallbackAndReorders) {
  EventHeap h;
  std::vector<int> order;
  push_tag(h, 10, 0, order, 1);
  const auto b = push_tag(h, 20, 1, order, 2);
  push_tag(h, 15, 2, order, 3);
  EXPECT_TRUE(h.reschedule(b, 5, 3));  // 2 jumps to the front
  while (!h.empty()) h.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
}

TEST(EventHeapTest, RescheduleStaleHandleFails) {
  EventHeap h;
  std::vector<int> order;
  const auto a = push_tag(h, 10, 0, order, 1);
  h.pop().fn();
  EXPECT_FALSE(h.reschedule(a, 20, 1));
  const auto b = push_tag(h, 20, 1, order, 2);
  EXPECT_TRUE(h.cancel(b));
  EXPECT_FALSE(h.reschedule(b, 30, 2));
}

TEST(EventHeapTest, SlotsAreRecycledUnderChurn) {
  // Fire/cancel churn far beyond the live set must not grow the slot
  // arena: its size tracks the peak number of simultaneously pending
  // events, not the total ever scheduled.
  EventHeap h;
  std::vector<int> order;
  std::uint64_t seq = 0;
  for (int round = 0; round < 10'000; ++round) {
    const auto a = push_tag(h, round, seq++, order, 0);
    const auto b = push_tag(h, round, seq++, order, 1);
    h.pop().fn();       // fire one
    h.cancel(b);        // cancel the other
    h.cancel(a);        // stale cancel-after-fire: generation-checked no-op
  }
  EXPECT_TRUE(h.empty());
  EXPECT_LE(h.slot_capacity(), 4u);
}

// Differential fuzz: random push/pop/cancel/reschedule against a
// std::multimap<(time, seq)> oracle.  The heap must agree with the oracle
// on every pop (time and identity) and on the final size.
TEST(EventHeapTest, FuzzAgainstMultimapOracle) {
  EventHeap h;
  Rng rng(20'260'807);

  struct Live {
    EventHeap::Handle handle;
    std::multimap<std::pair<Micros, std::uint64_t>, int>::iterator it;
  };
  std::multimap<std::pair<Micros, std::uint64_t>, int> oracle;  // key -> tag
  std::vector<Live> live;
  std::vector<int> popped;
  int next_tag = 0;
  std::uint64_t seq = 0;

  for (int step = 0; step < 50'000; ++step) {
    const auto op = rng.below(100);
    if (op < 45 || live.empty()) {  // push
      const Micros t = static_cast<Micros>(rng.below(1'000));
      const int tag = next_tag++;
      const auto handle = h.push(t, seq, [&popped, tag] { popped.push_back(tag); });
      live.push_back({handle, oracle.emplace(std::make_pair(t, seq), tag)});
      ++seq;
    } else if (op < 75) {  // pop
      ASSERT_FALSE(h.empty());
      ASSERT_EQ(h.size(), oracle.size());
      const auto expect = oracle.begin();
      ASSERT_EQ(h.top_time(), expect->first.first);
      auto fired = h.pop();
      fired.fn();
      ASSERT_EQ(popped.back(), expect->second);
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (live[i].it == expect) {
          live[i] = live.back();
          live.pop_back();
          break;
        }
      }
      oracle.erase(expect);
    } else if (op < 90) {  // cancel a random live entry
      const auto i = static_cast<std::size_t>(rng.below(live.size()));
      ASSERT_TRUE(h.cancel(live[i].handle));
      oracle.erase(live[i].it);
      live[i] = live.back();
      live.pop_back();
    } else {  // reschedule a random live entry
      const auto i = static_cast<std::size_t>(rng.below(live.size()));
      const Micros t = static_cast<Micros>(rng.below(1'000));
      ASSERT_TRUE(h.reschedule(live[i].handle, t, seq));
      const int tag = live[i].it->second;
      oracle.erase(live[i].it);
      live[i].it = oracle.emplace(std::make_pair(t, seq), tag);
      ++seq;
    }
  }
  // Drain: both must agree to the end.
  while (!h.empty()) {
    const auto expect = oracle.begin();
    ASSERT_EQ(h.top_time(), expect->first.first);
    h.pop().fn();
    ASSERT_EQ(popped.back(), expect->second);
    oracle.erase(expect);
  }
  EXPECT_TRUE(oracle.empty());
}

// --- InlineFn ------------------------------------------------------------------

TEST(InlineFnTest, InvokesInlineAndHeapCallables) {
  int hits = 0;
  InlineFn<void()> small = [&hits] { ++hits; };  // fits inline
  small();
  EXPECT_EQ(hits, 1);

  struct Big {
    int* hits;
    std::byte pad[128];
    void operator()() const { ++*hits; }
  };
  InlineFn<void()> big = Big{&hits, {}};  // oversize: one plain new
  big();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFnTest, MoveTransfersOwnershipOfCaptures) {
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> alive = token;
  int got = 0;
  InlineFn<void()> a = [token, &got] { got = *token; };
  token.reset();
  EXPECT_FALSE(alive.expired());  // capture keeps it alive

  InlineFn<void()> b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move): tested on purpose
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(got, 7);

  b.reset();
  EXPECT_TRUE(alive.expired());  // destruction releases the capture
}

TEST(InlineFnTest, MoveAssignDestroysPreviousCallable) {
  auto first = std::make_shared<int>(1);
  std::weak_ptr<int> first_alive = first;
  InlineFn<void()> fn = [first] { (void)first; };
  first.reset();
  EXPECT_FALSE(first_alive.expired());
  fn = InlineFn<void()>([] {});
  EXPECT_TRUE(first_alive.expired());
}

TEST(InlineFnTest, TakesArgumentsAndReturnsAValue) {
  // Inline: a by-value move-only argument and a reference argument.
  InlineFn<int(std::unique_ptr<int>, const std::vector<int>&)> sum =
      [base = 100](std::unique_ptr<int> p, const std::vector<int>& v) {
        return base + *p + static_cast<int>(v.size());
      };
  const std::vector<int> three{1, 2, 3};
  EXPECT_EQ(sum(std::make_unique<int>(5), three), 108);

  // Oversize: relocated by pointer, still callable with arguments.
  struct Big {
    std::int64_t pad[16];
    std::int64_t operator()(std::int64_t x) const { return x * pad[15]; }
  };
  Big big{};
  big.pad[15] = 3;
  InlineFn<std::int64_t(std::int64_t)> triple = big;
  InlineFn<std::int64_t(std::int64_t)> moved = std::move(triple);
  EXPECT_EQ(moved(14), 42);

  // A callable returning a value is accepted where void is expected.
  int calls = 0;
  InlineFn<void(int)> discard = [&calls](int x) { return calls += x; };
  discard(2);
  EXPECT_EQ(calls, 2);
}

// A frame parked inside an InlineFn<void(Bytes)> — the shape of an RMI
// reply or round continuation — belongs to that callable: dropping it
// uncalled destroys the suspended frame exactly once, calling it resumes
// the frame exactly once.
struct CountsDestruction {
  int* destroyed;
  ~CountsDestruction() { ++*destroyed; }
};

struct ParkIn {
  InlineFn<void(Bytes)>* slot;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    *slot = [resume = Simulator::CoroResume{h}](Bytes) mutable { resume(); };
  }
  void await_resume() const noexcept {}
};

Task park_frame(InlineFn<void(Bytes)>* slot, int* destroyed, int* resumed) {
  const CountsDestruction guard{destroyed};
  co_await ParkIn{slot};
  ++*resumed;
}

TEST(InlineFnTest, DroppingAnUncalledCompletionDestroysItsFrameOnce) {
  int destroyed = 0;
  int resumed = 0;
  {
    InlineFn<void(Bytes)> completion;
    park_frame(&completion, &destroyed, &resumed);
    ASSERT_TRUE(static_cast<bool>(completion));
    InlineFn<void(Bytes)> moved = std::move(completion);  // relocation keeps one owner
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(resumed, 0);

  destroyed = 0;
  {
    InlineFn<void(Bytes)> completion;
    park_frame(&completion, &destroyed, &resumed);
    completion(Bytes{1, 2});
    EXPECT_EQ(resumed, 1);
    EXPECT_EQ(destroyed, 1);  // the frame ran to completion
  }
  EXPECT_EQ(destroyed, 1);  // dropping the spent callable destroys nothing
}

// The simulator-level regression for the historical tombstone leak:
// cancelling timers that already fired must not grow any internal state.
TEST(SimulatorChurnTest, CancelAfterFireChurnDoesNotGrow) {
  Simulator sim;
  std::uint64_t fired = 0;
  for (int round = 0; round < 100'000; ++round) {
    const auto id = sim.after(1, [&fired] { ++fired; });
    sim.run();          // timer fires; handle goes stale
    sim.cancel(id);     // historical leak: this tombstoned forever
  }
  EXPECT_EQ(fired, 100'000u);
  EXPECT_EQ(sim.pending(), 0u);
  // The slot arena tracks peak concurrency (1 here), not total scheduled.
  EXPECT_LE(sim.slot_capacity(), 2u);
}

}  // namespace
}  // namespace cts::sim
