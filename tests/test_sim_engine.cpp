// Unit tests for the discrete-event engine and fiber scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ksr/sim/callback.hpp"
#include "ksr/sim/engine.hpp"
#include "ksr/sim/event_heap.hpp"
#include "ksr/sim/rng.hpp"

namespace ksr::sim {
namespace {

TEST(Engine, DispatchesEventsInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.at(30, [&] { order.push_back(3); });
  eng.at(10, [&] { order.push_back(1); });
  eng.at(20, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 30u);
}

TEST(Engine, TiesBreakByInsertionOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    eng.at(100, [&order, i] { order.push_back(i); });
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, SchedulingIntoThePastThrows) {
  Engine eng;
  eng.at(50, [&] {
    EXPECT_THROW(eng.at(40, [] {}), std::logic_error);
  });
  eng.run();
}

TEST(Engine, NestedSchedulingFromEvents) {
  Engine eng;
  int hits = 0;
  eng.at(1, [&] {
    ++hits;
    eng.at(5, [&] {
      ++hits;
      eng.at(9, [&] { ++hits; });
    });
  });
  eng.run();
  EXPECT_EQ(hits, 3);
  EXPECT_EQ(eng.now(), 9u);
}

TEST(Engine, FiberRunsAndFinishes) {
  Engine eng;
  bool ran = false;
  eng.spawn([&] { ran = true; }, 7);
  eng.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(eng.live_fibers(), 0u);
}

TEST(Engine, FiberWaitUntilAdvancesTime) {
  Engine eng;
  Time seen = 0;
  eng.spawn([&] {
    eng.wait_until(1000);
    seen = eng.now();
    eng.wait_until(2500);
    seen = eng.now();
  });
  eng.run();
  EXPECT_EQ(seen, 2500u);
}

TEST(Engine, TwoFibersInterleaveDeterministically) {
  Engine eng;
  std::vector<int> trace;
  eng.spawn([&] {
    trace.push_back(1);
    eng.wait_until(100);
    trace.push_back(3);
    eng.wait_until(300);
    trace.push_back(5);
  });
  eng.spawn([&] {
    trace.push_back(2);
    eng.wait_until(200);
    trace.push_back(4);
  });
  eng.run();
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Engine, BlockAndWake) {
  Engine eng;
  bool resumed = false;
  const FiberId f = eng.spawn([&] {
    eng.block();
    resumed = true;
    EXPECT_EQ(eng.now(), 500u);
  });
  eng.at(500, [&] { eng.wake(f, 500); });
  eng.run();
  EXPECT_TRUE(resumed);
}

TEST(Engine, WakingFinishedFiberThrows) {
  Engine eng;
  const FiberId f = eng.spawn([] {});
  eng.at(100, [&] { eng.wake(f, 200); });  // fiber finished long before t=100
  EXPECT_THROW(eng.run(), std::logic_error);
}

TEST(Engine, DeadlockDetected) {
  Engine eng;
  eng.spawn([&] { eng.block(); });  // nobody ever wakes it
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Engine, FiberExceptionPropagates) {
  Engine eng;
  eng.spawn([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Engine, ManyFibersAllComplete) {
  Engine eng;
  int done = 0;
  for (int i = 0; i < 64; ++i) {
    eng.spawn([&eng, &done, i] {
      for (int k = 0; k < 10; ++k) {
        eng.wait_until(eng.now() + static_cast<Time>(i + 1));
      }
      ++done;
    });
  }
  eng.run();
  EXPECT_EQ(done, 64);
}

TEST(Engine, CurrentFiberIdVisible) {
  Engine eng;
  eng.spawn([&] {
    EXPECT_TRUE(eng.in_fiber());
    EXPECT_EQ(eng.current_fiber(), 0u);
  });
  eng.run();
  EXPECT_FALSE(eng.in_fiber());
}

TEST(Engine, NextEventTimeSentinelWhenIdle) {
  Engine eng;
  EXPECT_EQ(eng.next_event_time(), std::numeric_limits<Time>::max());
  eng.at(42, [] {});
  EXPECT_EQ(eng.next_event_time(), 42u);
  eng.run();
}

// ---- Fiber resumes: the direct fiber-to-fiber hand-off --------------------
//
// A parking fiber may consume the next main-lane event itself when it is a
// fiber resume (see engine.hpp, "Host fast path"). These cases pin the
// boundaries of that shortcut: every one must dispatch exactly what the
// scheduler loop would, in the same (time, seq) order and count.

struct Step {
  Time t;
  int who;
  int step;
  bool operator==(const Step&) const = default;
};

TEST(EngineHandOff, ObserverBetweenResumesRunsFirst) {
  Engine eng;
  std::vector<Step> trace;
  eng.spawn([&] {
    eng.wait_until(10);
    trace.push_back({eng.now(), 0, 1});
    // The next main event is fiber 1's resume at 20, but observers at 15
    // and 20 are due first: the hand-off must yield to the scheduler.
    eng.wait_until(30);
    trace.push_back({eng.now(), 0, 2});
  });
  eng.spawn([&] {
    eng.wait_until(20);
    trace.push_back({eng.now(), 1, 1});
  });
  eng.observe_at(15, [&] { trace.push_back({eng.now(), 9, 15}); });
  eng.observe_at(20, [&] { trace.push_back({eng.now(), 9, 20}); });
  eng.run();
  const std::vector<Step> want{
      {10, 0, 1}, {15, 9, 15}, {20, 9, 20}, {20, 1, 1}, {30, 0, 2}};
  EXPECT_EQ(trace, want);
  EXPECT_EQ(eng.events_dispatched(), 5u);  // 2 starts + 3 resumes
}

// Fibers that spin in short random waits, so almost every park can hand off.
void spin_fibers(Engine& eng, std::vector<Step>& trace, int fibers) {
  for (int f = 0; f < fibers; ++f) {
    eng.spawn(
        [&eng, &trace, f] {
          Rng rng(static_cast<std::uint64_t>(f) + 1);
          for (int s = 0; s < 40; ++s) {
            eng.wait_until(eng.now() + rng.below(5));
            trace.push_back({eng.now(), f, s});
          }
        },
        static_cast<Time>(f));
  }
}

TEST(EngineHandOff, RunUntilStopsChainExactlyAtHorizon) {
  Engine whole;
  std::vector<Step> want;
  spin_fibers(whole, want, 6);
  whole.run();

  Engine sliced;
  std::vector<Step> got;
  spin_fibers(sliced, got, 6);
  for (Time h = 3; sliced.next_event_time() != std::numeric_limits<Time>::max();
       h += 7) {
    sliced.run_until(h);
    for (const Step& s : got) ASSERT_LT(s.t, h);
    ASSERT_GE(sliced.next_event_time(), h);
    ASSERT_LT(sliced.now(), h);
  }
  sliced.finish_run();
  EXPECT_EQ(want.size(), 6u * 40u);
  EXPECT_EQ(got, want);
  EXPECT_EQ(sliced.events_dispatched(), whole.events_dispatched());
  EXPECT_EQ(sliced.now(), whole.now());
}

TEST(EngineHandOff, ExceptionFromHandedOffFiberPropagates) {
  Engine eng;
  Time thrown_at = 0;
  eng.spawn([&] {
    eng.wait_until(10);
    eng.wait_until(30);  // the next event is fiber 1's resume at 20
    ADD_FAILURE() << "fiber 0 resumed after fiber 1 threw";
  });
  eng.spawn([&] {
    eng.wait_until(20);
    thrown_at = eng.now();
    throw std::runtime_error("boom");
  });
  try {
    eng.run();
    ADD_FAILURE() << "run() returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  EXPECT_EQ(thrown_at, 20u);
  EXPECT_EQ(eng.live_fibers(), 1u);  // fiber 0 is still parked
}

TEST(EngineHandOff, FiberFinishingAfterHandOffReleasesStack) {
  Engine eng;
  std::size_t live_seen = 0;
  eng.spawn([&] {
    eng.wait_until(10);
    eng.wait_until(30);  // hands off to fiber 1, which then finishes
    live_seen = eng.live_fibers();
  });
  eng.spawn([&] { eng.wait_until(20); });
  EXPECT_NO_THROW(eng.run());
  EXPECT_EQ(live_seen, 1u);
  EXPECT_EQ(eng.live_fibers(), 0u);
  EXPECT_TRUE(eng.quiescent());
  EXPECT_EQ(eng.events_dispatched(), 5u);
}

TEST(EngineHandOff, OwnResumeEarliestCountsOneEvent) {
  Engine eng;
  std::vector<int> order;
  eng.at(5, [&] { order.push_back(1); });  // same time, earlier seq: first
  eng.at(100, [&] { order.push_back(3); });
  eng.spawn([&] {
    eng.wait_until(5);
    order.push_back(2);
    const std::uint64_t before = eng.events_dispatched();
    eng.wait_until(40);  // own resume is now the earliest event
    EXPECT_EQ(eng.now(), 40u);
    EXPECT_EQ(eng.events_dispatched(), before + 1);
    eng.wait_until(eng.now());  // a zero-length wait is one event too
    EXPECT_EQ(eng.now(), 40u);
    EXPECT_EQ(eng.events_dispatched(), before + 2);
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.events_dispatched(), 6u);
}

TEST(EngineHandOff, StaleResumeOfFinishedFiberIsHarmless) {
  Engine eng;
  std::vector<Step> trace;
  const FiberId a = eng.spawn([&] {
    eng.block();
    trace.push_back({eng.now(), 0, 1});
  });
  eng.spawn([&] {
    eng.wake(a, 10);
    eng.wake(a, 12);     // fiber 0 finishes at 10: this resume goes stale
    eng.wait_until(11);  // hands off to fiber 0
    trace.push_back({eng.now(), 1, 1});
    eng.wait_until(20);  // the stale resume at 12 is the next event
    trace.push_back({eng.now(), 1, 2});
  });
  EXPECT_NO_THROW(eng.run());
  EXPECT_EQ(trace, (std::vector<Step>{{10, 0, 1}, {11, 1, 1}, {20, 1, 2}}));
  EXPECT_EQ(eng.events_dispatched(), 6u);  // the stale resume still counts
  EXPECT_EQ(eng.live_fibers(), 0u);
}

TEST(EngineHandOff, RestoredPlaceholdersCannotBeResumed) {
  Engine eng;
  eng.restore_fibers_spawned(3);
  EXPECT_THROW(eng.wake(1, 0), std::logic_error);
  EXPECT_EQ(eng.next_event_time(), std::numeric_limits<Time>::max());
  Time seen = 0;
  const FiberId f = eng.spawn([&] {
    eng.wait_until(7);
    seen = eng.now();
  });
  EXPECT_EQ(f, 3u);
  eng.run();
  EXPECT_EQ(seen, 7u);
  EXPECT_EQ(eng.live_fibers(), 0u);
}

// Randomized fiber workload: waits, block/wake through plain callbacks,
// self-rescheduling observers and chains of callbacks, under a tie-break
// seed. Returns an FNV-1a digest of the (time, who, step) trace and the
// dispatched-event count.
std::pair<std::uint64_t, std::uint64_t> random_workload(std::uint64_t tie_seed) {
  Engine eng;
  eng.set_tie_break_seed(tie_seed);
  Rng rng(2024);
  std::uint64_t digest = 14695981039346656037ULL;
  auto record = [&](int who, int step) {
    for (const std::uint64_t v :
         {eng.now(), static_cast<std::uint64_t>(who),
          static_cast<std::uint64_t>(step)}) {
      digest = (digest ^ v) * 1099511628211ULL;
    }
  };
  int callbacks = 0;
  for (int f = 0; f < 12; ++f) {
    eng.spawn(
        [&, f] {
          for (int s = 0; s < 60; ++s) {
            record(f, s);
            const std::uint64_t r = rng.below(10);
            if (r < 6) {
              eng.wait_until(eng.now() + rng.below(4));
            } else if (r < 8) {
              const FiberId me = eng.current_fiber();
              eng.at(eng.now() + rng.below(4), [&eng, &rng, me] {
                eng.wake(me, eng.now() + rng.below(3));
              });
              eng.block();
            } else {
              eng.at(eng.now() + rng.below(3), [&] { record(100, callbacks++); });
              eng.wait_until(eng.now() + rng.below(3));
            }
          }
        },
        rng.below(5));
  }
  std::function<void()> sample = [&] {
    record(200, 0);
    eng.observe_in(7, [&] { sample(); });
  };
  eng.observe_at(3, [&] { sample(); });
  eng.run();
  return {digest, eng.events_dispatched()};
}

TEST(EngineHandOff, RandomWorkloadMatchesPinnedSchedule) {
  // Pinned from the scheduler that resumed every fiber through an InlineFn
  // callback: the hand-off must reproduce its schedule exactly, under
  // insertion-order ties and under three tie-break seeds.
  struct Pin {
    std::uint64_t seed;
    std::uint64_t digest;
    std::uint64_t dispatched;
  };
  const Pin pins[] = {
      {0, 0x20C3A948B15DFCE4ULL, 1038},
      {1, 0x94C0342059BDD1F0ULL, 1026},
      {0x9E3779B97F4A7C15ULL, 0x0BD383DE47525448ULL, 1019},
      {12345, 0x66272672E10F25FCULL, 1026},
  };
  for (const Pin& p : pins) {
    const auto [digest, dispatched] = random_workload(p.seed);
    EXPECT_EQ(digest, p.digest) << "tie-break seed " << p.seed;
    EXPECT_EQ(dispatched, p.dispatched) << "tie-break seed " << p.seed;
  }
}

// ---- InlineFn: the three storage strategies -------------------------------

TEST(InlineFn, TrivialCaptureInvokesAndMoves) {
  int sink = 0;
  int* p = &sink;
  InlineFn f([p] { ++*p; });  // trivially copyable capture: inline, no ops
  ASSERT_TRUE(static_cast<bool>(f));
  f();
  EXPECT_EQ(sink, 1);
  InlineFn g(std::move(f));
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move)
  g();
  EXPECT_EQ(sink, 2);
}

TEST(InlineFn, MoveOnlyCaptureStaysInline) {
  auto owned = std::make_unique<int>(7);
  int got = 0;
  InlineFn f([o = std::move(owned), &got] { got = *o; });
  InlineFn g(std::move(f));
  InlineFn h;
  h = std::move(g);
  h();
  EXPECT_EQ(got, 7);
  h.reset();  // releases the unique_ptr; must not leak or double-free
  EXPECT_FALSE(static_cast<bool>(h));
}

TEST(InlineFn, OversizedCaptureIsBoxed) {
  std::array<std::uint64_t, 32> big{};  // 256 B > kInlineBytes
  big[0] = 3;
  big[31] = 4;
  std::uint64_t got = 0;
  InlineFn f([big, &got] { got = big[0] + big[31]; });
  InlineFn g(std::move(f));
  g();
  EXPECT_EQ(got, 7u);
}

TEST(InlineFn, AssignmentReplacesExistingCallable) {
  int a = 0;
  int b = 0;
  InlineFn f([&a] { ++a; });
  f = InlineFn([&b] { ++b; });
  f();
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
}

// ---- EventQueue / DaryHeap: dispatch order vs a sorted reference ----------

struct Key {
  Time t;
  std::uint64_t seq;
};
struct KeyEarlier {
  bool operator()(const Key& a, const Key& b) const noexcept {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }
};

// Random interleaving of monotone pushes (the engine's common case),
// out-of-order pushes, and interspersed pops. Returns the pop order.
template <typename Queue>
std::vector<std::uint64_t> exercise_queue(Queue& q) {
  Rng rng(1234);
  std::vector<std::uint64_t> popped;
  std::uint64_t seq = 0;
  Time now = 0;
  for (int round = 0; round < 2000; ++round) {
    const Time t = rng.below(10) < 7 ? now + rng.below(50)   // monotone-ish
                                     : now / 2 + rng.below(100);  // reordered
    q.push(Key{t, seq++});
    if (rng.below(10) < 4) popped.push_back(q.pop_top().seq);
    if (!q.empty()) now = q.top().t;
  }
  while (!q.empty()) popped.push_back(q.pop_top().seq);
  return popped;
}

TEST(EventQueue, MatchesSortedReferenceOnRandomWorkload) {
  // Drive the two-lane queue and the plain heap with the same pushes and
  // pops; they must produce the same dispatch order.
  EventQueue<Key, KeyEarlier, 4> lanes;
  DaryHeap<Key, KeyEarlier, 4> heap;
  const std::vector<std::uint64_t> a = exercise_queue(lanes);
  const std::vector<std::uint64_t> b = exercise_queue(heap);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST(EventQueue, FullDrainIsTotallySorted) {
  EventQueue<Key, KeyEarlier, 4> q;
  Rng rng(99);
  std::vector<Key> ref;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const Key k{rng.below(500), i};
    q.push(k);
    ref.push_back(k);
  }
  std::sort(ref.begin(), ref.end(),
            [](const Key& x, const Key& y) { return KeyEarlier{}(x, y); });
  for (const Key& want : ref) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.top().seq, want.seq);
    const Key got = q.pop_top();
    EXPECT_EQ(got.t, want.t);
    EXPECT_EQ(got.seq, want.seq);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, MonotonePushesAndSizeBookkeeping) {
  EventQueue<Key, KeyEarlier, 4> q;
  for (std::uint64_t i = 0; i < 10000; ++i) q.push(Key{i, i});
  EXPECT_EQ(q.size(), 10000u);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    EXPECT_EQ(q.pop_top().seq, i);  // exercises the run-lane compaction
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

}  // namespace
}  // namespace ksr::sim
