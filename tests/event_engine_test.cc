// Tests for the two-tier event engine: the InlineCallback small-buffer
// type, the cancellable binary heap that holds one-shot events and timers,
// the line-rate calendar queue, and the (time, seq) merge of the two tiers.
//
// The centrepiece is a randomized stress test that drives the real
// EventQueue and a naive sorted-reference model through identical
// Schedule/ScheduleTimer/Cancel/Pop interleavings and demands the exact
// same firing order — this is the property ("tiers are invisible") that
// keeps fixed-seed traces bit-identical across engine refactors.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/experiment.h"
#include "src/net/network.h"
#include "src/sim/event_queue.h"
#include "src/sim/inline_callback.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace themis {
namespace {

// --- InlineCallback ----------------------------------------------------------

TEST(InlineCallbackTest, SmallCaptureStoredInline) {
  int hits = 0;
  int* p = &hits;
  EventCallback cb([p] { ++*p; });
  EXPECT_TRUE(cb.stored_inline());
  EXPECT_TRUE(static_cast<bool>(cb));
  cb();
  cb();
  EXPECT_EQ(hits, 2);
}

TEST(InlineCallbackTest, CaptureAtCapacityStoredInline) {
  struct Exact {
    unsigned char bytes[kEventCallbackInlineBytes - sizeof(int*)];
  };
  static_assert(EventCallback::kWouldInline<Exact>);
  int hits = 0;
  int* p = &hits;
  Exact payload{};
  EventCallback cb([p, payload] {
    (void)payload;
    ++*p;
  });
  EXPECT_TRUE(cb.stored_inline());
  cb();
  EXPECT_EQ(hits, 1);
}

TEST(InlineCallbackTest, OversizedCaptureFallsBackToHeap) {
  struct Big {
    unsigned char bytes[kEventCallbackInlineBytes + 1] = {};
  };
  static_assert(!EventCallback::kWouldInline<Big>);
  int hits = 0;
  int* p = &hits;
  Big payload;
  payload.bytes[0] = 7;
  EventCallback cb([p, payload] { *p += payload.bytes[0]; });
  EXPECT_FALSE(cb.stored_inline());
  cb();
  EXPECT_EQ(hits, 7);
}

TEST(InlineCallbackTest, MoveTransfersOwnership) {
  auto counter = std::make_shared<int>(0);
  EventCallback a([counter] { ++*counter; });
  EXPECT_EQ(counter.use_count(), 2);
  EventCallback b(std::move(a));
  EXPECT_EQ(counter.use_count(), 2);  // moved, not copied
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT: moved-from state is empty
  b();
  EXPECT_EQ(*counter, 1);
  EventCallback c;
  c = std::move(b);
  c();
  EXPECT_EQ(*counter, 2);
}

TEST(InlineCallbackTest, ResetDestroysCapture) {
  auto counter = std::make_shared<int>(0);
  EventCallback cb([counter] { ++*counter; });
  EXPECT_EQ(counter.use_count(), 2);
  cb.Reset();
  EXPECT_EQ(counter.use_count(), 1);
  EXPECT_FALSE(static_cast<bool>(cb));
}

TEST(InlineCallbackTest, MustInlineAcceptsPacketPathCaptures) {
  // The typical packet-path shape: `this` plus a couple of words.
  struct Fake {
    int x = 0;
  } fake;
  int extra = 3;
  auto cb = EventCallback::MustInline([&fake, extra] { fake.x += extra; });
  cb();
  EXPECT_EQ(fake.x, 3);
}

// --- Cancellable timers via EventQueue --------------------------------------

TEST(TimerWheelTest, CancelledTimerNeverFiresAndLeavesNoEvent) {
  EventQueue q;
  int fired = 0;
  TimerId id = q.ScheduleTimer(1000, [&fired] { ++fired; });
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.CancelTimer(id));
  EXPECT_TRUE(q.empty());       // physically removed, no no-op residue
  EXPECT_FALSE(q.CancelTimer(id));  // stale handle
  EXPECT_EQ(fired, 0);
}

TEST(TimerWheelTest, CancelAfterCollectIntoReadyHeap) {
  EventQueue q;
  int fired = 0;
  TimerId id = q.ScheduleTimer(100, [&fired] { ++fired; });
  q.ScheduleAt(50'000'000, [] {});
  // NextTime() has already seen the timer entry at the heap top. A cancel
  // must still win.
  EXPECT_EQ(q.NextTime(), 100);
  EXPECT_TRUE(q.CancelTimer(id));
  TimePs t = 0;
  q.Pop(&t)();
  EXPECT_EQ(t, 50'000'000);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(fired, 0);
}

TEST(TimerWheelTest, FarFutureTimersTakeOverflowPath) {
  // Deadlines hundreds of seconds out still fire in (time, seq) order.
  EventQueue q;
  std::vector<int> order;
  q.ScheduleTimer(300 * kSecond + 5, [&order] { order.push_back(2); });
  q.ScheduleTimer(300 * kSecond, [&order] { order.push_back(1); });
  q.ScheduleTimer(600 * kSecond, [&order] { order.push_back(3); });
  while (!q.empty()) {
    TimePs t = 0;
    q.Pop(&t)();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TimerWheelTest, FifoTieBreakAcrossTiers) {
  // Entries at the same timestamp fire in scheduling order even when they
  // live in different tiers.
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(500, [&order] { order.push_back(0); });
  q.ScheduleTimer(500, [&order] { order.push_back(1); });
  q.ScheduleAt(500, [&order] { order.push_back(2); });
  q.ScheduleTimer(500, [&order] { order.push_back(3); });
  while (!q.empty()) {
    TimePs t = 0;
    q.Pop(&t)();
    EXPECT_EQ(t, 500);
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// A TimerId names a pool node plus the generation it was issued at. Freeing
// a node (fire, cancel, Clear) bumps its generation, so a stale id can never
// cancel whatever later occupies the same node.
TEST(TimerHeapTest, StaleIdAfterClearCancelsNothing) {
  EventQueue q;
  int old_fired = 0;
  int new_fired = 0;
  const TimerId stale = q.ScheduleTimer(100, [&old_fired] { ++old_fired; });
  q.Clear();
  EXPECT_TRUE(q.empty());
  const TimerId fresh = q.ScheduleTimer(200, [&new_fired] { ++new_fired; });
  ASSERT_EQ(fresh.node, stale.node);  // Clear() returned the node for reuse
  EXPECT_FALSE(q.CancelTimer(stale));
  EXPECT_EQ(q.size(), 1u);
  TimePs t = 0;
  q.Pop(&t)();
  EXPECT_EQ(t, 200);
  EXPECT_EQ(new_fired, 1);
  EXPECT_EQ(old_fired, 0);
  EXPECT_FALSE(q.CancelTimer(fresh));  // fired
}

TEST(TimerHeapTest, StaleIdAfterNodeReuseCancelsNothing) {
  EventQueue q;
  TimePs t = 0;
  const TimerId fired_id = q.ScheduleTimer(100, [] {});
  q.Pop(&t)();
  const TimerId cancelled_id = q.ScheduleTimer(150, [] {});
  ASSERT_EQ(cancelled_id.node, fired_id.node);  // the fired node was reused
  EXPECT_FALSE(q.CancelTimer(fired_id));
  EXPECT_TRUE(q.CancelTimer(cancelled_id));

  // The node's next occupants — a timer and a one-shot event — survive
  // cancels through both stale ids.
  int fired = 0;
  const TimerId fresh = q.ScheduleTimer(200, [&fired] { ++fired; });
  ASSERT_EQ(fresh.node, fired_id.node);
  EXPECT_FALSE(q.CancelTimer(fired_id));
  EXPECT_FALSE(q.CancelTimer(cancelled_id));
  ASSERT_TRUE(q.CancelTimer(fresh));
  q.ScheduleAt(300, [&fired] { fired += 10; });
  EXPECT_FALSE(q.CancelTimer(fired_id));
  EXPECT_FALSE(q.CancelTimer(cancelled_id));
  EXPECT_FALSE(q.CancelTimer(fresh));
  EXPECT_EQ(q.size(), 1u);
  q.Pop(&t)();
  EXPECT_EQ(t, 300);
  EXPECT_EQ(fired, 10);
}

// --- Randomized stress: timers+heap vs a sorted-reference model -------------

struct RefEntry {
  TimePs time = 0;
  uint64_t seq = 0;
  int id = 0;
  bool cancelled = false;
  bool fired = false;
};

TEST(TimerWheelStressTest, MatchesReferenceUnderRandomChurn) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    EventQueue q;
    std::vector<RefEntry> ref;   // one slot per scheduled entry, by id
    std::vector<int> fired;      // ids in actual firing order
    std::vector<std::pair<TimerId, int>> live_timers;  // handle -> ref id
    uint64_t next_seq = 0;       // mirrors the queue's internal counter
    TimePs now = 0;
    uint64_t monotonic_check = 0;

    // Delay distributions span sub-nanosecond to hundreds of seconds, with
    // zero-delay arms, so cancels hit every heap depth.
    auto random_delay = [&rng]() -> TimePs {
      switch (rng.Below(8)) {
        case 0:
          return static_cast<TimePs>(rng.Below(100));  // sub-slot
        case 1:
        case 2:
        case 3:
          return static_cast<TimePs>(rng.Below(2 * kMicrosecond));
        case 4:
        case 5:
          return static_cast<TimePs>(rng.Below(200 * kMicrosecond));
        case 6:
          return static_cast<TimePs>(rng.Below(2 * kSecond));
        default:
          return 280 * kSecond + static_cast<TimePs>(rng.Below(100 * kSecond));
      }
    };

    auto fire = [&ref, &fired](int id) {
      EXPECT_FALSE(ref[static_cast<size_t>(id)].cancelled);
      EXPECT_FALSE(ref[static_cast<size_t>(id)].fired);
      ref[static_cast<size_t>(id)].fired = true;
      fired.push_back(id);
    };

    for (int op = 0; op < 20'000; ++op) {
      const uint64_t dice = rng.Below(100);
      if (dice < 40) {  // arm a cancellable timer
        const int id = static_cast<int>(ref.size());
        const TimePs at = now + random_delay();
        ref.push_back(RefEntry{at, next_seq++, id, false, false});
        live_timers.emplace_back(q.ScheduleTimer(at, [&fire, id] { fire(id); }), id);
      } else if (dice < 55) {  // schedule a heap event
        const int id = static_cast<int>(ref.size());
        const TimePs at = now + random_delay();
        ref.push_back(RefEntry{at, next_seq++, id, false, false});
        q.ScheduleAt(at, [&fire, id] { fire(id); });
      } else if (dice < 75) {  // cancel (possibly stale) timer handle
        if (!live_timers.empty()) {
          const size_t pick = static_cast<size_t>(rng.Below(live_timers.size()));
          auto [handle, id] = live_timers[pick];
          RefEntry& entry = ref[static_cast<size_t>(id)];
          const bool expect_ok = !entry.fired && !entry.cancelled;
          EXPECT_EQ(q.CancelTimer(handle), expect_ok) << "id=" << id;
          if (expect_ok) {
            entry.cancelled = true;
          }
          live_timers.erase(live_timers.begin() + static_cast<long>(pick));
        }
      } else {  // pop one event
        if (!q.empty()) {
          TimePs t = 0;
          EventQueue::Callback cb = q.Pop(&t);
          EXPECT_GE(t, now);
          now = t;
          cb();
          ++monotonic_check;
        }
      }
    }

    // Drain the remainder.
    while (!q.empty()) {
      TimePs t = 0;
      EventQueue::Callback cb = q.Pop(&t);
      EXPECT_GE(t, now);
      now = t;
      cb();
    }

    // Expected order: every non-cancelled entry, sorted by (time, seq).
    std::vector<RefEntry> expected;
    for (const RefEntry& e : ref) {
      if (!e.cancelled) {
        expected.push_back(e);
      }
    }
    std::sort(expected.begin(), expected.end(), [](const RefEntry& a, const RefEntry& b) {
      return a.time < b.time || (a.time == b.time && a.seq < b.seq);
    });
    ASSERT_EQ(fired.size(), expected.size()) << "seed=" << seed;
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(fired[i], expected[i].id) << "seed=" << seed << " position=" << i;
    }
    EXPECT_GT(monotonic_check, 0u);
  }
}

// Re-arm churn through the public Timer API, cross-checked against an
// independently computed expectation.
TEST(TimerWheelStressTest, TimerRearmChurnFiresExactlyLastArm) {
  Simulator sim(3);
  constexpr int kTimers = 32;
  std::vector<int> fires(kTimers, 0);
  std::vector<TimePs> fire_times(kTimers, -1);
  std::vector<std::unique_ptr<Timer>> timers;
  for (int i = 0; i < kTimers; ++i) {
    timers.push_back(std::make_unique<Timer>(&sim, [&sim, &fires, &fire_times, i] {
      ++fires[static_cast<size_t>(i)];
      fire_times[static_cast<size_t>(i)] = sim.now();
    }));
  }
  // Each timer is re-armed 100 times at decreasing deadlines-from-arm-time;
  // only the final arm may fire.
  std::vector<TimePs> expected(kTimers, 0);
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < kTimers; ++i) {
      const TimePs delay = (101 - round) * kMicrosecond + i;
      sim.ScheduleAt(static_cast<TimePs>(round) * kMicrosecond,
                     [&timers, &expected, &sim, i, delay] {
                       timers[static_cast<size_t>(i)]->Arm(delay);
                       expected[static_cast<size_t>(i)] = sim.now() + delay;
                     });
    }
  }
  sim.Run();
  for (int i = 0; i < kTimers; ++i) {
    EXPECT_EQ(fires[static_cast<size_t>(i)], 1) << i;
    EXPECT_EQ(fire_times[static_cast<size_t>(i)], expected[static_cast<size_t>(i)]) << i;
  }
}

// --- CalendarQueue via EventQueue -------------------------------------------

TEST(CalendarQueueTest, UnconfiguredLineRateFallsBackToHeap) {
  EventQueue q;
  int fired = 0;
  q.ScheduleLineRate(100, [&fired] { ++fired; });
  EXPECT_EQ(q.calendar_scheduled(), 0u);
  EXPECT_EQ(q.heap_scheduled(), 1u);
  TimePs t = 0;
  q.Pop(&t)();
  EXPECT_EQ(t, 100);
  EXPECT_EQ(fired, 1);
}

TEST(CalendarQueueTest, ConfigureRejectedWhileEntriesPending) {
  EventQueue q;
  ASSERT_TRUE(q.ConfigureCalendar(/*width_bits=*/10, /*bucket_count=*/8));
  q.ScheduleLineRate(100, [] {});
  EXPECT_EQ(q.calendar_scheduled(), 1u);
  EXPECT_FALSE(q.ConfigureCalendar(12, 16));  // entry pending: refuse
  TimePs t = 0;
  q.Pop(&t)();
  EXPECT_TRUE(q.ConfigureCalendar(12, 16));  // drained: allowed again
}

TEST(CalendarQueueTest, FifoTieBreakAcrossAllThreeTiers) {
  EventQueue q;
  ASSERT_TRUE(q.ConfigureCalendar(10, 8));
  std::vector<int> order;
  q.ScheduleAt(500, [&order] { order.push_back(0); });
  q.ScheduleLineRate(500, [&order] { order.push_back(1); });
  q.ScheduleTimer(500, [&order] { order.push_back(2); });
  q.ScheduleLineRate(500, [&order] { order.push_back(3); });
  q.ScheduleAt(500, [&order] { order.push_back(4); });
  EXPECT_EQ(q.calendar_scheduled(), 2u);
  while (!q.empty()) {
    TimePs t = 0;
    q.Pop(&t)();
    EXPECT_EQ(t, 500);
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(CalendarQueueTest, BucketWrapKeepsOrder) {
  // 8 buckets x 1024 ps = 8192 ps horizon. A serialization-style chain —
  // each fired event schedules the next a fraction of the horizon ahead —
  // drives the cursor around the bucket array dozens of times; every event
  // must stay on the calendar (no overflow) and fire in order.
  struct Chain {
    EventQueue* q = nullptr;
    TimePs now = 0;
    int remaining = 0;
    std::vector<TimePs> fire_times;

    void Next() {
      if (remaining-- <= 0) {
        return;
      }
      // Mixed spacing: same-bucket, adjacent-bucket, and multi-bucket hops.
      const TimePs gap = (remaining % 3 == 0) ? 300 : (remaining % 3 == 1) ? 1100 : 5000;
      const TimePs at = now + gap;
      q->ScheduleLineRate(at, [this, at] {
        now = at;
        fire_times.push_back(at);
        Next();
      });
    }
  };

  EventQueue q;
  ASSERT_TRUE(q.ConfigureCalendar(10, 8));
  Chain chain{&q, 0, 200, {}};
  chain.Next();
  TimePs prev = -1;
  while (!q.empty()) {
    TimePs t = 0;
    q.Pop(&t)();
    EXPECT_GT(t, prev);
    prev = t;
  }
  EXPECT_EQ(chain.fire_times.size(), 200u);
  EXPECT_EQ(q.calendar_scheduled(), 200u);  // the whole chain stayed on-tier
  EXPECT_EQ(q.heap_scheduled(), 0u);
  // Total span >> horizon: the cursor necessarily wrapped many times.
  EXPECT_GT(chain.fire_times.back(), 40 * q.calendar().horizon());
}

TEST(CalendarQueueTest, BeyondHorizonOverflowsToHeapInOrder) {
  EventQueue q;
  ASSERT_TRUE(q.ConfigureCalendar(10, 8));  // horizon 8192 ps
  std::vector<int> order;
  q.ScheduleLineRate(100, [&order] { order.push_back(0); });  // calendar
  // The cursor re-anchored around t=100, so +1 ms is far beyond the horizon.
  q.ScheduleLineRate(kMillisecond, [&order] { order.push_back(2); });  // heap
  q.ScheduleLineRate(200, [&order] { order.push_back(1); });           // calendar
  EXPECT_EQ(q.calendar_scheduled(), 2u);
  EXPECT_EQ(q.heap_scheduled(), 1u);
  while (!q.empty()) {
    TimePs t = 0;
    q.Pop(&t)();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(CalendarQueueTest, ReanchorsAfterIdleStretch) {
  // Drain the calendar, then schedule an event far past the old cursor: the
  // tier must accept it (cursor re-anchors) instead of overflowing forever.
  EventQueue q;
  ASSERT_TRUE(q.ConfigureCalendar(10, 8));
  int fired = 0;
  q.ScheduleLineRate(100, [&fired] { ++fired; });
  TimePs t = 0;
  q.Pop(&t)();
  EXPECT_EQ(fired, 1);
  // 1 s later — thousands of horizons past the drained cursor.
  q.ScheduleLineRate(kSecond, [&fired] { ++fired; });
  EXPECT_EQ(q.calendar_scheduled(), 2u);  // accepted, not overflowed
  q.Pop(&t)();
  EXPECT_EQ(t, kSecond);
  EXPECT_EQ(fired, 2);
}

// Randomized stress: line-rate, timer and one-shot schedules against the
// sorted-reference model.
// A deliberately tiny calendar (8 buckets x 1024 ps = 8192 ps horizon)
// forces constant bucket wraps and frequent overflow-to-heap, while delays
// of 0 generate (time, seq) ties across tiers.
TEST(CalendarStressTest, ThreeTierMixMatchesReference) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    EventQueue q;
    ASSERT_TRUE(q.ConfigureCalendar(10, 8));
    std::vector<RefEntry> ref;
    std::vector<int> fired;
    std::vector<std::pair<TimerId, int>> live_timers;
    uint64_t next_seq = 0;
    TimePs now = 0;

    auto random_delay = [&rng]() -> TimePs {
      switch (rng.Below(8)) {
        case 0:
          return 0;  // tie on time with whatever pops next
        case 1:
        case 2:
        case 3:
          return static_cast<TimePs>(rng.Below(2'000));  // in-horizon
        case 4:
        case 5:
          return static_cast<TimePs>(rng.Below(20'000));  // wrap + overflow
        case 6:
          return static_cast<TimePs>(rng.Below(2 * kMicrosecond));
        default:
          return static_cast<TimePs>(rng.Below(kMillisecond));  // far overflow
      }
    };

    auto fire = [&ref, &fired](int id) {
      EXPECT_FALSE(ref[static_cast<size_t>(id)].cancelled);
      EXPECT_FALSE(ref[static_cast<size_t>(id)].fired);
      ref[static_cast<size_t>(id)].fired = true;
      fired.push_back(id);
    };

    for (int op = 0; op < 20'000; ++op) {
      const uint64_t dice = rng.Below(100);
      if (dice < 35) {  // line-rate event (calendar or overflow)
        const int id = static_cast<int>(ref.size());
        const TimePs at = now + random_delay();
        ref.push_back(RefEntry{at, next_seq++, id, false, false});
        q.ScheduleLineRate(at, [&fire, id] { fire(id); });
      } else if (dice < 55) {  // cancellable timer
        const int id = static_cast<int>(ref.size());
        const TimePs at = now + random_delay();
        ref.push_back(RefEntry{at, next_seq++, id, false, false});
        live_timers.emplace_back(q.ScheduleTimer(at, [&fire, id] { fire(id); }), id);
      } else if (dice < 65) {  // heap event
        const int id = static_cast<int>(ref.size());
        const TimePs at = now + random_delay();
        ref.push_back(RefEntry{at, next_seq++, id, false, false});
        q.ScheduleAt(at, [&fire, id] { fire(id); });
      } else if (dice < 75) {  // cancel a (possibly stale) timer handle
        if (!live_timers.empty()) {
          const size_t pick = static_cast<size_t>(rng.Below(live_timers.size()));
          auto [handle, id] = live_timers[pick];
          RefEntry& entry = ref[static_cast<size_t>(id)];
          const bool expect_ok = !entry.fired && !entry.cancelled;
          EXPECT_EQ(q.CancelTimer(handle), expect_ok) << "id=" << id;
          if (expect_ok) {
            entry.cancelled = true;
          }
          live_timers.erase(live_timers.begin() + static_cast<long>(pick));
        }
      } else {  // pop one event
        if (!q.empty()) {
          TimePs t = 0;
          EventQueue::Callback cb = q.Pop(&t);
          EXPECT_GE(t, now);
          now = t;
          cb();
        }
      }
    }

    while (!q.empty()) {
      TimePs t = 0;
      EventQueue::Callback cb = q.Pop(&t);
      EXPECT_GE(t, now);
      now = t;
      cb();
    }

    EXPECT_GT(q.calendar_scheduled(), 0u) << "seed=" << seed;
    EXPECT_GT(q.heap_scheduled(), 0u) << "seed=" << seed;  // incl. overflow

    std::vector<RefEntry> expected;
    for (const RefEntry& e : ref) {
      if (!e.cancelled) {
        expected.push_back(e);
      }
    }
    std::sort(expected.begin(), expected.end(), [](const RefEntry& a, const RefEntry& b) {
      return a.time < b.time || (a.time == b.time && a.seq < b.seq);
    });
    ASSERT_EQ(fired.size(), expected.size()) << "seed=" << seed;
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(fired[i], expected[i].id) << "seed=" << seed << " position=" << i;
    }
  }
}

// Differential stress at the density-sized geometry: 32 ps buckets, 2^16 of
// them (a 2.1 us horizon), against the sorted-reference model. Narrow
// buckets put several entries in one bucket (same-time ties, sub-width
// gaps), the cursor wraps the bucket array many times, and far deadlines
// overflow to the heap. Tagged and callback entries mix and pop through
// PopEvent, the run loop's pop. Each seed runs three phases on one queue:
// a phase cut short by Clear() with entries still bucketed, a re-Configure()
// to a different geometry, and a final phase drained to empty — so the node
// pool and its freelist are reused across both resets.
TEST(CalendarStressTest, NarrowBucketsMatchReferenceAcrossClearAndReconfigure) {
  constexpr int kWidthBits = 5;
  constexpr int kBuckets = 1 << 16;
  constexpr TimePs kHorizon = TimePs{kBuckets} << kWidthBits;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    EventQueue q;
    ASSERT_TRUE(q.ConfigureCalendar(kWidthBits, kBuckets));
    TimePs now = 0;
    uint64_t next_seq = 0;

    auto random_delay = [&rng, &q]() -> TimePs {
      const TimePs horizon = q.calendar().horizon();
      switch (rng.Below(8)) {
        case 0:
          return 0;  // tie on time with the event being fired
        case 1:
        case 2:
          return static_cast<TimePs>(rng.Below(64));  // same or next bucket
        case 3:
        case 4:
          return static_cast<TimePs>(rng.Below(horizon / 8));
        case 5:
          return static_cast<TimePs>(rng.Below(horizon));  // wraps the array
        case 6:
          return horizon + static_cast<TimePs>(rng.Below(horizon));  // overflow
        default:
          return static_cast<TimePs>(rng.Below(4'000));
      }
    };

    for (int phase = 0; phase < 3; ++phase) {
      if (phase == 1) {
        q.Clear();  // drops the pending entries and resets the node pool
      } else if (phase == 2) {
        ASSERT_TRUE(q.ConfigureCalendar(kWidthBits + 1, kBuckets * 2));
      }
      std::vector<RefEntry> ref;
      std::vector<int> fired;
      const uint64_t calendar_before = q.calendar_scheduled();
      const uint64_t heap_before = q.heap_scheduled();
      auto schedule = [&](TimePs at) {
        const int id = static_cast<int>(ref.size());
        ref.push_back(RefEntry{at, next_seq++, id, false, false});
        if (rng.Below(2) == 0) {
          // Tag id + 1 keeps tags non-zero; an overflowing tagged entry
          // goes to the heap wrapped in a callback, as in the Simulator.
          const uint64_t seq = q.ReserveSeq();
          if (!q.ScheduleLineRateTagged(at, seq, static_cast<uint64_t>(id) + 1)) {
            q.ScheduleAtSeq(at, seq, [&fired, id] { fired.push_back(id); });
          }
        } else {
          q.ScheduleLineRate(at, [&fired, id] { fired.push_back(id); });
        }
      };
      auto pop_one = [&]() {
        TimePs t = 0;
        EventQueue::Callback cb;
        uint64_t tag = 0;
        ASSERT_TRUE(q.PopEvent(kTimeInfinity, &t, &cb, &tag));
        ASSERT_GE(t, now);
        now = t;
        if (tag != 0) {
          fired.push_back(static_cast<int>(tag - 1));
        } else {
          cb();
        }
      };

      for (int i = 0; i < 64; ++i) {
        schedule(now + static_cast<TimePs>(rng.Below(kHorizon / 2)));
      }
      for (int op = 0; op < 30'000; ++op) {
        if (rng.Below(100) < 52 || q.empty()) {
          schedule(now + random_delay());
        } else {
          pop_one();
        }
      }
      if (phase == 0) {
        ASSERT_GT(q.calendar_pending(), 0u) << "Clear() must drop bucketed entries";
      } else {
        while (!q.empty()) {
          pop_one();
        }
      }

      EXPECT_GT(q.calendar_scheduled(), calendar_before) << "seed=" << seed;
      EXPECT_GT(q.heap_scheduled(), heap_before) << "seed=" << seed;  // overflow
      // Cut short or drained, the fired sequence is the reference's sorted
      // prefix: nothing scheduled later can sort before an event already
      // fired, since every deadline is at or after the clock.
      std::sort(ref.begin(), ref.end(), [](const RefEntry& a, const RefEntry& b) {
        return a.time < b.time || (a.time == b.time && a.seq < b.seq);
      });
      ASSERT_LE(fired.size(), ref.size());
      for (size_t i = 0; i < fired.size(); ++i) {
        ASSERT_EQ(fired[i], ref[i].id) << "seed=" << seed << " phase=" << phase << " i=" << i;
      }
      if (phase > 0) {
        EXPECT_EQ(fired.size(), ref.size()) << "seed=" << seed << " phase=" << phase;
      }
    }
    // The clock spanned many horizons: the cursor wrapped the array.
    EXPECT_GT(now, 20 * kHorizon) << "seed=" << seed;
    // Some buckets held several entries, so in-bucket order was exercised.
    const CalendarQueue& cal = q.calendar();
    EXPECT_GT(cal.buckets_collected(), 0u);
    EXPECT_GT(cal.entries_collected(), cal.buckets_collected());
  }
}

// --- Reserved sequence numbers (one pending delivery per port) -------------

// One draw of LateFiledChainsPopInReservationOrder's delay mix: zero,
// within the horizon, or beyond it (heap overflow). Delays sit on a 256 ps
// grid so time ties are common: an entry filed under any seq but its
// reserved one then pops out of order.
TimePs RandomGridDelay(Rng& rng, TimePs horizon) {
  TimePs delay = 0;
  switch (rng.Below(6)) {
    case 0:
    case 1:
      break;
    case 2:
    case 3:
      delay = static_cast<TimePs>(rng.Below(horizon));
      break;
    case 4:
      delay = horizon + static_cast<TimePs>(rng.Below(horizon));
      break;
    default:
      delay = static_cast<TimePs>(rng.Below(horizon / 4));
      break;
  }
  return delay & ~TimePs{255};
}

// Eight chains stand in for ports: each is a FIFO of reservations with
// non-decreasing times that files only its head entry and files the next
// one when the head fires, as Port::DeliverHeadInFlight does. Heap events,
// timers and line-rate callbacks share the seq counter, and delays up to
// twice the horizon push explicit-seq entries through the heap fallback.
// The pop order must equal a reference that saw every entry when its seq
// was reserved.
TEST(ReservedSeqTest, LateFiledChainsPopInReservationOrder) {
  constexpr int kChains = 8;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    EventQueue q;
    ASSERT_TRUE(q.ConfigureCalendar(6, 256));
    const TimePs horizon = q.calendar().horizon();
    struct Reserved {
      TimePs time;
      uint64_t seq;
      int id;
    };
    std::vector<std::deque<Reserved>> chains(kChains);
    std::vector<TimePs> chain_last(kChains, 0);
    std::vector<RefEntry> ref;
    std::vector<int> fired;
    TimePs now = 0;
    uint64_t filed_late = 0;
    uint64_t late_heap_fallbacks = 0;

    std::function<void(int)> fire_chain;
    auto file = [&](int chain, bool late) {
      const Reserved& head = chains[static_cast<size_t>(chain)].front();
      if (!q.ScheduleLineRateTagged(head.time, head.seq, static_cast<uint64_t>(chain) + 1)) {
        late_heap_fallbacks += late ? 1 : 0;
        q.ScheduleAtSeq(head.time, head.seq, [&fire_chain, chain] { fire_chain(chain); });
      }
    };
    fire_chain = [&](int chain) {
      std::deque<Reserved>& fifo = chains[static_cast<size_t>(chain)];
      ASSERT_EQ(fifo.front().time, now);
      fired.push_back(fifo.front().id);
      fifo.pop_front();
      if (!fifo.empty()) {
        ++filed_late;
        file(chain, /*late=*/true);
      }
    };
    auto reserve = [&](int chain) {
      TimePs& last = chain_last[static_cast<size_t>(chain)];
      last = std::max(last, now + RandomGridDelay(rng, horizon));
      const int id = static_cast<int>(ref.size());
      const uint64_t seq = q.ReserveSeq();
      ref.push_back(RefEntry{last, seq, id, false, false});
      std::deque<Reserved>& fifo = chains[static_cast<size_t>(chain)];
      fifo.push_back(Reserved{last, seq, id});
      if (fifo.size() == 1) {
        file(chain, /*late=*/false);  // an empty chain files its head at once
      }
    };
    auto schedule_other = [&]() {
      const TimePs at = now + RandomGridDelay(rng, horizon);
      const int id = static_cast<int>(ref.size());
      ref.push_back(RefEntry{at, q.total_scheduled(), id, false, false});
      auto cb = [&fired, id] { fired.push_back(id); };
      switch (rng.Below(3)) {
        case 0:
          q.ScheduleAt(at, cb);
          break;
        case 1:
          q.ScheduleTimer(at, cb);
          break;
        default:
          q.ScheduleLineRate(at, cb);
          break;
      }
    };
    auto pop_one = [&]() {
      TimePs t = 0;
      EventQueue::Callback cb;
      uint64_t tag = 0;
      ASSERT_TRUE(q.PopEvent(kTimeInfinity, &t, &cb, &tag));
      ASSERT_GE(t, now);
      now = t;
      if (tag != 0) {
        fire_chain(static_cast<int>(tag - 1));
      } else {
        cb();
      }
    };

    for (int op = 0; op < 40'000; ++op) {
      const uint64_t roll = rng.Below(100);
      if (roll < 40) {
        reserve(static_cast<int>(rng.Below(kChains)));
      } else if (roll < 52 || q.empty()) {
        schedule_other();
      } else {
        pop_one();
      }
    }
    while (!q.empty()) {
      pop_one();
    }

    std::sort(ref.begin(), ref.end(), [](const RefEntry& a, const RefEntry& b) {
      return a.time < b.time || (a.time == b.time && a.seq < b.seq);
    });
    ASSERT_EQ(fired.size(), ref.size()) << "seed=" << seed;
    for (size_t i = 0; i < fired.size(); ++i) {
      ASSERT_EQ(fired[i], ref[i].id) << "seed=" << seed << " i=" << i;
    }
    // Both filing paths ran: late inserts onto the calendar and, for keys
    // beyond the horizon, onto the heap under their reserved seq.
    EXPECT_GT(filed_late, 1000u) << "seed=" << seed;
    EXPECT_GT(late_heap_fallbacks, 10u) << "seed=" << seed;
    EXPECT_GT(q.calendar_scheduled(), 1000u) << "seed=" << seed;
  }
}

// --- Calendar geometry from the fabric (Network::AutoSizeScheduler) --------

// The Fig. 5 leaf-spine (16x16, 256 hosts at 400 G) and the k=16 fat-tree
// (1024 hosts at 400 G): the sized calendar must keep a power-of-two bucket
// no wider than the MTU quantum, a horizon covering twice a serialization
// plus the longest propagation (and no shorter than the quantum-sized rule,
// so tier routing is unchanged), and at most two in-flight entries per
// bucket.
TEST(CalendarGeometryTest, AutoSizeMatchesInFlightDensity) {
  ExperimentConfig leaf_spine;  // the defaults are the Fig. 5 fabric
  ExperimentConfig fat_tree;
  fat_tree.fabric = FabricKind::kFatTree;
  fat_tree.fat_tree_k = 16;
  fat_tree.link_rate = Rate::Gbps(400);
  for (const ExperimentConfig& config : {leaf_spine, fat_tree}) {
    Experiment exp(config);
    const CalendarQueue& cal = exp.sim().queue().calendar();
    const TimePs quantum = config.link_rate.SerializationTime(config.mtu_bytes);
    TimePs max_propagation = 0;
    uint64_t population = 0;
    for (const DuplexLink& link : exp.network().links()) {
      for (const LinkEnd& end : {link.a, link.b}) {
        const Port* port = end.node->port(end.port);
        const TimePs serialization = port->rate().SerializationTime(config.mtu_bytes);
        max_propagation = std::max(max_propagation, port->propagation_delay());
        population += 1 + static_cast<uint64_t>((port->propagation_delay() + serialization - 1) /
                                                serialization);
      }
    }
    // The quantum-sized rule: slots of the largest power of two <= quantum
    // (at least 1 ns), 64..4096 of them, covering 2 (quantum + propagation)
    // plus 16 slots.
    TimePs slot = 1024;
    while (slot * 2 <= quantum) {
      slot *= 2;
    }
    TimePs quantum_horizon = 64 * slot;
    while (quantum_horizon < 2 * (quantum + max_propagation) + 16 * slot &&
           quantum_horizon < 4096 * slot) {
      quantum_horizon *= 2;
    }

    const TimePs width = cal.bucket_width();
    SCOPED_TRACE(testing::Message() << "fabric=" << static_cast<int>(config.fabric)
                                    << " width=" << width << " buckets=" << cal.bucket_count()
                                    << " population=" << population);
    ASSERT_TRUE(cal.configured());
    EXPECT_EQ(width & (width - 1), 0);
    EXPECT_LE(width, quantum);
    EXPECT_GE(cal.horizon(), 2 * (quantum + max_propagation));
    EXPECT_GE(cal.horizon(), quantum_horizon);
    // With every port busy, at most two in-flight entries per bucket. (The
    // 32 ps floor on the width binds on the 400 G fat-tree.)
    EXPECT_LE(population, 2 * static_cast<uint64_t>(cal.bucket_count()));
    EXPECT_GE(cal.bucket_count(), 1 << 16);  // density, not the quantum, sets the width
  }
}

// --- PopEvent (the run loop's fused NextTime + Pop) -------------------------

TEST(PopEventTest, RespectsDeadlineAcrossTiers) {
  EventQueue q;
  ASSERT_TRUE(q.ConfigureCalendar(10, 8));
  std::vector<int> order;
  q.ScheduleLineRate(100, [&order] { order.push_back(0); });
  q.ScheduleTimer(200, [&order] { order.push_back(1); });
  q.ScheduleAt(300, [&order] { order.push_back(2); });
  ASSERT_TRUE(q.ScheduleLineRateTagged(400, q.ReserveSeq(), /*tag=*/0xbeef));

  TimePs t = 0;
  EventQueue::Callback cb;
  uint64_t tag = 7;
  // Deadline below everything: nothing pops, queue and outputs intact.
  EXPECT_FALSE(q.PopEvent(99, &t, &cb, &tag));
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(tag, 7u);
  // Deadline admits the first two, in order, then refuses the third.
  ASSERT_TRUE(q.PopEvent(250, &t, &cb, &tag));
  EXPECT_EQ(tag, 0u);
  cb();
  EXPECT_EQ(t, 100);
  ASSERT_TRUE(q.PopEvent(250, &t, &cb, &tag));
  EXPECT_EQ(tag, 0u);
  cb();
  EXPECT_EQ(t, 200);
  EXPECT_FALSE(q.PopEvent(250, &t, &cb, &tag));
  EXPECT_EQ(q.size(), 2u);
  // Exact-time deadline is inclusive.
  ASSERT_TRUE(q.PopEvent(300, &t, &cb, &tag));
  EXPECT_EQ(tag, 0u);
  cb();
  EXPECT_EQ(t, 300);
  // A tagged calendar entry comes out as its tag, never as a callback.
  EXPECT_FALSE(q.PopEvent(399, &t, &cb, &tag));
  ASSERT_TRUE(q.PopEvent(400, &t, &cb, &tag));
  EXPECT_EQ(tag, 0xbeefu);
  EXPECT_EQ(t, 400);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.PopEvent(1'000'000, &t, &cb, &tag));  // empty queue
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// --- RunUntil deadline semantics --------------------------------------------

TEST(RunUntilTest, AdvancesClockToDeadlineOnEarlyExit) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(100, [&fired] { ++fired; });
  // Queue drains before the deadline: the clock still lands on it.
  sim.RunUntil(5'000);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 5'000);
  // Next event beyond the deadline: same rule.
  sim.Schedule(10'000, [&fired] { ++fired; });  // fires at t=15'000
  sim.RunUntil(7'000);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 7'000);
  // Stop() keeps the clock at the stopping event.
  sim.Schedule(1'000, [&sim, &fired] {
    ++fired;
    sim.Stop();
  });
  sim.RunUntil(20'000);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 8'000);
  // Run() (infinite deadline) never advances past the last event.
  sim.Run();
  EXPECT_EQ(sim.now(), 15'000);
  EXPECT_EQ(fired, 3);
}

// ---------------------------------------------------------------------------
// Tagged dispatch ordering. Every event — tagged or callback — gets an id in
// schedule order, and the reference (fire time, id) pair is recorded when it
// is scheduled. Ids grow with sequence numbers, so the fired log must equal
// the sorted reference under same-tick bursts of tagged events, run-breaking
// callbacks, same-tick heap events and tagged overflow to the heap.

using FiredLog = std::vector<std::pair<TimePs, uint64_t>>;  // (fire time, id)

FiredLog* g_fired = nullptr;
uint64_t g_stop_tag = 0;  // RecordingDispatcher raises Stop() after this tag

void RecordingDispatcher(Simulator& sim, uint64_t tag) {
  g_fired->emplace_back(sim.now(), tag);
  if (tag == g_stop_tag) {
    sim.Stop();
  }
}

// Self-rescheduling volley generator: each firing packs several tagged events
// onto few distinct ticks (collisions on purpose), sometimes adds a
// run-breaking plain callback or a same-tick heap event, and occasionally
// throws a tagged event beyond the calendar horizon (heap-wrapper path).
// Every delay is a multiple of 32 ps, so events from different volleys land
// on shared ticks too, with the earlier-scheduled one in either tier.
// A tagged event's id is its tag.
struct BurstStorm {
  Simulator* sim = nullptr;
  Rng* rng = nullptr;
  int volleys = 0;
  uint64_t next_id = 1;  // non-zero: ids double as tags
  FiredLog reference;

  uint64_t Expect(TimePs delay) {
    reference.emplace_back(sim->now() + delay, next_id);
    return next_id++;
  }

  void Tagged(TimePs delay) { sim->SchedulePortEvent(delay, Expect(delay)); }

  void Fire() {
    if (volleys-- <= 0) {
      return;
    }
    const int m = 1 + static_cast<int>(rng->Below(6));
    for (int i = 0; i < m; ++i) {
      Tagged(static_cast<TimePs>(rng->Below(4)) * 32);
    }
    switch (rng->Below(4)) {
      case 0: {  // plain line-rate callback: sits between tagged events on its tick
        const TimePs delay = static_cast<TimePs>(rng->Below(4)) * 32;
        const uint64_t id = Expect(delay);
        sim->ScheduleSerialization(delay, [this, id] { g_fired->emplace_back(sim->now(), id); });
        break;
      }
      case 1: {  // same-tick heap event: merges with the calendar by seq
        const TimePs delay = static_cast<TimePs>(rng->Below(4)) * 32;
        const uint64_t id = Expect(delay);
        sim->ScheduleInline(delay, [this, id] { g_fired->emplace_back(sim->now(), id); });
        break;
      }
      case 2:  // far beyond the 1024 ps horizon: tagged overflow rides the heap
        Tagged(static_cast<TimePs>(1'560 + rng->Below(32)) * 32);
        break;
      default:
        break;
    }
    const TimePs delay = static_cast<TimePs>(1 + rng->Below(6)) * 32;
    const uint64_t id = Expect(delay);
    sim->ScheduleInline(delay, [this, id] {
      g_fired->emplace_back(sim->now(), id);
      Fire();
    });
  }
};

TEST(BurstDispatchTest, MatchesScalarReferenceUnderRandomTickCollisions) {
  size_t same_tick_pairs = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Simulator sim(seed);
    ASSERT_TRUE(sim.ConfigureCalendar(6, 16));  // 64 ps buckets, 1024 ps horizon
    sim.SetLineRateDispatcher(&RecordingDispatcher);
    FiredLog fired;
    g_fired = &fired;
    Rng rng(seed * 1'000 + 7);
    BurstStorm storm;
    storm.sim = &sim;
    storm.rng = &rng;
    storm.volleys = 120;
    sim.ScheduleInline(0, [&storm] { storm.Fire(); });
    sim.RunUntil(kTimeInfinity);
    g_fired = nullptr;

    ASSERT_FALSE(fired.empty());
    std::sort(storm.reference.begin(), storm.reference.end());
    EXPECT_EQ(fired, storm.reference) << "firing order diverged, seed " << seed;
    for (size_t i = 1; i < fired.size(); ++i) {
      same_tick_pairs += fired[i].first == fired[i - 1].first ? 1 : 0;
    }
  }
  // The collision-heavy schedule must actually have put events on one tick.
  EXPECT_GT(same_tick_pairs, 0u);
}

TEST(BurstDispatchTest, StopInsideTaggedEventLeavesSameTickTailPending) {
  Simulator sim(1);
  ASSERT_TRUE(sim.ConfigureCalendar(6, 16));
  sim.SetLineRateDispatcher(&RecordingDispatcher);
  FiredLog fired;
  g_fired = &fired;
  for (uint64_t tag = 1; tag <= 6; ++tag) {
    sim.SchedulePortEvent(64, tag);  // six tagged events on one tick
  }
  g_stop_tag = 3;
  sim.RunUntil(kTimeInfinity);
  g_fired = nullptr;
  g_stop_tag = 0;
  EXPECT_EQ(fired, (FiredLog{{64, 1}, {64, 2}, {64, 3}}));
  EXPECT_EQ(sim.now(), 64);  // Stop() keeps the clock at the stopping event
  EXPECT_EQ(sim.queue().calendar_pending(), 3u);
}

TEST(BurstDispatchTest, StopMidBurstRestoresUndispatchedTail) {
  Simulator sim(1);
  ASSERT_TRUE(sim.ConfigureCalendar(6, 16));
  sim.SetLineRateDispatcher(&RecordingDispatcher);
  FiredLog fired;
  g_fired = &fired;
  for (uint64_t tag = 1; tag <= 6; ++tag) {
    sim.SchedulePortEvent(64, tag);
  }
  g_stop_tag = 3;
  sim.RunUntil(kTimeInfinity);
  // Resuming fires the three events left on the tick, in schedule order.
  g_stop_tag = 0;
  sim.RunUntil(kTimeInfinity);
  g_fired = nullptr;
  EXPECT_EQ(fired, (FiredLog{{64, 1}, {64, 2}, {64, 3}, {64, 4}, {64, 5}, {64, 6}}));
  EXPECT_FALSE(sim.HasPendingEvents());
}

}  // namespace
}  // namespace themis
