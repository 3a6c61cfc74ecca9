#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/check/validator.h"
#include "src/obs/selfprof.h"
#include "src/sim/event_queue.h"
#include "src/sim/fabric.h"
#include "src/sim/simulator.h"
#include "src/sim/stream.h"
#include "src/util/rng.h"

namespace deepplan {
namespace {

// ---------------------------------------------------------------- event queue

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(30, [&] { order.push_back(3); });
  q.Schedule(10, [&] { order.push_back(1); });
  q.Schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) {
    q.PopNext().second();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.Schedule(100, [&, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    q.PopNext().second();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelSuppressesEvent) {
  EventQueue q;
  bool fired = false;
  const auto id = q.Schedule(10, [&] { fired = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));  // double-cancel is a no-op
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

// The next few tests pin the Cancel/stale-entry contract the rest of the sim
// relies on (the fabric cancels and reschedules completion events on every
// rate change): ids are never resurrected, cancelled entries left inside the
// queue's internal structure never surface through NextTime/PopNext, and
// tie-breaking among survivors stays schedule-order.

TEST(EventQueueTest, CancelledIdIsNeverResurrectedByLaterSchedules) {
  EventQueue q;
  bool stale_fired = false;
  bool fresh_fired = false;
  const auto stale = q.Schedule(10, [&] { stale_fired = true; });
  ASSERT_TRUE(q.Cancel(stale));
  // New events (including ones at the same timestamp) must not revive the
  // cancelled id, even if the implementation recycles its storage.
  const auto fresh = q.Schedule(10, [&] { fresh_fired = true; });
  EXPECT_NE(stale, fresh);
  EXPECT_FALSE(q.Cancel(stale));
  EXPECT_EQ(q.size(), 1u);
  auto [when, cb] = q.PopNext();
  EXPECT_EQ(when, 10);
  cb();
  EXPECT_FALSE(stale_fired);
  EXPECT_TRUE(fresh_fired);
}

TEST(EventQueueTest, NextTimeSkipsCancelledHead) {
  EventQueue q;
  const auto head = q.Schedule(5, [] {});
  q.Schedule(20, [] {});
  EXPECT_EQ(q.NextTime(), 5);
  ASSERT_TRUE(q.Cancel(head));
  EXPECT_EQ(q.NextTime(), 20);  // stale head entry must not surface
  EXPECT_EQ(q.NextTime(), 20);  // and NextTime must not consume anything
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.PopNext().first, 20);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelInsideEqualTimeBurstKeepsScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventQueue::EventId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(q.Schedule(100, [&, i] { order.push_back(i); }));
  }
  ASSERT_TRUE(q.Cancel(ids[0]));  // head of the burst
  ASSERT_TRUE(q.Cancel(ids[3]));  // middle of the burst
  while (!q.empty()) {
    q.PopNext().second();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 5}));
}

TEST(EventQueueTest, CancelAndRescheduleChurnKeepsQueueConsistent) {
  // The fabric's reallocation pattern: cancel the pending completion and
  // schedule a replacement, thousands of times. Ids must stay unique, size
  // must track live events only, and only the last replacement fires.
  EventQueue q;
  int fired = 0;
  EventQueue::EventId id = q.Schedule(1000, [&] { ++fired; });
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(q.Cancel(id));
    const EventQueue::EventId next = q.Schedule(1000 + i % 7, [&] { ++fired; });
    EXPECT_NE(next, id);
    id = next;
    ASSERT_EQ(q.size(), 1u);
  }
  q.PopNext().second();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.Cancel(id));  // already fired
}

TEST(EventQueueTest, ScheduleDuringPopAtSameTimeFiresAfterExistingTies) {
  // An event scheduled from inside a callback at the *current* timestamp
  // joins the back of the equal-time FIFO (schedule order is global).
  EventQueue q;
  std::vector<int> order;
  q.Schedule(50, [&] {
    order.push_back(0);
    q.Schedule(50, [&] { order.push_back(2); });
  });
  q.Schedule(50, [&] { order.push_back(1); });
  while (!q.empty()) {
    q.PopNext().second();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// ---------------------------------------------------------------- simulator

TEST(SimulatorTest, ClockAdvancesToEventTimes) {
  Simulator sim;
  Nanos seen = -1;
  sim.ScheduleAfter(100, [&] { seen = sim.now(); });
  sim.Run();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.now(), 100);
}

TEST(SimulatorTest, NestedSchedulingWorks) {
  Simulator sim;
  std::vector<Nanos> times;
  sim.ScheduleAfter(10, [&] {
    times.push_back(sim.now());
    sim.ScheduleAfter(5, [&] { times.push_back(sim.now()); });
  });
  sim.Run();
  EXPECT_EQ(times, (std::vector<Nanos>{10, 15}));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  bool late_fired = false;
  sim.ScheduleAfter(10, [] {});
  sim.ScheduleAfter(1000, [&] { late_fired = true; });
  sim.RunUntil(100);
  EXPECT_EQ(sim.now(), 100);
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(sim.pending_events(), 1u);
}

// ------------------------------------------------------------ inline events

// Records the argument of every inline event it receives.
class InlineRecorder final : public InlineEventHandler {
 public:
  explicit InlineRecorder(const Simulator* sim) : sim_(sim) {}
  void OnInlineEvent(int arg) override {
    fired.emplace_back(sim_->now(), arg);
  }
  std::vector<std::pair<Nanos, int>> fired;

 private:
  const Simulator* sim_;
};

TEST(InlineEventTest, PendingInlineEventCountsAsPending) {
  Simulator sim;
  InlineRecorder handler(&sim);
  sim.ScheduleInlineAfter(40, &handler, 7);
  EXPECT_FALSE(sim.idle());
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.NextEventTime(), 40);
  EXPECT_TRUE(sim.event_queue().empty());  // it holds no queue slot
  sim.ScheduleAfter(60, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_EQ(sim.NextEventTime(), 40);
  sim.RunUntil(50);
  EXPECT_EQ(handler.fired, (std::vector<std::pair<Nanos, int>>{{40, 7}}));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.NextEventTime(), 60);
  sim.Run();
  EXPECT_TRUE(sim.idle());
  // Queue and inline events are counted apart; the queue counts only its own.
  EXPECT_EQ(sim.events_dispatched(), 1u);
  EXPECT_EQ(sim.inline_events_dispatched(), 1u);
  EXPECT_EQ(sim.event_queue().total_scheduled(), 1u);
}

TEST(InlineEventTest, ValidatorAndSelfProfilerSeeInlineEvents) {
  check::SetValidationForTesting(1);
  selfprof::SelfProfiler lane;
  {
    selfprof::InstallLane install(&lane);
    Simulator sim;
    InlineRecorder handler(&sim);
    sim.ScheduleInlineAfter(5, &handler, 0);
    sim.Run();
  }
  check::SetValidationForTesting(-1);
  // One OnSchedule and one OnEventFire.
  EXPECT_EQ(lane.counter(selfprof::Counter::kValidatorChecks), 2u);
  EXPECT_EQ(lane.counter(selfprof::Counter::kInlineEventsDispatched), 1u);
  EXPECT_EQ(lane.counter(selfprof::Counter::kEventsDispatched), 0u);
}

TEST(InlineEventDeathTest, SchedulingDuringCatchUpDies) {
  EXPECT_DEATH(
      {
        Simulator sim;
        InlineRecorder handler(&sim);
        sim.HoldDispatchLog(0);
        sim.CatchUp(
            0, sim.next_seq(), Simulator::CatchUpUntil::kBeforeNow,
            [&] { sim.ScheduleInlineAfter(1, &handler, 0); }, [] {});
      },
      "inline events cannot be scheduled");
}

// One fire of the random schedule below: time, the schedule position its
// callback started at, and the identity of the event.
struct FireRecord {
  Nanos when;
  std::uint64_t next_seq;
  int id;
  bool operator==(const FireRecord& o) const {
    return when == o.when && next_seq == o.next_seq && id == o.id;
  }
};

// A random schedule of queue events and inline entries. With `use_inline`
// off, every inline entry is scheduled as an ordinary queue event instead;
// the firing order must not change. Every decision an event makes is a
// function of its identity, so both runs make the same ones as long as they
// fire the same events.
class InlineDiffSchedule final : public InlineEventHandler {
 public:
  InlineDiffSchedule(std::uint64_t seed, bool use_inline)
      : seed_(seed), use_inline_(use_inline), driver_(seed) {}

  void OnInlineEvent(int id) override { Fire(id); }

  std::vector<FireRecord> Run() {
    for (int i = 0; i < 6; ++i) {
      Schedule(static_cast<Nanos>(driver_.NextBounded(20)),
               driver_.NextBounded(2) == 0, /*from_inline=*/false);
    }
    while (!sim_.idle()) {
      // Deadlines often equal a scheduled event's time, so RunUntil stops
      // with ties at the deadline on either side.
      Nanos deadline = sim_.now() + static_cast<Nanos>(driver_.NextBounded(8));
      const std::size_t pick = static_cast<std::size_t>(
          driver_.NextBounded(times_.size() + 1));
      if (pick < times_.size() && times_[pick] >= sim_.now()) {
        deadline = times_[pick];
      }
      sim_.RunUntil(deadline);
      if (budget_ > 0 && driver_.NextBounded(3) == 0) {
        Schedule(static_cast<Nanos>(driver_.NextBounded(6)),
                 driver_.NextBounded(2) == 0, /*from_inline=*/false);
      }
    }
    return log_;
  }

  const Simulator& sim() const { return sim_; }
  // Coverage, counted from the lane run.
  int ties_inline_first = 0;
  int ties_queue_first = 0;
  int inline_from_queue = 0;
  int queue_from_inline = 0;
  int catch_ups_over_inline_fires = 0;
  int cancels = 0;

 private:
  void Schedule(Nanos delay, bool inline_entry, bool from_inline) {
    --budget_;
    const int id = static_cast<int>(is_inline_.size());
    is_inline_.push_back(inline_entry);
    times_.push_back(sim_.now() + delay);
    if (inline_entry) {
      inline_from_queue += from_inline ? 0 : 1;
    } else {
      queue_from_inline += from_inline ? 1 : 0;
    }
    if (inline_entry && use_inline_) {
      sim_.ScheduleInlineAfter(delay, this, id);
      return;
    }
    const EventQueue::EventId event =
        sim_.ScheduleAfter(delay, [this, id] { Fire(id); });
    if (!inline_entry) {
      cancellable_.push_back(event);
    }
  }

  void Record(int id) {
    if (!log_.empty() && log_.back().when == sim_.now()) {
      const bool prev_inline = is_inline_[static_cast<std::size_t>(log_.back().id)];
      const bool this_inline = is_inline_[static_cast<std::size_t>(id)];
      ties_inline_first += prev_inline && !this_inline ? 1 : 0;
      ties_queue_first += !prev_inline && this_inline ? 1 : 0;
    }
    log_.push_back({sim_.now(), sim_.next_seq(), id});
  }

  void Fire(int id) {
    Record(id);
    Rng rng(seed_ * 1000003 + static_cast<std::uint64_t>(id));
    const bool from_inline = is_inline_[static_cast<std::size_t>(id)];
    if (from_inline) {
      inline_fires_since_hold_ += 1;
    }
    const int children = budget_ > 0 ? static_cast<int>(rng.NextBounded(3)) : 0;
    for (int k = 0; k < children; ++k) {
      // Half of the delays fall in a 3 ns window: same-ns ties are common.
      const Nanos delay = rng.NextBounded(2) == 0
                              ? static_cast<Nanos>(rng.NextBounded(3))
                              : static_cast<Nanos>(rng.NextBounded(40));
      Schedule(delay, rng.NextBounded(2) == 0, from_inline);
    }
    if (!cancellable_.empty() && rng.NextBounded(4) == 0) {
      // A neighbour: one of the last few queue events scheduled.
      const std::size_t back = static_cast<std::size_t>(
          rng.NextBounded(std::min<std::size_t>(3, cancellable_.size())));
      const std::size_t at = cancellable_.size() - 1 - back;
      cancels += sim_.Cancel(cancellable_[at]) ? 1 : 0;
      cancellable_.erase(cancellable_.begin() + static_cast<std::ptrdiff_t>(at));
    }
    if (!held_ && rng.NextBounded(8) == 0) {
      // Skipped work starts here; a later fire replays it.
      held_ = true;
      hold_start_ = sim_.now();
      hold_seq_ = sim_.next_seq();
      inline_fires_since_hold_ = 0;
      sim_.HoldDispatchLog(hold_start_);
    } else if (held_ && sim_.now() > hold_start_ && rng.NextBounded(3) == 0) {
      CatchUp(rng);
    }
  }

  // Replays a stretch of side events from the hold's start: those due before
  // the current dispatch fire now, the rest are spliced into the queue at
  // the positions the dispatch log (which holds inline fires too) gives them.
  void CatchUp(Rng& rng) {
    if (use_inline_ && inline_fires_since_hold_ > 0) {
      ++catch_ups_over_inline_fires;
    }
    const Nanos span = sim_.now() - hold_start_ + 4;
    std::vector<Nanos> delays;
    for (int k = 0; k < 3; ++k) {
      delays.push_back(static_cast<Nanos>(rng.NextBounded(static_cast<std::uint64_t>(span))));
    }
    sim_.CatchUp(
        hold_start_, hold_seq_, Simulator::CatchUpUntil::kCurrentDispatch,
        [&] {
          for (const Nanos delay : delays) {
            ScheduleSide(delay, /*depth=*/0);
          }
        },
        [] {});
    sim_.ReleaseDispatchLog(hold_start_);
    held_ = false;
  }

  void ScheduleSide(Nanos delay, int depth) {
    const int id = static_cast<int>(is_inline_.size());
    is_inline_.push_back(false);
    times_.push_back(sim_.now() + delay);
    sim_.ScheduleAfter(delay, [this, id, depth] {
      Record(id);
      if (depth < 2) {
        ScheduleSide(static_cast<Nanos>(id % 3), depth + 1);
      }
    });
  }

  std::uint64_t seed_;
  bool use_inline_;
  Rng driver_;
  Simulator sim_;
  int budget_ = 300;
  std::vector<bool> is_inline_;  // by id
  std::vector<Nanos> times_;     // by id: the scheduled time
  std::vector<EventQueue::EventId> cancellable_;
  std::vector<FireRecord> log_;
  bool held_ = false;
  Nanos hold_start_ = 0;
  std::uint64_t hold_seq_ = 0;
  int inline_fires_since_hold_ = 0;
};

TEST(InlineEventDiffTest, RandomSchedulesFireAsIfEveryEntryWereQueued) {
  check::SetValidationForTesting(1);
  int ties_inline_first = 0;
  int ties_queue_first = 0;
  int inline_from_queue = 0;
  int queue_from_inline = 0;
  int catch_ups = 0;
  int cancels = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    InlineDiffSchedule lane(seed, /*use_inline=*/true);
    InlineDiffSchedule queued(seed, /*use_inline=*/false);
    const std::vector<FireRecord> got = lane.Run();
    const std::vector<FireRecord> want = queued.Run();
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "seed " << seed << " divergence at fire " << i;
    }
    EXPECT_EQ(lane.sim().now(), queued.sim().now()) << "seed " << seed;
    EXPECT_EQ(lane.sim().events_dispatched() + lane.sim().inline_events_dispatched(),
              queued.sim().events_dispatched())
        << "seed " << seed;
    EXPECT_EQ(queued.sim().inline_events_dispatched(), 0u);
    ties_inline_first += lane.ties_inline_first;
    ties_queue_first += lane.ties_queue_first;
    inline_from_queue += lane.inline_from_queue;
    queue_from_inline += lane.queue_from_inline;
    catch_ups += lane.catch_ups_over_inline_fires;
    cancels += lane.cancels;
  }
  check::SetValidationForTesting(-1);
  // The schedules exercise what the lane has to get right.
  EXPECT_GT(ties_inline_first, 0);
  EXPECT_GT(ties_queue_first, 0);
  EXPECT_GT(inline_from_queue, 0);
  EXPECT_GT(queue_from_inline, 0);
  EXPECT_GT(catch_ups, 0);
  EXPECT_GT(cancels, 0);
}

// ---------------------------------------------------------------- fabric

TEST(FabricTest, SingleTransferTakesBytesOverBandwidth) {
  Simulator sim;
  Fabric fabric(&sim);
  const LinkId link = fabric.AddLink("pcie", 1e9);  // 1 GB/s
  Nanos elapsed = -1;
  fabric.Start({link}, 1'000'000, /*latency=*/0, [&](Nanos e) { elapsed = e; });
  sim.Run();
  EXPECT_NEAR(static_cast<double>(elapsed), 1e6, 1e3);  // 1 MB at 1 GB/s = 1 ms
}

TEST(FabricTest, LatencyAddsAfterDrain) {
  Simulator sim;
  Fabric fabric(&sim);
  const LinkId link = fabric.AddLink("pcie", 1e9);
  Nanos elapsed = -1;
  fabric.Start({link}, 1'000'000, /*latency=*/Micros(50), [&](Nanos e) { elapsed = e; });
  sim.Run();
  EXPECT_NEAR(static_cast<double>(elapsed), 1e6 + 50e3, 1e3);
}

TEST(FabricTest, ZeroByteTransferCompletesAfterLatency) {
  Simulator sim;
  Fabric fabric(&sim);
  fabric.AddLink("pcie", 1e9);
  Nanos elapsed = -1;
  fabric.Start({}, 0, Micros(7), [&](Nanos e) { elapsed = e; });
  sim.Run();
  EXPECT_EQ(elapsed, Micros(7));
}

TEST(FabricTest, TwoTransfersShareLinkFairly) {
  Simulator sim;
  Fabric fabric(&sim);
  const LinkId link = fabric.AddLink("pcie", 1e9);
  Nanos first = -1;
  Nanos second = -1;
  fabric.Start({link}, 1'000'000, 0, [&](Nanos e) { first = e; });
  fabric.Start({link}, 1'000'000, 0, [&](Nanos e) { second = e; });
  sim.Run();
  // Both share 1 GB/s -> each effectively 0.5 GB/s -> 2 ms each.
  EXPECT_NEAR(static_cast<double>(first), 2e6, 2e4);
  EXPECT_NEAR(static_cast<double>(second), 2e6, 2e4);
}

TEST(FabricTest, ShortTransferFreesBandwidthForLongOne) {
  Simulator sim;
  Fabric fabric(&sim);
  const LinkId link = fabric.AddLink("pcie", 1e9);
  Nanos long_elapsed = -1;
  fabric.Start({link}, 3'000'000, 0, [&](Nanos e) { long_elapsed = e; });
  fabric.Start({link}, 1'000'000, 0, [](Nanos) {});
  sim.Run();
  // Phase 1: both at 0.5 GB/s until the short one finishes at t=2ms (long has
  // 2 MB left). Phase 2: long alone at 1 GB/s -> +2 ms. Total 4 ms.
  EXPECT_NEAR(static_cast<double>(long_elapsed), 4e6, 4e4);
}

TEST(FabricTest, SharedUplinkConstrainsTwoGpuLoads) {
  // Two GPUs behind one switch (Table 2's 4-GPU contention case): each GPU
  // link is 12 GB/s but the shared uplink is 12.6 GB/s, so concurrent loads
  // run at ~6.3 GB/s each.
  Simulator sim;
  Fabric fabric(&sim);
  const LinkId uplink = fabric.AddLink("uplink", 12.6e9);
  const LinkId gpu0 = fabric.AddLink("gpu0", 12e9);
  const LinkId gpu1 = fabric.AddLink("gpu1", 12e9);
  Nanos t0 = -1;
  Nanos t1 = -1;
  fabric.Start({uplink, gpu0}, 126'000'000, 0, [&](Nanos e) { t0 = e; });
  fabric.Start({uplink, gpu1}, 126'000'000, 0, [&](Nanos e) { t1 = e; });
  sim.Run();
  EXPECT_NEAR(static_cast<double>(t0), 20e6, 2e5);  // 126 MB at 6.3 GB/s
  EXPECT_NEAR(static_cast<double>(t1), 20e6, 2e5);
}

TEST(FabricTest, IndependentLinksDoNotInterfere) {
  Simulator sim;
  Fabric fabric(&sim);
  const LinkId a = fabric.AddLink("a", 1e9);
  const LinkId b = fabric.AddLink("b", 1e9);
  Nanos ta = -1;
  Nanos tb = -1;
  fabric.Start({a}, 1'000'000, 0, [&](Nanos e) { ta = e; });
  fabric.Start({b}, 1'000'000, 0, [&](Nanos e) { tb = e; });
  sim.Run();
  EXPECT_NEAR(static_cast<double>(ta), 1e6, 1e4);
  EXPECT_NEAR(static_cast<double>(tb), 1e6, 1e4);
}

TEST(FabricTest, MaxMinFairnessWithAsymmetricPaths) {
  // T1 crosses links A and B; T2 crosses only A; T3 crosses only B.
  // A and B both 1 GB/s. Max-min: each link splits between its two users,
  // T1 bottlenecked at 0.5 on both; T2 and T3 get 0.5 each.
  Simulator sim;
  Fabric fabric(&sim);
  const LinkId a = fabric.AddLink("a", 1e9);
  const LinkId b = fabric.AddLink("b", 1e9);
  fabric.Start({a, b}, 10'000'000, 0, [](Nanos) {});
  fabric.Start({a}, 10'000'000, 0, [](Nanos) {});
  fabric.Start({b}, 10'000'000, 0, [](Nanos) {});
  EXPECT_NEAR(fabric.AllocatedOn(a), 1e9, 1e6);
  EXPECT_NEAR(fabric.AllocatedOn(b), 1e9, 1e6);
  sim.Run();
}

// ---------------------------------------------------------------- streams

TEST(StreamTest, OpsRunInOrder) {
  Simulator sim;
  Stream stream(&sim, "s");
  std::vector<int> order;
  stream.EnqueueMarker([&] { order.push_back(1); });
  stream.EnqueueDelay(100);
  stream.EnqueueMarker([&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_TRUE(stream.idle());
}

TEST(StreamTest, DelayOccupiesStream) {
  Simulator sim;
  Stream stream(&sim, "s");
  Nanos done_at = -1;
  stream.EnqueueDelay(100);
  stream.EnqueueDelay(50);
  stream.EnqueueMarker([&] { done_at = sim.now(); });
  sim.Run();
  EXPECT_EQ(done_at, 150);
}

TEST(SyncEventTest, WaitBlocksUntilFire) {
  Simulator sim;
  SyncEvent event(&sim);
  Stream stream(&sim, "s");
  Nanos resumed_at = -1;
  stream.EnqueueWait(&event);
  stream.EnqueueMarker([&] { resumed_at = sim.now(); });
  sim.ScheduleAfter(500, [&] { event.Fire(); });
  sim.Run();
  EXPECT_EQ(resumed_at, 500);
  EXPECT_EQ(stream.wait_time(), 500);
}

TEST(SyncEventTest, WaitOnFiredEventIsInstant) {
  Simulator sim;
  SyncEvent event(&sim);
  event.Fire();
  Stream stream(&sim, "s");
  Nanos resumed_at = -1;
  stream.EnqueueWait(&event);
  stream.EnqueueMarker([&] { resumed_at = sim.now(); });
  sim.Run();
  EXPECT_EQ(resumed_at, 0);
  EXPECT_EQ(stream.wait_time(), 0);
}

TEST(SyncEventTest, FiredThenResetKeepsWaiterCapacity) {
  // Pooled cold runs Reset their events for reuse; firing must not hand the
  // waiter vector's storage away, or every reuse reallocates it.
  Simulator sim;
  SyncEvent event(&sim);
  int fired = 0;
  for (int i = 0; i < 8; ++i) {
    event.OnFire([&] { ++fired; });
  }
  const std::size_t capacity = event.waiter_capacity();
  ASSERT_GE(capacity, 8u);
  event.Fire();
  EXPECT_EQ(fired, 8);
  event.Reset(&sim);
  EXPECT_EQ(event.waiter_capacity(), capacity);
  event.OnFire([&] { ++fired; });
  event.Fire();
  EXPECT_EQ(fired, 9);
}

TEST(StreamTest, RecordFiresEventInOrder) {
  Simulator sim;
  Stream producer(&sim, "load");
  Stream consumer(&sim, "exec");
  SyncEvent event(&sim);
  producer.EnqueueDelay(200);
  producer.EnqueueRecord(&event);
  Nanos exec_start = -1;
  consumer.EnqueueWait(&event);
  consumer.EnqueueMarker([&] { exec_start = sim.now(); });
  sim.Run();
  EXPECT_EQ(exec_start, 200);
}

}  // namespace
}  // namespace deepplan
