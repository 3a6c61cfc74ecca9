// Differential lockdown of the calendar-queue EventQueue against the
// original binary-heap backend (ReferenceEventQueue): ~1M randomized
// schedule/pop/cancel operations across five time-distribution regimes must
// produce bit-identical observable logs — pop order including FIFO ties,
// NextTime before every pop, Cancel outcomes, and live sizes after every op.
// The reference backend defines "correct"; see tests/eventqueue_schedules.h
// for the shared generator.
#include <algorithm>
#include <cstdint>

#include <gtest/gtest.h>

#include "src/check/validator.h"
#include "src/sim/event_queue.h"
#include "tests/reference_event_queue.h"
#include "src/util/time.h"
#include "tests/eventqueue_schedules.h"

namespace deepplan {
namespace {

using testing_schedules::RunRandomSchedule;
using testing_schedules::ScheduleLog;
using testing_schedules::ScheduleRegime;

// Raw-queue fuzzing intentionally pops non-monotonically (a later schedule
// may land before an already-popped time): that violates the *simulator's*
// monotone-pop invariant, which only holds when a Simulator owns the queue.
// Force validation off so Debug/DEEPPLAN_VALIDATE builds fuzz the queue
// itself rather than abort in the validator.
class EventQueueDiffTest : public ::testing::Test {
 protected:
  void SetUp() override { check::SetValidationForTesting(0); }
  void TearDown() override { check::SetValidationForTesting(-1); }
};

void ExpectSameLogs(std::uint64_t seed, const ScheduleRegime& regime) {
  EventQueue calendar;
  ReferenceEventQueue reference;
  const ScheduleLog got = RunRandomSchedule(calendar, seed, regime);
  const ScheduleLog want = RunRandomSchedule(reference, seed, regime);

  ASSERT_EQ(got.scheduled, want.scheduled) << "seed " << seed;
  EXPECT_EQ(got.cancel_results, want.cancel_results) << "seed " << seed;
  EXPECT_EQ(got.sizes, want.sizes) << "seed " << seed;
  EXPECT_EQ(got.next_times, want.next_times) << "seed " << seed;
  ASSERT_EQ(got.pops.size(), want.pops.size()) << "seed " << seed;
  for (std::size_t i = 0; i < got.pops.size(); ++i) {
    ASSERT_EQ(got.pops[i], want.pops[i])
        << "seed " << seed << " divergence at pop " << i;
  }
  EXPECT_TRUE(calendar.empty());
  EXPECT_TRUE(reference.empty());

  // Arena-reuse invariant: callback slots are recycled, so the pool never
  // grows past the peak number of simultaneously pending events.
  const std::size_t peak =
      got.sizes.empty() ? 0 : *std::max_element(got.sizes.begin(), got.sizes.end());
  EXPECT_LE(calendar.slot_capacity(), peak);
  EXPECT_EQ(calendar.total_scheduled(), got.scheduled);
}

// Tiny time domain: nearly every event collides with others at the same
// nanosecond, so the FIFO (insertion-order) tie-break carries the ordering.
TEST_F(EventQueueDiffTest, DenseEqualTimestampBursts) {
  ScheduleRegime regime;
  regime.ops = 200000;
  regime.domain = 8;
  regime.schedule_weight = 6;
  regime.burst_every = 5;
  regime.burst_size = 8;
  ExpectSameLogs(0x1001, regime);
}

// Wide time domain with a drifting base: entries spread across many epochs
// and the serve pointer sweeps forward (AdvanceEpoch) and occasionally back
// (Rewind) when a pre-horizon schedule lands behind it.
TEST_F(EventQueueDiffTest, WideDomainWithDrift) {
  ScheduleRegime regime;
  regime.ops = 200000;
  regime.domain = Seconds(1);
  regime.drift = 1000;
  ExpectSameLogs(0x2002, regime);
}

// Cancel-heavy: most non-schedule ops cancel live or stale ids, leaving
// tombstones the calendar queue must skip without perturbing order.
TEST_F(EventQueueDiffTest, CancelHeavy) {
  ScheduleRegime regime;
  regime.ops = 200000;
  regime.domain = 200;
  regime.schedule_weight = 4;
  ExpectSameLogs(0x3003, regime);
}

// Far-future outliers force bucket-ring wraparound: an epoch many widths
// ahead shares a bucket with near-term epochs and must not fire early.
TEST_F(EventQueueDiffTest, FarFutureOutliers) {
  ScheduleRegime regime;
  regime.ops = 200000;
  regime.domain = 1000;
  regime.far_every = 7;
  regime.far_offset = Seconds(100);
  ExpectSameLogs(0x4004, regime);
}

// Everything at once, two seeds: ties, drift, bursts, outliers, cancels.
TEST_F(EventQueueDiffTest, MixedRegime) {
  ScheduleRegime regime;
  regime.ops = 100000;
  regime.domain = 50;
  regime.drift = 20;
  regime.burst_every = 11;
  regime.burst_size = 5;
  regime.far_every = 13;
  regime.far_offset = Seconds(2);
  ExpectSameLogs(0x5005, regime);
  ExpectSameLogs(0x5006, regime);
}

}  // namespace
}  // namespace deepplan
