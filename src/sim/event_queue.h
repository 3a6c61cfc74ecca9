// Calendar queue of timestamped callbacks with a deterministic tiebreak
// (insertion sequence), so equal-time events fire in schedule order — the
// same pop order, bit for bit, as the original binary-heap backend (kept as
// tests/reference_event_queue.h and enforced by tests/eventqueue_diff_test.cc).
//
// Design (DESIGN.md §12): time is divided into fixed-width epochs hashed
// into a power-of-two ring of buckets. Pops serve one epoch at a time from a
// sorted working vector; schedules append to a bucket (O(1)). Width and
// bucket count adapt to the live population, so both schedule and pop are
// amortized O(1) instead of the heap's O(log n). Callbacks live in a
// generation-checked SlotPool: slots are recycled when events fire or are
// cancelled, bounding memory by the *maximum outstanding* events rather than
// the total ever scheduled (the old backend's id-indexed vectors grew without
// bound — ~700 MB over a 20-minute fig15 replay).
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "src/util/arena.h"
#include "src/util/time.h"

namespace deepplan {

class EventQueue {
 public:
  using Callback = std::function<void()>;
  using EventId = std::uint64_t;

  EventQueue();

  // Tie-break sequence numbers advance by this stride per Schedule, leaving
  // room between two consecutive schedules for events spliced in by
  // ScheduleWithSeq (cold-start catch-up, DESIGN.md §16).
  static constexpr std::uint64_t kSeqStride = std::uint64_t{1} << 20;

  // Schedules `cb` at absolute time `when`. Returns an id usable with Cancel.
  EventId Schedule(Nanos when, Callback cb);

  // Schedules `cb` at `when` with an explicit tie-break sequence number, so
  // it pops among equal-time events as if it had been scheduled at that
  // position. `seq` must not collide with another pending event's.
  EventId ScheduleWithSeq(Nanos when, std::uint64_t seq, Callback cb);

  // Cancels a pending event. Cancelling an already-fired or unknown id is a
  // no-op and returns false. A cancelled id is never resurrected: the slot it
  // named is recycled under a new generation, so stale ids stay dead.
  bool Cancel(EventId id);

  bool empty() const { return slots_.live_count() == 0; }
  std::size_t size() const { return slots_.live_count(); }

  // Earliest pending event time; must not be called when empty.
  Nanos NextTime() const;

  // Sequence number of the earliest pending event; must not be called when
  // empty.
  std::uint64_t NextSeq() const;
  // NextTime() and NextSeq() in one lookup.
  std::pair<Nanos, std::uint64_t> NextKey() const;

  // Pops and returns the earliest event (time + callback). Must not be empty.
  std::pair<Nanos, Callback> PopNext();
  // Sequence number and id of the event PopNext last returned.
  std::uint64_t last_popped_seq() const { return last_popped_seq_; }
  EventId last_popped_id() const { return last_popped_id_; }
  // Sequence number the next Schedule will assign.
  std::uint64_t next_seq() const { return seq_; }
  // Takes that sequence number without scheduling anything: the tie-break
  // position of an event held outside the queue (Simulator's inline events),
  // which then pops among this queue's events exactly where a Schedule made
  // now would. Not counted in total_scheduled().
  std::uint64_t ReserveSeq() {
    const std::uint64_t seq = seq_;
    seq_ += kSeqStride;
    return seq;
  }
  // Forgets the pop horizon the validator checks pops against, so a reused
  // side queue may start again from an earlier time.
  void ResetPopHorizon() { last_popped_ = std::numeric_limits<Nanos>::min(); }

  // --- introspection (tests + bench_scaling) ---
  // Total events ever scheduled on this queue, plus those counted in by
  // AddScheduled (events a catch-up dispatched from a side queue).
  std::uint64_t total_scheduled() const { return scheduled_; }
  void AddScheduled(std::uint64_t n) { scheduled_ += n; }
  // Callback slots ever created; bounded by max simultaneously-pending
  // events, not total_scheduled() — the arena-reuse invariant scaling_test
  // asserts on.
  std::size_t slot_capacity() const { return slots_.capacity(); }
  std::size_t bucket_count() const { return buckets_.size(); }

 private:
  struct Entry {
    Nanos when;
    std::uint64_t seq;   // global schedule order; FIFO tiebreak at equal when
    std::uint32_t slot;  // SlotPool handle (callback location)
    std::uint32_t gen;   // SlotPool generation; mismatch = cancelled/stale
  };

  static bool EntryLess(const Entry& a, const Entry& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  std::int64_t EpochOf(Nanos when) const;
  EventId Insert(Nanos when, std::uint64_t seq, Callback cb);
  std::vector<Entry>& ServeBucket() {
    return buckets_[static_cast<std::size_t>(serve_epoch_) & mask_];
  }

  // Positions the next live entry at cur_[head_]; false when nothing is live.
  bool EnsureFront();
  void ExtractServeBucket();
  void MergePending();
  void AdvanceEpoch();
  void Rewind(std::int64_t epoch);
  void MaybeResize();
  void Rebuild();

  SlotPool<Callback> slots_;
  std::vector<std::vector<Entry>> buckets_;
  std::size_t mask_ = 0;  // buckets_.size() - 1 (power of two)
  Nanos width_ = 1;       // nanoseconds per epoch

  // Serving state: cur_ holds the serve epoch's entries sorted by
  // (when, seq); head_ is the next unpopped index. Entries scheduled into the
  // serve epoch after extraction land in pending_ and are merged lazily.
  std::vector<Entry> cur_;
  std::size_t head_ = 0;
  std::vector<Entry> pending_;
  std::int64_t serve_epoch_ = 0;
  bool extracted_ = false;

  std::uint64_t seq_ = kSeqStride;  // > 0, so a gap exists before the first
  std::uint64_t scheduled_ = 0;
  std::uint64_t last_popped_seq_ = 0;
  EventId last_popped_id_ = 0;
  // Entries physically resident in buckets_/cur_/pending_, including
  // cancelled ones not yet pruned.
  std::size_t total_entries_ = 0;
  // Latest popped timestamp; the validator asserts pops are monotone.
  Nanos last_popped_ = std::numeric_limits<Nanos>::min();
};

}  // namespace deepplan

#endif  // SRC_SIM_EVENT_QUEUE_H_
