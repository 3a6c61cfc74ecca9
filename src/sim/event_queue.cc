#include "src/sim/event_queue.h"

#include <algorithm>

#include "src/check/validator.h"
#include "src/util/logging.h"

namespace deepplan {
namespace {

constexpr std::size_t kMinBuckets = 8;
constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;
// Buckets probed one-by-one before falling back to a direct min-epoch scan
// (sparse queues with large gaps between events).
constexpr std::size_t kLapLimit = 64;

}  // namespace

EventQueue::EventQueue() : buckets_(kMinBuckets), mask_(kMinBuckets - 1) {}

std::int64_t EventQueue::EpochOf(Nanos when) const {
  // Floor division: raw EventQueue users (property tests) may schedule
  // negative or pre-horizon times, and truncation would misorder them.
  std::int64_t q = when / width_;
  if (when % width_ < 0) {
    --q;
  }
  return q;
}

EventQueue::EventId EventQueue::Schedule(Nanos when, Callback cb) {
  const std::uint64_t seq = seq_;
  seq_ += kSeqStride;
  return Insert(when, seq, std::move(cb));
}

EventQueue::EventId EventQueue::ScheduleWithSeq(Nanos when, std::uint64_t seq,
                                                Callback cb) {
  return Insert(when, seq, std::move(cb));
}

EventQueue::EventId EventQueue::Insert(Nanos when, std::uint64_t seq,
                                       Callback cb) {
  ++scheduled_;
  const SlotPool<Callback>::Handle h = slots_.Alloc();
  slots_.Get(h) = std::move(cb);
  const Entry entry{when, seq, h.index, h.generation};

  if (total_entries_ == 0) {
    // Physically empty: re-anchor the calendar at this event instead of
    // walking the ring from wherever the last event left the horizon.
    cur_.clear();
    head_ = 0;
    serve_epoch_ = EpochOf(when);
    extracted_ = false;
  }
  const std::int64_t epoch = EpochOf(when);
  if (epoch < serve_epoch_) {
    Rewind(epoch);
  }
  ++total_entries_;
  if (epoch == serve_epoch_ && extracted_) {
    // The serve bucket was already swept into cur_; park the entry for a
    // lazy sorted merge so it still pops in (when, seq) order.
    pending_.push_back(entry);
  } else {
    buckets_[static_cast<std::size_t>(epoch) & mask_].push_back(entry);
  }
  MaybeResize();
  return (static_cast<EventId>(h.generation) << 32) | h.index;
}

bool EventQueue::Cancel(EventId id) {
  const SlotPool<Callback>::Handle h{static_cast<std::uint32_t>(id & 0xffffffffu),
                                     static_cast<std::uint32_t>(id >> 32)};
  if (!slots_.Alive(h)) {
    return false;
  }
  // Destroy the callback immediately (it may hold owning references); the
  // ring entry stays behind as a stale tombstone pruned lazily.
  slots_.Get(h) = nullptr;
  slots_.Free(h);
  return true;
}

void EventQueue::ExtractServeBucket() {
  std::vector<Entry>& bucket = ServeBucket();
  std::size_t keep = 0;
  for (const Entry& e : bucket) {
    if (!slots_.Alive({e.slot, e.gen})) {
      --total_entries_;  // prune cancelled entries of any epoch in passing
      continue;
    }
    if (EpochOf(e.when) == serve_epoch_) {
      cur_.push_back(e);
    } else {
      bucket[keep++] = e;  // a later lap of the ring; leave in place
    }
  }
  bucket.resize(keep);
  std::sort(cur_.begin(), cur_.end(), EntryLess);
  extracted_ = true;
}

void EventQueue::MergePending() {
  std::sort(pending_.begin(), pending_.end(), EntryLess);
  const std::size_t mid = cur_.size();
  cur_.insert(cur_.end(), pending_.begin(), pending_.end());
  std::inplace_merge(cur_.begin() + static_cast<std::ptrdiff_t>(head_),
                     cur_.begin() + static_cast<std::ptrdiff_t>(mid), cur_.end(), EntryLess);
  pending_.clear();
}

void EventQueue::AdvanceEpoch() {
  const std::size_t limit = std::min(buckets_.size(), kLapLimit);
  std::int64_t epoch = serve_epoch_;
  for (std::size_t probed = 0; probed < limit; ++probed) {
    ++epoch;
    const std::vector<Entry>& bucket = buckets_[static_cast<std::size_t>(epoch) & mask_];
    if (bucket.empty()) {
      continue;
    }
    for (const Entry& e : bucket) {
      if (EpochOf(e.when) == epoch) {
        serve_epoch_ = epoch;
        extracted_ = false;
        return;
      }
    }
  }
  // Sparse tail: jump straight to the earliest occupied epoch.
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  for (const std::vector<Entry>& bucket : buckets_) {
    for (const Entry& e : bucket) {
      best = std::min(best, EpochOf(e.when));
    }
  }
  DP_CHECK(best != std::numeric_limits<std::int64_t>::max());
  serve_epoch_ = best;
  extracted_ = false;
}

bool EventQueue::EnsureFront() {
  for (;;) {
    if (!extracted_) {
      ExtractServeBucket();
    }
    if (!pending_.empty()) {
      MergePending();
    }
    while (head_ < cur_.size()) {
      const Entry& e = cur_[head_];
      if (slots_.Alive({e.slot, e.gen})) {
        return true;
      }
      ++head_;  // cancelled after extraction
      --total_entries_;
    }
    cur_.clear();
    head_ = 0;
    if (slots_.live_count() == 0) {
      return false;
    }
    AdvanceEpoch();
  }
}

void EventQueue::Rewind(std::int64_t epoch) {
  // A schedule landed before the serve horizon: dump the in-flight serve
  // epoch back into its bucket (extraction re-sorts it later) and restart
  // serving from the earlier epoch.
  std::vector<Entry>& bucket = ServeBucket();
  for (std::size_t i = head_; i < cur_.size(); ++i) {
    bucket.push_back(cur_[i]);
  }
  bucket.insert(bucket.end(), pending_.begin(), pending_.end());
  cur_.clear();
  head_ = 0;
  pending_.clear();
  serve_epoch_ = epoch;
  extracted_ = false;
}

void EventQueue::MaybeResize() {
  const std::size_t n = buckets_.size();
  if ((total_entries_ > 2 * n && n < kMaxBuckets) ||
      (total_entries_ * 8 < n && n > kMinBuckets)) {
    Rebuild();
  }
}

void EventQueue::Rebuild() {
  std::vector<Entry> all;
  all.reserve(total_entries_);
  for (std::vector<Entry>& bucket : buckets_) {
    for (const Entry& e : bucket) {
      if (slots_.Alive({e.slot, e.gen})) {
        all.push_back(e);
      }
    }
    bucket.clear();
  }
  for (std::size_t i = head_; i < cur_.size(); ++i) {
    if (slots_.Alive({cur_[i].slot, cur_[i].gen})) {
      all.push_back(cur_[i]);
    }
  }
  for (const Entry& e : pending_) {
    if (slots_.Alive({e.slot, e.gen})) {
      all.push_back(e);
    }
  }
  cur_.clear();
  head_ = 0;
  pending_.clear();
  total_entries_ = all.size();

  std::size_t n = kMinBuckets;
  while (n < all.size() && n < kMaxBuckets) {
    n <<= 1;
  }
  if (buckets_.size() != n) {
    buckets_.assign(n, {});
  }
  mask_ = n - 1;

  // Width targets ~2 entries per epoch across the occupied span, so a lap of
  // the ring covers the whole population.
  if (all.size() >= 2) {
    Nanos lo = all.front().when;
    Nanos hi = lo;
    for (const Entry& e : all) {
      lo = std::min(lo, e.when);
      hi = std::max(hi, e.when);
    }
    const Nanos span = hi - lo;
    width_ = std::max<Nanos>(1, 2 * (span / static_cast<Nanos>(all.size())));
  }

  std::int64_t min_epoch = std::numeric_limits<std::int64_t>::max();
  for (const Entry& e : all) {
    const std::int64_t epoch = EpochOf(e.when);
    min_epoch = std::min(min_epoch, epoch);
    buckets_[static_cast<std::size_t>(epoch) & mask_].push_back(e);
  }
  serve_epoch_ = all.empty() ? 0 : min_epoch;
  extracted_ = false;
}

Nanos EventQueue::NextTime() const {
  EventQueue* self = const_cast<EventQueue*>(this);
  const bool has = self->EnsureFront();
  DP_CHECK(has);
  return cur_[head_].when;
}

std::uint64_t EventQueue::NextSeq() const {
  EventQueue* self = const_cast<EventQueue*>(this);
  const bool has = self->EnsureFront();
  DP_CHECK(has);
  return cur_[head_].seq;
}

std::pair<Nanos, std::uint64_t> EventQueue::NextKey() const {
  EventQueue* self = const_cast<EventQueue*>(this);
  const bool has = self->EnsureFront();
  DP_CHECK(has);
  return {cur_[head_].when, cur_[head_].seq};
}

std::pair<Nanos, EventQueue::Callback> EventQueue::PopNext() {
  const bool has = EnsureFront();
  DP_CHECK(has);
  const Entry e = cur_[head_];
  check::SimValidator::OnQueuePop(last_popped_, e.when);
  last_popped_ = e.when;
  last_popped_seq_ = e.seq;
  last_popped_id_ = (static_cast<EventId>(e.gen) << 32) | e.slot;
  ++head_;
  --total_entries_;
  const SlotPool<Callback>::Handle h{e.slot, e.gen};
  Callback cb = std::move(slots_.Get(h));
  slots_.Get(h) = nullptr;
  slots_.Free(h);
  return {e.when, std::move(cb)};
}

}  // namespace deepplan
